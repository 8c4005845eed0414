"""Property tests: the two-mode step core against the dense reference.

Each step acts as a 2x2 block on its mode pair.  The reference these tests
keep is the dense one: every step's embedded matrix ``step.op.matrix`` (and
every MZI block embedded into the full mode space) multiplied in time order,
and path histories walked over full matrix columns.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfcomm.chip import compile_program, mesh_unitary, mzi_transfer
from cfcomm.histories import enumerate_histories
from cfcomm.protocol import BLOCK, PASS, ProtocolConfig, build_steps, evolution_unitary, run, splitter

TOL = 1e-12

actions = st.one_of(
    st.sampled_from([BLOCK, PASS, splitter(0.0), splitter(math.pi / 2)]),
    st.floats(0.0, math.pi / 2).map(splitter),
)
deltas = st.one_of(st.just(0.0), st.floats(0.0, math.pi / 2, exclude_max=True))


def configs(max_k):
    return st.builds(ProtocolConfig, st.integers(1, max_k), deltas, actions, st.booleans())


def dense_evolution(config):
    mat = np.eye(config.mode_basis().size, dtype=complex)
    for step in build_steps(config):
        mat = step.op.matrix @ mat
    return mat


def dense_mesh(program):
    mat = np.eye(program.mode_count, dtype=complex)
    for setting in program.settings:
        embedded = np.eye(program.mode_count, dtype=complex)
        i = setting.pair
        embedded[i : i + 2, i : i + 2] = mzi_transfer(setting.theta, setting.phi).matrix
        mat = embedded @ mat
    return mat


def dense_histories(config):
    labels = config.mode_basis().labels
    matrices = [step.op.matrix for step in build_steps(config)]
    out = []

    def walk(depth, mode, amplitude, path):
        if depth == len(matrices):
            out.append((tuple(labels[m] for m in path), amplitude))
            return
        for nxt, entry in enumerate(matrices[depth][:, mode]):
            if entry != 0:
                walk(depth + 1, nxt, amplitude * entry, path + (nxt,))

    walk(0, 0, 1.0 + 0.0j, (0,))
    return out


core_settings = settings(max_examples=150, deadline=None, derandomize=True)


@core_settings
@given(configs(24))
@example(ProtocolConfig(1, 0.0, BLOCK))
@example(ProtocolConfig(24, 0.0, splitter(math.pi / 2), True))
@example(ProtocolConfig(24, 0.0, splitter(0.0), True))
def test_run_matches_dense_product(config):
    state, _ = run(config)
    reference = dense_evolution(config)[:, 0]
    np.testing.assert_allclose(state.amplitudes, reference, rtol=0, atol=TOL)


@core_settings
@given(configs(24))
@example(ProtocolConfig(24, 0.0, BLOCK, True))
def test_evolution_unitary_matches_dense_product(config):
    np.testing.assert_allclose(evolution_unitary(config).matrix, dense_evolution(config), rtol=0, atol=TOL)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(configs(24))
@example(ProtocolConfig(24, 0.0, BLOCK, True))
@example(ProtocolConfig(3, 0.0, splitter(0.0), True))
def test_mesh_unitary_matches_embedded_product(config):
    program = compile_program(config)
    np.testing.assert_allclose(mesh_unitary(program).matrix, dense_mesh(program), rtol=0, atol=TOL)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(configs(10))
@example(ProtocolConfig(1, 0.0, PASS))
@example(ProtocolConfig(10, 0.0, splitter(math.pi / 2), True))
@example(ProtocolConfig(8, 0.0, splitter(0.0), True))
def test_histories_match_dense_walk(config):
    got = [(h.path, h.amplitude) for h in enumerate_histories(config)]
    want = dense_histories(config)
    assert [path for path, _ in got] == [path for path, _ in want]
    np.testing.assert_allclose([a for _, a in got], [a for _, a in want], rtol=0, atol=TOL)


def test_step_op_is_the_embedded_block():
    config = ProtocolConfig(3, 0.2, splitter(0.4), True)
    for step in build_steps(config):
        i, j = step.pair
        expected = np.eye(config.mode_basis().size, dtype=complex)
        expected[np.ix_([i, j], [i, j])] = step.block
        np.testing.assert_array_equal(step.op.matrix, expected)
        assert step.op is step.op  # built once, on first read
