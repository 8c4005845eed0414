"""Property tests: the two-mode step core against the dense reference.

Each step acts as a 2x2 block on its mode pair.  The reference these tests
keep is the dense one: every step's embedded matrix ``step.op.matrix`` (and
every MZI, multiplied out from its four factors BS P(theta) BS P(phi) and
embedded into the full mode space) multiplied in time order, and path
histories walked over full matrix columns.  The compiled mesh and the
phase verifier are checked against the modal evolution itself.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfcomm.chip import (
    ROLE_BLOCKER,
    ROLE_INNER,
    MeshProgram,
    MziSetting,
    _input_column,
    _lowered_steps,
    _phase_edges,
    compile_program,
    mesh_unitary,
    mzi_block,
    verify,
)
from cfcomm.histories import enumerate_histories
from cfcomm.modes import UnitaryOp
from cfcomm.protocol import (
    BLOCK,
    BOB_INTERACTION,
    PASS,
    ProtocolConfig,
    build_steps,
    evolution_unitary,
    run,
    splitter,
)

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


BS = np.array([[1, 1j], [1j, 1]], dtype=complex) / math.sqrt(2)


def mzi_product(theta, phi):
    return BS @ np.diag([np.exp(1j * theta), 1]) @ BS @ np.diag([np.exp(1j * phi), 1])


def dense_mesh(program):
    mat = np.eye(program.mode_count, dtype=complex)
    for setting in program.settings:
        embedded = np.eye(program.mode_count, dtype=complex)
        i = setting.pair
        embedded[i : i + 2, i : i + 2] = mzi_product(setting.theta, setting.phi)
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


phases = st.floats(0.0, 2 * math.pi, exclude_max=True)


@core_settings
@given(phases, phases)
@example(0.0, 0.0)
@example(math.pi, math.pi)
@example(1.5 * math.pi, math.pi)
def test_mzi_block_matches_factor_product(theta, phi):
    np.testing.assert_allclose(np.array(mzi_block(theta, phi)), mzi_product(theta, phi), rtol=0, atol=1e-15)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(configs(24), st.booleans())
@example(ProtocolConfig(24, 0.0, BLOCK, True), True)
@example(ProtocolConfig(1, 0.0, PASS), False)
def test_input_column_is_mesh_column_zero(config, round_trip):
    program = compile_program(config)
    if round_trip:
        program = MeshProgram.from_json_dict(program.to_json_dict())
    np.testing.assert_allclose(_input_column(program), mesh_unitary(program).matrix[:, 0], rtol=0, atol=TOL)


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


@settings(max_examples=120, deadline=None, derandomize=True)
@given(configs(40))
@example(ProtocolConfig(1, 0.0, PASS))
@example(ProtocolConfig(1, 0.0, BLOCK, True))
@example(ProtocolConfig(40, 0.0, BLOCK, True))
@example(ProtocolConfig(40, 0.0, splitter(0.0), False))
@example(ProtocolConfig(40, 0.0, splitter(math.pi / 2), True))
def test_compiled_mesh_lowers_every_step(config):
    program = compile_program(config)
    report = verify(mesh_unitary(program), config, tol=1e-9)
    assert report.equivalent, report.detail
    bob_steps = sum(step.kind == BOB_INTERACTION for step in build_steps(config))
    # One blocker per Bob step, two routers moving B and C on after each but
    # the last, and 2(B-1) routers walking them home.
    expected = 1 + config.k + (5 * bob_steps - 4 if bob_steps else 0)
    assert len(program.settings) == expected
    assert sum(s.role == ROLE_BLOCKER for s in program.settings) == bob_steps
    inner = None
    for setting in program.settings:
        if setting.role == ROLE_INNER:
            inner = setting
        elif setting.role == ROLE_BLOCKER:
            assert setting.pair == inner.pair + 1


@pytest.mark.parametrize("k", range(1, 41))
def test_packed_columns_match_walk_order(k):
    for bob in (BLOCK, PASS, splitter(0.37)):
        for final_block in (False, True):
            config = ProtocolConfig(k, 0.3, bob, final_block)
            program = compile_program(config)
            # MZIs on one pair share both modes, so packing keeps their order:
            # the walk-order settings are read back pair by pair.
            queues = {}
            for setting in program.settings:
                queues.setdefault(setting.pair, []).append(setting)
            walk = []
            for pair, _, role in _lowered_steps(config):
                setting = queues[pair].pop(0)
                assert setting.role == role
                walk.append(setting)
            assert not any(queues.values())
            serial = MeshProgram(
                program.mode_count,
                tuple((MziSetting(s.pair, i, s.theta, s.phi, s.role),) for i, s in enumerate(walk)),
            )
            np.testing.assert_array_equal(mesh_unitary(program).matrix, mesh_unitary(serial).matrix)
            np.testing.assert_array_equal(_input_column(program), _input_column(serial))
            # As soon as possible: every MZI past column 0 shares a mode with
            # one in the column before.
            for before, column in zip(program.columns, program.columns[1:]):
                touched = {m for s in before for m in (s.pair, s.pair + 1)}
                assert all(s.pair in touched or s.pair + 1 in touched for s in column)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(1, 30), st.floats(math.log(1e-12), math.log(1e-6)).map(math.exp), st.booleans(), deltas)
@example(2, 3e-9, True, 0.0)
@example(3, 1e-8, False, 0.0)
@example(20, 1e-9, True, 0.0)
def test_verify_accepts_tiny_splitter_angles(k, beta, final_block, delta):
    # Below beta ~ 3e-8 the entries that link some rows and columns to the
    # rest fall under the verifier's 1e-8 edge floor.
    config = ProtocolConfig(k, delta, splitter(beta), final_block)
    report = verify(mesh_unitary(compile_program(config)), config, tol=1e-9)
    assert report.equivalent, report.detail


def loop_phase_edges(v, w):
    """The verifier's edge lists built entry by entry with Python ``abs``."""
    edges = []
    for i in range(v.shape[0]):
        for j in range(v.shape[1]):
            mag = min(abs(v[i, j]), abs(w[i, j]))
            if mag > 0:
                edges.append((mag, i, j))
    edges.sort(key=lambda e: (-e[0], e[1], e[2]))
    return [(i, j) for m, i, j in edges if m > 1e-8], [(i, j) for m, i, j in edges if m <= 1e-8]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(configs(40))
@example(ProtocolConfig(16, 0.0, splitter(0.0)))
@example(ProtocolConfig(16, 0.0, splitter(0.0), True))
def test_phase_edges_match_loop(config):
    v = mesh_unitary(compile_program(config)).matrix
    w = evolution_unitary(config).matrix
    assert _phase_edges(v, w) == loop_phase_edges(v, w)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(configs(40), st.integers(0, 2**32 - 1))
@example(ProtocolConfig(40, 0.0, BLOCK, True), 0)
@example(ProtocolConfig(1, 0.0, PASS), 1)
def test_verify_recovers_diagonal_phases(config, seed):
    rng = np.random.default_rng(seed)
    size = config.mode_basis().size
    p = np.exp(1j * rng.uniform(0.0, 2 * math.pi, size))
    p[1] = p[0]  # equal output phases on A and B
    q = np.exp(1j * rng.uniform(0.0, 2 * math.pi, size))
    u = p[:, None] * evolution_unitary(config).matrix * q[None, :]
    report = verify(UnitaryOp(u), config)
    assert report.equivalent, report.detail
    assert report.residual <= 1e-12
