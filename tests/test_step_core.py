"""Property tests: the two-mode step core against the dense reference.

Each step acts as a 2x2 block on its mode pair.  The references, in
``oracle.py``, are the dense ones: every step's block (and every MZI,
multiplied out from its four factors BS P(theta) BS P(phi)) embedded into
the full mode space and multiplied in time order, and path histories
walked over full matrix columns.  The compiled mesh and the
phase verifier are checked against the modal evolution itself, the
batched verifier against Kruskal's loop offering one edge at a time, and
the tomography column, walked from the compiler's MZIs, against the column
read from the compiled program's records, bit for bit.  The compiler's
single phase walk is held by ``repr`` to two full walks.  The
real modal evolution (float blocks, float amplitudes, a float64
``evolution_unitary``) is checked bit for bit against the same evolution
run on complex amplitudes and complex blocks.
"""

import cmath
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfcomm import chip, protocol
from cfcomm.chip import (
    ROLE_BLOCKER,
    ROLE_INNER,
    MeshProgram,
    MziSetting,
    _input_column,
    _lowered_steps,
    _mzi_walk,
    _phase_edges,
    _placed,
    _records,
    _tomography_column,
    compile_program,
    mesh_unitary,
    mzi_block,
    simulate_tomography,
    verify,
)
from cfcomm.histories import counterfactuality_report, enumerate_histories
from cfcomm.modes import (
    NORM_TOL,
    SWAP_BLOCK,
    UnitaryOp,
    apply_blocks,
    check_block,
    compose_unitary,
    rotation_block,
)
from cfcomm.protocol import (
    BLOCK,
    BOB_INTERACTION,
    INNER_ROTATION,
    MAX_CYCLES,
    PASS,
    ProtocolConfig,
    build_steps,
    evolution_unitary,
    run,
    splitter,
    sweep,
)
from oracle import (
    complex_evolution,
    complex_run,
    complex_sweep,
    cycle_bound_message,
    dense_histories,
    embedded_product,
    loop_phase_edges,
    loop_verify,
    mzi_product,
    two_walk_placed,
    unrouted,
)

TOL = 1e-12

actions = st.one_of(
    st.sampled_from([BLOCK, PASS, splitter(0.0), splitter(math.pi / 2)]),
    st.floats(0.0, math.pi / 2).map(splitter),
)
deltas = st.one_of(st.just(0.0), st.floats(0.0, math.pi / 2, exclude_max=True))


def configs(max_k):
    return st.builds(ProtocolConfig, st.integers(1, max_k), deltas, actions, st.booleans())


core_settings = settings(max_examples=150, deadline=None, derandomize=True)


@core_settings
@given(configs(24))
@example(ProtocolConfig(1, 0.0, BLOCK))
@example(ProtocolConfig(24, 0.0, splitter(math.pi / 2), True))
@example(ProtocolConfig(24, 0.0, splitter(0.0), True))
def test_run_matches_dense_product(config):
    state, _ = run(config)
    reference = embedded_product(config.step_ops(), config.mode_basis().size)[:, 0]
    np.testing.assert_allclose(state.amplitudes, reference, rtol=0, atol=TOL)


@core_settings
@given(configs(24))
@example(ProtocolConfig(24, 0.0, BLOCK, True))
def test_evolution_unitary_matches_dense_product(config):
    dense = embedded_product(config.step_ops(), config.mode_basis().size)
    np.testing.assert_allclose(evolution_unitary(config).matrix, dense, rtol=0, atol=TOL)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(configs(24))
@example(ProtocolConfig(24, 0.0, BLOCK, True))
@example(ProtocolConfig(3, 0.0, splitter(0.0), True))
def test_mesh_unitary_matches_embedded_product(config):
    program = compile_program(config)
    mzis = [((s.pair, s.pair + 1), mzi_product(s.theta, s.phi)) for s in program.settings]
    dense = embedded_product(mzis, program.mode_count)
    np.testing.assert_allclose(mesh_unitary(program).matrix, dense, rtol=0, atol=TOL)


phases = st.floats(0.0, 2 * math.pi, exclude_max=True)


@core_settings
@given(phases, phases)
@example(0.0, 0.0)
@example(math.pi, math.pi)
@example(1.5 * math.pi, math.pi)
@example(0.83, 2.1)
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
    column = _input_column(_records(program), program.mode_count)
    np.testing.assert_allclose(column, mesh_unitary(program).matrix[:, 0], rtol=0, atol=TOL)


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


tiny_betas = st.floats(math.log(1e-12), math.log(1e-6)).map(math.exp)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.builds(ProtocolConfig, st.integers(1, 10), deltas, st.one_of(actions, tiny_betas.map(splitter)), st.booleans()))
@example(ProtocolConfig(1, 0.0, PASS))
@example(ProtocolConfig(2, 0.1, PASS))
@example(ProtocolConfig(10, 0.0, splitter(math.pi / 2), True))
@example(ProtocolConfig(10, 0.3, splitter(0.37), True))
@example(ProtocolConfig(9, 0.0, splitter(3e-9), False))
@example(ProtocolConfig(8, 0.0, splitter(0.0), True))
@example(ProtocolConfig(1, 0.3, BLOCK))
@example(ProtocolConfig(6, 1e-17, splitter(0.7), True))
def test_report_matches_enumeration(config):
    found = enumerate_histories(config)
    state, _ = run(config)
    for label in config.mode_basis().labels:
        ending = [h for h in found if h.path[-1] == label]
        visiting = [h for h in ending if "C" in h.path]
        total = complex(sum(h.amplitude for h in ending))
        report = counterfactuality_report(config, label)
        assert report.total_amplitude == state.amplitude(label)  # the same kernel, bit for bit
        assert abs(report.total_amplitude - total) <= TOL
        assert abs(report.c_visiting_amplitude - complex(sum(h.amplitude for h in visiting))) <= TOL
        assert report.c_visiting_paths == len(visiting)
        assert report.verdict is (not visiting)
        assert report.vacuous is (abs(total) <= NORM_TOL)
        if report.c_visiting_paths == 0:
            assert report.c_visiting_amplitude == 0


def test_step_op_is_the_embedded_block():
    config = ProtocolConfig(3, 0.2, splitter(0.4), True)
    for step in build_steps(config):
        expected = embedded_product([(step.pair, step.block)], config.mode_basis().size)
        np.testing.assert_array_equal(step.op.matrix, expected)
        assert step.op is step.op  # built once, on first read


@pytest.mark.parametrize("k", [1, 2, 7])
@pytest.mark.parametrize("bob", [BLOCK, PASS, splitter(0.4)], ids=["block", "pass", "split"])
def test_inner_rotations_are_one_step(k, bob):
    steps = build_steps(ProtocolConfig(k, 0.2, bob, True))
    inner = [step for step in steps if step.kind == INNER_ROTATION]
    assert len(inner) == k
    assert all(step is inner[0] for step in inner)
    assert inner[0].op is inner[0].op
    assert steps[0] is not inner[0]


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
                tuple((MziSetting(s.pair, s.theta, s.phi, s.role),) for s in walk),
            )
            np.testing.assert_array_equal(mesh_unitary(program).matrix, mesh_unitary(serial).matrix)
            np.testing.assert_array_equal(
                _input_column(_records(program), program.mode_count),
                _input_column(_records(serial), serial.mode_count),
            )
            # As soon as possible: every MZI past column 0 shares a mode with
            # one in the column before.
            for before, column in zip(program.columns, program.columns[1:]):
                touched = {m for s in before for m in (s.pair, s.pair + 1)}
                assert all(s.pair in touched or s.pair + 1 in touched for s in column)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.builds(ProtocolConfig, st.integers(1, 40), deltas, st.one_of(actions, st.just(splitter(1e-9))), st.booleans()))
@example(ProtocolConfig(1, 0.0, PASS))
@example(ProtocolConfig(40, 0.0, BLOCK, True))
@example(ProtocolConfig(40, 0.0, splitter(1e-9), False))
@example(ProtocolConfig(40, 0.3, splitter(math.pi / 2), True))
def test_walk_column_is_the_record_column(config):
    # Tomography's column comes from the walk-order MZIs of _placed; packing
    # only reorders MZIs on disjoint pairs.
    program = compile_program(config)
    records = [0j] * program.mode_count
    records[0] = 1 + 0j
    apply_blocks(_mzi_walk(_records(program)), records)
    assert np.array_equal(_tomography_column(config), np.array(records))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.builds(ProtocolConfig, st.integers(1, 64), deltas, st.one_of(actions, st.just(splitter(1e-9))), st.booleans()))
@example(ProtocolConfig(1, 0.0, BLOCK))
@example(ProtocolConfig(512, 0.3, splitter(0.7), True))
@example(ProtocolConfig(4096, 1.2, BLOCK, True))
def test_one_phase_walk_is_the_two_walk_reference(config):
    # Input B's phase d[1] reaches only the outer rotation and the first
    # inner rotation, so only those two are walked again.
    assert repr(_placed(config)) == repr(two_walk_placed(config))


@pytest.mark.parametrize("shots", [0, 100_000])
@pytest.mark.parametrize("bob", [BLOCK, splitter(0.7)], ids=["block", "split-0.7"])
@pytest.mark.parametrize("k", [512, 4096])
def test_tomography_equals_the_record_path(k, bob, shots, monkeypatch):
    config = ProtocolConfig(k, 0.0, bob, True)
    got = simulate_tomography(config, shots, seed=7)
    # The record path: the column read from the compiled program's records.
    program = compile_program(config)
    monkeypatch.setattr(chip, "_tomography_column", lambda _: _input_column(_records(program), program.mode_count))
    want = simulate_tomography(config, shots, seed=7)
    assert got.counts == want.counts
    assert got.reconstructed_rho.tobytes() == want.reconstructed_rho.tobytes()
    assert got.postselected_fraction == want.postselected_fraction


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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(configs(40))
@example(ProtocolConfig(16, 0.0, splitter(0.0)))
@example(ProtocolConfig(16, 0.0, splitter(0.0), True))
@example(ProtocolConfig(16, 0.0, splitter(1e-9), True))
def test_phase_edges_match_loop(config):
    v = mesh_unitary(compile_program(config)).matrix
    w = evolution_unitary(config).matrix
    rows, cols, strong = _phase_edges(v, w)
    edges = list(zip(rows.tolist(), cols.tolist()))
    assert (edges[:strong], edges[strong:]) == loop_phase_edges(v, w)


# beta = 1e-9 leaves loss-mode rows below the edge floor: the weak pass runs.
tiny_or_any_actions = st.one_of(actions, st.just(splitter(1e-9)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.builds(ProtocolConfig, st.integers(1, 40), deltas, tiny_or_any_actions, st.booleans()))
@example(ProtocolConfig(40, 0.0, splitter(1e-9), True))
@example(ProtocolConfig(40, 0.3, splitter(1e-9), False))
@example(ProtocolConfig(512, 0.0, BLOCK, True))
@example(ProtocolConfig(512, 0.0, splitter(0.7), True))
# The weak pass at the dense cap: about 132,865 entries below the edge floor.
@example(ProtocolConfig(512, 0.0, splitter(1e-9), True))
def test_verify_matches_one_edge_at_a_time_kruskal(config):
    # Batching drops only edges whose ends already share a component, so the
    # forest, and with it every phase and the residual, is the same to the bit.
    u_mesh = mesh_unitary(compile_program(config))
    report = verify(u_mesh, config)
    assert (report.equivalent, report.residual, report.output_phases, report.input_phases) == loop_verify(
        u_mesh, config
    )


def offered(monkeypatch):
    """The number of components of ``verify``'s forest at each edge it
    offers, filled in as ``chip._kruskal`` offers them."""
    trees = []
    kruskal = chip._kruskal

    def counted(label, members, ends, others, join):
        def offer(a, b):
            trees.append(len(set(label)))
            join(a, b)

        kruskal(label, members, ends, others, offer)

    monkeypatch.setattr(chip, "_kruskal", counted)
    return trees


def test_verify_offers_few_edges_at_k512(monkeypatch):
    # The forest has 2M nodes; at K=512 (block, final block) it is one tree
    # within the first batch of 2M strong edges: 1,030 offers, where offering
    # every strong entry made 132,355.
    config = ProtocolConfig(512, 0.0, BLOCK, True)
    u_mesh = mesh_unitary(compile_program(config))
    trees = offered(monkeypatch)
    assert verify(u_mesh, config).equivalent
    assert len(trees) <= 2 * config.mode_basis().size


def test_verify_offers_no_edge_to_one_tree(monkeypatch):
    # The forest is one tree 129 edges into the first weak batch of 134.
    config = ProtocolConfig(64, 0.0, splitter(1e-9), True)
    u_mesh = mesh_unitary(compile_program(config))
    trees = offered(monkeypatch)
    assert verify(u_mesh, config).equivalent
    assert trees and min(trees) > 1


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


def routed_swap(a, b):
    """An exact swap with generic phases: ((0, e^{ia}), (e^{ib}, 0))."""
    return check_block(((0j, cmath.exp(1j * a)), (cmath.exp(1j * b), 0j)))


angles = st.one_of(
    st.sampled_from([0.0, math.pi / 2, -math.pi / 2, math.pi]),  # zero diagonals only at +pi/2
    st.floats(-2 * math.pi, 2 * math.pi),
)
blocks = st.one_of(
    st.just(SWAP_BLOCK),
    st.builds(routed_swap, phases, phases),
    angles.map(rotation_block),
    st.builds(mzi_block, st.one_of(st.just(0.0), phases), phases),  # theta 0: a router
)


@st.composite
def block_sequences(draw):
    # Few slots, so pairs repeat, reverse ((j, i) with j > i) and skip slots.
    size = draw(st.integers(2, 7))
    slot = st.integers(0, size - 1)
    pair = st.tuples(slot, slot).filter(lambda p: p[0] != p[1])
    return size, draw(st.lists(st.tuples(pair, blocks), max_size=40))


ROT = rotation_block(0.4)
MZI = mzi_block(1.1, 2.3)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(block_sequences())
@example((2, []))
@example((3, [((2, 0), routed_swap(0.3, 1.9)), ((0, 2), MZI), ((1, 0), ROT), ((2, 0), SWAP_BLOCK)]))
@example((4, [((3, 1), routed_swap(2.0, -1.0)), ((1, 3), routed_swap(0.5, 0.7)), ((0, 3), ROT), ((3, 2), MZI)]))
@example((5, [((0, 4), SWAP_BLOCK), ((4, 1), mzi_block(0.0, 0.9)), ((1, 0), MZI), ((2, 4), mzi_block(0.0, 0.0))]))
# Float rows, then a complex phase pending on an untouched row: the rows must turn complex.
@example((3, [((0, 2), rotation_block(0.0)), ((0, 1), routed_swap(1.0, 0.0)), ((1, 0), rotation_block(0.0))]))
@example((3, [((0, 2), rotation_block(0.0)), ((0, 1), routed_swap(1.0, 0.0)), ((0, 1), rotation_block(0.0))]))
# A routed-in untouched row as slot i, then as slot j, of a mixing block: real, then complex.
@example((4, [((1, 2), ROT), ((0, 3), SWAP_BLOCK), ((0, 1), ROT)]))
@example((4, [((1, 2), MZI), ((0, 3), routed_swap(0.3, 1.9)), ((0, 1), MZI)]))
@example((4, [((1, 2), ROT), ((3, 0), SWAP_BLOCK), ((2, 3), ROT)]))
@example((4, [((1, 2), MZI), ((3, 0), routed_swap(2.0, -1.0)), ((2, 3), MZI)]))
def test_compose_unitary_matches_embedded_product(sequence):
    size, ops = sequence
    got = compose_unitary(ops, size).matrix
    np.testing.assert_allclose(got, embedded_product(ops, size), rtol=0, atol=TOL)
    if not any(u00 == 0 and u11 == 0 for _, ((u00, _), (_, u11)) in ops):
        # Nothing routed: the matrix apply_blocks builds, entry for entry.
        np.testing.assert_array_equal(got, unrouted(ops, size))


ALL_ACTIONS = [BLOCK, PASS, splitter(0.7), splitter(math.pi / 2), splitter(0.0), splitter(1e-12)]
ACTION_IDS = ["block", "pass", "split-0.7", "split-pi/2", "split-0", "split-1e-12"]
GRID_K = [1, 2, 3, 17, 64, 511, 512]


@pytest.mark.parametrize("final_block", [False, True])
@pytest.mark.parametrize("bob", ALL_ACTIONS, ids=ACTION_IDS)
def test_evolution_unitary_is_the_unrouted_product_bit_for_bit(bob, final_block):
    for k, delta in itertools.product(GRID_K, (0.3, 0.0)):
        config = ProtocolConfig(k, delta, bob, final_block)
        reference = unrouted(config.step_ops(), config.mode_basis().size)
        np.testing.assert_array_equal(evolution_unitary(config).matrix, reference)


@pytest.mark.parametrize("final_block", [False, True])
@pytest.mark.parametrize("bob", ALL_ACTIONS, ids=ACTION_IDS)
def test_mesh_unitary_matches_the_unrouted_product(bob, final_block):
    for k, delta in itertools.product(GRID_K, (0.3, 0.0)):
        program = compile_program(ProtocolConfig(k, delta, bob, final_block))
        reference = unrouted(_mzi_walk(_records(program)), program.mode_count)
        np.testing.assert_allclose(mesh_unitary(program).matrix, reference, rtol=0, atol=TOL)


@pytest.mark.parametrize("final_block", [False, True])
@pytest.mark.parametrize("bob", [BLOCK, splitter(0.7)], ids=["block", "split-0.7"])
def test_dense_unitaries_peak_at_three_and_a_half_matrices(bob, final_block):
    # The row list is freed before the Gram check; kept alive it lifts the
    # peak to about 4.
    config = ProtocolConfig(192, 0.3, bob, final_block)
    program = compile_program(config)
    for build in (lambda: evolution_unitary(config), lambda: mesh_unitary(program)):
        tracemalloc.start()
        try:
            matrix = build().matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * matrix.nbytes, (matrix.dtype, peak / matrix.nbytes)


@core_settings
@given(st.builds(ProtocolConfig, st.integers(1, 24), deltas, tiny_or_any_actions, st.booleans()))
@example(ProtocolConfig(24, 0.0, BLOCK, True))
@example(ProtocolConfig(24, 0.3, splitter(1e-9), True))
@example(ProtocolConfig(1, 0.0, PASS, False))
def test_evolution_unitary_is_real_and_equals_the_complex_composition(config):
    got = evolution_unitary(config).matrix
    want = complex_evolution(config).matrix
    assert got.dtype == np.float64
    assert want.dtype == np.complex128
    assert np.array_equal(got, want)
    assert not want.imag.any()


@core_settings
@given(st.integers(1, 24), st.lists(deltas, min_size=1, max_size=4), tiny_or_any_actions, st.booleans())
@example(24, [0.0, 0.3], BLOCK, True)
@example(24, [0.0], splitter(1e-9), True)
@example(1, [0.7], PASS, False)
def test_run_and_sweep_equal_a_complex_amplitude_oracle_bit_for_bit(k, delta_values, bob, final_block):
    for delta in delta_values:
        config = ProtocolConfig(k, delta, bob, final_block)
        state, dist = run(config)
        want_state, want_dist = complex_run(config)
        assert state.amplitudes.tobytes() == want_state.amplitudes.tobytes()
        assert dist == want_dist
    k_values = [k, k + 1]
    assert sweep(k_values, delta_values, bob, final_block) == complex_sweep(k_values, delta_values, bob, final_block)


def assert_point_row_is_the_sweep_row_and_runs(config):
    # repr compares every float bit for bit, the sign of a zero included.
    row = protocol._point(config)[1]
    [(_, _, sweep_row)] = protocol._sweep_rows([config.k], [config.delta], config.bob, config.include_final_block)
    assert repr(row) == repr(sweep_row)
    dist = run(config)[1]
    assert repr(row) == repr([dist.p_D0, dist.p_D1, dist.p_D3, *dist.p_loss])
    assert math.fsum(row[3:]) == dist.p_loss_total


@core_settings
@given(configs(64))
@example(ProtocolConfig(1, 0.0, BLOCK))
@example(ProtocolConfig(64, 1.5707963267948963, splitter(0.7), True))
def test_point_row_is_the_sweep_row_and_runs(config):
    assert_point_row_is_the_sweep_row_and_runs(config)


@pytest.mark.parametrize("final_block", [False, True])
@pytest.mark.parametrize("bob", ALL_ACTIONS, ids=ACTION_IDS)
def test_point_row_at_large_k_and_tiny_delta(bob, final_block):
    for k, delta in itertools.product((512, MAX_CYCLES), (1e-17, 5e-16)):
        assert_point_row_is_the_sweep_row_and_runs(ProtocolConfig(k, delta, bob, final_block))
    with pytest.raises(ValueError) as err:
        protocol._point(ProtocolConfig(MAX_CYCLES + 1, 0.0, bob, final_block))
    assert str(err.value) == cycle_bound_message(MAX_CYCLES + 1)


def test_unitary_op_keeps_float64_and_checks_the_real_gram_product():
    accepted = UnitaryOp(np.array(rotation_block(0.3)))
    assert accepted.matrix.dtype == np.float64
    assert UnitaryOp(np.eye(4) * (1 + 4e-13)).matrix.dtype == np.float64
    # (1 + 1e-12)^2 - 1 is a 2e-12 defect on the diagonal of U^T U.
    with pytest.raises(ValueError, match=r"max \|U\^T U - I\| = 2\.0"):
        UnitaryOp(np.eye(4) * (1 + 1e-12))
    with pytest.raises(ValueError, match=r"max \|U\^T U - I\|"):
        UnitaryOp(np.array([[1.0, 2e-12], [0.0, 1.0]]))


@pytest.mark.parametrize("bob", [BLOCK, splitter(0.7)], ids=["block", "split-0.7"])
def test_k512_verify_report_equals_the_complex_target_report(bob, monkeypatch):
    config = ProtocolConfig(512, 0.0, bob, True)
    u_mesh = mesh_unitary(compile_program(config))
    report = verify(u_mesh, config)
    monkeypatch.setattr(protocol, "evolution_unitary", complex_evolution)
    assert report == verify(u_mesh, config)
    assert report.equivalent, report.detail
