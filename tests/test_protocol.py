import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfcomm import protocol
from cfcomm.chip import compile_program, mesh_unitary, simulate_tomography, verify
from cfcomm.histories import counterfactuality_report, enumerate_histories
from cfcomm.protocol import (
    BLOCK,
    MAX_CYCLES,
    PASS,
    BobAction,
    OutcomeDistribution,
    PostselectionError,
    ProtocolConfig,
    alice_reduced_state,
    Step,
    build_steps,
    closed_form,
    evolution_unitary,
    run,
    splitter,
    sweep,
)
from cfcomm.modes import MAX_DENSE_CYCLES, SWAP_BLOCK, ModeBasis, PureState, rotation_block
from oracle import cycle_bound_message

# Frozen oracle values (evaluated from the defining trig expressions).
SIN_SQ_01 = 0.009966711079379185   # sin(0.1)^2
COS_SQ_01 = 0.9900332889206209     # cos(0.1)^2
SIN_SQ_005 = 0.002497917360987117  # sin(0.05)^2
COS8_PI_8 = 0.5307900429449552     # cos(pi/8)^8 = (17 + 12 sqrt 2)/64

FIELD_NAMES = ["k", "delta", "bob", "include_final_block"]


class TestDenseCap:
    def test_evolution_unitary_at_the_cap(self):
        size = MAX_DENSE_CYCLES + 3
        assert evolution_unitary(ProtocolConfig(MAX_DENSE_CYCLES, 0.0, BLOCK)).matrix.shape == (size, size)

    def test_evolution_unitary_above_the_cap(self):
        with pytest.raises(ValueError, match=f"K <= {MAX_DENSE_CYCLES}"):
            evolution_unitary(ProtocolConfig(100000, 0.0, BLOCK))

    def test_step_op_above_the_cap(self):
        step = Step("bob_interaction", (2, 3), SWAP_BLOCK, 100003)
        with pytest.raises(ValueError, match=f"K <= {MAX_DENSE_CYCLES}"):
            step.op


@pytest.fixture
def builds(monkeypatch):
    """The K of every config whose step ops are built, in build order."""
    calls = []
    build = protocol._build_ops

    def counting(config):
        calls.append(config.k)
        return build(config)

    monkeypatch.setattr(protocol, "_build_ops", counting)
    return calls


def cached_ops(config):
    """What the config keeps besides its fields and its ``ModeBasis``."""
    return [
        value for name, value in vars(config).items() if name not in FIELD_NAMES and not isinstance(value, ModeBasis)
    ]


def floats_only(value):
    """Whether ``value`` is nested tuples of plain ints and floats; checking the
    type of every object, nothing else (an array, a ``Step``) can hide in it."""
    if type(value) is tuple:
        return all(floats_only(item) for item in value)
    return type(value) in (int, float)


class TestCycleBound:
    @pytest.mark.parametrize("bob", [BLOCK, PASS])
    @pytest.mark.parametrize("delta", [0.0, 0.3])
    @pytest.mark.parametrize("k", [4072, MAX_CYCLES])
    def test_closed_form_at_the_bound(self, k, delta, bob):
        # K = 4072 is where K |c^2 + s^2 - 1| peaks for K <= 4096.
        config = ProtocolConfig(k, delta, bob)
        np.testing.assert_allclose(run(config)[1].as_array(), closed_form(config).as_array(), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("beta", [0.4, math.pi / 2])
    @pytest.mark.parametrize("k", [4072, MAX_CYCLES])
    def test_splitter_normalized_at_the_bound(self, k, beta):
        state, _ = run(ProtocolConfig(k, 0.3, splitter(beta), True))
        assert abs(math.fsum(abs(a) ** 2 for a in state.amplitudes) - 1.0) <= 1e-12

    def test_build_steps_and_run_above_the_bound(self):
        config = ProtocolConfig(MAX_CYCLES + 1, 0.0, BLOCK)
        for call in (build_steps, run):
            with pytest.raises(ValueError) as err:
                call(config)
            assert str(err.value) == cycle_bound_message(MAX_CYCLES + 1)
        assert not cached_ops(config)

    def test_sweep_checks_the_largest_k_first(self, builds):
        with pytest.raises(ValueError) as err:
            sweep([1, 2, MAX_CYCLES + 1], [0.0], BLOCK)
        assert str(err.value) == cycle_bound_message(MAX_CYCLES + 1)
        assert builds == []

    def test_sweep_checks_the_bound_before_building_configs(self):
        # The bound comes before any config is built: one config per K for
        # these 99,999 values would peak at about 14 MB.
        k_values = list(range(1, 100_000))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as err:
                sweep(k_values, [0.0], BLOCK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == cycle_bound_message(99_999)
        assert peak <= 2_000_000, peak

    def test_sweep_validates_every_k_first(self):
        with pytest.raises(ValueError, match="integer"):
            sweep([2, "3"], [0.0], BLOCK)

    @pytest.mark.parametrize("bob", [BLOCK, PASS])
    def test_sweep_closed_form_at_the_bound(self, bob):
        deltas = [0.1 * n for n in range(16)]
        rows = sweep([4072, MAX_CYCLES], deltas, bob)
        assert [(r.k, r.delta) for r in rows] == [(k, d) for k in (4072, MAX_CYCLES) for d in deltas]
        for row in rows:
            want = closed_form(ProtocolConfig(row.k, row.delta, bob))
            np.testing.assert_allclose(row.distribution.as_array(), want.as_array(), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("bad", [math.pi / 2, math.nan, -0.1])
    def test_sweep_rejects_a_late_bad_delta_before_evolving(self, builds, bad):
        with pytest.raises(ValueError, match="delta must"):
            sweep([4072, MAX_CYCLES], [0.1 * n for n in range(15)] + [bad], BLOCK)
        assert builds == []


class TestConfigValidation:
    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            ProtocolConfig(0, 0.0, BLOCK)

    @pytest.mark.parametrize("delta", [-0.1, math.pi / 2, 2.0])
    def test_delta_out_of_range(self, delta):
        with pytest.raises(ValueError):
            ProtocolConfig(2, delta, BLOCK)

    @pytest.mark.parametrize("k", [True, 2.5, 2.0, "2", None])
    def test_k_must_be_an_integer(self, k):
        with pytest.raises(ValueError, match="integer"):
            ProtocolConfig(k, 0.0, BLOCK)

    def test_numpy_integer_k_accepted(self):
        assert ProtocolConfig(np.int64(3), 0.0, BLOCK).theta == math.pi / 6

    @pytest.mark.parametrize(
        ("k", "delta"),
        [(4, np.float32(0.1)), (np.int64(4), 0.1), (np.uint8(4), np.float64(0.3)), (np.int32(4), np.int64(0))],
    )
    def test_numpy_numbers_are_stored_plain(self, k, delta):
        config = ProtocolConfig(k, delta, BLOCK)
        plain = ProtocolConfig(int(k), float(delta), BLOCK)
        assert type(config.k) is int and type(config.delta) is float
        state, dist = run(config)
        plain_state, plain_dist = run(plain)
        assert state.amplitudes.tobytes() == plain_state.amplitudes.tobytes()
        assert dist == plain_dist
        rows = sweep([k], [delta], BLOCK)
        assert rows == sweep([int(k)], [float(delta)], BLOCK)
        assert [(type(row.k), type(row.delta)) for row in rows] == [(int, float)]

    @pytest.mark.parametrize("bob", ["block", None, 0.5])
    def test_bob_must_be_an_action(self, bob):
        with pytest.raises(ValueError, match="BobAction"):
            ProtocolConfig(2, 0.0, bob)

    @pytest.mark.parametrize(
        "delta",
        [math.nan, math.inf, -math.inf, pytest.param(10**400, id="10**400"), pytest.param(-(10**400), id="-10**400")],
    )
    def test_delta_must_be_finite(self, delta):
        with pytest.raises(ValueError, match="finite"):
            ProtocolConfig(2, delta, BLOCK)

    @pytest.mark.parametrize("delta", [True, "0.1", None, 0.1j])
    def test_delta_must_be_real(self, delta):
        with pytest.raises(ValueError, match="real number"):
            ProtocolConfig(2, delta, BLOCK)

    @pytest.mark.parametrize(
        ("flag", "shown"), [("no", "'no'"), (None, "None"), (1, "1"), (0, "0"), (np.bool_(True), repr(np.bool_(True)))]
    )
    def test_include_final_block_must_be_a_bool(self, flag, shown):
        with pytest.raises(ValueError) as err:
            ProtocolConfig(2, 0.0, BLOCK, flag)
        assert str(err.value) == f"include_final_block must be a bool, got {shown}"

    @pytest.mark.parametrize("flag", [False, True])
    def test_include_final_block_accepts_bools(self, flag):
        assert ProtocolConfig(2, 0.0, BLOCK, flag).include_final_block is flag

    def test_derived_angles(self):
        config = ProtocolConfig(4, 0.1, PASS)
        assert config.phi == math.pi / 2 - 0.1
        assert config.theta == math.pi / 8

    @pytest.mark.parametrize("beta", [-0.1, math.pi / 2 + 0.01])
    def test_splitter_angle_range(self, beta):
        with pytest.raises(ValueError):
            splitter(beta)

    def test_bad_action_kind(self):
        with pytest.raises(ValueError):
            BobAction("dither")

    @pytest.mark.parametrize(
        ("args", "message"),
        [
            (("splitter",), "splitter action needs an angle"),
            (("block", 0.3), "'block' action takes no angle"),
            (("pass", 0.0), "'pass' action takes no angle"),
        ],
    )
    def test_only_a_splitter_takes_an_angle(self, args, message):
        with pytest.raises(ValueError) as err:
            BobAction(*args)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        ("beta", "message"),
        [
            ("0.5", "splitter angle must be a real number, got '0.5'"),
            (0.5j, "splitter angle must be a real number, got 0.5j"),
            (True, "splitter angle must be a real number, got True"),
            (np.bool_(True), f"splitter angle must be a real number, got {np.bool_(True)!r}"),
            (math.nan, "splitter angle must lie in [0, pi/2], got nan"),
            (math.inf, "splitter angle must lie in [0, pi/2], got inf"),
            (10**400, "splitter angle must lie in [0, pi/2], got inf"),
            (2, "splitter angle must lie in [0, pi/2], got 2.0"),
        ],
    )
    def test_splitter_angle_is_checked_at_the_edge(self, beta, message):
        for make in (lambda: BobAction("splitter", beta), lambda: splitter(beta)):
            with pytest.raises(ValueError) as err:
                make()
            assert str(err.value) == message

    @pytest.mark.parametrize("beta", [-0.0, np.float64(-0.0), 0.0, 0])
    def test_negative_zero_splitter_angle_is_stored_as_zero(self, beta):
        action = splitter(beta)
        assert math.copysign(1.0, action.beta) == 1.0
        assert action.label() == "split:0"
        assert action == splitter(0.0)

    @pytest.mark.parametrize("beta", [1, np.int64(1), np.float32(1.0), np.float64(1.0)])
    def test_splitter_angle_is_stored_as_a_float(self, beta):
        action = BobAction("splitter", beta)
        assert type(action.beta) is float
        assert action.beta == 1.0
        assert action.label() == "split:1"
        assert action == splitter(1.0)


class TestModeBasis:
    def test_built_once_per_config(self):
        config = ProtocolConfig(5, 0.3, BLOCK)
        basis = config.mode_basis()
        assert basis.loss_count == 5
        assert config.mode_basis() is basis

    def test_stored_basis_is_invisible(self):
        config = ProtocolConfig(5, 0.3, splitter(0.7), True)
        twin = ProtocolConfig(5, 0.3, splitter(0.7), True)
        before = (repr(config), hash(config), dataclasses.astuple(config))
        config.mode_basis()
        assert (repr(config), hash(config), dataclasses.astuple(config)) == before
        assert config == twin and twin == config
        assert hash(config) == hash(twin)
        assert [f.name for f in dataclasses.fields(ProtocolConfig)] == FIELD_NAMES

    @pytest.mark.parametrize("ask_first", [False, True])
    def test_replace_builds_its_own_basis(self, ask_first):
        config = ProtocolConfig(5, 0.3, BLOCK)
        if ask_first:
            config.mode_basis()
        same = dataclasses.replace(config)
        wider = dataclasses.replace(config, k=7)
        assert same == config and repr(same) == repr(config)
        assert wider == ProtocolConfig(7, 0.3, BLOCK)
        assert wider.mode_basis().loss_count == 7
        assert config.mode_basis().loss_count == 5


class TestStepOps:
    def test_one_build_feeds_every_consumer(self, builds):
        config = ProtocolConfig(6, 0.3, splitter(0.7), True)
        assert config.step_ops() is config.step_ops()
        run(config)
        evolution_unitary(config)
        for label in config.mode_basis().labels:
            counterfactuality_report(config, label)
        enumerate_histories(config)
        program = compile_program(config)
        verify(mesh_unitary(program), config)
        simulate_tomography(config, 0)
        build_steps(config)
        assert builds == [6]

    def test_stored_ops_are_invisible(self):
        config = ProtocolConfig(5, 0.3, splitter(0.7), True)
        twin = ProtocolConfig(5, 0.3, splitter(0.7), True)
        before = (repr(config), hash(config), dataclasses.astuple(config))
        config.step_ops()
        assert (repr(config), hash(config), dataclasses.astuple(config)) == before
        assert config == twin and twin == config
        assert hash(config) == hash(twin)
        assert [f.name for f in dataclasses.fields(ProtocolConfig)] == FIELD_NAMES

    @pytest.mark.parametrize("ask_first", [False, True])
    def test_replace_builds_its_own_ops(self, ask_first):
        config = ProtocolConfig(5, 0.3, BLOCK)
        if ask_first:
            config.step_ops()
        same = dataclasses.replace(config)
        wider = dataclasses.replace(config, k=7)
        shifted = dataclasses.replace(config, delta=0.4)
        assert same == config and repr(same) == repr(config)
        assert same.step_ops() == config.step_ops()
        assert len(wider.step_ops()) == 1 + 7 + 6
        assert len(config.step_ops()) == 1 + 5 + 4
        assert shifted.step_ops()[0] == ((0, 1), rotation_block(math.pi / 2 - 0.4))
        assert config.step_ops()[0] == ((0, 1), rotation_block(math.pi / 2 - 0.3))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        k=st.one_of(st.integers(1, 64), st.just(MAX_CYCLES)),
        bob=st.sampled_from([BLOCK, PASS, splitter(0.7), splitter(math.pi / 2)]),
        final=st.booleans(),
    )
    @example(k=MAX_CYCLES, bob=splitter(0.7), final=True)
    @example(k=1, bob=BLOCK, final=False)
    def test_build_steps_are_the_cached_ops(self, k, bob, final):
        config = ProtocolConfig(k, 0.3, bob, final)
        bob_block = None if bob == PASS else SWAP_BLOCK if bob == BLOCK else rotation_block(bob.beta)
        want = [("outer_rotation", (0, 1), rotation_block(config.phi))]
        for n in range(1, k + 1):
            want.append(("inner_rotation", (1, 2), rotation_block(config.theta)))
            if bob_block is not None and (n < k or final):
                want.append(("bob_interaction", (2, 2 + n), bob_block))
        steps = build_steps(config)
        assert [(step.kind, step.pair, step.block) for step in steps] == want
        assert [(step.pair, step.block) for step in steps] == list(config.step_ops())
        assert {step.size for step in steps} == {k + 3}
        assert len({id(step) for step in steps if step.kind == "inner_rotation"}) == 1
        assert build_steps(config) == steps

    @pytest.mark.parametrize("bob", [BLOCK, PASS, splitter(0.7)])
    def test_reading_each_step_op_leaves_the_cache_plain(self, bob):
        config = ProtocolConfig(9, 0.3, bob, True)
        steps = build_steps(config)
        assert all(step.op.matrix.shape == (12, 12) for step in steps)
        assert floats_only(config.step_ops())
        assert cached_ops(config) == [config.step_ops()]

    @pytest.mark.parametrize(
        "call",
        [
            lambda config: counterfactuality_report(config, "A"),
            compile_program,
            lambda config: simulate_tomography(config, 0),
            lambda config: simulate_tomography(config, 1000, 3),
        ],
        ids=["report", "compile", "tomography-analytic", "tomography-sampled"],
    )
    def test_past_the_bound_nothing_is_cached(self, call):
        config = ProtocolConfig(MAX_CYCLES + 1, 0.3, splitter(0.7), True)
        for _ in range(2):
            with pytest.raises(ValueError) as err:
                call(config)
            assert str(err.value) == cycle_bound_message(MAX_CYCLES + 1)
        assert not cached_ops(config)


class TestBuildSteps:
    def test_fields(self):
        assert [f.name for f in dataclasses.fields(Step)] == ["kind", "pair", "block", "size"]

    def test_step_is_frozen(self):
        step = Step("inner_rotation", (1, 2), SWAP_BLOCK, 5)
        for name in ("kind", "pair", "block", "size"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(step, name, None)
        assert (step.kind, step.pair, step.block, step.size) == ("inner_rotation", (1, 2), SWAP_BLOCK, 5)

    def test_step_equality_and_hash_by_field(self):
        step = Step("bob_interaction", (2, 3), SWAP_BLOCK, 5)
        twin = Step(kind="bob_interaction", pair=(2, 3), block=SWAP_BLOCK, size=5)
        assert step == twin and hash(step) == hash(twin)
        assert repr(step) == repr(twin)
        step.op  # the cached matrix is not a field
        assert step == twin and hash(step) == hash(twin)
        assert step != Step("bob_interaction", (2, 4), SWAP_BLOCK, 5)
        assert step != Step("bob_interaction", (2, 3), SWAP_BLOCK, 6)
        assert len({step, twin, build_steps(ProtocolConfig(2, 0.0, BLOCK))[2]}) == 1

    def test_k1_block_has_no_swap(self):
        kinds = [s.kind for s in build_steps(ProtocolConfig(1, 0.0, BLOCK))]
        assert kinds == ["outer_rotation", "inner_rotation"]

    def test_k3_pass_is_rotations_only(self):
        steps = build_steps(ProtocolConfig(3, 0.1, PASS))
        assert [s.kind for s in steps] == ["outer_rotation"] + ["inner_rotation"] * 3
        for step in steps[1:]:
            assert step.op.matrix[1, 1] == pytest.approx(math.cos(math.pi / 6), abs=1e-15)

    def test_k2_block_sequence(self):
        steps = build_steps(ProtocolConfig(2, 0.0, BLOCK))
        assert [(s.kind, s.pair, s.size) for s in steps] == [
            ("outer_rotation", (0, 1), 5),
            ("inner_rotation", (1, 2), 5),
            ("bob_interaction", (2, 3), 5),
            ("inner_rotation", (1, 2), 5),
        ]

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_step_counts(self, k):
        assert len(build_steps(ProtocolConfig(k, 0.1, PASS))) == 1 + k
        assert len(build_steps(ProtocolConfig(k, 0.1, BLOCK))) == 1 + k + (k - 1)
        assert len(build_steps(ProtocolConfig(k, 0.1, BLOCK, include_final_block=True))) == 1 + 2 * k
        assert len(build_steps(ProtocolConfig(k, 0.1, splitter(0.5)))) == 1 + k + (k - 1)

    def test_fresh_loss_mode_per_cycle(self):
        steps = build_steps(ProtocolConfig(4, 0.0, BLOCK, include_final_block=True))
        bob_pairs = [s.pair for s in steps if s.kind == "bob_interaction"]
        assert bob_pairs == [(2, 3), (2, 4), (2, 5), (2, 6)]


class TestRun:
    def test_pass_k4(self):
        _, dist = run(ProtocolConfig(4, 0.1, PASS))
        assert dist.p_D0 == pytest.approx(SIN_SQ_01, abs=1e-12)
        assert dist.p_D1 == pytest.approx(0.0, abs=1e-12)
        assert dist.p_D3 == pytest.approx(COS_SQ_01, abs=1e-12)

    def test_block_k2(self):
        _, dist = run(ProtocolConfig(2, 0.0, BLOCK))
        assert dist.p_D0 == pytest.approx(0.0, abs=1e-12)
        assert dist.p_D1 == pytest.approx(0.25, abs=1e-12)
        assert dist.p_D3 == pytest.approx(0.25, abs=1e-12)
        assert dist.p_loss[0] == pytest.approx(0.5, abs=1e-12)

    def test_block_k1_all_to_d3(self):
        _, dist = run(ProtocolConfig(1, 0.0, BLOCK))
        assert dist.p_D1 == pytest.approx(0.0, abs=1e-12)
        assert dist.p_D3 == pytest.approx(1.0, abs=1e-12)

    def test_final_block_moves_d3_to_loss(self):
        _, dist = run(ProtocolConfig(2, 0.0, BLOCK, include_final_block=True))
        assert dist.p_D3 == pytest.approx(0.0, abs=1e-12)
        assert dist.p_loss[1] == pytest.approx(0.25, abs=1e-12)


class TestClosedForm:
    def test_block_k2(self):
        dist = closed_form(ProtocolConfig(2, 0.0, BLOCK))
        np.testing.assert_allclose(dist.as_array(), [0.0, 0.25, 0.25, 0.5, 0.0], atol=1e-12)

    def test_block_k4_spot_value(self):
        assert closed_form(ProtocolConfig(4, 0.0, BLOCK)).p_D1 == pytest.approx(COS8_PI_8, abs=1e-12)

    def test_pass_k8(self):
        assert closed_form(ProtocolConfig(8, 0.05, PASS)).p_D0 == pytest.approx(SIN_SQ_005, abs=1e-12)

    def test_splitter_unsupported(self):
        with pytest.raises(ValueError):
            closed_form(ProtocolConfig(2, 0.0, splitter(0.5)))

    def test_final_block_unsupported(self):
        with pytest.raises(ValueError):
            closed_form(ProtocolConfig(2, 0.0, BLOCK, include_final_block=True))

    @pytest.mark.parametrize("bob", [BLOCK, PASS])
    @pytest.mark.parametrize("delta", [0.0, 0.01, 0.1, 0.3])
    @pytest.mark.parametrize("k", range(1, 17))
    def test_matches_run(self, k, delta, bob):
        config = ProtocolConfig(k, delta, bob)
        np.testing.assert_allclose(
            run(config)[1].as_array(), closed_form(config).as_array(), atol=1e-12
        )

    def test_block_normalization_telescopes(self):
        for k in range(1, 33):
            dist = closed_form(ProtocolConfig(k, 0.2, BLOCK))
            assert abs(sum(dist.as_array()) - 1.0) <= 1e-12

    def test_zeno_limit(self):
        values = [closed_form(ProtocolConfig(k, 0.0, BLOCK)).p_D1 for k in range(2, 65)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 0.96


class TestActionEquivalences:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_splitter_zero_is_pass(self, k):
        a = run(ProtocolConfig(k, 0.1, splitter(0.0)))[1]
        b = run(ProtocolConfig(k, 0.1, PASS))[1]
        np.testing.assert_allclose(a.as_array(), b.as_array(), atol=1e-12)

    @pytest.mark.parametrize("final", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_splitter_right_angle_matches_block(self, k, final):
        # Same outcome probabilities; no interference path returns from a loss
        # mode, so the sign difference between rotation and swap is invisible.
        a = run(ProtocolConfig(k, 0.1, splitter(math.pi / 2), final))[1]
        b = run(ProtocolConfig(k, 0.1, BLOCK, final))[1]
        np.testing.assert_allclose(a.as_array(), b.as_array(), atol=1e-12)

    def test_pass_never_reaches_d1(self):
        for k in range(1, 17):
            assert run(ProtocolConfig(k, 0.3, PASS))[1].p_D1 <= 1e-12


class TestSweep:
    def test_zeno_column_increases(self):
        rows = sweep(list(range(1, 17)), [0.0], BLOCK)
        p_d1 = [r.distribution.p_D1 for r in rows]
        assert all(b > a for a, b in zip(p_d1[1:], p_d1[2:]))

    def test_delta_grid(self):
        rows = sweep([4], [0.0, 0.1], PASS)
        assert [r.distribution.p_D0 for r in rows] == pytest.approx([0.0, SIN_SQ_01], abs=1e-12)

    def test_singletons(self):
        assert len(sweep([3], [0.2], BLOCK)) == 1

    def test_row_order(self):
        rows = sweep([1, 2], [0.0, 0.1], PASS)
        assert [(r.k, r.delta) for r in rows] == [(1, 0.0), (1, 0.1), (2, 0.0), (2, 0.1)]

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            sweep([], [0.1], BLOCK)
        with pytest.raises(ValueError):
            sweep([2], [], BLOCK)

    def test_empty_delta_iterator_rejected(self):
        with pytest.raises(ValueError, match="^sweep needs at least one K and one delta$"):
            sweep([1], iter([]), BLOCK)

    def test_empty_k_iterator_rejected(self):
        with pytest.raises(ValueError, match="^sweep needs at least one K and one delta$"):
            sweep(iter([]), [0.1], BLOCK)

    def test_numpy_arrays_are_lists_of_numbers(self):
        rows = sweep(np.array([1, 2]), np.array([0.0, 0.1]), BLOCK)
        assert rows == sweep([1, 2], [0.0, 0.1], BLOCK)
        assert [type(value) for row in rows for value in (row.k, row.delta)] == [int, float] * 4

    @pytest.mark.parametrize("final", [False, True])
    @pytest.mark.parametrize("bob", [BLOCK, PASS, splitter(0.4), splitter(1e-12), splitter(math.pi / 2)])
    def test_delta_zero_rows_are_run_bit_for_bit(self, bob, final):
        deltas = [0.0, 0.3, 0.0]
        rows = sweep([1, 2, 7, 64, MAX_CYCLES], deltas, bob, final)
        for row in rows[::3] + rows[2::3]:
            assert row.distribution == run(ProtocolConfig(row.k, 0.0, bob, final))[1]

    @pytest.mark.parametrize("final", [False, True])
    @pytest.mark.parametrize(
        "bob", [BLOCK, PASS, splitter(0.7), splitter(1e-9), splitter(math.pi / 2)],
        ids=["block", "pass", "split-0.7", "split-1e-9", "split-pi/2"],
    )
    def test_rows_are_run_bit_for_bit_at_every_delta(self, bob, final):
        # repr compares every float bit for bit, the sign of a zero included.
        deltas = [0.0, 0.3, 1.2, 1e-17, 0.05, 1.5707963267948963]
        for row in sweep([1, 2, 3, 5, 17, 64, 512, MAX_CYCLES], deltas, bob, final):
            assert repr(row.distribution) == repr(run(ProtocolConfig(row.k, row.delta, bob, final))[1])

    def test_step_ops_built_once_per_k(self, builds):
        # One fresh config per K entry, so a repeated K is built again.
        rows = sweep([3, 1, 64, 3], [0.0, 0.1, 0.2, 0.5], splitter(0.4), True)
        assert builds == [3, 1, 64, 3]
        assert len(rows) == 16

    def test_norm_check_per_row(self, monkeypatch):
        # K = 1 block sends |B> exactly to |C>, so an outer (cos, sin) of
        # (1, 1) gives that row a squared norm of exactly 2.
        exact = protocol.exact_cos_sin
        bad_phi = ProtocolConfig(1, 0.2, BLOCK).phi
        monkeypatch.setattr(protocol, "exact_cos_sin", lambda angle: (1.0, 1.0) if angle == bad_phi else exact(angle))
        with pytest.raises(ValueError) as err:
            sweep([1], [0.1, 0.2], BLOCK)
        assert str(err.value) == "state is not normalized: sum |a_i|^2 = 2.0"


# K from 1..64 plus two large values, delta including 0 and values just
# below pi/2, and splitter angles down to 1e-12 (uniform and log-uniform).
sweep_ks = st.lists(st.one_of(st.integers(1, 64), st.sampled_from([1024, MAX_CYCLES])), min_size=1, max_size=3)
sweep_deltas = st.lists(
    st.one_of(
        st.just(0.0),
        st.floats(0.0, math.pi / 2, exclude_max=True),
        st.floats(math.pi / 2 - 1e-6, math.pi / 2, exclude_max=True),
    ),
    min_size=1,
    max_size=4,
)
sweep_actions = st.one_of(
    st.sampled_from([BLOCK, PASS]),
    st.floats(1e-12, math.pi / 2).map(splitter),
    st.floats(math.log(1e-12), math.log(math.pi / 2)).map(lambda x: splitter(min(math.exp(x), math.pi / 2))),
)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(sweep_ks, sweep_deltas, sweep_actions, st.booleans())
@example([1, 64, 1024, MAX_CYCLES], [0.0, 0.3, math.nextafter(math.pi / 2, 0.0)], splitter(1e-12), True)
@example([MAX_CYCLES, 1], [math.nextafter(math.pi / 2, 0.0), 0.0], BLOCK, False)
@example([64, MAX_CYCLES], [0.0, 1.2], PASS, True)
# 33 deltas at K = 4096 span three blocks of rows.
@example([MAX_CYCLES], [i * 0.04 for i in range(33)], splitter(0.7), True)
def test_sweep_matches_run_per_point(k_values, delta_values, bob, final):
    rows = sweep(k_values, delta_values, bob, final)
    assert [(r.k, r.delta) for r in rows] == [(k, d) for k in k_values for d in delta_values]
    for row in rows:
        got = row.distribution
        want = run(ProtocolConfig(row.k, row.delta, bob, final))[1]
        np.testing.assert_allclose(got.as_array(), want.as_array(), rtol=0, atol=1e-12)
        assert abs(got.p_loss_total - want.p_loss_total) <= 1e-12


class TestAliceReducedState:
    def test_photon_in_a(self):
        basis = ProtocolConfig(1, 0.0, PASS).mode_basis()
        rho, p_ab = alice_reduced_state(PureState([1, 0, 0, 0], basis))
        np.testing.assert_allclose(rho, [[1, 0], [0, 0]], atol=1e-15)
        assert p_ab == 1.0

    def test_block_k2_final_state(self):
        state, _ = run(ProtocolConfig(2, 0.0, BLOCK))
        rho, p_ab = alice_reduced_state(state)
        assert p_ab == pytest.approx(0.25, abs=1e-12)
        np.testing.assert_allclose(rho, [[0, 0], [0, 1]], atol=1e-12)

    def test_empty_subspace_rejected(self):
        basis = ProtocolConfig(1, 0.0, PASS).mode_basis()
        with pytest.raises(PostselectionError):
            alice_reduced_state(PureState([0, 0, 1, 0], basis))

    @pytest.mark.parametrize(
        ("a", "norm"), [(1e-13, "1.000e-13"), (1e-12, "1.000e-12"), (1e-12 + 1e-27, None), (2e-12, None)]
    )
    def test_round_off_is_an_empty_subspace(self, a, norm):
        # An {A, B} amplitude norm at most NORM_TOL, the bound under which an
        # outcome report is vacuous, is round-off to postselect on.
        state = PureState([a, 0, math.sqrt(1 - a * a), 0], ProtocolConfig(1, 0.0, PASS).mode_basis())
        if norm is None:
            rho, p_ab = alice_reduced_state(state)
            assert p_ab == a * a
            assert rho[0, 0] == 1.0
        else:
            with pytest.raises(PostselectionError) as err:
                alice_reduced_state(state)
            assert str(err.value) == f"{{A, B}} amplitude norm {norm} <= 1e-12: nothing to postselect on"

    def test_pass_at_delta_zero_is_empty_past_k1(self):
        # Under pass at delta = 0 the photon leaves A and B exactly at K = 1
        # and up to round-off past it.
        for k in (1, 2, 4, 64, 4096):
            with pytest.raises(PostselectionError):
                alice_reduced_state(run(ProtocolConfig(k, 0.0, PASS))[0])

    def test_density_matrix_contract(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            k = int(rng.integers(1, 7))
            config = ProtocolConfig(k, rng.uniform(0.05, 0.4), splitter(rng.uniform(0, math.pi / 2)))
            rho, p_ab = alice_reduced_state(run(config)[0])
            assert abs(np.trace(rho).real - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(rho).min() >= -1e-12
            assert 0.0 < p_ab <= 1.0 + 1e-12


class TestOutcomeDistribution:
    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            OutcomeDistribution(0.5, 0.4, 0.0, (0.0,))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            OutcomeDistribution(1.5, -0.5, 0.0, (0.0,))

    def test_bad_total_is_a_norm_error(self):
        with pytest.raises(ValueError) as err:
            OutcomeDistribution(0.5, 0.6, 0.0, ())
        assert str(err.value) == "state is not normalized: sum |a_i|^2 = 1.1"

    def test_nan_entry_is_out_of_range(self):
        with pytest.raises(ValueError) as err:
            OutcomeDistribution(math.nan, 0.5, 0.5, ())
        assert str(err.value) == "probability out of range: nan"


# Entries on and just past the ends of [-NORM_TOL, 1 + NORM_TOL], a NaN, and
# values that break a row's norm.
edge_entries = st.sampled_from([math.nan, -2e-12, 1 + 2e-12, -1e-12, 1 + 1e-12, -0.0, 0.5, 1.0])


@st.composite
def probability_blocks(draw):
    """An n x (K+3) block of rows normalized up to round-off, a few entries
    of each then overwritten from ``edge_entries``."""
    width = draw(st.integers(4, 8))
    block = []
    for _ in range(draw(st.integers(1, 5))):
        weights = draw(st.lists(st.floats(0.0, 1.0), min_size=width, max_size=width))
        total = math.fsum(weights)
        row = [w / total for w in weights] if total > 0 else [1.0] + [0.0] * (width - 1)
        for j in draw(st.lists(st.integers(0, width - 1), max_size=2)):
            row[j] = draw(edge_entries)
        block.append(row)
    return np.array(block)


def _records_or_error(make, block):
    try:
        return make(block)
    except ValueError as err:
        return type(err), str(err)


class TestBlockConstructor:
    """``protocol._checked_rows`` and ``protocol._distribution``, which ``run``
    and ``sweep`` build their records with, against the public constructor row
    by row."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(probability_blocks())
    @example(np.array([[0.5, math.nan, 0.5, 0.0]]))
    @example(np.array([[-2e-12, 0.5, 0.5 + 2e-12, 0.0]]))
    @example(np.array([[0.0, 1 + 2e-12, 0.0, -2e-12]]))
    @example(np.array([[-1e-12, 0.5, 0.5 + 1e-12, 0.0], [0.0, 0.0, 1 + 1e-12, -1e-12]]))
    # A norm defect in row 0 and a range defect in row 2: row 0's error wins.
    @example(np.array([[0.5, 0.6, 0.0, 0.0], [0.25, 0.25, 0.5, 0.0], [1.0, -2e-12, 0.0, 2e-12]]))
    def test_same_records_and_errors(self, block):
        # Each error message names the failing row's value or sum, so equal
        # messages come from the same row.
        want = _records_or_error(
            lambda b: [OutcomeDistribution(row[0], row[1], row[2], tuple(row[3:])) for row in b.tolist()], block
        )
        got = _records_or_error(
            lambda b: [protocol._distribution(row) for row in protocol._checked_rows(b.tolist(), b.min(), b.max())],
            block,
        )
        assert got == want
        if isinstance(want, list):
            assert [repr(d) for d in got] == [repr(d) for d in want]

    @pytest.mark.parametrize("final_block", [False, True])
    @pytest.mark.parametrize(
        "bob",
        [BLOCK, PASS, splitter(0.7), splitter(1e-9), splitter(math.pi / 2), splitter(0.0)],
        ids=["block", "pass", "split-0.7", "split-1e-9", "split-pi/2", "split-0"],
    )
    def test_run_and_sweep_records_pass_the_public_checks(self, bob, final_block):
        # The block constructor stores its records without the constructor's
        # checks; rebuilt through them, each must come out the same.
        ks = [1, 2, 3, 17, 64, 512, 4096]
        deltas = [0.0, 0.3, 1.2, 1e-17, math.nextafter(math.pi / 2, 0.0)]
        dists = [row.distribution for row in sweep(ks, deltas, bob, final_block)]
        dists += [run(ProtocolConfig(k, delta, bob, final_block))[1] for k in ks for delta in deltas]
        for d in dists:
            record = OutcomeDistribution(d.p_D0, d.p_D1, d.p_D3, d.p_loss)
            assert record == d and repr(record) == repr(d)
