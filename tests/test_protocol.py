import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfcomm import protocol
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
from cfcomm.modes import MAX_DENSE_CYCLES, SWAP_BLOCK, PureState

# Frozen oracle values (evaluated from the defining trig expressions).
SIN_SQ_01 = 0.009966711079379185   # sin(0.1)^2
COS_SQ_01 = 0.9900332889206209     # cos(0.1)^2
SIN_SQ_005 = 0.002497917360987117  # sin(0.05)^2
COS8_PI_8 = 0.5307900429449552     # cos(pi/8)^8 = (17 + 12 sqrt 2)/64


class TestDenseCap:
    def test_evolution_unitary_at_the_cap(self):
        assert evolution_unitary(ProtocolConfig(MAX_DENSE_CYCLES, 0.0, BLOCK)).dim == MAX_DENSE_CYCLES + 3

    def test_evolution_unitary_above_the_cap(self):
        with pytest.raises(ValueError, match=f"K <= {MAX_DENSE_CYCLES}"):
            evolution_unitary(ProtocolConfig(100000, 0.0, BLOCK))

    def test_step_op_above_the_cap(self):
        step = Step("bob_interaction", (2, 3), SWAP_BLOCK, 100003)
        with pytest.raises(ValueError, match=f"K <= {MAX_DENSE_CYCLES}"):
            step.op


def cycle_bound_message(k):
    return (
        "protocol runs are limited to K <= 4096, past which round-off in the K rotations "
        f"can push the norm defect beyond 1e-12; got K = {k}"
    )


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

    def test_sweep_checks_the_largest_k_first(self, monkeypatch):
        calls = []
        monkeypatch.setattr(protocol, "build_steps", lambda config: calls.append(config))
        with pytest.raises(ValueError) as err:
            sweep([1, 2, MAX_CYCLES + 1], [0.0], BLOCK)
        assert str(err.value) == cycle_bound_message(MAX_CYCLES + 1)
        assert calls == []

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
    def test_sweep_rejects_a_late_bad_delta_before_evolving(self, monkeypatch, bad):
        calls = []
        monkeypatch.setattr(protocol, "build_steps", lambda config: calls.append(config))
        with pytest.raises(ValueError, match="delta must"):
            sweep([4072, MAX_CYCLES], [0.1 * n for n in range(15)] + [bad], BLOCK)
        assert calls == []


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

    @pytest.mark.parametrize("beta", [1, np.int64(1), np.float32(1.0), np.float64(1.0)])
    def test_splitter_angle_is_stored_as_a_float(self, beta):
        action = BobAction("splitter", beta)
        assert type(action.beta) is float
        assert action.beta == 1.0
        assert action.label() == "split:1"
        assert action == splitter(1.0)


class TestBuildSteps:
    def test_fields(self):
        assert [f.name for f in dataclasses.fields(Step)] == ["kind", "pair", "block", "size"]

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

    @pytest.mark.parametrize("final", [False, True])
    @pytest.mark.parametrize("bob", [BLOCK, PASS, splitter(0.4), splitter(1e-12), splitter(math.pi / 2)])
    def test_delta_zero_rows_are_run_bit_for_bit(self, bob, final):
        deltas = [0.0, 0.3, 0.0]
        rows = sweep([1, 2, 7, 64, MAX_CYCLES], deltas, bob, final)
        for row in rows[::3] + rows[2::3]:
            assert row.distribution == run(ProtocolConfig(row.k, 0.0, bob, final))[1]

    def test_build_steps_once_per_k(self, monkeypatch):
        calls = []

        def counting(config):
            calls.append(config.k)
            return build_steps(config)

        monkeypatch.setattr(protocol, "build_steps", counting)
        rows = sweep([3, 1, 64, 3], [0.0, 0.1, 0.2, 0.5], splitter(0.4), True)
        assert calls == [3, 1, 64, 3]
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
