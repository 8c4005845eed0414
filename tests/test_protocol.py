import math

import numpy as np
import pytest

from cfcomm.protocol import (
    BLOCK,
    PASS,
    BobAction,
    OutcomeDistribution,
    PostselectionError,
    ProtocolConfig,
    alice_reduced_state,
    build_steps,
    closed_form,
    run,
    splitter,
    sweep,
)
from cfcomm.modes import PureState

# Frozen oracle values (evaluated from the defining trig expressions).
SIN_SQ_01 = 0.009966711079379185   # sin(0.1)^2
COS_SQ_01 = 0.9900332889206209     # cos(0.1)^2
SIN_SQ_005 = 0.002497917360987117  # sin(0.05)^2
COS8_PI_8 = 0.5307900429449552     # cos(pi/8)^8 = (17 + 12 sqrt 2)/64


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

    @pytest.mark.parametrize("bob", ["block", None, 0.5])
    def test_bob_must_be_an_action(self, bob):
        with pytest.raises(ValueError, match="BobAction"):
            ProtocolConfig(2, 0.0, bob)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_delta_must_be_finite(self, delta):
        with pytest.raises(ValueError, match="finite"):
            ProtocolConfig(2, delta, BLOCK)

    @pytest.mark.parametrize("delta", [True, "0.1", None, 0.1j])
    def test_delta_must_be_real(self, delta):
        with pytest.raises(ValueError, match="real number"):
            ProtocolConfig(2, delta, BLOCK)

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


class TestBuildSteps:
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
        assert [(s.kind, s.modes) for s in steps] == [
            ("outer_rotation", ("A", "B")),
            ("inner_rotation", ("B", "C")),
            ("bob_interaction", ("C", "L1")),
            ("inner_rotation", ("B", "C")),
        ]

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_step_counts(self, k):
        assert len(build_steps(ProtocolConfig(k, 0.1, PASS))) == 1 + k
        assert len(build_steps(ProtocolConfig(k, 0.1, BLOCK))) == 1 + k + (k - 1)
        assert len(build_steps(ProtocolConfig(k, 0.1, BLOCK, include_final_block=True))) == 1 + 2 * k
        assert len(build_steps(ProtocolConfig(k, 0.1, splitter(0.5)))) == 1 + k + (k - 1)

    def test_fresh_loss_mode_per_cycle(self):
        steps = build_steps(ProtocolConfig(4, 0.0, BLOCK, include_final_block=True))
        bob_targets = [s.modes[1] for s in steps if s.kind == "bob_interaction"]
        assert bob_targets == ["L1", "L2", "L3", "L4"]


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
