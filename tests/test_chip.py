import math

import numpy as np
import pytest

from cfcomm.chip import (
    InsufficientStatisticsError,
    MeshProgram,
    MziSetting,
    compile_program,
    mesh_unitary,
    mzi_block,
    simulate_tomography,
    trace_distance,
    verify,
)
from cfcomm.modes import MAX_DENSE_CYCLES, UnitaryOp
from cfcomm.protocol import BLOCK, PASS, PostselectionError, ProtocolConfig, run, splitter

ALL_ACTIONS = [PASS, BLOCK, splitter(math.pi / 4)]
SUPERPOSITION_CONFIG = ProtocolConfig(2, 0.2, splitter(math.pi / 4))


class TestMziTransfer:
    """The 2x2 MZI transfer matrix, as built by ``mzi_block``."""

    def test_matches_factor_product(self):
        # Oracle: multiply the four 2x2 factors by hand.
        theta, phi = 0.83, 2.1
        bs = np.array([[1, 1j], [1j, 1]], dtype=complex) / math.sqrt(2)
        expected = bs @ np.diag([np.exp(1j * theta), 1]) @ bs @ np.diag([np.exp(1j * phi), 1])
        np.testing.assert_allclose(np.array(mzi_block(theta, phi)), expected, atol=1e-15)

    def test_bar_state(self):
        t = np.array(mzi_block(math.pi, 0.0))
        assert abs(t[0, 0]) == pytest.approx(1.0, abs=1e-12)
        assert abs(t[1, 0]) == pytest.approx(0.0, abs=1e-12)

    def test_cross_state(self):
        t = np.array(mzi_block(0.0, 0.0))
        assert abs(t[1, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_unitary_for_random_phases(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            t = np.array(mzi_block(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)))
            assert np.abs(t.conj().T @ t - np.eye(2)).max() <= 1e-12


class TestCompile:
    def test_k1_pass_two_mzis(self):
        program = compile_program(ProtocolConfig(1, 0.1, PASS))
        roles = [(s.role, s.pair) for s in program.settings]
        assert roles == [("outer_rotation", 0), ("inner_rotation", 1)]

    def test_k2_block_no_routers(self):
        program = compile_program(ProtocolConfig(2, 0.0, BLOCK))
        roles = [(s.role, s.pair) for s in program.settings]
        assert roles == [
            ("outer_rotation", 0),
            ("inner_rotation", 1),
            ("blocker", 2),
            ("inner_rotation", 1),
        ]

    def test_k3_block_cycle_two_routes(self):
        program = compile_program(ProtocolConfig(3, 0.0, BLOCK))
        roles = [(s.role, s.pair) for s in program.settings]
        assert roles == [
            ("outer_rotation", 0),
            ("inner_rotation", 1),
            ("blocker", 2),
            ("router", 2),       # C moves past L1
            ("router", 1),       # then B: the convoy sits on slots 2, 3
            ("inner_rotation", 2),
            ("blocker", 3),      # L2 is already next to C
            ("inner_rotation", 2),
            ("router", 1),       # B walks home
            ("router", 2),       # then C
        ]
        assert [s.column for s in program.settings] == list(range(10))


class TestMeshUnitary:
    def test_empty_program_is_identity(self):
        program = MeshProgram(mode_count=4, columns=())
        np.testing.assert_array_equal(mesh_unitary(program).matrix, np.eye(4))

    def test_single_cross_moves_photon(self):
        program = MeshProgram(4, ((MziSetting(0, 0, 0.0, 0.0, "router"),),))
        psi = mesh_unitary(program).matrix @ np.array([1, 0, 0, 0], dtype=complex)
        assert abs(psi[1]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_two_bar_mzis_stay_diagonal(self):
        program = MeshProgram(
            4,
            (
                (MziSetting(0, 0, math.pi, 0.0, "identity"),),
                (MziSetting(2, 1, math.pi, 0.0, "identity"),),
            ),
        )
        mat = mesh_unitary(program).matrix
        np.testing.assert_allclose(np.abs(np.diag(mat)), 1.0, atol=1e-12)

    def test_overlapping_column_rejected(self):
        with pytest.raises(ValueError):
            MeshProgram(
                4,
                ((MziSetting(0, 0, 0.0, 0.0, "router"), MziSetting(1, 0, 0.0, 0.0, "router")),)
            )

    def test_pair_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            MeshProgram(4, ((MziSetting(3, 0, 0.0, 0.0, "router"),),))


class TestVerify:
    @pytest.mark.parametrize("bob", ALL_ACTIONS, ids=["pass", "block", "split"])
    @pytest.mark.parametrize("delta", [0.0, 0.1])
    @pytest.mark.parametrize("k", range(1, 7))
    def test_compiled_mesh_matches_modal(self, k, delta, bob):
        config = ProtocolConfig(k, delta, bob)
        report = verify(mesh_unitary(compile_program(config)), config, tol=1e-9)
        assert report.equivalent
        assert report.residual <= 1e-9

    def test_k4_block_example(self):
        config = ProtocolConfig(4, 0.0, BLOCK)
        report = verify(mesh_unitary(compile_program(config)), config)
        assert report.residual <= 1e-9

    def test_final_block_variant(self):
        config = ProtocolConfig(3, 0.1, BLOCK, include_final_block=True)
        report = verify(mesh_unitary(compile_program(config)), config)
        assert report.equivalent

    def test_identity_mesh_is_inequivalent(self):
        config = ProtocolConfig(2, 0.0, BLOCK)
        report = verify(UnitaryOp(np.eye(5)), config)
        assert not report.equivalent
        assert report.residual > 1e-3

    def test_output_phases_on_a_and_b_match(self):
        config = ProtocolConfig(3, 0.1, splitter(0.6))
        report = verify(mesh_unitary(compile_program(config)), config)
        assert abs(report.output_phases[0] - report.output_phases[1]) <= 1e-9

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            verify(UnitaryOp(np.eye(4)), ProtocolConfig(2, 0.0, BLOCK))


class TestSerialization:
    def test_round_trip(self):
        program = compile_program(ProtocolConfig(3, 0.1, BLOCK))
        doc = program.to_json_dict()
        assert doc["mode_count"] == 6
        assert set(doc["columns"][0][0]) == {"pair", "theta", "phi", "role"}
        again = MeshProgram.from_json_dict(doc)
        assert again == program

    @pytest.mark.parametrize("field", ["theta", "phi"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_phase_rejected(self, field, value):
        doc = compile_program(ProtocolConfig(2, 0.0, BLOCK)).to_json_dict()
        doc["columns"][0][0][field] = value
        with pytest.raises(ValueError, match="finite"):
            MeshProgram.from_json_dict(doc)


class TestTomography:
    def test_analytic_mode_is_exact(self):
        result = simulate_tomography(SUPERPOSITION_CONFIG, 0)
        assert result.trace_distance <= 1e-10

    def test_analytic_mode_random_configs(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            k = int(rng.integers(1, 6))
            delta = rng.uniform(0.05, 0.45)
            bob = [PASS, BLOCK, splitter(rng.uniform(0.0, math.pi / 2))][int(rng.integers(3))]
            result = simulate_tomography(ProtocolConfig(k, delta, bob), 0)
            assert result.trace_distance <= 1e-10

    def test_reconstruction_contract(self):
        result = simulate_tomography(SUPERPOSITION_CONFIG, 0)
        rho = result.reconstructed_rho
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-12

    def test_sampled_converges(self):
        result = simulate_tomography(SUPERPOSITION_CONFIG, 10**6, seed=7)
        assert result.trace_distance <= 0.01
        assert all(n0 + n1 <= 10**6 for n0, n1 in result.counts.values())

    def test_deterministic_given_seed(self):
        a = simulate_tomography(SUPERPOSITION_CONFIG, 20000, seed=42)
        b = simulate_tomography(SUPERPOSITION_CONFIG, 20000, seed=42)
        assert a.counts == b.counts
        assert a.trace_distance == b.trace_distance

    def test_block_k2_z_counts_all_at_d1(self):
        result = simulate_tomography(ProtocolConfig(2, 0.0, BLOCK), 50000, seed=1)
        n0, n1 = result.counts["Z"]
        assert n0 == 0
        assert n1 > 0
        np.testing.assert_allclose(result.exact_rho, [[0, 0], [0, 1]], atol=1e-12)

    def test_postselection_error_when_subspace_empty(self):
        with pytest.raises(PostselectionError):
            simulate_tomography(ProtocolConfig(1, 0.0, BLOCK), 0)

    def test_insufficient_statistics(self):
        # p_AB ~ 2.5e-7: a single shot per basis almost surely sees nothing.
        config = ProtocolConfig(4, 0.0005, PASS)
        with pytest.raises(InsufficientStatisticsError):
            simulate_tomography(config, 1, seed=3)

    def test_negative_shots_rejected(self):
        with pytest.raises(ValueError):
            simulate_tomography(SUPERPOSITION_CONFIG, -1)

    def test_scaling_with_shots(self):
        # Median trace distance at 1e4 shots should sit well above 1e6 shots.
        seeds = range(20)
        td_small = sorted(simulate_tomography(SUPERPOSITION_CONFIG, 10**4, s).trace_distance for s in seeds)
        td_large = sorted(simulate_tomography(SUPERPOSITION_CONFIG, 10**6, s).trace_distance for s in seeds)
        median_small = (td_small[9] + td_small[10]) / 2
        median_large = (td_large[9] + td_large[10]) / 2
        assert median_small >= 3 * median_large


class TestDenseCap:
    HUGE = ProtocolConfig(100000, 0.0, BLOCK)

    def test_compile_program(self):
        with pytest.raises(ValueError, match=f"K <= {MAX_DENSE_CYCLES}"):
            compile_program(self.HUGE)

    def test_mesh_unitary(self):
        with pytest.raises(ValueError, match=f"K <= {MAX_DENSE_CYCLES}"):
            mesh_unitary(MeshProgram(mode_count=100003, columns=()))

    def test_verify(self):
        with pytest.raises(ValueError, match=f"K <= {MAX_DENSE_CYCLES}"):
            verify(UnitaryOp(np.eye(4)), self.HUGE)

    def test_simulate_tomography(self):
        with pytest.raises(ValueError, match=f"K <= {MAX_DENSE_CYCLES}"):
            simulate_tomography(self.HUGE, 0)


class TestTraceDistance:
    def test_orthogonal_pure_states(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        sigma = np.diag([0.0, 1.0]).astype(complex)
        assert trace_distance(rho, sigma) == pytest.approx(1.0, abs=1e-12)

    def test_identical_states(self):
        rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-15)
