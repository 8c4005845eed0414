import dataclasses
import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfcomm import chip
from cfcomm.chip import (
    _ROLES,
    MAX_SHOTS,
    ROLE_INNER,
    ROLE_OUTER,
    _lowered_steps,
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
from cfcomm.protocol import BLOCK, PASS, PostselectionError, ProtocolConfig, evolution_unitary, run, splitter

ALL_ACTIONS = [PASS, BLOCK, splitter(math.pi / 4)]
MISSING = object()  # marks a key to delete from a serialized program
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
        # Every MZI shares a mode with the one before, so each has a column
        # of its own.
        assert [[(s.role, s.pair) for s in column] for column in program.columns] == [[r] for r in roles]

    @pytest.mark.parametrize("final_block", [False, True])
    @pytest.mark.parametrize("bob", [BLOCK, PASS, splitter(0.7)], ids=["block", "pass", "split"])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_outer_rotation_alone_on_pair_zero(self, k, bob, final_block):
        # _placed equalizes the A and B output phases through input B alone,
        # which holds only while the lowering keeps this shape.
        config = ProtocolConfig(k, 0.3, bob, final_block)
        ops = list(_lowered_steps(config))
        assert ops[0] == (0, config.phi, ROLE_OUTER)
        assert ops[1] == (1, config.theta, ROLE_INNER)
        assert all(pair != 0 for pair, _, _ in ops[1:])

    def test_emitted_roles_are_the_accepted_roles(self):
        # A role that no compiled program carries would only widen what
        # MziSetting and from_json_dict accept.
        emitted = {
            setting.role
            for k in range(1, 7)
            for bob in ALL_ACTIONS
            for final_block in (False, True)
            for setting in compile_program(ProtocolConfig(k, 0.3, bob, final_block)).settings
        }
        assert emitted == set(_ROLES)


class TestMeshUnitary:
    def test_setting_fields(self):
        assert [f.name for f in dataclasses.fields(MziSetting)] == ["pair", "theta", "phi", "role"]

    def test_empty_program_is_identity(self):
        program = MeshProgram(mode_count=4, columns=())
        np.testing.assert_array_equal(mesh_unitary(program).matrix, np.eye(4))

    def test_empty_program_is_complex_like_every_other(self):
        # The modal evolution always has its outer rotation, so it stays real.
        assert mesh_unitary(MeshProgram(4, ())).matrix.dtype == np.complex128
        assert mesh_unitary(MeshProgram(4, ((MziSetting(0, 0.0, 0.0, "router"),),))).matrix.dtype == np.complex128
        assert evolution_unitary(ProtocolConfig(1, 0.0, PASS)).matrix.dtype == np.float64

    def test_single_cross_moves_photon(self):
        program = MeshProgram(4, ((MziSetting(0, 0.0, 0.0, "router"),),))
        psi = mesh_unitary(program).matrix @ np.array([1, 0, 0, 0], dtype=complex)
        assert abs(psi[1]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_two_bar_mzis_stay_diagonal(self):
        program = MeshProgram(
            4,
            (
                (MziSetting(0, math.pi, 0.0, ROLE_INNER),),
                (MziSetting(2, math.pi, 0.0, ROLE_INNER),),
            ),
        )
        mat = mesh_unitary(program).matrix
        np.testing.assert_allclose(np.abs(np.diag(mat)), 1.0, atol=1e-12)

    def test_overlapping_column_rejected(self):
        with pytest.raises(ValueError):
            MeshProgram(
                4,
                ((MziSetting(0, 0.0, 0.0, "router"), MziSetting(1, 0.0, 0.0, "router")),)
            )

    def test_pair_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            MeshProgram(4, ((MziSetting(3, 0.0, 0.0, "router"),),))


class TestVerify:
    @pytest.mark.parametrize(
        "bob", [*ALL_ACTIONS, splitter(9.9e-16)], ids=["pass", "block", "split", "split-9.9e-16"]
    )
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

    @pytest.mark.parametrize(
        "tol, message",
        [
            (math.nan, "tolerance must be finite and >= 0, got nan"),
            (math.inf, "tolerance must be finite and >= 0, got inf"),
            (-1, "tolerance must be finite and >= 0, got -1"),
            ("1e-9", "tolerance must be a real number, got '1e-9'"),
            (True, "tolerance must be a real number, got True"),
        ],
    )
    def test_bad_tolerance_rejected(self, tol, message):
        # Checked before the modal evolution is built: HUGE would fail there.
        with pytest.raises(ValueError) as err:
            verify(UnitaryOp(np.eye(4)), TestDenseCap.HUGE, tol=tol)
        assert str(err.value) == message

    @pytest.mark.parametrize("tol", [0, 0.0, np.float64(1e-9), np.int64(1)])
    def test_real_tolerance_accepted(self, tol):
        config = ProtocolConfig(3, 0.1, BLOCK)
        report = verify(mesh_unitary(compile_program(config)), config, tol=tol)
        assert type(report.equivalent) is bool
        assert report.equivalent == bool(report.residual <= float(tol))


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


class TestRecordChecks:
    """Bad mesh records fail at construction with an exact ``ValueError``."""

    @pytest.mark.parametrize(
        "args, message",
        [
            ((1.5, 0.0, 0.0, "router"), "pair index must be an integer, got 1.5"),
            ((True, 0.0, 0.0, "router"), "pair index must be an integer, got True"),
            (("1", 0.0, 0.0, "router"), "pair index must be an integer, got '1'"),
            ((-1, 0.0, 0.0, "router"), "pair index must be >= 0, got -1"),
            ((0, 0.0, 0.0, "mirror"), "unknown MZI role 'mirror'"),
            ((0, "1", 0.0, "router"), "MZI phases must be real numbers, got theta='1', phi=0.0"),
            ((0, 0.0, True, "router"), "MZI phases must be real numbers, got theta=0.0, phi=True"),
            ((0, 1j, 0.0, "router"), "MZI phases must be real numbers, got theta=1j, phi=0.0"),
            ((0, None, 0.0, "router"), "MZI phases must be real numbers, got theta=None, phi=0.0"),
            ((0, 0.0, math.inf, "router"), "MZI phases must be finite, got theta=0.0, phi=inf"),
            ((0, 10**400, 0.0, "router"), f"MZI phases must be finite, got theta={10**400!r}, phi=0.0"),
        ],
    )
    def test_bad_setting_rejected(self, args, message):
        with pytest.raises(ValueError) as err:
            MziSetting(*args)
        assert str(err.value) == message

    def test_setting_stores_plain_reduced_fields(self):
        setting = MziSetting(np.int64(2), 7, np.float64(-0.5), "blocker")
        assert type(setting.pair) is int and setting.pair == 2
        assert setting.theta == 7 % (2 * math.pi)
        assert setting.phi == -0.5 % (2 * math.pi)
        assert setting == MziSetting(2, 7.0, -0.5, "blocker")
        assert hash(setting) == hash(MziSetting(2, 7.0, -0.5, "blocker"))
        assert type(setting.theta) is float and type(setting.phi) is float
        theta, phi = 7 % (2 * math.pi), -0.5 % (2 * math.pi)
        assert repr(setting) == f"MziSetting(pair=2, theta={theta!r}, phi={phi!r}, role='blocker')"

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.floats(allow_nan=False, allow_infinity=False), st.floats(allow_nan=False, allow_infinity=False))
    # A tiny negative phase plus 2pi rounds to exactly 2pi.
    @example(-1e-17, -5e-324)
    @example(-5e-324, -1e-17)
    @example(-0.0, 2 * math.pi)
    @example(2 * math.pi, -0.0)
    def test_phases_are_stored_in_zero_two_pi(self, theta, phi):
        setting = MziSetting(0, theta, phi, "router")
        assert 0 <= setting.theta < 2 * math.pi and 0 <= setting.phi < 2 * math.pi
        assert MziSetting(setting.pair, setting.theta, setting.phi, setting.role) == setting
        program = MeshProgram(2, ((setting,),))
        assert MeshProgram.from_json_dict(program.to_json_dict()) == program

    def test_replace_checks_and_reduces(self):
        setting = MziSetting(1, 0.5, 0.25, "router")
        assert dataclasses.replace(setting, theta=7.0) == MziSetting(1, 7.0 - 2 * math.pi, 0.25, "router")
        with pytest.raises(ValueError) as err:
            dataclasses.replace(setting, pair=1.0)
        assert str(err.value) == "pair index must be an integer, got 1.0"
        with pytest.raises(dataclasses.FrozenInstanceError):
            setting.theta = 1.0

    @pytest.mark.parametrize(
        "mode_count, columns, message",
        [
            (4.5, (), "mode count must be an integer, got 4.5"),
            (True, (), "mode count must be an integer, got True"),
            ("4", (), "mode count must be an integer, got '4'"),
            (4, (("router",),), "mesh columns must hold MziSetting instances, got 'router'"),
            (4, ((None,),), "mesh columns must hold MziSetting instances, got None"),
            (-3, (), "mode count must be >= 1, got -3"),
            (0, (), "mode count must be >= 1, got 0"),
            (3, 5, "mesh columns must be an iterable of columns, got 5"),
            (3, (5,), "mesh columns must be an iterable of columns, got (5,)"),
        ],
    )
    def test_bad_program_rejected(self, mode_count, columns, message):
        with pytest.raises(ValueError) as err:
            MeshProgram(mode_count, columns)
        assert str(err.value) == message

    def test_program_stores_plain_mode_count(self):
        program = MeshProgram(np.int64(4), ())
        assert type(program.mode_count) is int and program == MeshProgram(4, ())

    @pytest.mark.parametrize("final_block", [False, True])
    @pytest.mark.parametrize(
        "bob",
        [BLOCK, PASS, splitter(0.7), splitter(1e-9), splitter(math.pi / 2), splitter(0.0)],
        ids=["block", "pass", "split-0.7", "split-1e-9", "split-pi/2", "split-0"],
    )
    def test_compiled_programs_pass_the_public_checks(self, bob, final_block):
        # compile_program builds its records and its program without running
        # these checks; rebuilt through them, each must come out the same.
        for k in (1, 2, 3, 17, 64, 512, 4096):
            program = compile_program(ProtocolConfig(k, 0.3, bob, final_block))
            assert type(program.mode_count) is int
            assert MeshProgram(program.mode_count, program.columns) == program
            for s in program.settings:
                record = MziSetting(s.pair, s.theta, s.phi, s.role)
                assert record == s and repr(record) == repr(s)

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("pair",), 1.7, "pair index must be an integer, got 1.7"),
            (("pair",), 1.0, "pair index must be an integer, got 1.0"),
            (("pair",), "1", "pair index must be an integer, got '1'"),
            (("theta",), "0.5", "MZI phases must be real numbers, got theta='0.5', phi=0.0"),
            (("mode_count",), 6.0, "mode count must be an integer, got 6.0"),
            (("mode_count",), -3, "mode count must be >= 1, got -3"),
            # A document of the wrong shape is a ValueError too, never a
            # KeyError or TypeError.
            (("columns",), MISSING, "mesh program has no 'columns'"),
            (("mode_count",), MISSING, "mesh program has no 'mode_count'"),
            (("theta",), MISSING, "MZI record has no 'theta'"),
            (("columns",), 5, "mesh program columns must be a list, got 5"),
            (("columns", 0), 5, "a mesh column must be a list of MZI records, got 5"),
            (("columns", 0), "router", "a mesh column must be a list of MZI records, got 'router'"),
            (("columns", 0, 0), "router", "MZI record must be a JSON object, got 'router'"),
            ((), '{"columns": []}', """mesh program must be a JSON object, got '{"columns": []}'"""),
            ((), None, "mesh program must be a JSON object, got None"),
            # No compiled program carries these roles.
            (("role",), "identity", "unknown MZI role 'identity'"),
            (("role",), "tomography", "unknown MZI role 'tomography'"),
        ],
    )
    def test_from_json_dict_does_not_cast(self, path, value, message):
        program = MeshProgram(6, ((MziSetting(1, 0.0, 0.0, "router"),),))
        doc = program.to_json_dict()
        if len(path) == 1 and path[0] not in doc:  # a field of the first MZI record
            path = ("columns", 0, 0, *path)
        if not path:
            doc = value
        else:
            *parents, last = path
            target = functools.reduce(operator.getitem, parents, doc)
            if value is MISSING:
                del target[last]
            else:
                target[last] = value
        with pytest.raises(ValueError) as err:
            MeshProgram.from_json_dict(doc)
        assert str(err.value) == message


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
        for config, shots, seed in [
            (SUPERPOSITION_CONFIG, 0, 0),
            (ProtocolConfig(64, 0.0, splitter(0.7)), 0, 0),
            (ProtocolConfig(64, 0.0, splitter(0.7), True), 0, 0),
            (ProtocolConfig(4096, 0.0, BLOCK, True), 0, 0),
            (ProtocolConfig(8, 0.3, splitter(0.7)), 1000, 3),
            (ProtocolConfig(512, 0.0, splitter(0.7)), 100000, 7),
            (SUPERPOSITION_CONFIG, 200, 1),
        ]:
            rho = simulate_tomography(config, shots, seed).reconstructed_rho
            assert rho[0, 0].imag == 0.0 and rho[1, 1].imag == 0.0
            assert rho[0, 1] == rho[1, 0].conjugate()
            assert abs(np.trace(rho).real - 1.0) <= 1e-15
            assert np.linalg.eigvalsh(rho).min() >= -1e-12

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.tuples(*[st.integers(-(2**52), 2**52)] * 3))
    @example((0, 0, 0))
    @example((2**52, 0, 0))
    @example((0, 2**52, 0))
    @example((0, 0, 2**52))
    @example((-(2**52), 0, 0))
    @example((0, -(2**52), 0))
    @example((0, 0, -(2**52)))
    @example((2**52, 2**26, 2**26))  # |r| = 1 + 1 ulp
    @example((2**52 - 1, 2**26, 0))  # |r| = 1 - 1 ulp
    @example((2**52, 2**52, 2**52))
    def test_bloch_clip_matches_the_eigen_projection(self, units):
        # The expectations are multiples of 2^-52 in [-1, 1], so the readout
        # (1 + e, 1 - e) gives (n0 - n1) / (n0 + n1) = e exactly.
        r = [unit / 2**52 for unit in units]
        readout = {name: np.array([1 + e, 1 - e]) for name, e in zip("XYZ", r)}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(chip, "_basis_probabilities", lambda psi, name: readout[name])
            result = simulate_tomography(SUPERPOSITION_CONFIG, 0)
        x, y, z = r
        near_one = {(2**52, 2**26, 2**26): math.nextafter(1.0, 2.0), (2**52 - 1, 2**26, 0): math.nextafter(1.0, 0.0)}
        if units in near_one:
            assert math.sqrt(x * x + y * y + z * z) == near_one[units]

        # Oracle: the linear inversion with its negative eigenvalue clipped
        # and the trace renormalized.
        values, vectors = np.linalg.eigh(0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]]))
        projected = (vectors * np.clip(values, 0.0, None)) @ vectors.conj().T
        projected /= np.trace(projected).real
        assert np.abs(result.reconstructed_rho - projected).max() <= 1e-15
        assert abs(result.trace_distance - trace_distance(result.reconstructed_rho, result.exact_rho)) <= 1e-15

    def test_no_eigen_solver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg called")

        for name in ("eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, refuse)
        assert simulate_tomography(SUPERPOSITION_CONFIG, 0).trace_distance <= 1e-10
        assert simulate_tomography(SUPERPOSITION_CONFIG, 10**6, 7).trace_distance <= 0.01

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

    @pytest.mark.parametrize("shots", [0, 1000])
    def test_empty_basis(self, monkeypatch, shots):
        # Both readouts fail alike when a basis puts nothing on A and B.
        probabilities = chip._basis_probabilities

        def no_x_events(psi, name):
            probs = probabilities(psi, name)
            if name == "X":
                probs[2] += probs[0] + probs[1]
                probs[:2] = 0.0
            return probs

        monkeypatch.setattr(chip, "_basis_probabilities", no_x_events)
        with pytest.raises(InsufficientStatisticsError) as err:
            simulate_tomography(SUPERPOSITION_CONFIG, shots, seed=3)
        assert str(err.value) == "no postselected events in basis X"

    def test_negative_shots_rejected(self):
        with pytest.raises(ValueError):
            simulate_tomography(SUPERPOSITION_CONFIG, -1)

    @pytest.mark.parametrize(
        "shots, seed, message",
        [
            (10.5, 0, "shots per basis must be an integer, got 10.5"),
            (True, 0, "shots per basis must be an integer, got True"),
            ("10", 0, "shots per basis must be an integer, got '10'"),
            (-1, 0, "shots per basis must lie in [0, 2**63 - 1], got -1"),
            (2**63, 0, "shots per basis must lie in [0, 2**63 - 1], got 9223372036854775808"),
            (10, 0.5, "seed must be an integer, got 0.5"),
            (10, False, "seed must be an integer, got False"),
            (10, -1, "seed must be >= 0, got -1"),
        ],
    )
    def test_bad_shots_or_seed_rejected_first(self, shots, seed, message):
        # Checked before the run and the compilation: HUGE would fail there.
        with pytest.raises(ValueError) as err:
            simulate_tomography(TestDenseCap.HUGE, shots, seed)
        assert str(err.value) == message

    def test_numpy_integers_accepted(self):
        result = simulate_tomography(SUPERPOSITION_CONFIG, np.int64(1000), np.uint32(3))
        plain = simulate_tomography(SUPERPOSITION_CONFIG, 1000, 3)
        assert type(result.shots_per_basis) is int
        assert result.counts == plain.counts
        assert result.postselected_fraction == plain.postselected_fraction

    def test_shots_at_the_multinomial_limit(self):
        result = simulate_tomography(SUPERPOSITION_CONFIG, MAX_SHOTS, 2**100)
        assert MAX_SHOTS == 2**63 - 1
        assert result.shots_per_basis == MAX_SHOTS
        assert all(0 < n0 + n1 <= MAX_SHOTS for n0, n1 in result.counts.values())

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
        # compile_program builds nothing dense: it is bounded by MAX_CYCLES.
        with pytest.raises(ValueError) as err:
            compile_program(self.HUGE)
        assert str(err.value) == (
            "protocol runs are limited to K <= 4096, past which round-off in the K rotations "
            "can push the norm defect beyond 1e-12; got K = 100000"
        )

    def test_mesh_unitary(self):
        with pytest.raises(ValueError, match=f"K <= {MAX_DENSE_CYCLES}"):
            mesh_unitary(MeshProgram(mode_count=100003, columns=()))

    def test_verify(self):
        with pytest.raises(ValueError, match=f"K <= {MAX_DENSE_CYCLES}"):
            verify(UnitaryOp(np.eye(4)), self.HUGE)

    def test_simulate_tomography(self):
        # Tomography propagates one O(K) column: bounded by MAX_CYCLES.
        with pytest.raises(ValueError) as err:
            simulate_tomography(self.HUGE, 0)
        assert str(err.value) == (
            "protocol runs are limited to K <= 4096, past which round-off in the K rotations "
            "can push the norm defect beyond 1e-12; got K = 100000"
        )


class TestTraceDistance:
    def test_orthogonal_pure_states(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        sigma = np.diag([0.0, 1.0]).astype(complex)
        assert trace_distance(rho, sigma) == pytest.approx(1.0, abs=1e-12)

    def test_identical_states(self):
        rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-15)

    def test_hermitian_pair_as_lists(self):
        # |+><+| against I/2: rho - sigma = [[0, 1/2], [1/2, 0]], eigenvalues +-1/2.
        assert trace_distance([[0.5, 0.5], [0.5, 0.5]], [[0.5, 0], [0, 0.5]]) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize(
        "rho, sigma, message",
        [
            # eigvalsh reads one triangle: it gave 0.0 here and 1.0 for the transpose.
            ([[0, 1], [0, 0]], [[0, 0], [0, 0]], "rho - sigma must be Hermitian within 1e-12, got max |D - D^H| = 1.000e+00"),
            ([[0, 0], [1, 0]], [[0, 0], [0, 0]], "rho - sigma must be Hermitian within 1e-12, got max |D - D^H| = 1.000e+00"),
            ([[1, 0], [0, 0]], [[1, 0], [0, 1j]], "rho - sigma must be Hermitian within 1e-12, got max |D - D^H| = 2.000e+00"),
            ([[math.nan, 0], [0, 0]], [[0, 0], [0, 0]], "rho - sigma must be Hermitian within 1e-12, got max |D - D^H| = nan"),
            ([[0, 1], [0, 0]], 0, "trace distance needs two square matrices of one shape, got (2, 2) and ()"),
            ([[1, 0], [0, 0]], [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
             "trace distance needs two square matrices of one shape, got (2, 2) and (3, 3)"),
            ([[1, 0, 0], [0, 0, 0]], [[1, 0, 0], [0, 0, 0]],
             "trace distance needs two square matrices of one shape, got (2, 3) and (2, 3)"),
            ([1, 0], [1, 0], "trace distance needs two square matrices of one shape, got (2,) and (2,)"),
        ],
        ids=["upper", "lower", "complex-diagonal", "nan", "scalar", "unequal", "non-square", "vector"],
    )
    def test_rejects_what_it_cannot_answer(self, rho, sigma, message):
        with pytest.raises(ValueError) as err:
            trace_distance(rho, sigma)
        assert str(err.value) == message
