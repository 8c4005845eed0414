import dataclasses
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfcomm.modes import (
    SWAP_BLOCK,
    ModeBasis,
    PureState,
    UnitaryOp,
    apply,
    apply_blocks,
    basis_state,
    check_block,
    compose_unitary,
    exact_cos_sin,
    plain_float,
    plain_int,
    rotation_block,
)
from oracle import embedded_product

BASIS4 = ModeBasis(1)
BASIS5 = ModeBasis(2)


def rotation(angle, i, j, size=4):
    """The dense real rotation |i> -> cos|i> + sin|j> on slots (i, j); column c
    of a dense op is the image of the photon in slot c."""
    return compose_unitary([((i, j), rotation_block(angle))], size)


def swap(i, j, size=4):
    return compose_unitary([((i, j), SWAP_BLOCK)], size)


def distinct_slots_message(i, j, size=4):
    return f"a two-mode block needs two distinct slots in [0, {size}), got ({i}, {j})"


class TestModeBasis:
    def test_for_cycles_labels(self):
        assert BASIS5.labels == ("A", "B", "C", "L1", "L2")
        assert BASIS5.size == 5
        assert BASIS5.loss_count == 2

    def test_index(self):
        assert BASIS4.index("A") == 0
        assert BASIS4.index("L1") == 3

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError) as err:
            BASIS5.index("Q")
        assert str(err.value) == "unknown mode 'Q'; basis has A, B, C, L1..L2"

    @pytest.mark.parametrize("k", [1, 9, 12, 4096, 100000])
    def test_unknown_mode_message_names_the_range(self, k):
        # The message names K, not every label, so only K's digits add length.
        with pytest.raises(ValueError) as err:
            ModeBasis(k).index("Q")
        assert str(err.value) == f"unknown mode 'Q'; basis has A, B, C, L1..L{k}"
        assert len(str(err.value)) - len(str(k)) == 42

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            ModeBasis(0)

    @pytest.mark.parametrize(
        ("k", "message"),
        [
            (True, "cycle count K must be an integer, got True"),
            (2.0, "cycle count K must be an integer, got 2.0"),
            ("2", "cycle count K must be an integer, got '2'"),
            (-3, "cycle count K must be >= 1, got -3"),
        ],
    )
    def test_bad_cycle_count_rejected(self, k, message):
        with pytest.raises(ValueError) as err:
            ModeBasis(k)
        assert str(err.value) == message

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(ModeBasis)] == ["loss_count"]
        assert ModeBasis(2) == BASIS5
        assert ModeBasis(np.int64(2)).loss_count == 2
        assert type(ModeBasis(np.int64(2)).loss_count) is int

    @pytest.mark.parametrize("k", range(1, 41))
    def test_index_of_every_label(self, k):
        basis = ModeBasis(k)
        labels = ("A", "B", "C") + tuple(f"L{n}" for n in range(1, k + 1))
        assert basis.labels == labels
        assert basis.size == len(labels)
        for position, label in enumerate(labels):
            assert basis.index(label) == position
        with pytest.raises(ValueError, match=f"unknown mode 'L{k + 1}'"):
            basis.index(f"L{k + 1}")

    @pytest.mark.parametrize(
        "mode",
        [
            "", "L", "L0", "L01", "L+1", "L1_0", " L1", "l1", "L\u00b2", "L\u0661", "L1\u0661", "L1\n", "D", "A ",
            3, None, pytest.param("L" + "9" * 5000, id="L9x5000"), b"A", ["A"], 1.0,
        ],
    )
    def test_off_convention_label_rejected(self, mode):
        for basis in (BASIS4, ModeBasis(12)):
            with pytest.raises(ValueError, match="unknown mode"):
                basis.index(mode)

    def test_index_does_not_list_the_labels(self, monkeypatch):
        # K is bounded only from below, so a lookup must not cost O(K).
        monkeypatch.setattr(ModeBasis, "labels", property(lambda self: pytest.fail("index listed the labels")))
        k = 10**12
        basis = ModeBasis(k)
        assert basis.index("L1") == 3
        assert basis.index(f"L{k}") == k + 2
        for mode in ("Q", "L0", f"L0{k}", f"L{k + 1}", "L" + "9" * 5000):
            with pytest.raises(ValueError, match=f"unknown mode {mode!r}"):
                basis.index(mode)


class TestPlainNumbers:
    # numbers.Integral and numbers.Real decide, and a bool is neither.
    @pytest.mark.parametrize(
        ("value", "want"),
        [(3, 3), (np.int64(3), 3), (np.uint8(3), 3), (10**400, 10**400)],
    )
    def test_integers(self, value, want):
        got = plain_int(value, "n")
        assert type(got) is int
        assert got == want

    @pytest.mark.parametrize(
        ("value", "want"),
        [
            (1.5, 1.5),
            (np.float32(0.1), 0.10000000149011612),
            (np.int64(3), 3.0),
            (Fraction(1, 3), 1 / 3),
            (Fraction(-(10**400)), -math.inf),
            (10**400, math.inf),
        ],
    )
    def test_reals(self, value, want):
        got = plain_float(value, "x")
        assert type(got) is float
        assert got == want

    def test_a_fraction_is_no_integer(self):
        with pytest.raises(ValueError) as err:
            plain_int(Fraction(1, 3), "n")
        assert str(err.value) == "n must be an integer, got Fraction(1, 3)"

    @pytest.mark.parametrize("value", [True, np.bool_(True), Decimal("1.5"), 1.5 + 0j, np.complex128(1), "1", None])
    def test_refused(self, value):
        for check, kind in ((plain_int, "an integer"), (plain_float, "a real number")):
            with pytest.raises(ValueError) as err:
                check(value, "v")
            assert str(err.value) == f"v must be {kind}, got {value!r}"


class TestBasisState:
    def test_photon_in_a(self):
        state = basis_state(BASIS4, "A")
        np.testing.assert_array_equal(state.amplitudes, [1, 0, 0, 0])

    def test_photon_in_loss_mode(self):
        state = basis_state(BASIS4, "L1")
        np.testing.assert_array_equal(state.amplitudes, [0, 0, 0, 1])

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            basis_state(BASIS4, "Q")


class TestRotation:
    def test_quarter_turn_maps_i_to_j(self):
        np.testing.assert_allclose(rotation(math.pi / 2, 0, 1).matrix[:, 0], [0, 1, 0, 0], atol=1e-15)

    def test_zero_angle_is_identity(self):
        np.testing.assert_array_equal(rotation(0.0, 1, 2).matrix, np.eye(4))

    def test_pi_over_4_amplitudes(self):
        expected = [0.0, 0.7071067811865476, 0.7071067811865476, 0.0]
        np.testing.assert_allclose(rotation(math.pi / 4, 1, 2).matrix[:, 1], expected, atol=1e-15)

    def test_against_explicit_block(self):
        # Oracle: place the explicit 2x2 rotation block by hand.
        angle = 0.37
        c, s = math.cos(angle), math.sin(angle)
        expected = np.eye(4, dtype=complex)
        expected[1, 1], expected[2, 1], expected[1, 2], expected[2, 2] = c, s, -s, c
        np.testing.assert_allclose(rotation(angle, 1, 2).matrix, expected, atol=1e-15)

    def test_exact_zero_at_right_angle(self):
        # cos(pi/2) must be stored as exactly 0.0 (path pruning relies on it).
        mat = rotation(math.pi / 2, 1, 2).matrix
        assert mat[1, 1] == 0.0
        assert mat[2, 2] == 0.0

    def test_same_mode_rejected(self):
        with pytest.raises(ValueError) as err:
            rotation(0.3, 1, 1)
        assert str(err.value) == distinct_slots_message(1, 1)


class TestExactCosSin:
    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(st.floats(0.0, math.pi / 2, exclude_max=True))
    @example(9.9e-16)
    @example(5e-324)
    @example(1.5707963267948963)  # the double below pi/2
    def test_math_cos_sin_below_a_right_angle(self, angle):
        assert repr(exact_cos_sin(angle)) == repr((math.cos(angle), math.sin(angle)))

    def test_cos_is_exactly_zero_at_pi_over_2(self):
        assert math.cos(math.pi / 2) != 0.0
        assert repr(exact_cos_sin(math.pi / 2)) == "(0.0, 1.0)"


class TestSwap:
    def test_swaps_the_pair(self):
        np.testing.assert_array_equal(swap(2, 3).matrix[:, 2], [0, 0, 0, 1])

    def test_leaves_other_modes_alone(self):
        np.testing.assert_array_equal(swap(2, 3).matrix[:, 0], [1, 0, 0, 0])

    def test_involution(self):
        x = swap(2, 3).matrix
        np.testing.assert_array_equal(x @ x, np.eye(4))

    def test_entry_structure(self):
        mat = swap(1, 4, BASIS5.size).matrix
        off_diagonal = mat - np.diag(np.diag(mat))
        assert np.count_nonzero(off_diagonal) == 2
        assert np.all(off_diagonal[off_diagonal != 0] == 1.0)
        assert np.count_nonzero(np.diag(mat)) == BASIS5.size - 2

    def test_same_mode_rejected(self):
        with pytest.raises(ValueError) as err:
            swap(2, 2)
        assert str(err.value) == distinct_slots_message(2, 2)


class TestApply:
    def test_identity(self):
        state = apply(rotation(math.pi / 4, 1, 2), basis_state(BASIS4, "B"))
        same = apply(UnitaryOp(np.eye(4)), state)
        np.testing.assert_array_equal(same.amplitudes, state.amplitudes)

    def test_angle_additivity_on_state(self):
        # Oracle: the explicit matrix product of the two factors.
        half = rotation(math.pi / 4, 1, 2)
        once = apply(half, apply(half, basis_state(BASIS4, "B")))
        product = half.matrix @ half.matrix
        np.testing.assert_allclose(once.amplitudes, product @ [0, 1, 0, 0], atol=1e-15)
        np.testing.assert_allclose(once.amplitudes, [0, 0, 1, 0], atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply(rotation(0.1, 0, 1), basis_state(BASIS5, "A"))


class TestApplyBlocks:
    OPS = [((1, 2), rotation_block(0.3)), ((0, 3), SWAP_BLOCK), ((3, 2), rotation_block(-1.1))]

    def test_amplitudes_match_dense_product(self):
        amps = [0.6 + 0j, 0.8j, 0j, 0j]
        apply_blocks(self.OPS, amps)
        np.testing.assert_allclose(amps, embedded_product(self.OPS, 4) @ [0.6, 0.8j, 0, 0], rtol=0, atol=1e-15)

    def test_matrix_rows_match_dense_product(self):
        mat = np.eye(4, dtype=complex)
        apply_blocks(self.OPS, mat)
        np.testing.assert_allclose(mat, embedded_product(self.OPS, 4), rtol=0, atol=1e-15)


class TestComposeUnitary:
    def test_routed_swaps_move_rows_with_their_phases(self):
        # Rows follow the swaps; each routed row carries u01 or u10.
        ops = [((0, 2), ((0j, 1j), (-1 + 0j, 0j))), ((2, 1), SWAP_BLOCK)]
        expected = np.array([[0, 0, 1j], [-1, 0, 0], [0, 1, 0]], dtype=complex)
        np.testing.assert_array_equal(compose_unitary(ops, 3).matrix, expected)

    def test_pending_phase_folds_into_a_mixing_block(self):
        ops = [((0, 1), ((0j, 1j), (1j, 0j))), ((1, 2), rotation_block(0.3))]
        np.testing.assert_allclose(compose_unitary(ops, 3).matrix, embedded_product(ops, 3), rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        ("ops", "dtype"),
        [
            ([], np.complex128),
            ([((0, 1), SWAP_BLOCK)], np.float64),
            ([((0, 1), rotation_block(0.3)), ((1, 2), ((0j, 1j), (1j, 0j)))], np.complex128),
        ],
    )
    def test_float64_needs_at_least_one_block(self, ops, dtype):
        mat = compose_unitary(ops, 3).matrix
        assert mat.dtype == dtype
        if not ops:
            np.testing.assert_array_equal(mat, np.eye(3))

    def test_dense_cap_checked_before_the_ops(self):
        def ops():
            raise AssertionError("ops consumed before the size check")
            yield

        with pytest.raises(ValueError, match="dense matrices are limited to K <= 512"):
            compose_unitary(ops(), 516)

    def test_zero_modes_rejected(self):
        with pytest.raises(ValueError, match=r"at least one mode, got shape \(0, 0\)"):
            compose_unitary([], 0)

    @pytest.mark.parametrize("pair", [(-1, 0), (0, -1), (1, 1), (1, 5), (3, 0), (0, 3)])
    @pytest.mark.parametrize("block", [rotation_block(0.3), SWAP_BLOCK], ids=["rotation", "swap"])
    def test_bad_pair_rejected(self, pair, block):
        # Before the check, (-1, 0) composed slots (2, 0), a swap on (1, 1) gave
        # the identity and (1, 5) raised IndexError.  A complex block first
        # ends the dtype scan; the pairs after it are still checked.
        for ops in ([(pair, block)], [((0, 1), ((0j, 1j), (1j, 0j))), (pair, block)]):
            with pytest.raises(ValueError) as err:
                compose_unitary(ops, 3)
            assert str(err.value) == distinct_slots_message(*pair, size=3)


class TestModeProbabilities:
    """Born-rule readout p_i = |a_i|^2 of the stored amplitudes."""

    def test_basis_state(self):
        np.testing.assert_array_equal(np.abs(PureState([1.0, 0.0, 0.0, 0.0], BASIS4).amplitudes) ** 2, [1, 0, 0, 0])

    def test_modulus_squared(self):
        state = PureState([0.6, 0.8j, 0.0, 0.0], BASIS4)
        np.testing.assert_allclose(np.abs(state.amplitudes) ** 2, [0.36, 0.64, 0, 0], atol=1e-15)

    def test_balanced_rotation(self):
        state = PureState(rotation(math.pi / 4, 1, 2).matrix[:, 1], BASIS4)
        probs = np.abs(state.amplitudes) ** 2
        np.testing.assert_allclose([probs[1], probs[2]], [0.5, 0.5], atol=1e-15)


class TestValidation:
    def test_unnormalized_state_rejected(self):
        with pytest.raises(ValueError):
            PureState([0.5, 0.5, 0.0, 0.0], BASIS4)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            UnitaryOp(np.ones((3, 3)))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            UnitaryOp(np.ones((2, 3)))

    def test_wrong_amplitude_count_rejected(self):
        with pytest.raises(ValueError) as err:
            PureState(np.zeros(3), BASIS4)
        assert str(err.value) == "expected 4 amplitudes, got shape (3,)"

    def test_nan_state_rejected(self):
        with pytest.raises(ValueError):
            PureState([math.nan, 0.0, 0.0, 0.0], BASIS4)

    def test_nan_unitary_rejected(self):
        with pytest.raises(ValueError):
            UnitaryOp(np.full((3, 3), math.nan))

    @pytest.mark.parametrize(
        ("matrix", "message"),
        [
            (np.full((3, 3), math.nan), "matrix is not unitary: max |U^T U - I| = nan"),
            (np.full((3, 3), complex(math.nan, 0.0)), "matrix is not unitary: max |U^dag U - I| = nan"),
            (np.eye(2) * 2, "matrix is not unitary: max |U^T U - I| = 3.0"),
            (np.eye(2, dtype=complex) * 2j, "matrix is not unitary: max |U^dag U - I| = 3.0"),
            ([[2, 0], [0, 2]], "matrix is not unitary: max |U^dag U - I| = 3.0"),
            (np.zeros((0, 0)), "unitary must act on at least one mode, got shape (0, 0)"),
            (np.zeros((0, 0), dtype=complex), "unitary must act on at least one mode, got shape (0, 0)"),
            (np.zeros((0, 3)), "unitary must be square, got shape (0, 3)"),
        ],
    )
    def test_unitary_error_messages(self, matrix, message):
        with pytest.raises(ValueError) as err:
            UnitaryOp(matrix)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        ("matrix", "dtype"),
        [
            (np.eye(3), np.float64),
            ([[0.0, 1.0], [1.0, 0.0]], np.float64),
            (np.eye(3, dtype=np.float32), np.complex128),
            ([[0, 1], [1, 0]], np.complex128),
            (np.eye(3, dtype=complex), np.complex128),
        ],
    )
    def test_unitary_keeps_float64_and_stores_the_rest_as_complex(self, matrix, dtype):
        assert UnitaryOp(matrix).matrix.dtype == dtype

    @pytest.mark.parametrize("slot", range(4))
    def test_nan_block_rejected(self, slot):
        entries = [1 + 0j, 0j, 0j, 1 + 0j]
        entries[slot] = complex(math.nan, 0.0)
        with pytest.raises(ValueError):
            check_block(((entries[0], entries[1]), (entries[2], entries[3])))

    def test_values_are_frozen(self):
        state = PureState([1.0, 0.0, 0.0, 0.0], BASIS4)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0


class TestProperties:
    def test_constructors_are_unitary(self):
        rng = np.random.default_rng(20240811)
        for _ in range(100):
            angle = rng.uniform(-2 * math.pi, 2 * math.pi)
            i, j = rng.choice(BASIS5.size, size=2, replace=False)
            for op in (rotation(angle, i, j, BASIS5.size), swap(i, j, BASIS5.size)):
                defect = np.abs(op.matrix.conj().T @ op.matrix - np.eye(BASIS5.size)).max()
                assert defect <= 1e-12

    def test_rotation_angle_additivity(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a, b = rng.uniform(-math.pi, math.pi, size=2)
            lhs = rotation(a, 1, 2).matrix @ rotation(b, 1, 2).matrix
            rhs = rotation(a + b, 1, 2).matrix
            assert np.abs(lhs - rhs).max() <= 1e-12

    def test_apply_preserves_norm(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            raw = rng.normal(size=BASIS5.size) + 1j * rng.normal(size=BASIS5.size)
            amps = raw / np.linalg.norm(raw)
            for _ in range(rng.integers(1, 51)):
                i, j = rng.choice(BASIS5.size, size=2, replace=False)
                if rng.random() < 0.5:
                    block = rotation_block(rng.uniform(0, 2 * math.pi))
                else:
                    block = SWAP_BLOCK
                apply_blocks([((i, j), block)], amps)
            assert abs(np.linalg.norm(amps) - 1.0) <= 1e-12
