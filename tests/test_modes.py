import dataclasses
import math

import numpy as np
import pytest

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
    embed,
    rotation_block,
)

BASIS4 = ModeBasis(1)
BASIS5 = ModeBasis(2)


def rotation(angle, i, j, size=4):
    """The dense real rotation |i> -> cos|i> + sin|j> on slots (i, j)."""
    return embed(rotation_block(angle), i, j, size)


def swap(i, j, size=4):
    return embed(SWAP_BLOCK, i, j, size)


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
            3, None, pytest.param("L" + "9" * 5000, id="L9x5000"),
        ],
    )
    def test_off_convention_label_rejected(self, mode):
        for basis in (BASIS4, ModeBasis(12)):
            with pytest.raises(ValueError, match="unknown mode"):
                basis.index(mode)


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
        state = apply(rotation(math.pi / 2, 0, 1), basis_state(BASIS4, "A"))
        np.testing.assert_allclose(state.amplitudes, [0, 1, 0, 0], atol=1e-15)

    def test_zero_angle_is_identity(self):
        np.testing.assert_array_equal(rotation(0.0, 1, 2).matrix, np.eye(4))

    def test_pi_over_4_amplitudes(self):
        state = apply(rotation(math.pi / 4, 1, 2), basis_state(BASIS4, "B"))
        expected = [0.0, 0.7071067811865476, 0.7071067811865476, 0.0]
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)

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
        with pytest.raises(ValueError):
            rotation(0.3, 1, 1)


class TestSwap:
    def test_swaps_the_pair(self):
        state = apply(swap(2, 3), basis_state(BASIS4, "C"))
        np.testing.assert_array_equal(state.amplitudes, [0, 0, 0, 1])

    def test_leaves_other_modes_alone(self):
        state = apply(swap(2, 3), basis_state(BASIS4, "A"))
        np.testing.assert_array_equal(state.amplitudes, [1, 0, 0, 0])

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
        with pytest.raises(ValueError):
            swap(2, 2)


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

    def dense_product(self, start):
        # Oracle: each block embedded into the full space, multiplied in order.
        for (i, j), block in self.OPS:
            start = embed(block, i, j, 4).matrix @ start
        return start

    def test_amplitudes_match_dense_product(self):
        amps = [0.6 + 0j, 0.8j, 0j, 0j]
        apply_blocks(self.OPS, amps)
        np.testing.assert_allclose(amps, self.dense_product(np.array([0.6, 0.8j, 0, 0])), rtol=0, atol=1e-15)

    def test_matrix_rows_match_dense_product(self):
        mat = np.eye(4, dtype=complex)
        apply_blocks(self.OPS, mat)
        np.testing.assert_allclose(mat, self.dense_product(np.eye(4)), rtol=0, atol=1e-15)


class TestComposeUnitary:
    def test_routed_swaps_move_rows_with_their_phases(self):
        # Rows follow the swaps; each routed row carries u01 or u10.
        ops = [((0, 2), ((0j, 1j), (-1 + 0j, 0j))), ((2, 1), SWAP_BLOCK)]
        expected = np.array([[0, 0, 1j], [-1, 0, 0], [0, 1, 0]], dtype=complex)
        np.testing.assert_array_equal(compose_unitary(ops, 3).matrix, expected)

    def test_pending_phase_folds_into_a_mixing_block(self):
        ops = [((0, 1), ((0j, 1j), (1j, 0j))), ((1, 2), rotation_block(0.3))]
        dense = embed(rotation_block(0.3), 1, 2, 3).matrix @ embed(((0j, 1j), (1j, 0j)), 0, 1, 3).matrix
        np.testing.assert_allclose(compose_unitary(ops, 3).matrix, dense, rtol=0, atol=1e-15)

    def test_dense_cap_checked_before_the_ops(self):
        def ops():
            raise AssertionError("ops consumed before the size check")
            yield

        with pytest.raises(ValueError, match="dense matrices are limited to K <= 512"):
            compose_unitary(ops(), 516)


class TestModeProbabilities:
    """Born-rule readout p_i = |a_i|^2 of the stored amplitudes."""

    def test_basis_state(self):
        np.testing.assert_array_equal(np.abs(basis_state(BASIS4, "A").amplitudes) ** 2, [1, 0, 0, 0])

    def test_modulus_squared(self):
        state = PureState([0.6, 0.8j, 0.0, 0.0], BASIS4)
        np.testing.assert_allclose(np.abs(state.amplitudes) ** 2, [0.36, 0.64, 0, 0], atol=1e-15)

    def test_balanced_rotation(self):
        state = apply(rotation(math.pi / 4, 1, 2), basis_state(BASIS4, "B"))
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
        state = basis_state(BASIS4, "A")
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
            state = PureState(raw / np.linalg.norm(raw), BASIS5)
            for _ in range(rng.integers(1, 51)):
                i, j = rng.choice(BASIS5.size, size=2, replace=False)
                if rng.random() < 0.5:
                    op = rotation(rng.uniform(0, 2 * math.pi), i, j, BASIS5.size)
                else:
                    op = swap(i, j, BASIS5.size)
                state = apply(op, state)
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-12
