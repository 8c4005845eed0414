"""Single-photon states over labelled optical modes, and the two-mode
operations that act on them.

Modes: channel modes A, B, C at slots 0..2, loss modes L1..LK behind them,
so K alone fixes the basis.  A two-mode operation is a ``Block``, a checked
2x2 unitary on one pair of slots.  Every trig value is ``math.cos`` or
``math.sin``, except cos(pi/2), which ``exact_cos_sin`` makes exactly 0.0.
Dense M x M matrices (M = K + 3) are built only by ``embed`` and
``compose_unitary``, both bounded by ``MAX_DENSE_CYCLES``.  ``plain_int``
and ``plain_float`` are the package's one rule for what counts as an
integer or a real number; every record stores what they return.
``check_cycle_count``, ``check_tolerance``, ``check_shots`` and
``check_seed`` apply them to K and to the verification and tomography
inputs, so the CLI parser checks those flags without importing ``chip``.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_DENSE_CYCLES",
    "MAX_SHOTS",
    "NORM_TOL",
    "SWAP_BLOCK",
    "Block",
    "ModeBasis",
    "PureState",
    "UnitaryOp",
    "apply_blocks",
    "check_block",
    "check_cycle_count",
    "check_dense_size",
    "check_norm",
    "check_seed",
    "check_shots",
    "check_tolerance",
    "compose_unitary",
    "exact_cos_sin",
    "plain_float",
    "plain_int",
    "rotation_block",
]

NORM_TOL = 1e-12

# Largest K for which a dense M x M matrix (M = K + 3 modes) is built; at the
# cap one holds 515^2 entries (about 4.2 MB complex, 2.1 MB real).
MAX_DENSE_CYCLES = 512


def plain_int(value: object, name: str) -> int:
    """``value`` as a plain int: an exact ``int`` at once, else any
    ``numbers.Integral`` but a bool; every other type raises ``ValueError``."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def plain_float(value: object, name: str) -> float:
    """``value`` as a plain float: an exact ``float`` at once, else any
    ``numbers.Real`` but a bool (a ``Fraction`` too), one past the float
    range as +-inf; every other type raises ``ValueError``."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def check_cycle_count(k: object) -> int:
    """The cycle count K as a plain int; ``ValueError`` unless it is an
    integer >= 1."""
    k = plain_int(k, "cycle count K")
    if k < 1:
        raise ValueError(f"cycle count K must be >= 1, got {k}")
    return k


def check_tolerance(tol: object) -> float:
    """``tol`` as a plain float; ``ValueError`` unless it is a finite real
    number >= 0."""
    value = plain_float(tol, "tolerance")
    if not 0 <= value < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tol}")
    return value


# Largest shot count per basis: numpy's multinomial takes it as a C long.
MAX_SHOTS = 2**63 - 1


def check_shots(shots: object) -> int:
    """Shots per basis as a plain int; ``ValueError`` unless it is an integer
    in [0, ``MAX_SHOTS``]."""
    shots = plain_int(shots, "shots per basis")
    if not 0 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots per basis must lie in [0, 2**63 - 1], got {shots}")
    return shots


def check_seed(seed: object) -> int:
    """The sampling seed as a plain int; ``ValueError`` unless it is an
    integer >= 0."""
    seed = plain_int(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def exact_cos_sin(angle: float) -> tuple[float, float]:
    """``(math.cos(angle), math.sin(angle))``, but exactly (0.0, 1.0) at the
    float pi/2, whose cosine rounds to 6e-17.  On [0, pi/2] that is the one
    exact zero rounding loses; path counts prune on exact zeros."""
    if angle == math.pi / 2:
        return 0.0, 1.0
    return math.cos(angle), math.sin(angle)


# A 2x2 unitary ((u00, u01), (u10, u11)) acting on one mode pair: Python
# floats for the real modal blocks, complex for the MZI blocks of ``chip``.
Block = tuple[tuple[complex, complex], tuple[complex, complex]]


_CHANNELS = {"A": 0, "B": 1, "C": 2}


@dataclass(frozen=True)
class ModeBasis:
    """Modes [A, B, C, L1..LK] for K = ``loss_count``, checked by
    ``check_cycle_count``; ``index(mode)`` is the amplitude slot."""

    loss_count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "loss_count", check_cycle_count(self.loss_count))

    @property
    def size(self) -> int:
        return self.loss_count + 3

    @property
    def labels(self) -> tuple[str, ...]:
        return (*_CHANNELS, *(f"L{n}" for n in range(1, self.loss_count + 1)))

    def index(self, mode: str) -> int:
        """Slot of "A", "B", "C" or "L<n>" (n in 1..K, plain decimal);
        ``ValueError`` for any other label."""
        if isinstance(mode, str):
            if mode in _CHANNELS:
                return _CHANNELS[mode]
            n, k = mode[1:], str(self.loss_count)  # digit strings of one length compare as numbers
            if mode[:1] == "L" and n.isascii() and n.isdigit() and n[0] != "0" and (len(n), n) <= (len(k), k):
                return 2 + int(n)
        raise ValueError(f"unknown mode {mode!r}; basis has A, B, C, L1..L{self.loss_count}")


@dataclass(frozen=True)
class PureState:
    """Complex amplitudes over a mode basis; ``ValueError`` unless there is one
    per mode and the norm is 1 within ``NORM_TOL``."""

    amplitudes: np.ndarray
    basis: ModeBasis

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.basis.size,):
            raise ValueError(f"expected {self.basis.size} amplitudes, got shape {amps.shape}")
        check_norm(float(np.sum(np.abs(amps) ** 2)))
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def amplitude(self, mode: str) -> complex:
        return complex(self.amplitudes[self.basis.index(mode)])


@dataclass(frozen=True)
class UnitaryOp:
    """A non-empty square matrix, checked unitary entrywise at ``NORM_TOL``:
    a float64 matrix stays float64 and is checked as max |U^T U - I| (a real
    Gram product), any other is stored as complex128 and checked as
    max |U^dag U - I|.  Otherwise ``ValueError``."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix)
        real = mat.dtype == np.float64
        if not real:
            mat = np.asarray(mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"unitary must be square, got shape {mat.shape}")
        if mat.size == 0:
            raise ValueError("unitary must act on at least one mode, got shape (0, 0)")
        gram = mat.T @ mat if real else mat.conj().T @ mat
        gram.flat[:: mat.shape[0] + 1] -= 1.0  # minus I, in place
        defect = float(np.abs(gram).max())
        if not defect <= NORM_TOL:
            gram_name = "U^T U" if real else "U^dag U"
            raise ValueError(f"matrix is not unitary: max |{gram_name} - I| = {defect!r}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


def basis_state(basis: ModeBasis, mode: str) -> PureState:
    """The photon sitting in a single mode."""
    amps = np.zeros(basis.size, dtype=complex)
    amps[basis.index(mode)] = 1.0
    return PureState(amps, basis)


def check_norm(norm_sq: float) -> None:
    """Raise ``ValueError`` unless a squared norm lies within ``NORM_TOL`` of 1
    (NaN fails too)."""
    if not abs(norm_sq - 1.0) <= NORM_TOL:
        raise ValueError(f"state is not normalized: sum |a_i|^2 = {norm_sq!r}")


def check_dense_size(size: int) -> None:
    """Raise ``ValueError`` if a ``size``-mode space exceeds ``MAX_DENSE_CYCLES``."""
    if size > MAX_DENSE_CYCLES + 3:
        raise ValueError(
            f"dense matrices are limited to K <= {MAX_DENSE_CYCLES} ({MAX_DENSE_CYCLES + 3} modes), "
            f"got {size} modes (K = {size - 3})"
        )


def check_block(block: Block) -> Block:
    """``block``, after checking its defect max |B^dag B - I|, that of the
    block embedded in any mode space, at ``NORM_TOL``; else ``ValueError``."""
    (a, b), (c, d) = block
    # The cross term goes first: it is not finite whenever any entry is not,
    # and max() keeps a leading NaN, so a NaN block fails the check.
    defect = max(
        abs(a.conjugate() * b + c.conjugate() * d),
        abs(abs(a) ** 2 + abs(c) ** 2 - 1.0),
        abs(abs(b) ** 2 + abs(d) ** 2 - 1.0),
    )
    if not defect <= NORM_TOL:
        raise ValueError(f"block is not unitary: max |B^dag B - I| = {defect!r}")
    return block


def apply_blocks(ops: Iterable[tuple[tuple[int, int], Block]], target: list[complex] | np.ndarray) -> None:
    """Apply each ``((i, j), block)`` in order to slots i and j of ``target``
    in place: a list or vector of amplitudes, or a matrix whose slots are its
    rows.  With 0/1 blocks, ints or bools, on a list of Python ints it counts
    paths exactly, as ``histories.counterfactuality_report`` does with each
    block's nonzero pattern as bools."""
    for (i, j), ((u00, u01), (u10, u11)) in ops:
        a, b = target[i], target[j]
        new = u00 * a + u01 * b
        target[j] = u10 * a + u11 * b
        target[i] = new


def compose_unitary(ops: Iterable[tuple[tuple[int, int], Block]], size: int) -> UnitaryOp:
    """The ``size``-mode unitary of the ``((i, j), block)`` sequence applied
    in order to the identity: float64 for a non-empty sequence of Python
    float entries, complex128 otherwise.  ``ValueError`` past
    ``MAX_DENSE_CYCLES`` (checked first) or if the product is not unitary.

    The rows are kept in a list, one per slot, and a slot whose row is still
    the untouched identity row e_c holds just c.  A block with an exactly
    zero diagonal (an exact swap up to phases) is routed, not multiplied: it
    swaps its two list entries and multiplies their pending phases by u01
    and u10.  Every other block first folds the pending phases of its slots
    into its entries, then replaces its two rows as ``apply_blocks`` would,
    except that against an e_c each new row is the other row times one
    entry plus the other entry at column c: two vector operations, not six,
    and only the sign of an exact zero can differ.  The rows are float64
    from an all-float first block until a block that is not makes them
    complex128, once; no entry is read ahead.  They are stacked at the end.
    """
    check_dense_size(size)
    rows: list[int | np.ndarray] = list(range(size))  # slot -> its row, or c while it is e_c
    phases = [1.0] * size  # slot -> the phase pending on its row
    real = None  # float64 rows: set by the first block, cleared for good by the first non-float one
    for (i, j), ((u00, u01), (u10, u11)) in ops:
        if real is not False:
            all_float = (
                isinstance(u00, float) and isinstance(u01, float) and isinstance(u10, float) and isinstance(u11, float)
            )
            if real and not all_float:  # the float64 rows so far turn complex128
                for slot, row in enumerate(rows):
                    if type(row) is not int:
                        rows[slot] = row.astype(complex)
            real = all_float
        if u00 == 0 and u11 == 0:
            rows[i], rows[j] = rows[j], rows[i]
            phases[i], phases[j] = u01 * phases[j], u10 * phases[i]
            continue
        p, q = phases[i], phases[j]
        if p != 1:
            u00, u10 = u00 * p, u10 * p
            phases[i] = 1.0
        if q != 1:
            u01, u11 = u01 * q, u11 * q
            phases[j] = 1.0
        a, b = rows[i], rows[j]
        if type(a) is int:
            if type(b) is int:  # both untouched: spell e_b out
                b = np.zeros(size, float if real else complex)
                b[rows[j]] = 1.0
            new_i, new_j = u01 * b, u11 * b
            new_i[a] += u00
            new_j[a] += u10
        elif type(b) is int:
            new_i, new_j = u00 * a, u10 * a
            new_i[b] += u01
            new_j[b] += u11
        else:
            new_i, new_j = u00 * a + u01 * b, u10 * a + u11 * b
        rows[i], rows[j] = new_i, new_j
    mat = np.zeros((size, size), float if real else complex)
    for slot, row in enumerate(rows):
        if type(row) is int:
            mat[slot, row] = 1.0
        else:
            mat[slot] = row
    del rows  # frees the rows before the Gram check
    if any(p != 1 for p in phases):
        mat *= np.array(phases)[:, None]
    return UnitaryOp(mat)


def rotation_block(angle: float) -> Block:
    """Real rotation on a mode pair (i, j): |i> -> cos|i> + sin|j>,
    |j> -> -sin|i> + cos|j>."""
    c, s = exact_cos_sin(angle)
    return check_block(((c, -s), (s, c)))


SWAP_BLOCK: Block = check_block(((0.0, 1.0), (1.0, 0.0)))


def embed(block: Block, i: int, j: int, size: int) -> UnitaryOp:
    """``block`` on amplitude slots (i, j) of a ``size``-mode space, identity
    elsewhere; ``ValueError`` if i == j or past ``MAX_DENSE_CYCLES``."""
    if i == j:
        raise ValueError(f"a two-mode block needs two distinct slots, got {i} twice")
    check_dense_size(size)
    mat = np.eye(size, dtype=complex)
    (mat[i, i], mat[i, j]), (mat[j, i], mat[j, j]) = block
    return UnitaryOp(mat)


def apply(op: UnitaryOp, state: PureState) -> PureState:
    """Matrix-vector product; ``ValueError`` if the dimensions differ."""
    if op.matrix.shape[0] != state.basis.size:
        raise ValueError(f"dimension mismatch: operator is {op.matrix.shape[0]}, state has {state.basis.size} modes")
    return PureState(op.matrix @ state.amplitudes, state.basis)
