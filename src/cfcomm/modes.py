"""Single-photon state vectors over labeled optical modes, plus the two-mode
unitaries (real rotations and exact swaps) as 2x2 blocks on a mode pair,
the kernel that applies them, and their embedding into the full mode space.
``plain_int`` and ``plain_float`` are the package's one rule for what counts
as an integer or a real number; every record stores what they return.

Mode convention: channel modes A, B, C sit at indices 0..2, loss modes
L1..LK behind them, so K alone fixes the basis.  A two-mode operation is a
checked 2x2 ``Block`` of Python scalars acting on one pair of amplitude
slots (a Givens rotation).  The modal layer is real: ``rotation_block`` and
``SWAP_BLOCK`` hold Python floats, so the protocol evolves float amplitudes
and ``protocol.evolution_unitary`` is a float64 matrix; only the MZI blocks
of ``chip`` are complex.  ``apply_blocks`` multiplies blocks into two
slots of a vector in place: the amplitudes of a state (protocol steps, the
counterfactuality report's forward passes, path-history columns, the
tomography column) or exact path counts.  ``compose_unitary`` builds the
dense matrix of a block sequence, float64 if every block entry is a float
and complex128 otherwise, for ``protocol.evolution_unitary`` and
``chip.mesh_unitary``: a block with an exactly zero diagonal (an exact
swap up to phases) is routed, by swapping which stored row each slot reads
and carrying its phases to the end; every other block updates two stored
rows.  ``UnitaryOp`` checks a float64 matrix with the real Gram product
U^T U and any other matrix, as complex128, with U^dag U.  Dense M x M
matrices (M = K+3) are built only on request: by ``embed`` (and so
``protocol.Step.op``) and ``compose_unitary``; every dense path first
checks the mode count against ``MAX_DENSE_CYCLES``.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_DENSE_CYCLES",
    "NORM_TOL",
    "SWAP_BLOCK",
    "Block",
    "ModeBasis",
    "PureState",
    "UnitaryOp",
    "apply",
    "apply_blocks",
    "basis_state",
    "check_block",
    "check_cycle_count",
    "check_dense_size",
    "check_norm",
    "compose_unitary",
    "embed",
    "exact_cos_sin",
    "plain_float",
    "plain_int",
    "rotation_block",
]

NORM_TOL = 1e-12

# Largest K for which a dense M x M matrix (M = K+3 modes) is built: by
# ``embed`` and ``protocol.Step.op``, ``protocol.evolution_unitary``, and
# ``chip.mesh_unitary`` and ``verify``.  At the cap one such matrix holds
# 515^2 entries (about 4.2 MB complex, 2.1 MB real).  The O(K) paths (``protocol.run``,
# ``protocol.sweep``, ``histories.counterfactuality_report``,
# ``chip.compile_program`` and ``chip.simulate_tomography``) are bounded by
# ``protocol.MAX_CYCLES`` instead.
MAX_DENSE_CYCLES = 512

# cos(pi/2) lands ~6e-17 off zero in doubles.  Matrix entries that are
# mathematically zero must be exactly 0.0 because path enumeration and path
# counts prune on exact zeros; any legitimate protocol angle keeps cos/sin
# far above this.
_TRIG_SNAP = 1e-15


def plain_int(value: object, name: str) -> int:
    """``value`` as a plain int.  A Python or numpy integer counts; a bool, a
    float and every other type raise ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def plain_float(value: object, name: str) -> float:
    """``value`` as a plain float.  A Python or numpy integer or float counts,
    an int past the float range as +-inf; a bool and every other type
    raise ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
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


def exact_cos_sin(angle: float) -> tuple[float, float]:
    """cos/sin of ``angle`` with sub-epsilon values snapped to exactly 0.0."""
    c = math.cos(angle)
    s = math.sin(angle)
    if abs(c) < _TRIG_SNAP:
        c = 0.0
    if abs(s) < _TRIG_SNAP:
        s = 0.0
    return c, s


# A 2x2 unitary ((u00, u01), (u10, u11)) acting on one mode pair: Python
# floats for the real modal blocks, complex for the MZI blocks of ``chip``.
Block = tuple[tuple[complex, complex], tuple[complex, complex]]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


_CHANNELS = {"A": 0, "B": 1, "C": 2}
_LOSS_LABEL = re.compile("L([1-9][0-9]*)")


@dataclass(frozen=True)
class ModeBasis:
    """Modes [A, B, C, L1..LK] for K = ``loss_count``; ``index(mode)`` is the
    amplitude slot."""

    loss_count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "loss_count", check_cycle_count(self.loss_count))

    @property
    def size(self) -> int:
        return self.loss_count + 3

    @property
    def labels(self) -> tuple[str, ...]:
        return ("A", "B", "C") + tuple(f"L{n}" for n in range(1, self.loss_count + 1))

    def index(self, mode: str) -> int:
        """Slot of "A", "B", "C" or "L<n>" (n in 1..K, plain decimal)."""
        if isinstance(mode, str):
            if mode in _CHANNELS:
                return _CHANNELS[mode]
            loss = _LOSS_LABEL.fullmatch(mode)
            # Lengths first: int() refuses very long digit strings.
            if loss and len(loss[1]) <= len(str(self.loss_count)) and int(loss[1]) <= self.loss_count:
                return 2 + int(loss[1])
        raise ValueError(f"unknown mode {mode!r}; basis has A, B, C, L1..L{self.loss_count}")


@dataclass(frozen=True)
class PureState:
    """Complex amplitudes over a mode basis; always unit norm."""

    amplitudes: np.ndarray
    basis: ModeBasis

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.basis.size,):
            raise ValueError(f"expected {self.basis.size} amplitudes, got shape {amps.shape}")
        check_norm(float(np.sum(np.abs(amps) ** 2)))
        object.__setattr__(self, "amplitudes", _frozen(amps))

    def amplitude(self, mode: str) -> complex:
        return complex(self.amplitudes[self.basis.index(mode)])


@dataclass(frozen=True)
class UnitaryOp:
    """A square matrix, checked unitary entrywise at 1e-12.

    A float64 matrix stays float64 and is checked as max |U^T U - I|, a
    real Gram product (BLAS syrk); any other matrix is stored as complex128
    and checked as max |U^dag U - I|.
    """

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
        object.__setattr__(self, "matrix", _frozen(mat))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


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
    """Return ``block`` after checking it unitary entrywise at 1e-12.

    The defect max |B^dag B - I| equals that of the block embedded into any
    mode space, since the embedding is exactly the identity elsewhere.
    """
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
    """Apply each ``((i, j), block)`` in order to slots i and j of ``target``,
    in place.  ``target`` is a list of amplitudes or a matrix, whose slots
    are its rows.  With 0/1 integer blocks on a list of Python ints it
    counts paths exactly."""
    for (i, j), ((u00, u01), (u10, u11)) in ops:
        a, b = target[i], target[j]
        new = u00 * a + u01 * b
        target[j] = u10 * a + u11 * b
        target[i] = new


def compose_unitary(ops: Iterable[tuple[tuple[int, int], Block]], size: int) -> UnitaryOp:
    """The ``size``-mode unitary of the ``((i, j), block)`` sequence applied
    in order to the identity, checked against the dense cap first.  The
    matrix is float64 when every block entry is a Python float (the real
    modal blocks) and complex128 otherwise.

    A block with an exactly zero diagonal (an exact swap up to phases:
    routers, Bob's blocker under block, ``SWAP_BLOCK``) is routed, not
    multiplied: it swaps which stored row each of its two slots reads and
    multiplies their pending phases by u01 and u10.  Every other block
    first folds the pending phases of its slots into its entries, then
    updates the two stored rows as ``apply_blocks`` would.  At the end the
    rows are gathered through the map in place, and scaled unless every
    pending phase is 1.  With nothing routed the matrix is returned as
    built, entry for entry what ``apply_blocks`` on the identity gives.
    """
    check_dense_size(size)
    ops = list(ops)
    real = all(isinstance(u, float) for _, block in ops for row in block for u in row)
    one = 1.0 if real else 1 + 0j
    mat = np.eye(size, dtype=float if real else complex)
    rows = list(range(size))  # slot -> the stored row it reads
    phases = [one] * size  # slot -> the phase pending on that row
    for (i, j), ((u00, u01), (u10, u11)) in ops:
        if u00 == 0 and u11 == 0:
            rows[i], rows[j] = rows[j], rows[i]
            phases[i], phases[j] = u01 * phases[j], u10 * phases[i]
            continue
        p, q = phases[i], phases[j]
        if p != 1:
            u00, u10 = u00 * p, u10 * p
            phases[i] = one
        if q != 1:
            u01, u11 = u01 * q, u11 * q
            phases[j] = one
        a, b = mat[rows[i]], mat[rows[j]]
        new = u00 * a + u01 * b
        b[:] = u10 * a + u11 * b
        a[:] = new
    # Gather in place, one cycle of the map at a time (slot s takes stored
    # row rows[s]): a gathered copy would add an M x M array to the peak.
    for start in range(size):
        if rows[start] == start:
            continue
        first = mat[start].copy()
        slot = start
        while rows[slot] != start:
            mat[slot] = mat[rows[slot]]
            rows[slot], slot = slot, rows[slot]
        mat[slot] = first
        rows[slot] = slot
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
    """``block`` on amplitude slots (i, j) of a ``size``-mode space, identity elsewhere."""
    if i == j:
        raise ValueError(f"a two-mode block needs two distinct slots, got {i} twice")
    check_dense_size(size)
    mat = np.eye(size, dtype=complex)
    (mat[i, i], mat[i, j]), (mat[j, i], mat[j, j]) = block
    return UnitaryOp(mat)


def apply(op: UnitaryOp, state: PureState) -> PureState:
    """Matrix-vector product; preserves the norm by construction."""
    if op.dim != state.basis.size:
        raise ValueError(f"dimension mismatch: operator is {op.dim}, state has {state.basis.size} modes")
    return PureState(op.matrix @ state.amplitudes, state.basis)
