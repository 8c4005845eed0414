"""Single-photon state vectors over labeled optical modes, plus the two-mode
unitaries (real rotations and exact swaps) as 2x2 blocks on a mode pair,
the kernel that applies them, and their embeddings into the full mode space.

Mode convention: channel modes A, B, C sit at indices 0..2, loss modes
L1..LK behind them.  A two-mode operation is a checked 2x2 ``Block`` of
Python complex scalars acting on one pair of amplitude slots (a Givens
rotation).  ``apply_blocks`` is the one place a block is multiplied into
two slots: two amplitudes of a state, or two rows of a matrix.  Protocol
steps, path-history columns and every MZI of the mesh go through it.
Dense M x M matrices (M = K+3) are built only on request: by ``embed`` (and
so ``rotation``, ``swap`` and ``protocol.Step.op``),
``protocol.evolution_unitary`` and ``chip.mesh_unitary``; every dense path
first checks the mode count against ``MAX_DENSE_CYCLES``.
"""

from __future__ import annotations

import math
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
    "check_dense_size",
    "embed",
    "exact_cos_sin",
    "mode_probabilities",
    "rotation",
    "rotation_block",
    "swap",
]

NORM_TOL = 1e-12

# Largest K for which a dense M x M matrix (M = K+3 modes) is built: by
# ``embed`` and ``protocol.Step.op``, ``protocol.evolution_unitary``, and
# ``chip.compile_program``, ``mesh_unitary``, ``verify`` and
# ``simulate_tomography``.  At the cap one such matrix holds 515^2 complex
# entries (about 4.2 MB) and a compiled mesh has at most 6K - 3 = 3,069 MZIs.
# ``protocol.run`` and ``protocol.sweep`` are O(K) and stay uncapped.
MAX_DENSE_CYCLES = 512

# cos(pi/2) lands ~6e-17 off zero in doubles.  Matrix entries that are
# mathematically zero must be exactly 0.0 because path enumeration prunes on
# exact zeros; any legitimate protocol angle keeps cos/sin far above this.
_TRIG_SNAP = 1e-15


def exact_cos_sin(angle: float) -> tuple[float, float]:
    """cos/sin of ``angle`` with sub-epsilon values snapped to exactly 0.0."""
    c = math.cos(angle)
    s = math.sin(angle)
    if abs(c) < _TRIG_SNAP:
        c = 0.0
    if abs(s) < _TRIG_SNAP:
        s = 0.0
    return c, s


# A 2x2 unitary ((u00, u01), (u10, u11)) acting on one mode pair.
Block = tuple[tuple[complex, complex], tuple[complex, complex]]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class ModeBasis:
    """Ordered mode labels [A, B, C, L1..LK]; ``index(mode)`` is the amplitude slot."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if len(labels) < 4:
            raise ValueError(f"need at least 4 modes (K >= 1), got {len(labels)}")
        if labels[:3] != ("A", "B", "C"):
            raise ValueError(f"modes A, B, C must occupy indices 0..2, got {labels[:3]}")
        expected_loss = tuple(f"L{n}" for n in range(1, len(labels) - 2))
        if labels[3:] != expected_loss:
            raise ValueError(f"loss modes must be L1..L{len(labels) - 3} in order, got {labels[3:]}")

    @classmethod
    def for_cycles(cls, k: int) -> "ModeBasis":
        """Basis for a K-cycle protocol: A, B, C plus loss modes L1..LK."""
        if k < 1:
            raise ValueError(f"cycle count must be >= 1, got {k}")
        return cls(("A", "B", "C") + tuple(f"L{n}" for n in range(1, k + 1)))

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def loss_count(self) -> int:
        return len(self.labels) - 3

    def index(self, mode: str) -> int:
        try:
            return self.labels.index(mode)
        except ValueError:
            raise ValueError(f"unknown mode {mode!r}; basis has {self.labels}") from None


@dataclass(frozen=True)
class PureState:
    """Complex amplitudes over a mode basis; always unit norm."""

    amplitudes: np.ndarray
    basis: ModeBasis

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.basis.size,):
            raise ValueError(f"expected {self.basis.size} amplitudes, got shape {amps.shape}")
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm_sq - 1.0) <= NORM_TOL:
            raise ValueError(f"state is not normalized: sum |a_i|^2 = {norm_sq!r}")
        object.__setattr__(self, "amplitudes", _frozen(amps))

    def amplitude(self, mode: str) -> complex:
        return complex(self.amplitudes[self.basis.index(mode)])


@dataclass(frozen=True)
class UnitaryOp:
    """A square complex matrix, checked unitary entrywise at 1e-12."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"unitary must be square, got shape {mat.shape}")
        defect = np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])).max()
        if not defect <= NORM_TOL:
            raise ValueError(f"matrix is not unitary: max |U^dag U - I| = {defect!r}")
        object.__setattr__(self, "matrix", _frozen(mat))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def basis_state(basis: ModeBasis, mode: str) -> PureState:
    """The photon sitting in a single mode."""
    amps = np.zeros(basis.size, dtype=complex)
    amps[basis.index(mode)] = 1.0
    return PureState(amps, basis)


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
    are its rows."""
    for (i, j), ((u00, u01), (u10, u11)) in ops:
        a, b = target[i], target[j]
        new = u00 * a + u01 * b
        target[j] = u10 * a + u11 * b
        target[i] = new


def rotation_block(angle: float) -> Block:
    """Real rotation on a mode pair (i, j): |i> -> cos|i> + sin|j>,
    |j> -> -sin|i> + cos|j>."""
    c, s = exact_cos_sin(angle)
    return check_block(((complex(c), complex(-s)), (complex(s), complex(c))))


SWAP_BLOCK: Block = check_block(((0j, 1 + 0j), (1 + 0j, 0j)))


def embed(block: Block, i: int, j: int, size: int) -> UnitaryOp:
    """``block`` on amplitude slots (i, j) of a ``size``-mode space, identity elsewhere."""
    if i == j:
        raise ValueError(f"a two-mode block needs two distinct slots, got {i} twice")
    check_dense_size(size)
    mat = np.eye(size, dtype=complex)
    (mat[i, i], mat[i, j]), (mat[j, i], mat[j, j]) = block
    return UnitaryOp(mat)


def rotation(basis: ModeBasis, i: str, j: str, angle: float) -> UnitaryOp:
    """Real rotation between modes i and j, identity elsewhere.

    U|i> = cos(angle)|i> + sin(angle)|j>,  U|j> = -sin(angle)|i> + cos(angle)|j>.
    """
    if i == j:
        raise ValueError(f"rotation needs two distinct modes, got {i!r} twice")
    return embed(rotation_block(angle), basis.index(i), basis.index(j), basis.size)


def swap(basis: ModeBasis, i: str, j: str) -> UnitaryOp:
    """Exact permutation |i><j| + |j><i| + identity on everything else."""
    if i == j:
        raise ValueError(f"swap needs two distinct modes, got {i!r} twice")
    return embed(SWAP_BLOCK, basis.index(i), basis.index(j), basis.size)


def apply(op: UnitaryOp, state: PureState) -> PureState:
    """Matrix-vector product; preserves the norm by construction."""
    if op.dim != state.basis.size:
        raise ValueError(f"dimension mismatch: operator is {op.dim}, state has {state.basis.size} modes")
    return PureState(op.matrix @ state.amplitudes, state.basis)


def mode_probabilities(state: PureState) -> np.ndarray:
    """Born-rule readout: p_i = |a_i|^2."""
    return _frozen(np.abs(state.amplitudes) ** 2)
