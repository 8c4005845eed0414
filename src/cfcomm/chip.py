"""Programmable nearest-neighbor MZI mesh: transfer matrices, compilation of
a protocol configuration into mesh settings, phase-equivalence verification
against the modal evolution, and tomography of Alice's output qubit.

MZI convention: external phase shifter, coupler, internal phase shifter,
coupler, i.e. T(theta_m, phi_m) = BS P(theta_m) BS P(phi_m) with the
symmetric 50:50 coupler BS = (1/sqrt 2)[[1, i], [i, 1]] and P(x) putting
e^{ix} on the first mode of the pair (Clements et al., Optica 3, 1460,
2016).  Multiplied out, with t = e^{i theta_m} and f = e^{i phi_m}:

    T(theta_m, phi_m) = (1/2) [[(t - 1) f,  i (t + 1)],
                               [i (t + 1) f, 1 - t    ]]

``mzi_block`` builds this 2x2 block from Python complex scalars.
``mesh_unitary`` composes the blocks through ``modes.compose_unitary``:
routers and, under block, Bob's blockers are exact swaps up to phase
(theta_m = 0), so they are routed, and every other MZI is applied as its
block on the two rows of its pair.  Tomography propagates a single column
(the photon entering A) through the same blocks with ``modes.apply_blocks``.
Blocks are memoised per call by (theta_m, phi_m), since a compiled mesh
repeats a handful of settings.

The compiler takes the protocol from ``protocol.build_steps`` and lowers each
step onto adjacent mode pairs: an outer or inner rotation is one MZI, and
Bob's interaction with loss mode Ln is the blocker MZI on (C, Ln).  B and C
travel down the chain as a convoy, so Ln always sits next to C: after each
Bob step two routers (exact swaps) move C and then B past Ln, and at the
end B and then C walk home.  That is 1 + K + 5B - 4 MZIs for B >= 1 Bob
steps, packed into columns as early as their modes allow.  Pass has no
interaction steps, so it compiles to rotations only.  A useful closed
form follows:

    T(pi - 2a, phi_m) = e^{-ia} R(a) diag(-e^{i phi_m}, 1)

where R(a) is the real rotation the protocol wants.  So a single MZI equals
any target rotation only up to diagonal phases; the compiler keeps a running
"pending phase" per mode and picks each phi_m so the pending phases commute
through every placed MZI.  The whole mesh then equals the modal evolution up
to one diagonal phase matrix on the inputs and one on the outputs, and the
input phases are chosen so the two output phases on A and B coincide (that
coherence is what tomography measures; see ``verify``).
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from . import protocol
from .modes import Block, PureState, UnitaryOp, apply_blocks, check_block, compose_unitary, plain_float, plain_int
from .protocol import ProtocolConfig, alice_reduced_state

__all__ = [
    "MAX_SHOTS",
    "ROLE_BLOCKER",
    "ROLE_IDENTITY",
    "ROLE_INNER",
    "ROLE_OUTER",
    "ROLE_ROUTER",
    "ROLE_TOMOGRAPHY",
    "InsufficientStatisticsError",
    "MeshEquivalenceReport",
    "MeshProgram",
    "MziSetting",
    "TomographyResult",
    "check_seed",
    "check_shots",
    "check_tolerance",
    "compile_program",
    "mesh_unitary",
    "mzi_block",
    "simulate_tomography",
    "trace_distance",
    "verify",
]

TWO_PI = 2 * math.pi

# Largest shot count per basis: numpy's multinomial takes it as a C long.
MAX_SHOTS = 2**63 - 1

ROLE_IDENTITY = "identity"
ROLE_OUTER = "outer_rotation"
ROLE_INNER = "inner_rotation"
ROLE_BLOCKER = "blocker"
ROLE_ROUTER = "router"
ROLE_TOMOGRAPHY = "tomography"

_ROLES = (ROLE_IDENTITY, ROLE_OUTER, ROLE_INNER, ROLE_BLOCKER, ROLE_ROUTER, ROLE_TOMOGRAPHY)

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_BASES = ("Z", "X", "Y")

# Tomography MZI settings on the (A, B) pair.  With theta_m = 3pi/2 the MZI
# is a global phase times R(-pi/4); phi_m = pi leaves the inputs untouched
# (X readout) while phi_m = 3pi/2 adds the relative quarter-wave that turns
# the same interference into a Y readout.
_TOMO_SETTINGS: dict[str, tuple[float, float] | None] = {
    "Z": None,
    "X": (1.5 * math.pi, math.pi),
    "Y": (1.5 * math.pi, 1.5 * math.pi),
}


class InsufficientStatisticsError(RuntimeError):
    """Raised when a tomography basis collects zero postselected events."""


@dataclass(frozen=True, init=False)
class MziSetting:
    """One placed MZI: internal/external phases (radians, stored mod 2pi) on
    the adjacent mode pair (pair, pair+1); its column is where it sits in
    ``MeshProgram.columns``.

    ``__init__`` checks every field and stores each once: ``pair`` a
    non-negative integer, stored as a plain int, ``theta`` and ``phi``
    finite real numbers, stored as floats reduced mod 2pi, and ``role`` one
    of the ``ROLE_*`` names; anything else raises ``ValueError``."""

    pair: int
    theta: float
    phi: float
    role: str

    def __init__(self, pair: int, theta: float, phi: float, role: str) -> None:
        # The exact-type tests pass the compiler's own int/float fields
        # without a call; every other type gets the full check.
        if type(pair) is not int:
            pair = plain_int(pair, "pair index")
        if pair < 0:
            raise ValueError(f"pair index must be >= 0, got {pair}")
        if role not in _ROLES:
            raise ValueError(f"unknown MZI role {role!r}")
        t, f = theta, phi
        if type(t) is not float or type(f) is not float:
            try:
                t, f = plain_float(theta, "theta"), plain_float(phi, "phi")
            except ValueError:
                raise ValueError(f"MZI phases must be real numbers, got theta={theta!r}, phi={phi!r}") from None
        if not (math.isfinite(t) and math.isfinite(f)):
            raise ValueError(f"MZI phases must be finite, got theta={theta!r}, phi={phi!r}")
        # The frozen __setattr__ refuses; the instance dict takes each field once.
        fields = self.__dict__
        fields["pair"] = pair
        fields["theta"] = t % TWO_PI
        fields["phi"] = f % TWO_PI
        fields["role"] = role


@dataclass(frozen=True)
class MeshProgram:
    """Ordered columns of non-overlapping MZI settings on ``mode_count`` >= 1 modes."""

    mode_count: int
    columns: tuple[tuple[MziSetting, ...], ...]

    def __post_init__(self) -> None:
        mode_count = plain_int(self.mode_count, "mode count")
        if mode_count < 1:
            raise ValueError(f"mode count must be >= 1, got {mode_count}")
        object.__setattr__(self, "mode_count", mode_count)
        columns = tuple(tuple(col) for col in self.columns)
        object.__setattr__(self, "columns", columns)
        for index, column in enumerate(columns):
            used: set[int] = set()
            for setting in column:
                if not isinstance(setting, MziSetting):
                    raise ValueError(f"mesh columns must hold MziSetting instances, got {setting!r}")
                if setting.pair + 1 >= self.mode_count:
                    raise ValueError(f"MZI pair {setting.pair} does not fit in {self.mode_count} modes")
                if setting.pair in used or setting.pair + 1 in used or setting.pair - 1 in used:
                    raise ValueError(f"overlapping MZIs in column {index} at pair {setting.pair}")
                used.add(setting.pair)

    @property
    def settings(self) -> tuple[MziSetting, ...]:
        return tuple(s for col in self.columns for s in col)

    def to_json_dict(self) -> dict:
        return {
            "mode_count": self.mode_count,
            "columns": [
                [{"pair": s.pair, "theta": s.theta, "phi": s.phi, "role": s.role} for s in col]
                for col in self.columns
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "MeshProgram":
        """The inverse of ``to_json_dict``.  Values are passed on uncast, so
        the records' own checks reject a non-integer pair or mode count and
        a non-numeric phase rather than truncating or parsing them."""
        columns = tuple(
            tuple(MziSetting(pair=m["pair"], theta=m["theta"], phi=m["phi"], role=m["role"]) for m in col)
            for col in doc["columns"]
        )
        return cls(mode_count=doc["mode_count"], columns=columns)


def mzi_block(theta_m: float, phi_m: float) -> Block:
    """BS P(theta_m) BS P(phi_m) in closed form, checked unitary at 1e-12."""
    t = cmath.exp(1j * theta_m)
    f = cmath.exp(1j * phi_m)
    cross = 0.5j * (t + 1)
    return check_block(((0.5 * (t - 1) * f, cross), (cross * f, 0.5 * (1 - t))))


# --- compilation ------------------------------------------------------------


def _lowered_steps(config: ProtocolConfig) -> Iterator[tuple[int, float | None, str]]:
    """(pair, rotation angle or None for an exact swap, role) per MZI.

    B and C travel down the chain as a convoy: B starts on slot 1 and C on
    slot 2, and the outer rotation acts on pair 0.  Each inner rotation acts
    on (slot of B, slot of C), and Bob's step in cycle n is the blocker on
    (slot of C, slot of C + 1), where Ln still sits at its home (a swap for
    block, a rotation by beta for a splitter).  After every Bob step but the
    last, one router moves C past Ln and a second moves B past it, so the
    used loss modes stay behind in order and the next fresh one sits next to
    C.  At the end B walks home, then C, which moves every loss mode back to
    its home too: 1 + K MZIs without Bob steps, 1 + K + 5B - 4 with B >= 1.
    """
    steps = protocol.build_steps(config)
    remaining = sum(step.kind == protocol.BOB_INTERACTION for step in steps)
    b = 1
    for step in steps:
        if step.kind == protocol.OUTER_ROTATION:
            yield 0, config.phi, ROLE_OUTER
        elif step.kind == protocol.INNER_ROTATION:
            yield b, config.theta, ROLE_INNER
        else:
            yield b + 1, config.bob.beta, ROLE_BLOCKER
            remaining -= 1
            if remaining:
                yield b + 1, None, ROLE_ROUTER
                yield b, None, ROLE_ROUTER
                b += 1
    for q in range(b - 1, 0, -1):  # B walks home from slot b
        yield q, None, ROLE_ROUTER
    for q in range(b, 1, -1):  # then C from slot b + 1
        yield q, None, ROLE_ROUTER


def _phase_walk(
    ops: list[tuple[int, float | None, str]], pending: list[complex]
) -> tuple[list[tuple[int, float, float, str]], list[int]]:
    """Place each op, updating ``pending`` in place by the rules in
    ``compile_program``; return the (pair, theta_m, phi_m, role) settings
    and, per mode, the input mode its pending phase traces back to."""
    source = list(range(len(pending)))
    placed = []
    for pair, angle, role in ops:
        i, j = pair, pair + 1
        if angle is None:
            theta_m, phi_m = 0.0, 0.0
            pending[i], pending[j] = 1j * pending[j], 1j * pending[i]
            source[i], source[j] = source[j], source[i]
        else:
            theta_m = math.pi - 2 * angle
            phi_m = cmath.phase(-pending[j] / pending[i])
            pending[i] = pending[j] = pending[j] * cmath.exp(-1j * angle)
            source[i] = source[j]
        placed.append((pair, theta_m, phi_m, role))
    return placed, source


def compile_program(config: ProtocolConfig) -> MeshProgram:
    """Compile a configuration onto the mesh, each MZI in the column after
    the last one that touched either of its modes.  MZIs in one column act
    on disjoint rows and so commute: the packed program multiplies out to
    the same matrix, bit for bit, as the MZIs one per column in walk order.

    Phase bookkeeping: each MZI realizing a target block G satisfies
    T diag(p_i, p_j) = diag(q_i, q_j) G for unit "pending" phases p, q:

      rotation by a: theta_m = pi - 2a, phi_m = arg(-p_j / p_i),
                     q_i = q_j = e^{-ia} p_j
      exact swap:    theta_m = 0 (cross), phi_m = 0,
                     q_i = i p_j, q_j = i p_i

    Chaining gives U_mesh diag(d) = diag(q_final) U_modal, so the mesh is
    phase-equivalent to the modal evolution with input phases d and output
    phases conj(q_final).  Each final pending phase is one input phase d[m]
    times a factor that does not depend on d (only the emitted phi_m values
    do).  So a first walk with d = 1 finds those factors and which input
    each final pending traces back to; d is then chosen so the output phases
    on A and B coincide, and a second walk emits the settings.
    """
    ops = list(_lowered_steps(config))  # checks K against protocol.MAX_CYCLES first
    size = config.mode_basis().size

    coeff = [1.0 + 0.0j] * size
    _, source = _phase_walk(ops, coeff)
    d = [1.0 + 0.0j] * size
    if source[0] != source[1]:
        d[source[0]] = coeff[1] / coeff[0]
    elif abs(coeff[0] - coeff[1]) > 1e-9:  # unreachable: A's source never flows back to B
        raise RuntimeError("cannot equalize output phases on modes A and B")

    placed, _ = _phase_walk(ops, d)
    free = [0] * size  # per mode, the column after the last MZI that touched it
    columns: list[list[MziSetting]] = []
    for pair, theta_m, phi_m, role in placed:
        column = max(free[pair], free[pair + 1])
        if column == len(columns):
            columns.append([])
        columns[column].append(MziSetting(pair=pair, theta=theta_m, phi=phi_m, role=role))
        free[pair] = free[pair + 1] = column + 1
    return MeshProgram(mode_count=size, columns=tuple(map(tuple, columns)))


def _mzi_walk(program: MeshProgram) -> Iterator[tuple[tuple[int, int], Block]]:
    """((pair, pair+1), block) for every MZI in column order; each distinct
    (theta, phi) setting is built and checked once per walk."""
    blocks: dict[tuple[float, float], Block] = {}
    for column in program.columns:
        for setting in column:
            key = (setting.theta, setting.phi)
            block = blocks.get(key)
            if block is None:
                block = blocks[key] = mzi_block(*key)
            yield (setting.pair, setting.pair + 1), block


def mesh_unitary(program: MeshProgram) -> UnitaryOp:
    """Compose the MZIs in column order through ``modes.compose_unitary``:
    routers and block-mode blockers are routed, every other MZI updates the
    two rows of its pair."""
    return compose_unitary(_mzi_walk(program), program.mode_count)


def _input_column(program: MeshProgram) -> np.ndarray:
    """Column 0 of the mesh unitary (the photon entering mode 0), two
    amplitudes per MZI."""
    amps = [0j] * program.mode_count
    amps[0] = 1 + 0j
    apply_blocks(_mzi_walk(program), amps)
    return np.array(amps)


# --- verification -----------------------------------------------------------


@dataclass(frozen=True)
class MeshEquivalenceReport:
    """Result of matching a mesh unitary to the modal evolution up to diagonal
    phases, the output phases on A and B held equal."""

    equivalent: bool
    residual: float
    output_phases: tuple[complex, ...]
    input_phases: tuple[complex, ...]
    detail: str = ""


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.count = n  # components

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        self.count -= 1
        return True

    def roots(self) -> np.ndarray:
        """Every node's root, by pointer jumping on a copy of the parents."""
        parent = np.array(self.parent)
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                return parent
            parent = grand


def _phase_edges(v: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Rows and columns of the entries nonzero in both matrices, strongest
    (by the smaller of the two magnitudes) first, ties in row-major order,
    and how many of them lead the order above the 1e-8 edge floor."""
    # np.hypot, not np.abs: it matches Python's abs() on complex entries bit
    # for bit, while np.abs can differ in the last ulp, which reorders ties
    # and so changes the spanning tree.
    mag = np.minimum(np.hypot(v.real, v.imag), np.hypot(w.real, w.imag)).ravel()
    entries = np.flatnonzero(mag)
    entries = entries[np.argsort(-mag[entries], kind="stable")]
    rows, cols = np.divmod(entries, v.shape[1])
    return rows, cols, int(np.count_nonzero(mag > 1e-8))


def _kruskal(forest: _UnionFind, ends: np.ndarray, others: np.ndarray, join: Callable[[int, int], None]) -> None:
    """Offer the edges (ends[n], others[n]) to ``join`` in order until the
    forest is one tree, in batches of as many edges as the forest has
    nodes.  After each batch the edges left whose two ends already share a
    root are dropped, since ``union`` would refuse them, so the edges joined
    and their order are those of offering every edge one by one."""
    batch = len(forest.parent)
    while len(ends):
        for a, b in zip(ends[:batch].tolist(), others[:batch].tolist()):
            if forest.count == 1:
                return
            join(a, b)
        ends, others = ends[batch:], others[batch:]
        if len(ends):
            roots = forest.roots()
            apart = roots[ends] != roots[others]
            ends, others = ends[apart], others[apart]


def check_tolerance(tol: object) -> float:
    """``tol`` as a plain float; ``ValueError`` unless it is a finite real
    number >= 0."""
    value = plain_float(tol, "tolerance")
    if not 0 <= value < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tol}")
    return value


def verify(u_mesh: UnitaryOp, config: ProtocolConfig, tol: float = 1e-9) -> MeshEquivalenceReport:
    """Find diagonal phases with D_out U_mesh D_in = U_modal, A/B outputs equal.

    Phases are propagated over a spanning forest of the bipartite graph of
    matrix entries (rows and columns as nodes, entries as edges).  Entries
    above 1e-8 in both matrices come first, strongest first.  Within a
    connected component the phase assignment is unique up to one gauge
    factor, which never moves the ratio of two output phases; so if those
    entries leave rows A and B apart, the A/B output constraint ties them.
    Components still apart are then joined through their strongest entries
    below that floor, strongest first: left alone, such an entry would keep
    an arbitrary relative phase and mismatch by up to twice its magnitude.
    Both passes are Kruskal's algorithm (``_kruskal``).  Failure is
    reported, never raised; a ``tol`` that is not a finite real number >= 0
    raises ``ValueError`` before anything is computed.
    """
    check_tolerance(tol)
    target = protocol.evolution_unitary(config)
    v = u_mesh.matrix
    w = target.matrix
    if v.shape != w.shape:
        raise ValueError(f"dimension mismatch: mesh is {v.shape}, modal evolution is {w.shape}")
    size = v.shape[0]

    forest = _UnionFind(2 * size)
    # node -> [(neighbor, entry phase ratio, or None for "same phase")]
    adjacency: list[list[tuple[int, complex | None]]] = [[] for _ in range(2 * size)]

    def join(i: int, node: int) -> None:
        if forest.union(i, node):
            ratio = w[i, node - size] / v[i, node - size]
            ratio /= abs(ratio)
            adjacency[i].append((node, ratio))
            adjacency[node].append((i, ratio))

    rows, cols, strong = _phase_edges(v, w)
    cols += size  # column j is graph node size + j
    _kruskal(forest, rows[:strong], cols[:strong], join)
    if forest.union(0, 1):
        adjacency[0].append((1, None))
        adjacency[1].append((0, None))
    _kruskal(forest, rows[strong:], cols[strong:], join)

    phase: list[complex | None] = [None] * (2 * size)
    for root in range(2 * size):
        if phase[root] is not None:
            continue
        phase[root] = 1.0 + 0.0j
        queue = [root]
        while queue:
            node = queue.pop()
            for neighbor, ratio in adjacency[node]:
                if phase[neighbor] is None:
                    phase[neighbor] = phase[node] if ratio is None else ratio / phase[node]
                    queue.append(neighbor)

    alpha = np.array(phase[:size], dtype=complex)
    beta = np.array(phase[size:], dtype=complex)
    residual = float(np.abs(alpha[:, None] * v * beta[None, :] - w).max())
    phases_ok = bool(abs(alpha[0] - alpha[1]) <= tol)
    equivalent = phases_ok and residual <= tol
    detail = ""
    if not phases_ok:
        detail = "output phases on A and B are forced unequal"
    elif not equivalent:
        detail = f"residual {residual:.3e} exceeds tolerance {tol:.3e}"
    return MeshEquivalenceReport(
        equivalent=equivalent,
        residual=residual,
        output_phases=tuple(alpha),
        input_phases=tuple(beta),
        detail=detail,
    )


# --- tomography -------------------------------------------------------------


@dataclass(frozen=True)
class TomographyResult:
    """Counts, reconstruction, and error of one tomography experiment.

    ``counts`` maps basis name to (D0, D1) postselected counts; shortfall
    against ``shots_per_basis`` is aborted/lost shots.  The reconstruction is
    linear inversion followed by projection to the nearest unit-trace PSD
    matrix.
    """

    counts: dict[str, tuple[int, int]]
    shots_per_basis: int
    reconstructed_rho: np.ndarray
    exact_rho: np.ndarray
    trace_distance: float
    postselected_fraction: float


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(1/2) * trace norm of rho - sigma."""
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho - sigma))))


def _project_density(rho: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues and renormalize the trace to 1."""
    values, vectors = np.linalg.eigh(rho)
    values = np.clip(values, 0.0, None)
    projected = (vectors * values) @ vectors.conj().T
    return projected / np.trace(projected).real


def _basis_probabilities(psi: np.ndarray, basis_name: str) -> np.ndarray:
    setting = _TOMO_SETTINGS[basis_name]
    out = np.array(psi, dtype=complex)
    if setting is not None:
        apply_blocks([((0, 1), mzi_block(*setting))], out)
    return np.abs(out) ** 2


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


def simulate_tomography(config: ProtocolConfig, shots_per_basis: int, seed: int = 0) -> TomographyResult:
    """Tomography of Alice's output qubit on the compiled mesh.

    The mesh output for the photon entering A (column 0 of the mesh unitary)
    is propagated MZI by MZI and checked to unit norm at ``NORM_TOL``.  Per
    basis (Z directly; X and Y through the tomography MZI on the A/B
    pair) every shot samples the full outcome distribution; C and loss
    detections are discarded as aborts.  ``shots_per_basis = 0`` switches to
    analytic expectations, which invert exactly.  Sampling is reproducible:
    the three bases draw from ``numpy.random.SeedSequence(seed).spawn(3)``
    substreams in Z, X, Y order.  Nothing dense is built, so K is bounded by
    ``protocol.MAX_CYCLES`` (through ``protocol.run``), not by the dense cap.
    ``shots_per_basis`` and ``seed`` pass ``check_shots`` and ``check_seed``
    first, before anything runs.
    """
    shots_per_basis = check_shots(shots_per_basis)
    seed = check_seed(seed)
    final_state, _ = protocol.run(config)
    exact_rho, p_ab = alice_reduced_state(final_state)
    psi = PureState(_input_column(compile_program(config)), config.mode_basis()).amplitudes

    expectations: dict[str, float] = {}
    counts: dict[str, tuple[int, int]] = {}
    if shots_per_basis == 0:
        kept = 0.0
        for name in _BASES:
            probs = _basis_probabilities(psi, name)
            kept = float(probs[0] + probs[1])
            if kept <= 0.0:
                raise InsufficientStatisticsError(f"no postselected probability in basis {name}")
            expectations[name] = float((probs[0] - probs[1]) / kept)
            counts[name] = (0, 0)
        postselected_fraction = kept
    else:
        streams = np.random.SeedSequence(seed).spawn(len(_BASES))
        kept_total = 0
        for name, stream in zip(_BASES, streams):
            rng = np.random.default_rng(stream)
            probs = _basis_probabilities(psi, name)
            draw = rng.multinomial(shots_per_basis, probs / probs.sum())
            n0, n1 = int(draw[0]), int(draw[1])
            if n0 + n1 == 0:
                raise InsufficientStatisticsError(f"no postselected events in basis {name}")
            counts[name] = (n0, n1)
            expectations[name] = (n0 - n1) / (n0 + n1)
            kept_total += n0 + n1
        postselected_fraction = kept_total / (len(_BASES) * shots_per_basis)

    rho = 0.5 * (
        np.eye(2, dtype=complex)
        + expectations["X"] * _PAULI_X
        + expectations["Y"] * _PAULI_Y
        + expectations["Z"] * _PAULI_Z
    )
    rho = _project_density(rho)
    rho.setflags(write=False)
    return TomographyResult(
        counts=counts,
        shots_per_basis=shots_per_basis,
        reconstructed_rho=rho,
        exact_rho=exact_rho,
        trace_distance=trace_distance(rho, exact_rho),
        postselected_fraction=float(postselected_fraction),
    )
