"""Programmable nearest-neighbour MZI mesh: compilation of a protocol
configuration into MZI settings, phase-equivalence verification against the
modal evolution, and tomography of Alice's output qubit.

Modes are those of ``modes.ModeBasis``: A, B, C, L1..LK, MZI pair p acting on
modes (p, p + 1).  MZI convention (Clements et al., Optica 3, 1460, 2016):
T(theta, phi) = BS P(theta) BS P(phi), with the coupler
BS = (1/sqrt 2)[[1, i], [i, 1]] and P(x) putting e^{ix} on the first mode of
the pair.  With t = e^{i theta} and f = e^{i phi}:

    T(theta, phi) = (1/2) [[(t - 1) f,  i (t + 1)],
                           [i (t + 1) f, 1 - t    ]]

``compile_program`` and ``simulate_tomography`` cost O(K) and are bounded by
``protocol.MAX_CYCLES``; ``mesh_unitary`` and ``verify`` build dense
matrices and are bounded by ``modes.MAX_DENSE_CYCLES``.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import modes, protocol
from .modes import (
    MAX_SHOTS,
    Block,
    PureState,
    UnitaryOp,
    apply_blocks,
    check_block,
    check_seed,
    check_shots,
    check_tolerance,
    compose_unitary,
    plain_float,
    plain_int,
)
from .protocol import ProtocolConfig, alice_reduced_state

__all__ = [
    "MAX_SHOTS",
    "ROLE_BLOCKER",
    "ROLE_INNER",
    "ROLE_OUTER",
    "ROLE_ROUTER",
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

ROLE_OUTER = protocol.OUTER_ROTATION
ROLE_INNER = protocol.INNER_ROTATION
ROLE_BLOCKER = "blocker"
ROLE_ROUTER = "router"

_ROLES = (ROLE_OUTER, ROLE_INNER, ROLE_BLOCKER, ROLE_ROUTER)

class InsufficientStatisticsError(RuntimeError):
    """Raised when a tomography basis collects zero postselected events."""


@dataclass(frozen=True, init=False)
class MziSetting:
    """One MZI on the mode pair (pair, pair + 1): ``pair`` an integer >= 0,
    stored as a plain int; ``theta`` and ``phi`` finite real numbers
    (radians), stored as floats in [0, 2pi); ``role`` one of
    ``ROLE_OUTER``, ``ROLE_INNER``, ``ROLE_BLOCKER`` and ``ROLE_ROUTER``.
    Anything else raises ``ValueError``."""

    pair: int
    theta: float
    phi: float
    role: str

    def __init__(self, pair: int, theta: float, phi: float, role: str) -> None:
        pair = plain_int(pair, "pair index")
        if pair < 0:
            raise ValueError(f"pair index must be >= 0, got {pair}")
        if role not in _ROLES:
            raise ValueError(f"unknown MZI role {role!r}")
        try:
            t, f = plain_float(theta, "theta"), plain_float(phi, "phi")
        except ValueError:
            raise ValueError(f"MZI phases must be real numbers, got theta={theta!r}, phi={phi!r}") from None
        if not (math.isfinite(t) and math.isfinite(f)):
            raise ValueError(f"MZI phases must be finite, got theta={theta!r}, phi={phi!r}")
        _store(self, pair, t, f, role)


def _store(setting: MziSetting, pair: int, theta: float, phi: float, role: str) -> MziSetting:
    """``setting`` with the fields as given, phases reduced to [0, 2pi); unchecked."""
    fields = setting.__dict__  # the frozen __setattr__ refuses
    fields["pair"] = pair
    fields["theta"] = theta % TWO_PI % TWO_PI  # the second % maps a rounded-up 2pi to 0
    fields["phi"] = phi % TWO_PI % TWO_PI
    fields["role"] = role
    return setting


@dataclass(frozen=True)
class MeshProgram:
    """Ordered columns of non-overlapping ``MziSetting`` records on
    ``mode_count`` modes, an integer >= 1 stored as a plain int.  A column
    whose MZIs share a mode, a pair past the last mode, or anything that is
    not a column of records raises ``ValueError``.  ``compile_program``
    stores its programs, and their records, without these checks;
    ``TestRecordChecks.test_compiled_programs_pass_the_public_checks`` in
    ``tests/test_chip.py`` holds them to both public constructors."""

    mode_count: int
    columns: tuple[tuple[MziSetting, ...], ...]

    def __post_init__(self) -> None:
        mode_count = plain_int(self.mode_count, "mode count")
        if mode_count < 1:
            raise ValueError(f"mode count must be >= 1, got {mode_count}")
        object.__setattr__(self, "mode_count", mode_count)
        try:
            columns = tuple(tuple(col) for col in self.columns)
        except TypeError:
            raise ValueError(f"mesh columns must be an iterable of columns, got {self.columns!r}") from None
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
        a non-numeric phase rather than truncating or parsing them.  A
        document of any other shape raises ``ValueError`` as well."""
        mode_count, columns = _json_fields(doc, ("mode_count", "columns"), "mesh program")
        if not isinstance(columns, (list, tuple)):
            raise ValueError(f"mesh program columns must be a list, got {columns!r}")
        packed = []
        for col in columns:
            if not isinstance(col, (list, tuple)):
                raise ValueError(f"a mesh column must be a list of MZI records, got {col!r}")
            packed.append(tuple(MziSetting(*_json_fields(m, _MZI_FIELDS, "MZI record")) for m in col))
        return cls(mode_count, tuple(packed))


_MZI_FIELDS = ("pair", "theta", "phi", "role")


def _json_fields(doc: object, names: tuple[str, ...], what: str) -> list:
    """The values of ``names`` in the JSON object ``doc``, in that order."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {doc!r}")
    for name in names:
        if name not in doc:
            raise ValueError(f"{what} has no {name!r}")
    return [doc[name] for name in names]


def mzi_block(theta_m: float, phi_m: float) -> Block:
    """T(theta_m, phi_m) of Python complex numbers, checked unitary at 1e-12."""
    t = cmath.exp(1j * theta_m)
    f = cmath.exp(1j * phi_m)
    cross = 0.5j * (t + 1)
    return check_block(((0.5 * (t - 1) * f, cross), (cross * f, 0.5 * (1 - t))))


# Tomography readouts on the (A, B) pair, as ``apply_blocks`` ops, in sampling
# order.  With theta = 3pi/2 the MZI is a global phase times R(-pi/4); phi = pi
# gives the X readout, and phi = 3pi/2 adds the relative quarter-wave that
# turns it into the Y readout.
_READOUT: dict[str, list[tuple[tuple[int, int], Block]]] = {
    "Z": [],
    "X": [((0, 1), mzi_block(1.5 * math.pi, math.pi))],
    "Y": [((0, 1), mzi_block(1.5 * math.pi, 1.5 * math.pi))],
}


# --- compilation ------------------------------------------------------------


def _lowered_steps(config: ProtocolConfig) -> Iterator[tuple[int, float | None, str]]:
    """(pair, rotation angle or None for an exact swap, role) per MZI.

    B and C travel down the chain as a convoy (B on slot b, C on b + 1, from
    b = 1), so the loss mode Ln of the next Bob step sits at home next to C:
    each inner rotation acts on (B, C) and Bob's step is the blocker on
    (C, Ln).  After every Bob step but the last, two routers move C and then
    B past Ln.  At the end B and then C walk home, and so does every Ln.
    Each op of ``config.step_ops()`` is named by its modal pair: (0, 1) the
    outer rotation, (1, 2) an inner rotation, (2, 2 + n) a Bob step.
    """
    ops = config.step_ops()
    remaining = len(ops) - 1 - config.k  # the Bob steps, after the outer and K inner rotations
    b = 1
    for pair, _ in ops:
        if pair == (0, 1):
            yield 0, config.phi, ROLE_OUTER
        elif pair == (1, 2):
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
) -> list[tuple[int, float, float, str]]:
    """The (pair, theta_m, phi_m, role) setting of each op; ``pending`` is
    updated in place.  Since T(pi - 2a, phi) = e^{-ia} R(a) diag(-e^{i phi}, 1),
    each MZI realizes its target block G as T diag(p_i, p_j) = diag(q_i, q_j) G
    for unit pending phases p before and q after it:

      rotation by a: theta_m = pi - 2a, phi_m = arg(-p_j / p_i),
                     q_i = q_j = e^{-ia} p_j
      exact swap:    theta_m = 0, phi_m = 0, q_i = i p_j, q_j = i p_i
    """
    placed = []
    for pair, angle, role in ops:
        i, j = pair, pair + 1
        if angle is None:
            theta_m, phi_m = 0.0, 0.0
            pending[i], pending[j] = 1j * pending[j], 1j * pending[i]
        else:
            theta_m = math.pi - 2 * angle
            phi_m = cmath.phase(-pending[j] / pending[i])
            pending[i] = pending[j] = pending[j] * cmath.exp(-1j * angle)
        placed.append((pair, theta_m, phi_m, role))
    return placed


def _placed(config: ProtocolConfig) -> list[tuple[int, float, float, str]]:
    """The (pair, theta_m, phi_m, role) of every MZI in walk order.

    The phase walk gives U_mesh diag(d) = diag(q_final) U_modal for input
    phases d, each final phase one d[m] times a factor free of d.  The first
    MZI, alone on pair 0, is the outer rotation, so A's factor multiplies
    d[1]; the second, the first inner rotation, overwrites B's phase, so
    B's never does.  A walk with d = 1 finds the factors and the settings;
    d[1] = coeff[1] / coeff[0] equalizes the A and B output phases (the
    coherence tomography measures), so those two MZIs are walked again."""
    ops = list(_lowered_steps(config))  # checks K against protocol.MAX_CYCLES first
    coeff = [1.0 + 0.0j] * config.mode_basis().size
    placed = _phase_walk(ops, coeff)
    placed[:2] = _phase_walk(ops[:2], [1.0 + 0.0j, coeff[1] / coeff[0], 1.0 + 0.0j])
    return placed


def compile_program(config: ProtocolConfig) -> MeshProgram:
    """The mesh program of ``config``, each MZI in the column after the last
    one that touched either of its modes: 1 + K MZIs without Bob steps, and
    1 + K + 5B - 4 with B >= 1 Bob steps.  It equals
    ``protocol.evolution_unitary(config)`` up to one diagonal phase matrix on
    the inputs and one on the outputs, whose A and B entries are equal (see
    ``verify``).  K above ``protocol.MAX_CYCLES`` raises ``ValueError``
    before any MZI is placed.

    The records and the program skip the public constructors' checks,
    which the walk meets by construction; ``tests/test_chip.py``'s
    ``test_compiled_programs_pass_the_public_checks`` holds every compiled
    program to them."""
    placed = _placed(config)
    size = config.mode_basis().size
    free = [0] * size  # per mode, the column after the last MZI that touched it
    columns: list[list[MziSetting]] = []
    for pair, theta_m, phi_m, role in placed:
        column = max(free[pair], free[pair + 1])
        if column == len(columns):
            columns.append([])
        columns[column].append(_store(object.__new__(MziSetting), pair, theta_m, phi_m, role))
        free[pair] = free[pair + 1] = column + 1
    program = object.__new__(MeshProgram)
    program.__dict__.update(mode_count=size, columns=tuple(map(tuple, columns)))
    return program


def _records(program: MeshProgram) -> Iterator[tuple[int, float, float]]:
    """(pair, theta, phi) of every MZI of ``program`` in column order."""
    return ((s.pair, s.theta, s.phi) for column in program.columns for s in column)


def _mzi_walk(mzis: Iterable[tuple[int, float, float]]) -> Iterator[tuple[tuple[int, int], Block]]:
    """((pair, pair+1), block) for every (pair, theta, phi) MZI in order.  A
    compiled mesh repeats a handful of settings, so each distinct (theta,
    phi) is built and checked once per walk."""
    blocks: dict[tuple[float, float], Block] = {}
    for pair, theta, phi in mzis:
        key = (theta, phi)
        block = blocks.get(key)
        if block is None:
            block = blocks[key] = mzi_block(theta, phi)
        yield (pair, pair + 1), block


def mesh_unitary(program: MeshProgram) -> UnitaryOp:
    """The unitary of ``program``'s MZIs in column order, from
    ``modes.compose_unitary``: ``ValueError`` past ``modes.MAX_DENSE_CYCLES``
    or if the product is not unitary at 1e-12."""
    return compose_unitary(_mzi_walk(_records(program)), program.mode_count)


def _input_column(mzis: Iterable[tuple[int, float, float]], size: int) -> np.ndarray:
    """Column 0 of the ``size``-mode unitary of the (pair, theta, phi) MZIs."""
    amps = [0j] * size
    amps[0] = 1 + 0j
    apply_blocks(_mzi_walk(mzis), amps)
    return np.array(amps)


def _tomography_column(config: ProtocolConfig) -> np.ndarray:
    """Column 0 of ``mesh_unitary(compile_program(config))``, from the
    compiler's MZIs in walk order with phases in [0, 2pi) as
    ``MziSetting`` stores them.  Packing only reorders MZIs on disjoint
    modes, so no ``MeshProgram`` is needed."""
    mzis = ((pair, theta_m % TWO_PI % TWO_PI, phi_m % TWO_PI % TWO_PI) for pair, theta_m, phi_m, _ in _placed(config))
    return _input_column(mzis, config.mode_basis().size)


# --- verification -----------------------------------------------------------


@dataclass(frozen=True)
class MeshEquivalenceReport:
    """The result of ``verify``: the phases D_out (``output_phases``) and D_in
    (``input_phases``) found, the max entrywise residual
    |D_out U_mesh D_in - U_modal|, and ``detail``, why ``equivalent`` is false."""

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
    # np.hypot, not np.abs: it matches Python's abs() on complex entries, while
    # np.abs can differ in the last ulp, which reorders ties and so changes
    # the spanning tree.
    mag = np.minimum(np.hypot(v.real, v.imag), np.hypot(w.real, w.imag)).ravel()
    entries = np.flatnonzero(mag)
    entries = entries[np.argsort(-mag[entries], kind="stable")]
    rows, cols = np.divmod(entries, v.shape[1])
    return rows, cols, int(np.count_nonzero(mag > 1e-8))


def _kruskal(forest: _UnionFind, ends: np.ndarray, others: np.ndarray, join: Callable[[int, int], None]) -> None:
    """Offer the edges (ends[n], others[n]) to ``join`` in order until the
    forest is one tree, in batches of as many edges as the forest has
    nodes.  After each batch the edges whose ends already share a root are
    dropped, since ``union`` would refuse them anyway."""
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


def verify(u_mesh: UnitaryOp, config: ProtocolConfig, tol: float = 1e-9) -> MeshEquivalenceReport:
    """Find diagonal phases with D_out U_mesh D_in = U_modal, the output
    phases on A and B equal; ``equivalent`` when the residual and the A/B
    phase gap are both at most ``tol``.  Failure is reported, never raised.
    ``ValueError`` for a ``tol`` that is not a finite real number >= 0
    (before anything is computed), K past ``modes.MAX_DENSE_CYCLES``, or a
    ``u_mesh`` of another size than the modal evolution.

    Phases are propagated over a spanning forest of the bipartite graph of
    matrix entries (rows and columns as nodes).  Entries above 1e-8 in both
    matrices come first, strongest first.  Within a component the phases are
    unique up to one gauge factor, which never moves the ratio of two output
    phases; so if those entries leave rows A and B apart, the A/B constraint
    ties them.  Components still apart are joined through their strongest
    entries below that floor: left alone, such an entry would keep an
    arbitrary relative phase and mismatch by up to twice its magnitude.
    """
    tol = check_tolerance(tol)
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
    return MeshEquivalenceReport(equivalent, residual, tuple(alpha), tuple(beta), detail)


# --- tomography -------------------------------------------------------------


@dataclass(frozen=True)
class TomographyResult:
    """Counts, reconstruction, and error of one tomography experiment.

    ``counts`` maps basis name to (D0, D1) postselected counts; the shortfall
    against ``shots_per_basis`` is aborted or lost shots.  The reconstruction
    is linear inversion clipped to the Bloch ball: rho = (I + r.sigma) / 2,
    where r is the measured (<X>, <Y>, <Z>) divided by max(1, its norm).
    ``trace_distance`` is |r - s| / 2 for the Bloch vector s of ``exact_rho``.
    """

    counts: dict[str, tuple[int, int]]
    shots_per_basis: int
    reconstructed_rho: np.ndarray
    exact_rho: np.ndarray
    trace_distance: float
    postselected_fraction: float


def trace_distance(rho: object, sigma: object) -> float:
    """(1/2) * trace norm of rho - sigma; ``ValueError`` unless they are square
    matrices of one shape whose difference is Hermitian at ``modes.NORM_TOL``."""
    rho, sigma = np.asarray(rho, dtype=complex), np.asarray(sigma, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape != sigma.shape:
        raise ValueError(f"trace distance needs two square matrices of one shape, got {rho.shape} and {sigma.shape}")
    diff = rho - sigma
    gap = float(np.abs(diff - diff.conj().T).max(initial=0.0))
    if not gap <= modes.NORM_TOL:
        raise ValueError(f"rho - sigma must be Hermitian within {modes.NORM_TOL:g}, got max |D - D^H| = {gap:.3e}")
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


def _basis_probabilities(psi: np.ndarray, basis_name: str) -> np.ndarray:
    out = np.array(psi, dtype=complex)
    apply_blocks(_READOUT[basis_name], out)
    return np.abs(out) ** 2


def simulate_tomography(config: ProtocolConfig, shots_per_basis: int, seed: int = 0) -> TomographyResult:
    """Tomography of Alice's output qubit on the compiled mesh.

    The mesh output for the photon entering A is checked to unit norm at
    ``NORM_TOL``.  Per basis (Z directly; X and Y through the tomography MZI
    on the (A, B) pair) every shot samples the full outcome distribution, and
    detections at D3 and in the loss modes are discarded as aborts.
    ``shots_per_basis`` = 0 gives analytic expectations.  The bases draw from
    ``numpy.random.SeedSequence(seed).spawn(3)`` in Z, X, Y order.

    ``shots_per_basis`` and ``seed`` pass ``check_shots`` and ``check_seed``
    before anything runs.  ``ValueError`` for K past ``protocol.MAX_CYCLES``
    (the dense cap does not apply), ``protocol.PostselectionError`` when
    {A, B} carries no amplitude, and ``InsufficientStatisticsError`` when a
    basis keeps no event.
    """
    shots_per_basis = check_shots(shots_per_basis)
    seed = check_seed(seed)
    exact_rho, _ = alice_reduced_state(protocol.run(config)[0])
    psi = PureState(_tomography_column(config), config.mode_basis()).amplitudes

    expectations: dict[str, float] = {}
    counts: dict[str, tuple[int, int]] = dict.fromkeys(_READOUT, (0, 0))
    kept = 0
    for name, stream in zip(_READOUT, np.random.SeedSequence(seed).spawn(len(_READOUT))):
        probs = _basis_probabilities(psi, name)
        if shots_per_basis:
            draw = np.random.default_rng(stream).multinomial(shots_per_basis, probs / probs.sum())
            n0, n1 = counts[name] = int(draw[0]), int(draw[1])
        else:
            n0, n1 = float(probs[0]), float(probs[1])
        if not n0 + n1 > 0:
            raise InsufficientStatisticsError(f"no postselected events in basis {name}")
        expectations[name] = (n0 - n1) / (n0 + n1)
        kept += n0 + n1
    # Analytic: the last basis's postselected probability; sampled: the kept share of all shots.
    postselected_fraction = kept / (len(_READOUT) * shots_per_basis) if shots_per_basis else n0 + n1

    # For a qubit, clipping negative eigenvalues and renormalizing is this radial map.
    x, y, z = expectations["X"], expectations["Y"], expectations["Z"]
    scale = max(1.0, math.sqrt(x * x + y * y + z * z))
    x, y, z = x / scale, y / scale, z / scale
    # 0.0 - y, not -y, so that y = 0 gives an imaginary part of +0.0.
    rho = np.array([[0.5 * (1 + z), complex(0.5 * x, 0.5 * (0.0 - y))], [complex(0.5 * x, 0.5 * y), 0.5 * (1 - z)]])
    rho.setflags(write=False)
    s = complex(exact_rho[1, 0])
    dx, dy, dz = x - 2 * s.real, y - 2 * s.imag, z - float((exact_rho[0, 0] - exact_rho[1, 1]).real)
    return TomographyResult(
        counts=counts,
        shots_per_basis=shots_per_basis,
        reconstructed_rho=rho,
        exact_rho=exact_rho,
        trace_distance=0.5 * math.sqrt(dx * dx + dy * dy + dz * dz),
        postselected_fraction=float(postselected_fraction),
    )
