"""Programmable nearest-neighbor MZI mesh: transfer matrices, compilation of
a protocol configuration into mesh settings, phase-equivalence verification
against the modal evolution, and tomography of Alice's output qubit.

MZI convention: external phase shifter, coupler, internal phase shifter,
coupler, i.e. T(theta_m, phi_m) = BS P(theta_m) BS P(phi_m) with the
symmetric 50:50 coupler BS = (1/sqrt 2)[[1, i], [i, 1]] and P(x) putting
e^{ix} on the first mode of the pair.  A useful closed form follows:

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
from dataclasses import dataclass

import numpy as np

from . import protocol
from .modes import UnitaryOp
from .protocol import ProtocolConfig, alice_reduced_state

__all__ = [
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
    "compile_program",
    "mesh_unitary",
    "mzi_transfer",
    "simulate_tomography",
    "trace_distance",
    "verify",
]

TWO_PI = 2 * math.pi

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


@dataclass(frozen=True)
class MziSetting:
    """One placed MZI: internal/external phases (radians, stored mod 2pi) on
    the adjacent mode pair (pair, pair+1) in the given column."""

    pair: int
    column: int
    theta: float
    phi: float
    role: str

    def __post_init__(self) -> None:
        if self.pair < 0:
            raise ValueError(f"pair index must be >= 0, got {self.pair}")
        if self.role not in _ROLES:
            raise ValueError(f"unknown MZI role {self.role!r}")
        object.__setattr__(self, "theta", self.theta % TWO_PI)
        object.__setattr__(self, "phi", self.phi % TWO_PI)


@dataclass(frozen=True)
class MeshProgram:
    """Ordered columns of non-overlapping MZI settings on ``mode_count`` modes."""

    mode_count: int
    columns: tuple[tuple[MziSetting, ...], ...]

    def __post_init__(self) -> None:
        columns = tuple(tuple(col) for col in self.columns)
        object.__setattr__(self, "columns", columns)
        for index, column in enumerate(columns):
            used: set[int] = set()
            for setting in column:
                if setting.pair + 1 >= self.mode_count:
                    raise ValueError(f"MZI pair {setting.pair} does not fit in {self.mode_count} modes")
                if setting.column != index:
                    raise ValueError(f"MZI tagged column {setting.column} found in column {index}")
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
        columns = tuple(
            tuple(
                MziSetting(pair=int(m["pair"]), column=i, theta=float(m["theta"]), phi=float(m["phi"]), role=str(m["role"]))
                for m in col
            )
            for i, col in enumerate(doc["columns"])
        )
        return cls(mode_count=int(doc["mode_count"]), columns=columns)


def mzi_transfer(theta_m: float, phi_m: float) -> UnitaryOp:
    """2x2 transfer matrix BS P(theta_m) BS P(phi_m)."""
    bs = np.array([[1, 1j], [1j, 1]], dtype=complex) / math.sqrt(2)
    return UnitaryOp(bs @ np.diag([cmath.exp(1j * theta_m), 1.0]) @ bs @ np.diag([cmath.exp(1j * phi_m), 1.0]))


# --- compilation ------------------------------------------------------------


@dataclass(frozen=True)
class _PlannedOp:
    target: str  # "rotation" | "swap" | "identity"
    pair: int
    angle: float
    role: str


def _plan_mesh(config: ProtocolConfig, force_routers: bool) -> list[_PlannedOp]:
    """Protocol steps as target 2x2 blocks on adjacent pairs.

    Bob's interaction with loss mode Ln (home position 2+n) becomes a chain
    of routers walking Ln next to C, the blocker MZI on pair 2, and the
    inverse chain; every bundle restores all positions, so homes are fixed.
    """
    emit_bundles = config.bob.interacts or force_routers

    def bundle(n: int) -> list[_PlannedOp]:
        if not emit_bundles:
            return []
        home = 2 + n
        ops = [_PlannedOp("swap", q, 0.0, ROLE_ROUTER) for q in range(home - 1, 2, -1)]
        if config.bob.kind == "block":
            ops.append(_PlannedOp("swap", 2, 0.0, ROLE_BLOCKER))
        elif config.bob.kind == "splitter":
            ops.append(_PlannedOp("rotation", 2, config.bob.beta, ROLE_BLOCKER))
        else:
            ops.append(_PlannedOp("identity", 2, 0.0, ROLE_IDENTITY))
        ops.extend(_PlannedOp("swap", q, 0.0, ROLE_ROUTER) for q in range(3, home))
        return ops

    plan = [_PlannedOp("rotation", 0, config.phi, ROLE_OUTER)]
    for n in range(1, config.k):
        plan.append(_PlannedOp("rotation", 1, config.theta, ROLE_INNER))
        plan.extend(bundle(n))
    plan.append(_PlannedOp("rotation", 1, config.theta, ROLE_INNER))
    if config.include_final_block:
        plan.extend(bundle(config.k))
    return plan


def compile_program(
    config: ProtocolConfig,
    layout: tuple[str, ...] | list[str] | None = None,
    *,
    force_routers: bool = False,
) -> MeshProgram:
    """Compile a configuration onto the mesh, one MZI per column.

    Phase bookkeeping: each MZI realizing a target block G satisfies
    T diag(p_i, p_j) = diag(q_i, q_j) G for unit "pending" phases p, q:

      rotation by a: theta_m = pi - 2a, phi_m = arg(-p_j / p_i),
                     q_i = q_j = e^{-ia} p_j
      exact swap:    theta_m = 0 (cross), phi_m = 0,
                     q_i = i p_j, q_j = i p_i
      identity:      theta_m = phi_m = pi (the transfer is exactly 1)

    Chaining gives U_mesh diag(d) = diag(q_final) U_modal, so the mesh is
    phase-equivalent to the modal evolution with input phases d and output
    phases conj(q_final).  The pending phases evolve independently of d (only
    the emitted phi_m values depend on it), which allows a two-pass scheme:
    a symbolic pass finds which input phase each final pending traces back
    to, then d is chosen so the output phases on A and B coincide and the
    concrete pass emits the settings.
    """
    basis = config.mode_basis()
    if layout is None:
        layout = basis.labels
    if tuple(layout) != basis.labels:
        raise ValueError(
            f"mesh layout must place A, B, C, L1..L{config.k} in order on adjacent modes, got {tuple(layout)}"
        )
    size = basis.size
    plan = _plan_mesh(config, force_routers)

    # Symbolic pass: pending phase on mode m is coeff[m] * d[source[m]].
    coeff: list[complex] = [1.0 + 0.0j] * size
    source = list(range(size))
    for op in plan:
        i, j = op.pair, op.pair + 1
        if op.target == "rotation":
            q = coeff[j] * cmath.exp(-1j * op.angle)
            coeff[i] = coeff[j] = q
            source[i] = source[j]
        elif op.target == "swap":
            coeff[i], coeff[j] = 1j * coeff[j], 1j * coeff[i]
            source[i], source[j] = source[j], source[i]

    d: list[complex] = [1.0 + 0.0j] * size
    if source[0] != source[1]:
        d[source[0]] = coeff[1] / coeff[0]
    elif abs(coeff[0] - coeff[1]) > 1e-9:  # unreachable: A's source never flows back to B
        raise RuntimeError("cannot equalize output phases on modes A and B")

    # Concrete pass with the chosen input phases.
    pending = list(d)
    settings = []
    for column, op in enumerate(plan):
        i, j = op.pair, op.pair + 1
        if op.target == "rotation":
            theta_m = math.pi - 2 * op.angle
            phi_m = cmath.phase(-pending[j] / pending[i])
            pending[i] = pending[j] = pending[j] * cmath.exp(-1j * op.angle)
        elif op.target == "swap":
            theta_m, phi_m = 0.0, 0.0
            pending[i], pending[j] = 1j * pending[j], 1j * pending[i]
        else:
            theta_m, phi_m = math.pi, math.pi
        settings.append(MziSetting(pair=op.pair, column=column, theta=theta_m, phi=phi_m, role=op.role))
    return MeshProgram(mode_count=size, columns=tuple((s,) for s in settings))


def mesh_unitary(program: MeshProgram) -> UnitaryOp:
    """Compose the MZIs in column order, each updating the two rows of its pair."""
    mat = np.eye(program.mode_count, dtype=complex)
    for column in program.columns:
        for setting in column:
            rows = mat[setting.pair : setting.pair + 2]
            rows[...] = mzi_transfer(setting.theta, setting.phi).matrix @ rows
    return UnitaryOp(mat)


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
        return True


def verify(u_mesh: UnitaryOp, config: ProtocolConfig, tol: float = 1e-9) -> MeshEquivalenceReport:
    """Find diagonal phases with D_out U_mesh D_in = U_modal, A/B outputs equal.

    Phases are propagated over the bipartite graph of matrix entries (rows
    and columns as nodes, entries solidly nonzero in both matrices as edges,
    strongest entries first).  Within a connected component the phase
    assignment is unique up to one gauge factor, which never moves the
    ratio of two output phases; across components the gauge is free, so the
    A/B output constraint is imposed by rescaling B's component.  Failure is
    reported, never raised.
    """
    target = protocol.evolution_unitary(config)
    v = u_mesh.matrix
    w = target.matrix
    if v.shape != w.shape:
        raise ValueError(f"dimension mismatch: mesh is {v.shape}, modal evolution is {w.shape}")
    size = v.shape[0]

    floor = 1e-8
    edges = []
    for i in range(size):
        for j in range(size):
            mag_v, mag_w = abs(v[i, j]), abs(w[i, j])
            if mag_v > floor and mag_w > floor:
                edges.append((min(mag_v, mag_w), i, j))
    edges.sort(key=lambda e: (-e[0], e[1], e[2]))

    forest = _UnionFind(2 * size)
    adjacency: list[list[tuple[int, int, int]]] = [[] for _ in range(2 * size)]
    for _, i, j in edges:
        if forest.union(i, size + j):
            adjacency[i].append((size + j, i, j))
            adjacency[size + j].append((i, i, j))

    phase: list[complex | None] = [None] * (2 * size)
    component = [0] * (2 * size)
    for root in range(2 * size):
        if phase[root] is not None:
            continue
        phase[root] = 1.0 + 0.0j
        component[root] = root
        queue = [root]
        while queue:
            node = queue.pop()
            for neighbor, i, j in adjacency[node]:
                if phase[neighbor] is not None:
                    continue
                ratio = w[i, j] / v[i, j]
                ratio /= abs(ratio)
                phase[neighbor] = ratio / phase[node]
                component[neighbor] = root
                queue.append(neighbor)

    alpha = np.array(phase[:size], dtype=complex)
    beta = np.array(phase[size:], dtype=complex)

    detail = ""
    phases_ok = True
    if component[0] == component[1]:
        if abs(alpha[0] - alpha[1]) > tol:
            phases_ok = False
            detail = "output phases on A and B are forced unequal"
    else:
        gauge = alpha[0] / alpha[1]
        in_b = np.array([component[i] == component[1] for i in range(size)])
        in_b_cols = np.array([component[size + j] == component[1] for j in range(size)])
        alpha[in_b] *= gauge
        beta[in_b_cols] /= gauge

    residual = float(np.abs(alpha[:, None] * v * beta[None, :] - w).max())
    equivalent = phases_ok and residual <= tol
    if not equivalent and not detail:
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
        out[:2] = mzi_transfer(*setting).matrix @ out[:2]
    return np.abs(out) ** 2


def simulate_tomography(config: ProtocolConfig, shots_per_basis: int, seed: int = 0) -> TomographyResult:
    """Tomography of Alice's output qubit on the compiled mesh.

    Per basis (Z directly; X and Y through the tomography MZI on the A/B
    pair) every shot samples the full outcome distribution; C and loss
    detections are discarded as aborts.  ``shots_per_basis = 0`` switches to
    analytic expectations, which invert exactly.  Sampling is reproducible:
    the three bases draw from ``numpy.random.SeedSequence(seed).spawn(3)``
    substreams in Z, X, Y order.
    """
    if shots_per_basis < 0:
        raise ValueError(f"shots per basis must be >= 0, got {shots_per_basis}")
    final_state, _ = protocol.run(config)
    exact_rho, p_ab = alice_reduced_state(final_state)
    psi = mesh_unitary(compile_program(config)).matrix[:, 0]

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
