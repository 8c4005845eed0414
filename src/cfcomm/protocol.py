"""The chained-interferometer protocol itself: Bob's per-cycle action, step
construction, exact evolution, closed-form detector statistics, parameter
sweeps, and the reduced state of Alice's output qubit.

One run: an outer rotation by phi = pi/2 - delta between A and B, then K
inner cycles, each a rotation by theta = pi/2K between B and C followed by
Bob's interaction on (C, Ln) with a fresh loss mode per cycle.  Detectors:
D0 on A (bit 0), D1 on B (bit 1), D3 on C (abort and restart).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .modes import (
    SWAP_BLOCK,
    Block,
    ModeBasis,
    PureState,
    UnitaryOp,
    embed,
    exact_cos_sin,
    mode_probabilities,
    rotation_block,
)

__all__ = [
    "BLOCK",
    "PASS",
    "BobAction",
    "OutcomeDistribution",
    "PostselectionError",
    "ProtocolConfig",
    "Step",
    "SweepRow",
    "alice_reduced_state",
    "build_steps",
    "closed_form",
    "evolution_unitary",
    "run",
    "splitter",
    "sweep",
]

OUTER_ROTATION = "outer_rotation"
INNER_ROTATION = "inner_rotation"
BOB_INTERACTION = "bob_interaction"


class PostselectionError(ValueError):
    """Raised when the {A, B} subspace carries no amplitude at all."""


@dataclass(frozen=True)
class BobAction:
    """What Bob does each cycle: block (exact swap into the loss mode), pass
    (do nothing), or a partial splitter rotation by beta."""

    kind: str
    beta: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("block", "pass", "splitter"):
            raise ValueError(f"unknown Bob action {self.kind!r}")
        if self.kind == "splitter":
            if self.beta is None:
                raise ValueError("splitter action needs an angle")
            if not 0.0 <= self.beta <= math.pi / 2:
                raise ValueError(f"splitter angle must lie in [0, pi/2], got {self.beta!r}")
        elif self.beta is not None:
            raise ValueError(f"{self.kind!r} action takes no angle")

    @property
    def interacts(self) -> bool:
        return self.kind != "pass"

    def label(self) -> str:
        if self.kind == "splitter":
            return f"split:{self.beta:.17g}"
        return self.kind


BLOCK = BobAction("block")
PASS = BobAction("pass")


def splitter(beta: float) -> BobAction:
    return BobAction("splitter", float(beta))


@dataclass(frozen=True)
class ProtocolConfig:
    """Full description of one run: cycle count K, offset delta, Bob's action,
    and whether Bob also interacts after the K-th inner rotation."""

    k: int
    delta: float
    bob: BobAction
    include_final_block: bool = False

    def __post_init__(self) -> None:
        # Plain isinstance checks: sweeps build one config per grid point.
        if isinstance(self.k, bool) or not isinstance(self.k, (int, np.integer)):
            raise ValueError(f"cycle count K must be an integer, got {self.k!r}")
        if not isinstance(self.bob, BobAction):
            raise ValueError(f"bob must be a BobAction, got {self.bob!r}")
        if isinstance(self.delta, bool) or not isinstance(self.delta, (int, float, np.integer, np.floating)):
            raise ValueError(f"delta must be a real number, got {self.delta!r}")
        if not math.isfinite(self.delta):
            raise ValueError(f"delta must be finite, got {self.delta!r}")
        if self.k < 1:
            raise ValueError(f"cycle count K must be >= 1, got {self.k}")
        if not 0.0 <= self.delta < math.pi / 2:
            raise ValueError(f"delta must lie in [0, pi/2), got {self.delta!r}")

    @property
    def phi(self) -> float:
        """Outer rotation angle, pi/2 - delta."""
        return math.pi / 2 - self.delta

    @property
    def theta(self) -> float:
        """Inner rotation angle, pi/2K."""
        return math.pi / (2 * self.k)

    def mode_basis(self) -> ModeBasis:
        return ModeBasis.for_cycles(self.k)


@dataclass(frozen=True)
class Step:
    """One labeled evolution step: the 2x2 unitary ``block`` on the mode pair
    ``modes``, whose amplitude slots in a ``size``-mode basis are ``pair``."""

    kind: str
    cycle: int | None
    modes: tuple[str, str]
    pair: tuple[int, int]
    block: Block
    size: int

    @cached_property
    def op(self) -> UnitaryOp:
        """The step as a dense ``size`` x ``size`` unitary, built on first read."""
        return embed(self.block, *self.pair, self.size)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Detection probabilities at D0/D1/D3 and in each loss mode."""

    p_D0: float
    p_D1: float
    p_D3: float
    p_loss: tuple[float, ...]

    def __post_init__(self) -> None:
        entries = (self.p_D0, self.p_D1, self.p_D3, *self.p_loss)
        for p in entries:
            if not -1e-12 <= p <= 1.0 + 1e-12:
                raise ValueError(f"probability out of range: {p!r}")
        total = math.fsum(entries)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    @classmethod
    def from_state(cls, state: PureState) -> "OutcomeDistribution":
        probs = mode_probabilities(state)
        return cls(float(probs[0]), float(probs[1]), float(probs[2]), tuple(float(p) for p in probs[3:]))

    @property
    def p_loss_total(self) -> float:
        return math.fsum(self.p_loss)

    def as_array(self) -> np.ndarray:
        return np.array([self.p_D0, self.p_D1, self.p_D3, *self.p_loss])


def build_steps(config: ProtocolConfig) -> tuple[Step, ...]:
    """Temporal step sequence: outer rotation, then K inner cycles.

    Bob's interaction appears after inner rotations 1..K-1 (fresh loss mode
    each cycle, ascending) and, only when ``include_final_block`` is set,
    once more after the K-th.  Pass inserts identities, which are elided.
    """
    size = config.mode_basis().size
    inner = rotation_block(config.theta)
    bob = None
    if config.bob.kind == "block":
        bob = SWAP_BLOCK
    elif config.bob.kind == "splitter":
        bob = rotation_block(config.bob.beta)
    last_bob_cycle = config.k if config.include_final_block else config.k - 1

    steps = [Step(OUTER_ROTATION, None, ("A", "B"), (0, 1), rotation_block(config.phi), size)]
    for n in range(1, config.k + 1):
        steps.append(Step(INNER_ROTATION, n, ("B", "C"), (1, 2), inner, size))
        if bob is not None and n <= last_bob_cycle:
            steps.append(Step(BOB_INTERACTION, n, ("C", f"L{n}"), (2, 2 + n), bob, size))
    return tuple(steps)


def run(config: ProtocolConfig) -> tuple[PureState, OutcomeDistribution]:
    """Apply the step sequence to the photon injected in mode A, two
    amplitudes per step."""
    basis = config.mode_basis()
    amps = [0j] * basis.size
    amps[basis.index("A")] = 1 + 0j
    for step in build_steps(config):
        i, j = step.pair
        (u00, u01), (u10, u11) = step.block
        ai, aj = amps[i], amps[j]
        amps[i] = u00 * ai + u01 * aj
        amps[j] = u10 * ai + u11 * aj
    state = PureState(np.array(amps), basis)
    return state, OutcomeDistribution.from_state(state)


def evolution_unitary(config: ProtocolConfig) -> UnitaryOp:
    """The full evolution as a single matrix (steps composed in time order),
    each step updating the two rows of its mode pair."""
    mat = np.eye(config.mode_basis().size, dtype=complex)
    for step in build_steps(config):
        i, j = step.pair
        (u00, u01), (u10, u11) = step.block
        row_i, row_j = mat[i], mat[j]
        new_i = u00 * row_i + u01 * row_j
        mat[j] = u10 * row_i + u11 * row_j
        mat[i] = new_i
    return UnitaryOp(mat)


def closed_form(config: ProtocolConfig) -> OutcomeDistribution:
    """Analytic detector statistics for Pass and Block (final block off).

    Pass: the K inner rotations compose to exactly pi/2, so the photon ends
    in A with cos^2(phi) and C with sin^2(phi).  Block: the B amplitude is
    damped by cos(theta) per cycle while each cycle sheds
    cos^{2(n-1)}(theta) sin^2(theta) into loss mode n, the last such share
    remaining in C.
    """
    if config.bob.kind == "splitter":
        raise ValueError("no closed form for a splitter action; use run()")
    if config.include_final_block:
        raise ValueError("closed form covers the evolution without a final interaction")
    c_phi, s_phi = exact_cos_sin(config.phi)
    k = config.k
    if config.bob.kind == "pass":
        return OutcomeDistribution(c_phi**2, 0.0, s_phi**2, (0.0,) * k)
    c, s = exact_cos_sin(config.theta)
    p_d0 = c_phi**2
    p_d1 = s_phi**2 * c ** (2 * k)
    loss = [s_phi**2 * c ** (2 * (n - 1)) * s**2 for n in range(1, k)]
    loss.append(0.0)
    p_d3 = s_phi**2 * c ** (2 * (k - 1)) * s**2
    return OutcomeDistribution(p_d0, p_d1, p_d3, tuple(loss))


@dataclass(frozen=True)
class SweepRow:
    k: int
    delta: float
    distribution: OutcomeDistribution


def sweep(
    k_values: list[int],
    delta_values: list[float],
    bob: BobAction,
    include_final_block: bool = False,
) -> list[SweepRow]:
    """One exact run per (K, delta) pair, K outer, delta inner."""
    if not k_values or not delta_values:
        raise ValueError("sweep needs at least one K and one delta")
    rows = []
    for k in k_values:
        for delta in delta_values:
            config = ProtocolConfig(k, delta, bob, include_final_block)
            rows.append(SweepRow(k, delta, run(config)[1]))
    return rows


def alice_reduced_state(final: PureState) -> tuple[np.ndarray, float]:
    """Postselect on the {A, B} subspace and return (rho, p_AB).

    rho is the rank-1 density matrix of Alice's qubit (basis order A, B);
    p_AB the probability of landing in the subspace at all.
    """
    pair = np.asarray(final.amplitudes[:2])
    p_ab = float(np.sum(np.abs(pair) ** 2))
    if p_ab == 0.0:
        raise PostselectionError("no amplitude in the {A, B} subspace; nothing to postselect on")
    rho = np.outer(pair, pair.conj()) / p_ab
    rho.setflags(write=False)
    return rho, p_ab
