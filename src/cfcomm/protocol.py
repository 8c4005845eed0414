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
    apply_blocks,
    check_cycle_count,
    check_dense_size,
    check_norm,
    compose_unitary,
    embed,
    exact_cos_sin,
    plain_float,
    rotation_block,
)

__all__ = [
    "BLOCK",
    "MAX_CYCLES",
    "PASS",
    "BobAction",
    "OutcomeDistribution",
    "PostselectionError",
    "ProtocolConfig",
    "Step",
    "SweepRow",
    "alice_reduced_state",
    "build_steps",
    "check_delta",
    "closed_form",
    "evolution_unitary",
    "run",
    "splitter",
    "sweep",
]

OUTER_ROTATION = "outer_rotation"
INNER_ROTATION = "inner_rotation"
BOB_INTERACTION = "bob_interaction"

# Largest K that ``build_steps`` (and so ``run``, ``sweep`` and
# ``chip.compile_program``) accepts.  Round-off in the K rotations adds up:
# max K |c^2 + s^2 - 1| over K <= 4096 is 4.5e-13, but 1.05e-12 at K = 10,000,
# past the 1e-12 norm tolerance.
MAX_CYCLES = 4096


class PostselectionError(ValueError):
    """Raised when the {A, B} subspace carries no amplitude at all."""


@dataclass(frozen=True)
class BobAction:
    """What Bob does each cycle: block (exact swap into the loss mode), pass
    (do nothing), or a partial splitter rotation by beta, a real number in
    [0, pi/2] stored as a float."""

    kind: str
    beta: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("block", "pass", "splitter"):
            raise ValueError(f"unknown Bob action {self.kind!r}")
        if self.kind == "splitter":
            if self.beta is None:
                raise ValueError("splitter action needs an angle")
            beta = plain_float(self.beta, "splitter angle")
            if not 0.0 <= beta <= math.pi / 2:
                raise ValueError(f"splitter angle must lie in [0, pi/2], got {beta!r}")
            object.__setattr__(self, "beta", beta)
        elif self.beta is not None:
            raise ValueError(f"{self.kind!r} action takes no angle")

    def label(self) -> str:
        if self.kind == "splitter":
            return f"split:{self.beta:.17g}"
        return self.kind


BLOCK = BobAction("block")
PASS = BobAction("pass")


def splitter(beta: float) -> BobAction:
    return BobAction("splitter", beta)


def check_delta(delta: object) -> float:
    """The offset delta as a plain float; ``ValueError`` unless it is a finite
    real number in [0, pi/2)."""
    value = plain_float(delta, "delta")
    if not math.isfinite(value):
        raise ValueError(f"delta must be finite, got {value!r}")
    if not 0.0 <= value < math.pi / 2:
        raise ValueError(f"delta must lie in [0, pi/2), got {value!r}")
    return value


@dataclass(frozen=True)
class ProtocolConfig:
    """Full description of one run: cycle count K, offset delta, Bob's action,
    and whether Bob also interacts after the K-th inner rotation."""

    k: int
    delta: float
    bob: BobAction
    include_final_block: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", check_cycle_count(self.k))
        if not isinstance(self.bob, BobAction):
            raise ValueError(f"bob must be a BobAction, got {self.bob!r}")
        if not isinstance(self.include_final_block, bool):
            raise ValueError(f"include_final_block must be a bool, got {self.include_final_block!r}")
        object.__setattr__(self, "delta", check_delta(self.delta))

    @property
    def phi(self) -> float:
        """Outer rotation angle, pi/2 - delta."""
        return math.pi / 2 - self.delta

    @property
    def theta(self) -> float:
        """Inner rotation angle, pi/2K."""
        return math.pi / (2 * self.k)

    def mode_basis(self) -> ModeBasis:
        return ModeBasis(self.k)


@dataclass(frozen=True)
class Step:
    """One labeled evolution step: the 2x2 unitary ``block`` on the amplitude
    slots ``pair`` of a ``size``-mode basis."""

    kind: str
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
    def from_probabilities(cls, probs: np.ndarray) -> "OutcomeDistribution":
        """From Born probabilities in mode order A, B, C, L1..LK."""
        return cls(float(probs[0]), float(probs[1]), float(probs[2]), tuple(probs[3:].tolist()))

    @property
    def p_loss_total(self) -> float:
        return math.fsum(self.p_loss)

    def as_array(self) -> np.ndarray:
        return np.array([self.p_D0, self.p_D1, self.p_D3, *self.p_loss])


def _check_cycles(k: int) -> None:
    if k > MAX_CYCLES:
        raise ValueError(
            f"protocol runs are limited to K <= {MAX_CYCLES}, past which round-off in the K rotations "
            f"can push the norm defect beyond 1e-12; got K = {k}"
        )


def build_steps(config: ProtocolConfig) -> tuple[Step, ...]:
    """Temporal step sequence: outer rotation, then K inner cycles.

    Bob's interaction appears after inner rotations 1..K-1 (fresh loss mode
    each cycle, ascending) and, only when ``include_final_block`` is set,
    once more after the K-th.  Pass inserts identities, which are elided.
    The K inner rotations are one shared ``Step`` object.  K above
    ``MAX_CYCLES`` is rejected before any step is built.
    """
    _check_cycles(config.k)
    size = config.mode_basis().size
    inner = Step(INNER_ROTATION, (1, 2), rotation_block(config.theta), size)
    bob = None
    if config.bob.kind == "block":
        bob = SWAP_BLOCK
    elif config.bob.kind == "splitter":
        bob = rotation_block(config.bob.beta)
    last_bob_cycle = config.k if config.include_final_block else config.k - 1

    steps = [Step(OUTER_ROTATION, (0, 1), rotation_block(config.phi), size)]
    for n in range(1, config.k + 1):
        steps.append(inner)
        if bob is not None and n <= last_bob_cycle:
            steps.append(Step(BOB_INTERACTION, (2, 2 + n), bob, size))
    return tuple(steps)


def run(config: ProtocolConfig) -> tuple[PureState, OutcomeDistribution]:
    """Apply the step sequence to the photon injected in mode A, two real
    amplitudes per step."""
    steps = build_steps(config)
    basis = config.mode_basis()
    amps = [0.0] * basis.size
    amps[basis.index("A")] = 1.0
    apply_blocks(((step.pair, step.block) for step in steps), amps)
    state = PureState(np.array(amps), basis)
    return state, OutcomeDistribution.from_probabilities(np.abs(state.amplitudes) ** 2)


def evolution_unitary(config: ProtocolConfig) -> UnitaryOp:
    """The full evolution as a single float64 matrix (every step is real), the
    steps composed in time order by ``modes.compose_unitary``; Bob's swaps
    under block are routed."""
    size = config.mode_basis().size
    # Checked here as well: the generator expression calls build_steps (O(K))
    # before compose_unitary runs.
    check_dense_size(size)
    return compose_unitary(((step.pair, step.block) for step in build_steps(config)), size)


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
    """Detector statistics for every (K, delta) pair, K outer, delta inner.

    delta enters only through the outer A/B rotation by phi = pi/2 - delta,
    and the inner evolution U_in leaves A alone, so the final state is
    cos(phi)|A> + sin(phi) U_in|B>.  Each K costs one O(K) evolution of the
    real amplitudes of |B> through ``build_steps``; each delta then costs
    O(K) to scale it, check the norm and build the ``OutcomeDistribution``.
    Rows agree with ``run`` up to round-off in the last ulps, and bit for
    bit at delta = 0.
    """
    if not k_values or not delta_values:
        raise ValueError("sweep needs at least one K and one delta")
    # Every K and every delta is validated, and the largest K checked
    # against MAX_CYCLES, before the first evolution.
    configs = [ProtocolConfig(k, 0.0, bob, include_final_block) for k in k_values]
    _check_cycles(max(config.k for config in configs))
    deltas = [check_delta(delta) for delta in delta_values]
    # (cos phi, sin phi) per delta, the entries of run's outer rotation block.
    outer = np.array([exact_cos_sin(math.pi / 2 - delta) for delta in deltas])
    rows = []
    for config in configs:
        basis = config.mode_basis()
        inner = [0.0] * basis.size
        inner[basis.index("B")] = 1.0
        # Every step after the outer rotation is the same for every delta.
        apply_blocks(((step.pair, step.block) for step in build_steps(config)[1:]), inner)
        amps = np.outer(outer[:, 1], inner)
        amps[:, 0] = outer[:, 0]
        probs = np.abs(amps) ** 2
        for delta, row_probs in zip(deltas, probs):
            check_norm(float(np.sum(row_probs)))
            rows.append(SweepRow(config.k, delta, OutcomeDistribution.from_probabilities(row_probs)))
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
