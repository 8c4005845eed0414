"""The chained-interferometer protocol itself: Bob's per-cycle action, step
construction, exact evolution, closed-form detector statistics, parameter
sweeps, and the reduced state of Alice's output qubit.

One run: an outer rotation by phi = pi/2 - delta between A and B, then K
inner cycles, each a rotation by theta = pi/2K between B and C followed by
Bob's interaction on (C, Ln) with a fresh loss mode per cycle.  Detectors:
D0 on A (bit 0), D1 on B (bit 1), D3 on C (abort and restart).  The O(K)
paths (``ProtocolConfig.step_ops``, and so ``run`` and ``sweep``) are bounded
by ``MAX_CYCLES``, the dense ``evolution_unitary`` by
``modes.MAX_DENSE_CYCLES``.  A config keeps what is built from it alone
(``_kept``): its basis, step ops and inner evolution.  ``Step`` and
``build_steps``, outside ``__all__``, serve only
``perfbench/workloads.py:steps_probe``.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cached_property, wraps
from typing import TypeVar

from .modes import (
    NORM_TOL,
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
    "SweepRow",
    "alice_reduced_state",
    "check_delta",
    "closed_form",
    "evolution_unitary",
    "run",
    "splitter",
    "sweep",
]

# Largest K that ``ProtocolConfig.step_ops`` accepts.  Round-off in the K
# rotations adds up: max K |c^2 + s^2 - 1| over K <= 4096 is 4.5e-13, but
# 1.05e-12 at K = 10,000, past the 1e-12 norm tolerance.  At K = 4096 the
# true error against a 40-digit evolution was at most 1.7e-13 in ``run``'s
# amplitudes and the mesh column's magnitudes (tests/test_high_precision.py).
MAX_CYCLES = 4096

# Most probabilities the list ``sweep`` returns may hold: sum(K + 3) over its
# K values, times its delta count, checked before the first evolution.  By
# tracemalloc an entry costs about 33 bytes from K = 512 up (a float and its
# slot in ``p_loss``; 134 KB per point at K = 4096) and 130 bytes at K = 1,
# where each point's own records dominate: at most about 0.33 GB and 1.3 GB.
# A single-delta sweep over every K up to MAX_CYCLES holds 8,402,944.
_MAX_SWEEP_ENTRIES = 10_000_000

_T = TypeVar("_T")


def _kept(build: Callable[[ProtocolConfig], _T]) -> Callable[[ProtocolConfig], _T]:
    """``build(config)`` made once per config: the first call keeps its result
    in the config's ``__dict__`` under the builder's qualified name, out of
    the dataclass fields, so ``==``, ``hash`` and ``repr`` never see it; every
    later call returns that object.  A build that raises keeps nothing."""
    name = build.__qualname__

    @wraps(build)
    def kept(config: ProtocolConfig) -> _T:
        value = config.__dict__.get(name)
        if value is None:
            value = config.__dict__.setdefault(name, build(config))
        return value

    return kept


class PostselectionError(ValueError):
    """Raised when the {A, B} subspace carries no amplitude above round-off."""


@dataclass(frozen=True)
class BobAction:
    """What Bob does each cycle: block (exact swap into the loss mode), pass
    (do nothing), or a partial splitter rotation by beta, a real number in
    [0, pi/2] stored as a float, -0.0 as 0.0.  Anything else raises
    ``ValueError``."""

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
            object.__setattr__(self, "beta", beta + 0.0)
        elif self.beta is not None:
            raise ValueError(f"{self.kind!r} action takes no angle")

    def label(self) -> str:
        if self.kind == "splitter":
            return f"split:{self.beta:.17g}"
        return self.kind


BLOCK = BobAction("block")
PASS = BobAction("pass")


def splitter(beta: float) -> BobAction:
    """Bob's splitter action with angle ``beta``, checked by ``BobAction``."""
    return BobAction("splitter", beta)


def check_delta(delta: object) -> float:
    """The offset delta as a plain float, -0.0 as 0.0; ``ValueError`` unless
    it is a finite real number in [0, pi/2)."""
    value = plain_float(delta, "delta")
    if not math.isfinite(value):
        raise ValueError(f"delta must be finite, got {value!r}")
    if not 0.0 <= value < math.pi / 2:
        raise ValueError(f"delta must lie in [0, pi/2), got {value!r}")
    return value + 0.0


@dataclass(frozen=True)
class ProtocolConfig:
    """Full description of one run: cycle count K (``check_cycle_count``),
    offset delta (``check_delta``), Bob's action, and whether Bob also
    interacts after the K-th inner rotation.  Otherwise ``ValueError``."""

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
        """Outer rotation angle, pi/2 - delta (``_phi``)."""
        return _phi(self.delta)

    @property
    def theta(self) -> float:
        """Inner rotation angle, pi/2K."""
        return math.pi / (2 * self.k)

    @_kept
    def mode_basis(self) -> ModeBasis:
        """The basis for K, built on the first call and kept out of the fields."""
        return ModeBasis(self.k)

    @_kept
    def step_ops(self) -> tuple[tuple[tuple[int, int], Block], ...]:
        """The temporal step sequence as ``((i, j), block)`` ops of Python
        floats, built on the first call and kept out of the fields.

        The outer rotation on (A, B), then K inner cycles: a rotation on
        (B, C), and Bob's interaction on (C, Ln) after inner rotations
        1..K-1 (fresh loss mode each cycle, ascending) and, only when
        ``include_final_block`` is set, once more after the K-th; pass is
        the identity and is elided.  K above ``MAX_CYCLES`` raises
        ``ValueError`` before any op is built.
        """
        return _build_ops(self)


@dataclass(frozen=True)
class Step:
    """One op of ``step_ops()`` as a record: the 2x2 unitary ``block`` on the
    amplitude slots ``pair`` of a ``size``-mode basis."""

    pair: tuple[int, int]
    block: Block
    size: int

    @cached_property
    def op(self) -> UnitaryOp:
        """The step as a dense ``size`` x ``size`` unitary, built on first read."""
        return compose_unitary(((self.pair, self.block),), self.size)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Detection probabilities at D0/D1/D3 and in each loss mode; ``ValueError``
    unless each lies in [0, 1] within ``NORM_TOL`` and their sum passes
    ``modes.check_norm``.  ``run`` and ``sweep`` make these checks once per
    block of rows (``_checked_rows`` in ``_point`` and ``_sweep_rows``)."""

    p_D0: float
    p_D1: float
    p_D3: float
    p_loss: tuple[float, ...]

    def __post_init__(self) -> None:
        entries = (self.p_D0, self.p_D1, self.p_D3, *self.p_loss)
        low, high = -NORM_TOL, 1.0 + NORM_TOL
        for p in entries:
            if not low <= p <= high:
                raise ValueError(f"probability out of range: {p!r}")
        check_norm(math.fsum(entries))

    @property
    def p_loss_total(self) -> float:
        return math.fsum(self.p_loss)

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.array([self.p_D0, self.p_D1, self.p_D3, *self.p_loss])


def _checked_rows(rows: list[list[float]], low: float, high: float) -> list[list[float]]:
    """Rows of Born probabilities in mode order A, B, C, L1..LK, returned once
    the constructor's checks pass: the range by the least and greatest entry
    ``low`` and ``high`` (numpy's ``min`` and ``max`` of a block, which a NaN
    fails both), then each row's norm.  Out of range, every row goes through
    the constructor, which raises the same error from the same row."""
    if not (low >= -NORM_TOL and high <= 1.0 + NORM_TOL):
        for row in rows:
            OutcomeDistribution(row[0], row[1], row[2], tuple(row[3:]))
    for row in rows:
        check_norm(math.fsum(row))
    return rows


def _distribution(row: list[float]) -> OutcomeDistribution:
    """A row of ``_checked_rows`` as a record, its checks not made again."""
    dist = object.__new__(OutcomeDistribution)
    dist.__dict__.update(p_D0=row[0], p_D1=row[1], p_D3=row[2], p_loss=tuple(row[3:]))
    return dist


def _phi(delta: float) -> float:
    return math.pi / 2 - delta  # the one place the outer rotation angle is formed


def _check_cycles(k: int) -> None:
    if k > MAX_CYCLES:
        raise ValueError(
            f"protocol runs are limited to K <= {MAX_CYCLES}, past which round-off in the K rotations "
            f"can push the norm defect beyond 1e-12; got K = {k}"
        )


def _build_ops(config: ProtocolConfig) -> tuple[tuple[tuple[int, int], Block], ...]:
    """The ops of ``config.step_ops()``, which keeps them."""
    _check_cycles(config.k)
    inner = ((1, 2), rotation_block(config.theta))
    bob = None
    if config.bob.kind == "block":
        bob = SWAP_BLOCK
    elif config.bob.kind == "splitter":
        bob = rotation_block(config.bob.beta)
    last_bob_cycle = config.k if config.include_final_block else config.k - 1

    ops = [((0, 1), rotation_block(config.phi))]
    for n in range(1, config.k + 1):
        ops.append(inner)
        if bob is not None and n <= last_bob_cycle:
            ops.append(((2, 2 + n), bob))
    return tuple(ops)


def build_steps(config: ProtocolConfig) -> tuple[Step, ...]:
    """``config.step_ops()`` as fresh ``Step`` records; the K inner rotations,
    one op object there, share one record.  ``ValueError`` for K past
    ``MAX_CYCLES``."""
    ops = config.step_ops()
    size = config.mode_basis().size
    inner = Step(*ops[1], size)
    return tuple(inner if op is ops[1] else Step(*op, size) for op in ops)


@_kept
def _inner_evolution(config: ProtocolConfig) -> tuple[float, ...]:
    """U_in|B>, the ops after the outer rotation applied to |B> in Python
    floats: the one evolution of amplitudes, which ``_point``, ``_sweep_rows``
    and the report scale to cos(phi)|A> + sin(phi) U_in|B>.  O(K) on a
    config's first call, which keeps the tuple (0.13 MB at K = 4096, beside
    0.65 MB of step ops), O(1) after; ``ValueError`` past ``MAX_CYCLES``."""
    ops = config.step_ops()  # checks the K bound before anything is built
    amps = [0.0, 1.0] + [0.0] * (config.mode_basis().size - 2)
    apply_blocks(ops[1:], amps)
    return tuple(amps)


def _point(config: ProtocolConfig) -> tuple[list[float], list[float]]:
    """``config``'s final amplitudes and their row of ``_sweep_rows``, in Python
    floats with no numpy: the same products s_phi * x and a * a that numpy
    forms there, checked by the same rule.  The row's entries are finite, so
    Python's ``min`` and ``max`` are numpy's; ``ValueError`` for K past
    ``MAX_CYCLES``."""
    (c_phi, _), (s_phi, _) = config.step_ops()[0][1]
    amps = [s_phi * x for x in _inner_evolution(config)]
    amps[0] = c_phi
    row = [a * a for a in amps]
    return amps, _checked_rows([row], min(row), max(row))[0]


def run(config: ProtocolConfig) -> tuple[PureState, OutcomeDistribution]:
    """The final state and detector statistics of the photon injected in mode
    A, from ``_point``: bit for bit ``sweep``'s and ``cfcomm run``'s;
    ``ValueError`` for K past ``MAX_CYCLES``."""
    amps, row = _point(config)
    return PureState(amps, config.mode_basis()), _distribution(row)


def evolution_unitary(config: ProtocolConfig) -> UnitaryOp:
    """The full evolution as one float64 matrix, every step being real;
    ``ValueError`` for K past ``modes.MAX_DENSE_CYCLES``."""
    size = config.mode_basis().size
    # Checked here as well, before step_ops: past MAX_CYCLES it would raise
    # the cycle bound instead, and below it build O(K) ops for nothing.
    check_dense_size(size)
    return compose_unitary(config.step_ops(), size)


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
    """The detector statistics of one (K, delta) point of ``sweep``."""

    k: int
    delta: float
    distribution: OutcomeDistribution


def sweep(
    k_values: list[int],
    delta_values: list[float],
    bob: BobAction,
    include_final_block: bool = False,
) -> list[SweepRow]:
    """Detector statistics for every (K, delta) pair, K outer, delta inner:
    each ``_sweep_rows`` row as a ``SweepRow``, equal to ``run``'s bit for bit.

    delta enters only through the outer A/B rotation by phi = pi/2 - delta,
    and U_in leaves A alone, so the final state is cos(phi)|A> + sin(phi)
    U_in|B>: one O(K) evolution per K.  ``ValueError``, in this order and
    before the first evolution, for any bad K or delta, an empty iterable, K
    past ``MAX_CYCLES``, or a grid whose rows would hold more than
    ``_MAX_SWEEP_ENTRIES`` probabilities.
    """
    k_values = [check_cycle_count(k) for k in k_values]
    deltas = [check_delta(delta) for delta in delta_values]
    if not k_values or not deltas:
        raise ValueError("sweep needs at least one K and one delta")
    _check_cycles(max(k_values))
    entries = sum(k + 3 for k in k_values) * len(deltas)
    if entries > _MAX_SWEEP_ENTRIES:
        raise ValueError(
            f"sweeps are limited to {_MAX_SWEEP_ENTRIES} probabilities, sum(K + 3) x deltas, "
            f"got {entries} ({len(k_values)} K values x {len(deltas)} deltas)"
        )
    rows = _sweep_rows(k_values, deltas, bob, include_final_block)
    return [SweepRow(k, delta, _distribution(row)) for k, delta, row in rows]


# Most probabilities ``_sweep_rows`` holds at once: a K's deltas are taken in
# blocks of at most this many entries, rows x (K+3), 15 rows at MAX_CYCLES.
_SWEEP_BLOCK_ENTRIES = 2**16


def _sweep_rows(k_values: list[int], deltas: list[float], bob: BobAction, final: bool) -> Iterator[tuple]:
    """(K, delta, row) per point of ``sweep``, row a ``_checked_rows`` row, for
    K and delta lists that ``sweep`` or the CLI parser checked: one K's config
    and one block of its deltas at a time (``_SWEEP_BLOCK_ENTRIES``); K past
    ``MAX_CYCLES`` raises on the first ``next``."""
    import numpy as np

    _check_cycles(max(k_values))
    # (cos phi, sin phi) per delta, the entries of run's outer rotation block.
    outer = np.array([exact_cos_sin(_phi(delta)) for delta in deltas])
    for k in k_values:
        inner = _inner_evolution(ProtocolConfig(k, 0.0, bob, final))
        block_rows = _SWEEP_BLOCK_ENTRIES // len(inner)
        for start in range(0, len(deltas), block_rows):
            cos_sin = outer[start : start + block_rows]
            amps = np.outer(cos_sin[:, 1], inner)
            amps[:, 0] = cos_sin[:, 0]
            # The amplitudes are real, so |a|^2 is a * a, squared in place.
            probs = np.square(amps, out=amps)
            rows = _checked_rows(probs.tolist(), probs.min(), probs.max())
            for delta, row in zip(deltas[start : start + block_rows], rows):
                yield k, delta, row


def alice_reduced_state(final: PureState) -> tuple[np.ndarray, float]:
    """Postselect on the {A, B} subspace and return (rho, p_AB).

    rho is the rank-1 density matrix of Alice's qubit (basis order A, B);
    p_AB the probability of landing in the subspace at all.  Raises
    ``PostselectionError`` when the {A, B} amplitude norm is at most
    ``NORM_TOL`` (p_AB <= ``NORM_TOL``**2), the bound of a ``vacuous`` report.
    """
    import numpy as np

    pair = np.asarray(final.amplitudes[:2])
    p_ab = float(np.sum(np.abs(pair) ** 2))
    if p_ab <= NORM_TOL**2:
        raise PostselectionError(f"{{A, B}} amplitude norm {p_ab**0.5:.3e} <= {NORM_TOL:g}: nothing to postselect on")
    rho = np.outer(pair, pair.conj()) / p_ab
    rho.setflags(write=False)
    return rho, p_ab
