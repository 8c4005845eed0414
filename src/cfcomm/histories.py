"""Feynman path histories of the protocol evolution and the weak-trace
counterfactuality check (Vaidman, PRA 87, 052104, 2013).

``enumerate_histories`` costs about 2^K with a splitter and is bounded by
``MAX_ENUMERATION_CYCLES``.  ``counterfactuality_report`` is bounded by
``protocol.MAX_CYCLES``; it costs O(K) on a config's first non-A report, which
the config then keeps, and O(1) after: every outcome of one config in O(K).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .modes import NORM_TOL, Block, apply_blocks
from .protocol import ProtocolConfig, _inner_evolution, _kept

__all__ = [
    "MAX_ENUMERATION_CYCLES",
    "CounterfactualityReport",
    "EnumerationLimitError",
    "History",
    "amplitude_by_paths",
    "counterfactuality_report",
    "enumerate_histories",
]

MAX_ENUMERATION_CYCLES = 12


class EnumerationLimitError(ValueError):
    """Raised for cycle counts past the exponential-enumeration bound."""


@dataclass(frozen=True)
class History:
    """One path: a mode label per time slice, and the product of the traversed
    matrix entries."""

    path: tuple[str, ...]
    amplitude: complex


@dataclass(frozen=True)
class CounterfactualityReport:
    """Path-amplitude decomposition of one outcome by C-visits.

    The outcome is counterfactual exactly when no surviving path touches
    mode C on the way; ``c_visiting_amplitude`` is the weak trace those
    paths would contribute.  ``probability`` is |total amplitude|^2.  An
    outcome whose total amplitude is at most ``NORM_TOL`` in magnitude never
    happens, so whatever its verdict says is vacuous; ``vacuous`` marks it.
    """

    outcome_mode: str
    total_amplitude: complex
    c_visiting_amplitude: complex
    c_visiting_paths: int
    verdict: bool
    probability: float
    vacuous: bool


def _column(op: tuple[tuple[int, int], Block], mode: int) -> list[tuple[int, complex]]:
    """Column ``mode`` of the ``(pair, block)`` step's matrix as (row, entry)
    pairs in row order, exactly-zero entries dropped; a mode outside the
    pair passes with amplitude 1."""
    pair, block = op
    if mode not in pair:
        return [(mode, 1 + 0j)]
    col = pair.index(mode)
    return [(row, complex(entries[col])) for row, entries in zip(pair, block) if entries[col] != 0]


def enumerate_histories(config: ProtocolConfig) -> list[History]:
    """All paths through the step sequence starting from mode A, each with
    its amplitude: an oracle independent of the state-vector evolution.

    A transition is dropped only when its matrix entry is exactly zero, never
    below an epsilon, so destructively interfering paths survive.  K past
    ``MAX_ENUMERATION_CYCLES`` raises ``EnumerationLimitError``.
    """
    if config.k > MAX_ENUMERATION_CYCLES:
        raise EnumerationLimitError(
            f"path enumeration is limited to K <= {MAX_ENUMERATION_CYCLES}, got K = {config.k}"
        )
    labels = config.mode_basis().labels
    ops = config.step_ops()
    columns: dict[tuple[int, int], list[tuple[int, complex]]] = {}  # (depth, mode) -> column
    out: list[History] = []

    def walk(depth: int, mode: int, amplitude: complex, path: tuple[int, ...]) -> None:
        if depth == len(ops):
            out.append(History(tuple(labels[m] for m in path), amplitude))
            return
        column = columns.get((depth, mode))
        if column is None:
            column = columns[depth, mode] = _column(ops[depth], mode)
        for nxt, entry in column:
            walk(depth + 1, nxt, amplitude * entry, path + (nxt,))

    walk(0, 0, 1.0 + 0.0j, (0,))
    return out


def amplitude_by_paths(histories: list[History], outcome: str) -> complex:
    """Sum of amplitudes of the histories ending at ``outcome``."""
    return complex(sum(h.amplitude for h in histories if h.path[-1] == outcome))


@_kept
def _path_counts(config: ProtocolConfig) -> tuple[float, tuple[int, ...]]:
    """B's never-C amplitude, and per slot the C-visiting paths from B, both
    over the inner ops: the part of the report that depends on the config
    alone, kept by it.  The counts are an ``apply_blocks`` pass from B on exact
    integers, each block's nonzero pattern as bools, pruned on exact zeros as
    in ``enumerate_histories``.  A photon that never enters C stays in B,
    through sin(phi) and then the inner block's cos(theta) once per inner
    rotation: one path, none if cos(theta) is 0, and no never-C path ends in
    C or a loss mode."""
    ops = config.step_ops()
    counts = [0, 1] + [0] * (config.mode_basis().size - 2)  # the one path into B
    # A bool counts as 0 or 1; a float zero is the cheaper compare for float entries.
    pattern = ((pair, ((a != 0.0, b != 0.0), (c != 0.0, d != 0.0))) for pair, ((a, b), (c, d)) in ops[1:])
    apply_blocks(pattern, counts)
    s_phi = ops[0][1][1][0]
    c_theta = ops[1][1][0][0]  # math.prod multiplies from 1 in step order, as the evolution rounds
    counts[1] -= c_theta != 0
    return s_phi * math.prod([c_theta] * config.k), tuple(counts)


def counterfactuality_report(config: ProtocolConfig, outcome: str) -> CounterfactualityReport:
    """Split the amplitude and the paths reaching the mode labelled
    ``outcome`` by whether they visit C.  The total amplitude is ``run``'s.
    Outcome A needs no pass: its one path, through the outer block's cos(phi),
    never visits C, and no inner op touches A.  Any other outcome reads the
    config's inner evolution and ``_path_counts``; sin(phi) > 0, so each path
    from B is one from A.  The first non-A report of a config builds both in
    O(K), and the config keeps them; every later outcome costs O(1).  At
    K = 4096 with a splitter and the final block, the config then holds about
    2.1 MB in all, most of it path counts up to 4,095 bits long.  ``ValueError`` for an unknown label or K past
    ``protocol.MAX_CYCLES``."""
    slot = config.mode_basis().index(outcome)  # rejects unknown labels first
    ops = config.step_ops()  # checks the K bound before anything is built
    (c_phi, _), (s_phi, _) = ops[0][1]
    total, never, c_visiting_paths = c_phi, c_phi, 0  # outcome A
    if slot:
        total = s_phi * _inner_evolution(config)[slot]  # as run forms it
        never_b, c_visiting = _path_counts(config)
        never = never_b if slot == 1 else 0.0
        c_visiting_paths = c_visiting[slot]
    return CounterfactualityReport(
        outcome_mode=outcome,
        total_amplitude=complex(total),
        c_visiting_amplitude=complex(total - never),
        c_visiting_paths=c_visiting_paths,
        verdict=c_visiting_paths == 0,
        probability=abs(total) ** 2,
        vacuous=abs(total) <= NORM_TOL,
    )
