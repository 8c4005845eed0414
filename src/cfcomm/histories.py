"""Feynman path histories of the protocol evolution.

Every nonzero path through the step sequence is enumerated with its complex
amplitude; summing amplitudes per final mode must reproduce the direct
state-vector evolution, which makes the enumeration an independent oracle.
Partitioning the paths that reach a given outcome by whether they ever
visited mode C mechanizes the weak-trace counterfactuality check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .protocol import ProtocolConfig, Step, build_steps

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
    paths would contribute.
    """

    outcome_mode: str
    total_amplitude: complex
    c_visiting_amplitude: complex
    c_visiting_paths: int
    verdict: bool


def _column(step: Step, mode: int, prune: bool) -> list[tuple[int, complex]]:
    """Column ``mode`` of the step's matrix as (row, entry) pairs in row order.

    A mode in the step's pair branches over the block's column; any other
    mode passes with amplitude 1.  With ``prune`` exactly-zero entries are
    dropped, otherwise every row of the mode space appears.
    """
    i, j = step.pair
    (u00, u01), (u10, u11) = step.block
    if mode == i:
        entries = {i: u00, j: u10}
    elif mode == j:
        entries = {i: u01, j: u11}
    else:
        entries = {mode: 1 + 0j}
    if prune:
        return [(row, entries[row]) for row in sorted(entries) if entries[row] != 0]
    return [(row, entries.get(row, 0j)) for row in range(step.size)]


def enumerate_histories(config: ProtocolConfig, prune: bool = True) -> list[History]:
    """All paths through the step sequence starting from mode A.

    With ``prune`` (the default) any transition whose matrix entry is exactly
    zero is dropped; the threshold is exact equality, never an epsilon, so
    destructively-interfering paths with small nonzero amplitudes survive.
    """
    if config.k > MAX_ENUMERATION_CYCLES:
        raise EnumerationLimitError(
            f"path enumeration is limited to K <= {MAX_ENUMERATION_CYCLES}, got K = {config.k}"
        )
    labels = config.mode_basis().labels
    steps = build_steps(config)
    columns: dict[tuple[int, int], list[tuple[int, complex]]] = {}  # (depth, mode) -> column
    out: list[History] = []

    def walk(depth: int, mode: int, amplitude: complex, path: tuple[int, ...]) -> None:
        if depth == len(steps):
            out.append(History(tuple(labels[m] for m in path), amplitude))
            return
        column = columns.get((depth, mode))
        if column is None:
            column = columns[depth, mode] = _column(steps[depth], mode, prune)
        for nxt, entry in column:
            walk(depth + 1, nxt, amplitude * entry, path + (nxt,))

    walk(0, 0, 1.0 + 0.0j, (0,))
    return out


def amplitude_by_paths(histories: list[History], outcome: str) -> complex:
    """Sum of amplitudes of the histories ending at ``outcome``."""
    return complex(sum(h.amplitude for h in histories if h.path[-1] == outcome))


def counterfactuality_report(config: ProtocolConfig, outcome: str) -> CounterfactualityReport:
    """Partition the histories reaching ``outcome`` by whether they visit C."""
    config.mode_basis().index(outcome)  # reject unknown labels early
    ending = [h for h in enumerate_histories(config) if h.path[-1] == outcome]
    visiting = [h for h in ending if "C" in h.path]
    return CounterfactualityReport(
        outcome_mode=outcome,
        total_amplitude=complex(sum(h.amplitude for h in ending)),
        c_visiting_amplitude=complex(sum(h.amplitude for h in visiting)),
        c_visiting_paths=len(visiting),
        verdict=not visiting,
    )
