"""Feynman path histories of the protocol evolution.

Every nonzero path through the step sequence is enumerated with its complex
amplitude; summing amplitudes per final mode must reproduce the direct
state-vector evolution, which makes the enumeration an independent oracle.
Partitioning the paths that reach a given outcome by whether they ever
visited mode C mechanizes the weak-trace counterfactuality check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .modes import NORM_TOL, apply_blocks
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


def _column(step: Step, mode: int) -> list[tuple[int, complex]]:
    """Column ``mode`` of the step's matrix as (row, entry) pairs in row
    order, exactly-zero entries dropped.  A mode outside the step's pair
    passes with amplitude 1; for one inside it, the column is the block
    applied to that mode's unit vector on the pair."""
    if mode not in step.pair:
        return [(mode, 1 + 0j)]
    unit = [1 + 0j, 0j] if mode == step.pair[0] else [0j, 1 + 0j]
    apply_blocks([((0, 1), step.block)], unit)
    return [(row, entry) for row, entry in zip(step.pair, unit) if entry != 0]


def enumerate_histories(config: ProtocolConfig) -> list[History]:
    """All paths through the step sequence starting from mode A.

    Any transition whose matrix entry is exactly zero is dropped; the
    threshold is exact equality, never an epsilon, so destructively
    interfering paths with small nonzero amplitudes survive.
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
            column = columns[depth, mode] = _column(steps[depth], mode)
        for nxt, entry in column:
            walk(depth + 1, nxt, amplitude * entry, path + (nxt,))

    walk(0, 0, 1.0 + 0.0j, (0,))
    return out


def amplitude_by_paths(histories: list[History], outcome: str) -> complex:
    """Sum of amplitudes of the histories ending at ``outcome``."""
    return complex(sum(h.amplitude for h in histories if h.path[-1] == outcome))


def counterfactuality_report(config: ProtocolConfig, outcome: str) -> CounterfactualityReport:
    """Partition the histories reaching ``outcome`` by whether they visit C."""
    found = enumerate_histories(config)  # checks the K bound first
    config.mode_basis().index(outcome)  # rejects unknown labels
    ending = [h for h in found if h.path[-1] == outcome]
    visiting = [h for h in ending if "C" in h.path]
    total = complex(sum(h.amplitude for h in ending))
    return CounterfactualityReport(
        outcome_mode=outcome,
        total_amplitude=total,
        c_visiting_amplitude=complex(sum(h.amplitude for h in visiting)),
        c_visiting_paths=len(visiting),
        verdict=not visiting,
        probability=abs(total) ** 2,
        vacuous=abs(total) <= NORM_TOL,
    )
