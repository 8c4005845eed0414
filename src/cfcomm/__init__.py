"""Counterfactual communication toolkit: modal protocol evolution, Feynman
path-history analysis, MZI-mesh compilation, and output-qubit tomography.
Each export loads from its submodule on first use, so ``import cfcomm``
alone loads neither the submodules nor numpy."""

import importlib

__version__ = "0.1.0"

__all__ = [
    "BLOCK",
    "PASS",
    "BobAction",
    "CounterfactualityReport",
    "EnumerationLimitError",
    "History",
    "InsufficientStatisticsError",
    "MeshEquivalenceReport",
    "MeshProgram",
    "ModeBasis",
    "MziSetting",
    "OutcomeDistribution",
    "PostselectionError",
    "ProtocolConfig",
    "PureState",
    "Step",
    "SweepRow",
    "TomographyResult",
    "UnitaryOp",
    "alice_reduced_state",
    "amplitude_by_paths",
    "build_steps",
    "closed_form",
    "compile_program",
    "counterfactuality_report",
    "enumerate_histories",
    "evolution_unitary",
    "mesh_unitary",
    "run",
    "simulate_tomography",
    "splitter",
    "sweep",
    "verify",
]

_SUBMODULES = ("modes", "protocol", "histories", "chip")


def __getattr__(name: str) -> object:
    """A submodule, or an exported name taken from the first submodule whose
    ``__all__`` lists it and kept here, so this runs once per name."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")  # the import binds it here too
    if name in __all__:
        for submodule in _SUBMODULES:
            home = importlib.import_module(f"{__name__}.{submodule}")
            if name in home.__all__:
                value = globals()[name] = getattr(home, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
