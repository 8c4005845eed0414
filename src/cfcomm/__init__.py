"""Counterfactual communication toolkit: modal protocol evolution, Feynman
path-history analysis, MZI-mesh compilation, and output-qubit tomography."""

from .chip import (
    InsufficientStatisticsError,
    MeshEquivalenceReport,
    MeshProgram,
    MziSetting,
    TomographyResult,
    compile_program,
    mesh_unitary,
    simulate_tomography,
    trace_distance,
    verify,
)
from .histories import (
    CounterfactualityReport,
    EnumerationLimitError,
    History,
    amplitude_by_paths,
    counterfactuality_report,
    enumerate_histories,
)
from .modes import (
    ModeBasis,
    PureState,
    UnitaryOp,
)
from .protocol import (
    BLOCK,
    PASS,
    BobAction,
    OutcomeDistribution,
    PostselectionError,
    ProtocolConfig,
    Step,
    SweepRow,
    alice_reduced_state,
    build_steps,
    closed_form,
    evolution_unitary,
    run,
    splitter,
    sweep,
)

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
    "trace_distance",
    "verify",
]
