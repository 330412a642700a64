"""yumalab: pre-dTAO Bittensor emission simulation and decentralization analysis.

The package simulates the Yuma Consensus emission pipeline, computes
concentration and attack-resilience metrics over wallet snapshot data, and
sweeps reward-scheme and stake-reshaping interventions. See the module
docstrings for details; `yumalab.cli` provides the command-line interface.
"""

from yumalab.model import (
    EmissionOutcome,
    EmissionParams,
    Role,
    SnapshotEntry,
    SnapshotEvent,
    SubnetSnapshot,
    ValidationError,
    WeightMatrix,
)

__version__ = "0.1.0"

__all__ = [
    "EmissionOutcome",
    "EmissionParams",
    "Role",
    "SnapshotEntry",
    "SnapshotEvent",
    "SubnetSnapshot",
    "ValidationError",
    "WeightMatrix",
    "__version__",
]
