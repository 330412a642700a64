"""yumalab: pre-dTAO Bittensor emission simulation and decentralization analysis.

The package simulates the Yuma Consensus emission pipeline, computes
concentration and attack-resilience metrics over wallet snapshot data, and
sweeps reward-scheme and stake-reshaping interventions. See the module
docstrings for details; `yumalab.cli` provides the command-line interface.

The public names below live in `yumalab.model`, which loads NumPy. They are
resolved on first access (PEP 562), so `import yumalab` alone, and the CLI
up to the point where it has parsed its command line, loads no NumPy.
"""

__version__ = "0.1.0"

__all__ = [
    "EmissionOutcome",
    "EmissionParams",
    "Role",
    "SnapshotEntry",
    "SnapshotEvent",
    "SubnetSnapshot",
    "ValidationError",
    "WalletNames",
    "WeightMatrix",
    "__version__",
]


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from yumalab import model

    value = globals()[name] = getattr(model, name)
    return value
