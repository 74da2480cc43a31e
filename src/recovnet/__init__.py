"""Threshold-diffusion modeling of post-disaster recovery on spatial
contiguity networks: threshold fitting from observed recovery durations and
search for recovery-multiplier seed sets.

Importing the package loads none of its modules: each public name below is
imported from its module on first use (PEP 562), so that a command loads
only the modules it runs."""

import importlib

__version__ = "0.1.0"

# each public name, by the module that defines it
_HOMES = {
    "analysis": (
        "correlate", "multiplier_attribute_comparison", "split_tertiles",
        "tertile_attribute_report", "threshold_summary",
    ),
    "diffusion": ("DiffusionKernel", "DiffusionSchedule", "recovered_counts", "run_diffusion"),
    "empirical": ("compute_recovery_durations", "durations_to_weeks", "zero_one_loss"),
    "errors": ("ConfigError", "DataError", "RecovnetError"),
    "fitting": (
        "BaselineStats", "FitProblem", "FitResult", "build_fit_problem", "fit_thresholds",
        "random_baseline",
    ),
    "ga": (
        "GaConfig", "GaResult", "RealVectorEncoding", "SubsetEncoding", "performance_index",
        "run_ga", "run_lockstep",
    ),
    "graph": (
        "ContiguityRule", "Polygons", "SpatialGraph", "align_rows",
        "build_contiguity_graph", "graph_metrics",
    ),
    "multipliers": (
        "MultiplierProblem", "MultiplierResult", "brute_force_multipliers", "increment_rate",
        "search_multipliers",
    ),
    "synthetic": (
        "SynthSpec", "SyntheticInstance", "generate_instance", "grid_units", "write_instance",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
