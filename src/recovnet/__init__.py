"""Threshold-diffusion modeling of post-disaster recovery on spatial
contiguity networks: threshold fitting from observed recovery durations and
search for recovery-multiplier seed sets."""

from .analysis import (
    AttributeTable,
    CorrelationResult,
    DistributionSummary,
    ThresholdSummary,
    correlate,
    multiplier_attribute_comparison,
    split_tertiles,
    tertile_attribute_report,
    threshold_summary,
)
from .diffusion import (
    DiffusionSchedule,
    ThresholdVector,
    all_affected,
    recovered_counts,
    run_diffusion,
)
from .empirical import (
    compute_recovery_durations,
    durations_to_weeks,
    zero_one_loss,
)
from .errors import ConfigError, DataError, RecovnetError
from .fitting import (
    BaselineStats,
    FitProblem,
    FitResult,
    build_fit_problem,
    fit_thresholds,
    random_baseline,
)
from .ga import (
    GaConfig,
    GaResult,
    GenerationRecord,
    PerformanceRecord,
    RealVectorEncoding,
    SubsetEncoding,
    performance_index,
    run_ga,
)
from .graph import (
    ContiguityRule,
    GraphMetrics,
    Polygons,
    SpatialGraph,
    align_rows,
    build_contiguity_graph,
    graph_metrics,
)
from .multipliers import (
    MultiplierProblem,
    MultiplierResult,
    brute_force_multipliers,
    increment_rate,
    search_multipliers,
)
from .synthetic import (
    SynthSpec,
    SyntheticInstance,
    generate_instance,
    grid_units,
    write_instance,
)

__version__ = "0.1.0"
