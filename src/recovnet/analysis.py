"""Post-fit analytics: threshold summary statistics, tertile splits by
threshold, attribute comparisons for multiplier sets, and correlations."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .diffusion import ThresholdVector
from .errors import DataError
from .multipliers import MultiplierResult

TERTILE_NAMES = ("low", "middle", "high")
ATTRIBUTE_NAMES = (
    "per_capita_income",
    "median_household_income",
    "minority_pct",
    "flood_extent",
)


@dataclass(frozen=True)
class AttributeRow:
    """Socio-demographic attributes of one node; flood_extent is optional."""

    per_capita_income: float
    median_household_income: float
    minority_pct: float
    flood_extent: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.minority_pct <= 100.0:
            raise DataError(
                f"minority_pct must be in [0, 100], got {self.minority_pct}"
            )
        if self.flood_extent is not None and self.flood_extent < 0:
            raise DataError(f"flood_extent must be >= 0, got {self.flood_extent}")


class AttributeTable:
    """Per-node attribute rows keyed by node id."""

    def __init__(self, rows: Mapping[str, AttributeRow]):
        self.rows: dict[str, AttributeRow] = dict(rows)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self.rows

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(self.rows)

    @property
    def has_flood_extent(self) -> bool:
        return all(row.flood_extent is not None for row in self.rows.values())

    def available_attributes(self) -> tuple[str, ...]:
        names = list(ATTRIBUTE_NAMES[:3])
        if self.has_flood_extent and self.rows:
            names.append("flood_extent")
        return tuple(names)

    def values(self, attribute: str, node_ids: Sequence[str]) -> np.ndarray:
        if attribute not in ATTRIBUTE_NAMES:
            raise DataError(f"unknown attribute {attribute!r}")
        missing = [n for n in node_ids if n not in self.rows]
        if missing:
            raise DataError(
                "nodes missing attribute rows: " + ", ".join(missing[:10])
                + (" ..." if len(missing) > 10 else "")
            )
        out = [getattr(self.rows[n], attribute) for n in node_ids]
        if any(v is None for v in out):
            raise DataError(f"attribute {attribute!r} is not populated for every node")
        return np.array(out, dtype=np.float64)


@dataclass(frozen=True)
class DistributionSummary:
    """Quartiles and mean of one attribute over one node group."""

    count: int
    mean: float
    q1: float
    median: float
    q3: float

    @classmethod
    def from_values(cls, values: np.ndarray) -> "DistributionSummary":
        values = np.asarray(values, dtype=np.float64)
        q1, median, q3 = np.quantile(values, (0.25, 0.5, 0.75))
        return cls(
            count=int(values.size),
            mean=float(values.mean()),
            q1=float(q1),
            median=float(median),
            q3=float(q3),
        )


@dataclass(frozen=True)
class ThresholdSummary:
    """Mean, population variance, and tertile boundaries of the thresholds."""

    mean: float
    variance: float
    tertile_lower: float
    tertile_upper: float
    count: int
    includes_seeds: bool


@dataclass(frozen=True)
class TertileReport:
    """Node ids per threshold tertile and per-attribute summaries for each."""

    tertiles: dict[str, tuple[str, ...]]
    summaries: dict[str, dict[str, DistributionSummary]]


@dataclass(frozen=True)
class CorrelationResult:
    r: float
    p_value: float
    n: int


@dataclass(frozen=True)
class ComparisonEntry:
    """One (size, group, attribute) cell of the multiplier comparison;
    summary is None for an empty group (e.g. every node selected)."""

    size: int
    group: str
    attribute: str
    summary: Optional[DistributionSummary]


@dataclass(frozen=True)
class MultiplierComparisonReport:
    entries: tuple[ComparisonEntry, ...]


def included(tau: ThresholdVector, include_seeds: bool) -> tuple[list[str], np.ndarray]:
    """Ids and thresholds of the nodes a summary covers (seeds on request)."""
    if include_seeds:
        return list(tau.node_ids), tau.values
    keep = ~tau.seed_mask
    ids = [n for n, k in zip(tau.node_ids, keep) if k]
    return ids, tau.values[keep]


def threshold_summary(
    tau: ThresholdVector, include_seeds: bool = False
) -> ThresholdSummary:
    """Mean, population variance, and 1/3-2/3 quantile boundaries; seeds
    (threshold pinned at 0) are excluded unless requested."""
    _, values = included(tau, include_seeds)
    if values.size == 0:
        raise ValueError("no threshold values to summarize")
    lower, upper = np.quantile(values, (1.0 / 3.0, 2.0 / 3.0))
    return ThresholdSummary(
        mean=float(values.mean()),
        variance=float(values.var()),
        tertile_lower=float(lower),
        tertile_upper=float(upper),
        count=int(values.size),
        includes_seeds=include_seeds,
    )


def split_tertiles(
    tau: ThresholdVector, include_seeds: bool = False
) -> dict[str, tuple[str, ...]]:
    """Partition nodes into low/middle/high-threshold thirds of near-equal
    size, ordering by threshold with ties broken by node id."""
    ids, values = included(tau, include_seeds)
    if not ids:
        raise ValueError("no nodes to split into tertiles")
    ranked = sorted(zip(values, ids), key=lambda pair: (pair[0], pair[1]))
    chunks = np.array_split(np.arange(len(ranked)), 3)
    return {
        name: tuple(ranked[i][1] for i in chunk)
        for name, chunk in zip(TERTILE_NAMES, chunks)
    }


def tertile_attribute_report(
    tau: ThresholdVector, attrs: AttributeTable, include_seeds: bool = False
) -> TertileReport:
    """Quartile summaries of every populated attribute within each threshold
    tertile."""
    tertiles = split_tertiles(tau, include_seeds)
    attributes = attrs.available_attributes()
    summaries: dict[str, dict[str, DistributionSummary]] = {}
    for name, members in tertiles.items():
        summaries[name] = {}
        for attribute in attributes:
            if not members:
                continue
            values = attrs.values(attribute, members)
            summaries[name][attribute] = DistributionSummary.from_values(values)
    return TertileReport(tertiles=tertiles, summaries=summaries)


def correlate(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Pearson r with a two-sided p-value from the t distribution on n-2
    degrees of freedom."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"paired 1-D samples required, got {x.shape} and {y.shape}")
    n = x.size
    if n < 3:
        raise ValueError(f"need at least 3 pairs, got {n}")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.sqrt(np.sum(dx * dx)))
    sy = float(np.sqrt(np.sum(dy * dy)))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("degenerate sample: zero variance")
    r = float(np.dot(dx, dy) / (sx * sy))
    r = max(-1.0, min(1.0, r))
    # an exact affine relation rounds to within a few ulps of +/-1; snap it
    if abs(r) >= 1.0 - 1e-13:
        r = 1.0 if r > 0 else -1.0
    if abs(r) == 1.0:
        p = 0.0
    else:
        t_stat = r * math.sqrt((n - 2) / (1.0 - r * r))
        # the t survival function as scipy.stats.t.sf computes it, without
        # importing scipy.stats (over a second of start-up for every command);
        # scipy.special is imported here so only analyze pays for it
        from scipy import special

        p = float(2.0 * special.stdtr(n - 2, -abs(t_stat)))
    return CorrelationResult(r=r, p_value=p, n=n)


def multiplier_attribute_comparison(
    results: Iterable[MultiplierResult], attrs: AttributeTable
) -> MultiplierComparisonReport:
    """For each multiplier size, summarize every populated attribute over the
    selected nodes and over the rest; an empty complement yields a None
    summary so callers can flag it."""
    attributes = attrs.available_attributes()
    universe = list(attrs.rows)
    entries: list[ComparisonEntry] = []
    for result in results:
        selected = list(result.members)
        missing = [n for n in selected if n not in attrs]
        if missing:
            raise DataError(f"multiplier nodes missing attribute rows: {missing[:10]}")
        chosen = set(selected)
        others = [n for n in universe if n not in chosen]
        for group, members in (("multiplier", selected), ("non_multiplier", others)):
            for attribute in attributes:
                summary = (
                    DistributionSummary.from_values(attrs.values(attribute, members))
                    if members
                    else None
                )
                entries.append(
                    ComparisonEntry(
                        size=len(selected), group=group, attribute=attribute, summary=summary
                    )
                )
    return MultiplierComparisonReport(entries=tuple(entries))
