"""Post-fit analytics: threshold summary statistics, tertile splits,
attribute summaries over groups of nodes, and correlations.

Every function summarises the values and node positions its caller gives
it: the caller chooses which nodes count (the free nodes, or every node)
and how they are grouped. Values come in one node order, as
io.read_thresholds gives thresholds and as graph.align_rows' rows put
attribute columns; a group of nodes is positions in that order. Every
result is plain values: the dicts that analysis_report.json holds, and one
dict of count, mean and quartiles per summarized group.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

TERTILE_NAMES = ("low", "middle", "high")


def quantiles(values: np.ndarray, probabilities: Sequence[float]) -> np.ndarray:
    """np.quantile's default (linear) rule without its np.unique, which imports
    numpy.ma: lerp between the sorted neighbours of (n - 1) * q (both the last
    one at or past it), from the upper one once the weight reaches 1/2, as
    NumPy's _lerp does."""
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    virtual = (ordered.size - 1) * np.asarray(probabilities, dtype=np.float64)
    lower = np.where(virtual >= ordered.size - 1, -1.0, np.floor(virtual))
    upper = np.where(lower < 0, -1.0, lower + 1)
    weight = virtual - lower
    a, b = ordered[lower.astype(np.intp)], ordered[upper.astype(np.intp)]
    return np.where(weight >= 0.5, b - (b - a) * (1 - weight), a + (b - a) * weight)


def _distribution(values: np.ndarray) -> dict:
    """count, mean and quartiles of one attribute over one node group."""
    values = np.asarray(values, dtype=np.float64)
    q1, median, q3 = quantiles(values, (0.25, 0.5, 0.75))
    return {"count": int(values.size), "mean": float(values.mean()),
            "q1": float(q1), "median": float(median), "q3": float(q3)}


def threshold_summary(values: np.ndarray) -> dict:
    """Mean, population variance, 1/3-2/3 quantile boundaries and count of
    the given thresholds, as analysis_report.json holds them."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("no threshold values to summarize")
    lower, upper = quantiles(values, (1.0 / 3.0, 2.0 / 3.0))
    return {"mean": float(values.mean()), "variance": float(values.var()),
            "variance_convention": "population", "tertile_lower": float(lower),
            "tertile_upper": float(upper), "count": int(values.size)}


def split_tertiles(
    ids: Sequence[str], values: np.ndarray, positions: Sequence[int]
) -> dict[str, np.ndarray]:
    """Partition the given positions into low/middle/high thirds of
    near-equal size, ordered by value with ties broken by node id."""
    ranked = sorted(np.asarray(positions).tolist(), key=lambda i: (values[i], ids[i]))
    if not ranked:
        raise ValueError("no nodes to split into tertiles")
    return dict(zip(TERTILE_NAMES, np.array_split(np.array(ranked, dtype=np.intp), 3)))


def attribute_summaries(
    groups: Iterable[tuple[tuple, Sequence[int]]], columns: Mapping[str, np.ndarray]
) -> list[tuple]:
    """(*key, attribute, summary) rows: for each (key, positions) group,
    every attribute column summarized (count, mean, q1, median, q3) over
    those positions in the order given. An empty group has summary None so
    callers can flag it."""
    return [
        (*key, attribute, _distribution(column[members]) if len(members) else None)
        for key, members in groups
        for attribute, column in columns.items()
    ]


def t_two_sided(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t on df degrees of freedom: the regularized
    incomplete beta I_x(df/2, 1/2) at x = df/(df+t^2).

    x and 1 - x are formed separately, so a p-value near 1 keeps its digits.
    """
    square = t * t
    x, y = df / (df + square), square / (df + square)
    if y == 0.0:
        return 1.0
    if x == 0.0:
        return 0.0
    a = 0.5 * df
    log_x = math.log1p(-y) if y < 0.5 else math.log(x)
    log_y = math.log1p(-x) if x < 0.5 else math.log(y)
    front = math.exp(a * log_x + 0.5 * log_y - _log_beta_half(a))  # x^a y^(1/2) / B(a, 1/2)
    # I_x(a, b) = 1 - I_y(b, a); the fraction converges fast below the mean
    if x < (a + 1.0) / (a + 2.5):
        return front * _beta_fraction(a, 0.5, x) / a
    return 1.0 - front * _beta_fraction(0.5, a, y) / 0.5


def _log_beta_half(a: float) -> float:
    """log B(a, 1/2). For a >= 30, Stirling's series gives lgamma(a) -
    lgamma(a + 1/2) without the cancellation of two large lgamma values."""
    if a < 30.0:
        return math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5)

    def stirling_rest(z: float) -> float:  # lgamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2)
        w = 1.0 / (z * z)
        return (1.0 / 12 - w * (1.0 / 360 - w * (1.0 / 1260 - w / 1680))) / z

    return (0.5 * math.log(math.pi) + 0.5 - 0.5 * math.log(a + 0.5)
            - (a - 0.5) * math.log1p(0.5 / a) + stirling_rest(a) - stirling_rest(a + 0.5))


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), by the modified Lentz method."""
    tiny = 1e-300

    def guard(value: float) -> float:
        return value if abs(value) > tiny else tiny

    c, d = 1.0, 1.0 / guard(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 100_000):
        even = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        d = 1.0 / guard(1.0 + even * d)
        c = guard(1.0 + even / c)
        h *= d * c
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        d = 1.0 / guard(1.0 + odd * d)
        c = guard(1.0 + odd / c)
        h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            break
    return h


def correlate(x: Sequence[float], y: Sequence[float]) -> dict:
    """Pearson r, its two-sided p-value from the t distribution on n-2
    degrees of freedom, and n."""
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
        # the t tail is computed here, not by scipy.special.stdtr (whose import
        # cost more than the rest of analyze); the tests hold it to 1e-10 of stdtr
        t_stat = r * math.sqrt((n - 2) / (1.0 - r * r))
        p = t_two_sided(t_stat, n - 2)
    return {"r": r, "p_value": p, "n": n}
