"""Reference bound report: ``core.sort_decreasing`` and a numpy pointwise minimum.

The library builds the report from ``core.sorted_sweep``, the sweep the
two-phase solver runs. This module keeps the form it replaces: every
marginal sorted through a tuple key into a validated ``Marginal``, the
pointwise minimum taken by numpy, and two self-checks that the residual
totals agree and, for two marginals, equal the total variation distance
between the sorted marginals. Tests require the library's report to
equal this one, signed zeros included.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from minent import (
    EPS_SUM,
    BoundReport,
    DimensionError,
    Marginal,
    ResidualVector,
    extended_entropy,
)
from minent.bounds import _entropy_of_spread
from minent.core import coerce_marginals


def sort_decreasing(p: Marginal) -> tuple[Marginal, tuple[int, ...]]:
    """Sort a marginal into non-increasing order.

    Returns ``(sorted, perm)`` where ``perm[k]`` is the 1-based original
    index of the k-th largest mass. Ties keep their original order.
    """
    order = sorted(range(len(p)), key=lambda i: (-p.probs[i], i))
    sorted_marginal = Marginal(tuple(p.probs[i] for i in order))
    return sorted_marginal, tuple(i + 1 for i in order)


def total_variation_sorted(p: Marginal, q: Marginal) -> float:
    """Total variation distance between the decreasing rearrangements of p and q."""
    if len(p) != len(q):
        raise DimensionError(f"marginal lengths differ: {len(p)} vs {len(q)}")
    a, _ = sort_decreasing(p)
    b, _ = sort_decreasing(q)
    return 0.5 * math.fsum(abs(x - y) for x, y in zip(a.probs, b.probs))


def bound_report(
    marginals: Sequence[Marginal | Iterable[float]],
    achieved: float | None = None,
) -> BoundReport:
    """Compute the additive approximation bracket for the given marginals.

    ``achieved`` (a solver's coupling entropy) is carried through into the
    report when supplied.
    """
    ms = coerce_marginals(marginals, "need at least two marginals for a bound report")
    m = len(ms)
    sorted_ms = tuple(sort_decreasing(p)[0] for p in ms)
    arr = np.array([p.probs for p in sorted_ms], dtype=float)
    pmin = arr.min(axis=0)
    residuals = tuple(
        ResidualVector.of(arr[j] - pmin) for j in range(m)
    )
    total = residuals[0].total
    spread = max(r.total for r in residuals) - min(r.total for r in residuals)
    if spread > EPS_SUM:
        raise RuntimeError(f"residual totals diverged by {spread!r}")
    if m == 2:
        tv = total_variation_sorted(ms[0], ms[1])
        if abs(total - tv) > EPS_SUM:
            raise RuntimeError(
                f"residual total {total!r} disagrees with total variation {tv!r}"
            )
    h_res = tuple(extended_entropy(r) for r in residuals)
    lower = max(extended_entropy(p) for p in sorted_ms)
    slack = (
        1.0
        - (m - 1) * _entropy_of_spread(total)
        + math.fsum(h_res)
        - max(h_res)
    )
    return BoundReport(
        m=m,
        sorted_marginals=sorted_ms,
        pointwise_min=ResidualVector.of(pmin),
        residuals=residuals,
        residual_total=total,
        residual_entropies=h_res,
        lower_bound=lower,
        slack=slack,
        upper_bound=lower + slack,
        achieved=achieved,
    )
