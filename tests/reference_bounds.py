"""Reference bound report: ``sort_decreasing`` below and a numpy pointwise minimum.

The library builds the report from ``core.sorted_sweep``, the sweep the
two-phase solver runs. This module keeps the form it replaces: every
marginal sorted through a tuple key into a validated ``Marginal``, the
pointwise minimum taken by numpy, and two self-checks that the residual
totals agree and, for two marginals, equal the total variation distance
between the sorted marginals. The report holds plain tuples of floats,
as the library's does. Tests require the library's report to equal this
one, signed zeros included.

It also keeps the scaled outer product of the residuals, whose entropy
meets the independence bound with equality; that identity is what caps
the second phase's entropy contribution. Tests check the identity as a
property of residual vectors; the library never builds the tensor.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from minent import (
    EPS_SUM,
    EPS_ZERO,
    BoundReport,
    DimensionError,
    DomainError,
    Marginal,
    extended_entropy,
)
from minent.core import coerce_marginals, require_finite


def _entropy_of_spread(t: float) -> float:
    """t * log2(1/t), extended by continuity to 0 at t = 0."""
    if t <= 0.0:
        return 0.0
    return -t * math.log2(t)


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
    residuals = tuple(tuple((arr[j] - pmin).tolist()) for j in range(m))
    totals = [math.fsum(r) for r in residuals]
    total = totals[0]
    spread = max(totals) - min(totals)
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
        sorted_marginals=tuple(p.probs for p in sorted_ms),
        pointwise_min=tuple(pmin.tolist()),
        residuals=residuals,
        residual_total=total,
        residual_entropies=h_res,
        lower_bound=lower,
        slack=slack,
        upper_bound=lower + slack,
        achieved=achieved,
    )


def _coerce_residuals(
    residuals: Sequence[Iterable[float]],
) -> tuple[tuple[tuple[float, ...], ...], float]:
    """Nonempty, finite, nonnegative vectors of one length and their common total."""
    rs = tuple(tuple(float(v) for v in r) for r in residuals)
    if len(rs) < 2:
        raise DomainError("need at least two residual vectors")
    n = len(rs[0])
    if any(len(r) != n for r in rs):
        raise DimensionError(f"residual lengths differ: {[len(r) for r in rs]}")
    for r in rs:
        if not r:
            raise DomainError("residual vector needs at least one entry")
        require_finite(r, "residual vector")
        if min(r) < 0.0:
            raise DomainError(f"negative mass {min(r)!r} in residual vector")
    totals = [math.fsum(r) for r in rs]
    for t in totals[1:]:
        if abs(t - totals[0]) > EPS_SUM:
            raise DomainError(f"residual totals differ: {t!r} vs {totals[0]!r}")
    return rs, totals[0]


def outer_product_coupling(
    residuals: Sequence[Iterable[float]],
) -> dict[tuple[int, ...], float]:
    """Scaled outer product of residuals sharing a common total T.

    Returns the tensor ``R(i_1..i_m) = prod_j l_j(i_j) / T**(m-1)`` as a
    sparse map with 1-based index tuples; its axis-j marginal is exactly
    ``l_j``. A zero total is degenerate and yields an empty map.
    """
    rs, total = _coerce_residuals(residuals)
    if total <= EPS_ZERO:
        return {}
    m = len(rs)
    scale = total ** (m - 1)
    supports = [
        [(i, v) for i, v in enumerate(r) if v > 0.0] for r in rs
    ]
    out: dict[tuple[int, ...], float] = {}
    for combo in product(*supports):
        mass = 1.0
        for _, v in combo:
            mass *= v
        out[tuple(i + 1 for i, _ in combo)] = mass / scale
    return out


def outer_product_entropy_identity(
    residuals: Sequence[Iterable[float]],
) -> tuple[float, float]:
    """Both sides of the outer-product entropy identity.

    Returns ``(lhs, rhs)`` where ``lhs`` is the extended entropy of the
    scaled outer product and ``rhs = sum_j h(l_j) + (m-1)*T*log2(T)``. The
    two agree up to rounding; the identity is the equality case of the
    independence bound on the second phase's entropy contribution.
    """
    rs, total = _coerce_residuals(residuals)
    lhs = extended_entropy(outer_product_coupling(rs))
    if total <= EPS_ZERO:
        return lhs, 0.0
    m = len(rs)
    rhs = math.fsum(extended_entropy(r) for r in rs) + (m - 1) * total * math.log2(
        total
    )
    return lhs, rhs
