"""Additive approximation bounds for the greedy coupling solvers.

After sorting every marginal in decreasing order, the pointwise minimum
``p_min`` is what the two-phase solver consumes in its sweep phase; what
remains of marginal j is the residual vector ``l_j``. The report takes
both from ``core.sorted_sweep``, the sweep the solver runs, but on the
raw masses: the solver snaps dust at or below ``EPS_ZERO`` to zero first,
the report keeps it. All residuals share the same total ``T``, and the
coupling entropy achieved by the solver sits within an additive ``slack``
of the unknown optimum:

    slack = 1 - (m - 1) * T * log2(1/T) + sum_j h(l_j) - max_j h(l_j)

with ``h`` the extended entropy; ``T log2(1/T)`` is ``h((T,))``, 0 at ``T = 0``. For
two marginals this reduces to ``1 - T*log2(1/T) + min(h(l_1), h(l_2))``
and ``T`` coincides with the total variation distance between the sorted
marginals. The slack is also valid over ``max_j H(X_j)``, which is itself
a lower bound on the optimum, so a report brackets the achieved entropy
without knowing the optimum. The report holds ``sorted_marginals``,
``pointwise_min`` and ``residuals`` as plain tuples of floats: only the
input marginals are validated, once, by ``coerce_marginals``.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .core import (
    DomainError,
    Marginal,
    Record,
    coerce_marginals,
    extended_entropy,
    sorted_sweep,
)


class BoundReport(Record):
    """Approximation bracket for a set of marginals.

    ``sorted_marginals[j]`` is marginal j in decreasing order,
    ``pointwise_min`` the pointwise minimum of those rows and
    ``residuals[j]`` their difference ``l_j``, each a plain tuple of
    floats. Every residual totals ``residual_total`` and
    ``residual_entropies[j]`` is ``h(l_j)``. ``lower_bound`` is
    ``max_j H(X_j)``; ``upper_bound`` is ``lower_bound + slack``.
    ``achieved`` is a solver's coupling entropy when one was run.
    """

    m: int
    sorted_marginals: tuple[tuple[float, ...], ...]
    pointwise_min: tuple[float, ...]
    residuals: tuple[tuple[float, ...], ...]
    residual_total: float
    residual_entropies: tuple[float, ...]
    lower_bound: float
    slack: float
    upper_bound: float
    achieved: float | None

    def __init__(
        self, m, sorted_marginals, pointwise_min, residuals, residual_total,
        residual_entropies, lower_bound, slack, upper_bound, achieved=None,
    ) -> None:
        self.__dict__.update(
            m=m, sorted_marginals=sorted_marginals, pointwise_min=pointwise_min,
            residuals=residuals, residual_total=residual_total,
            residual_entropies=residual_entropies, lower_bound=lower_bound, slack=slack,
            upper_bound=upper_bound, achieved=achieved,
        )

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "sorted_marginals": [list(p) for p in self.sorted_marginals],
            "pointwise_min": list(self.pointwise_min),
            "residuals": [list(r) for r in self.residuals],
            "residual_total": self.residual_total,
            "residual_entropies": list(self.residual_entropies),
            "lower_bound": self.lower_bound,
            "slack": self.slack,
            "upper_bound": self.upper_bound,
            "achieved": None if self.achieved is None else float(self.achieved),
        }


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
    _, sorted_rows, pmin = sorted_sweep([p.probs for p in ms])
    sorted_ms = tuple(map(tuple, sorted_rows))
    residuals = tuple(tuple([v - low for v, low in zip(row, pmin)]) for row in sorted_ms)
    total = math.fsum(residuals[0])
    h_res = tuple(extended_entropy(r) for r in residuals)
    # extended_entropy sums by fsum, so sorting leaves each H(X_j) as it is
    lower = max(extended_entropy(p) for p in ms)
    slack = (
        1.0
        - (m - 1) * extended_entropy((total,))
        + math.fsum(h_res)
        - max(h_res)
    )
    return BoundReport(
        m=m,
        sorted_marginals=sorted_ms,
        pointwise_min=tuple(pmin),
        residuals=residuals,
        residual_total=total,
        residual_entropies=h_res,
        lower_bound=lower,
        slack=slack,
        upper_bound=lower + slack,
        achieved=achieved,
    )


def special_family(
    n: int, alpha: float
) -> tuple[Marginal, Marginal, float, float]:
    """The uniform-versus-two-level family with closed-form entropies.

    The first marginal is uniform over n states (n even); the second puts
    ``alpha/n`` on the first half of the states and ``(2-alpha)/n`` on the
    rest, for ``1 < alpha < 2``. Returns both marginals plus the predicted
    two-phase coupling entropy

        log2(n) - ((alpha-1)/2) log2(alpha-1) - ((2-alpha)/2) log2(2-alpha)

    and the second marginal's entropy

        log2(n) - (alpha/2) log2(alpha) - ((2-alpha)/2) log2(2-alpha).

    The gap between them stays below one bit for the whole family even
    though the slack term ``min_j h(l_j)`` grows like log2(n), which makes
    this family the standard looseness exhibit for the additive bound.
    """
    if n < 2 or n % 2 != 0:
        raise DomainError(f"n must be even and at least 2, got {n}")
    if not 1.0 < alpha < 2.0:
        raise DomainError(f"alpha must lie strictly between 1 and 2, got {alpha}")
    uniform = Marginal.of([1.0 / n] * n)
    half = n // 2
    skewed = Marginal.of([alpha / n] * half + [(2.0 - alpha) / n] * half)
    log_n = math.log2(n)
    predicted_coupling = (
        log_n
        - (alpha - 1.0) / 2.0 * math.log2(alpha - 1.0)
        - (2.0 - alpha) / 2.0 * math.log2(2.0 - alpha)
    )
    predicted_second = (
        log_n
        - alpha / 2.0 * math.log2(alpha)
        - (2.0 - alpha) / 2.0 * math.log2(2.0 - alpha)
    )
    return uniform, skewed, predicted_coupling, predicted_second
