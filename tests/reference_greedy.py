"""Reference greedy solvers: a masked argmax over the whole residual per step.

The library drives phase 1 from one sorted order per marginal and the
update loop from one heap per marginal. This module keeps the direct form
they replace: every step runs an ``argmax`` over each marginal's residual
(phase 1 masks visited states with -1) and the loop stops once a row sum
drops to ``EPS_ZERO``. Tests require the fast path to reproduce its
traces, saturations, masses and assignment order exactly. Input is
validated by the library's own ``coerce_marginals``, so both paths accept
and reject the same marginal sets.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from minent import EPS_ZERO, GreedyStep, GreedyTrace, Marginal, SparseCoupling
from minent.core import coerce_marginals


def _coerce_marginals(marginals: Sequence[Marginal | Iterable[float]]) -> np.ndarray:
    resid = np.array([p.probs for p in coerce_marginals(marginals)], dtype=float)
    # Entries at or below EPS_ZERO are unassignable; zero them up front so
    # every residual cell is either exactly 0 or strictly above EPS_ZERO.
    resid[resid <= EPS_ZERO] = 0.0
    return resid


def _subtract(resid: np.ndarray, idx: np.ndarray, mass: float) -> None:
    for k, j in enumerate(idx):
        left = resid[k, j] - mass
        resid[k, j] = 0.0 if left <= EPS_ZERO else left


def _saturated(resid: np.ndarray, idx: np.ndarray) -> frozenset[tuple[int, int]]:
    return frozenset(
        (k + 1, int(j) + 1) for k, j in enumerate(idx) if resid[k, j] == 0.0
    )


def _update_until_drained(
    resid: np.ndarray,
    entries: dict[tuple[int, ...], float],
    order: list[tuple[tuple[int, ...], float]],
    steps: list[GreedyStep],
) -> None:
    m, n = resid.shape
    limit = n * m - m + 1
    while float(resid.sum(axis=1).min()) > EPS_ZERO:
        if len(steps) >= limit:
            raise RuntimeError(
                f"greedy solver exceeded the {limit}-step bound for n={n}, m={m}"
            )
        idx = resid.argmax(axis=1)  # ties resolve to the lowest state index
        mass = float(resid[np.arange(m), idx].min())
        tup = tuple(int(j) + 1 for j in idx)
        if tup in entries:
            raise RuntimeError(f"greedy solver revisited cell {tup}")
        _subtract(resid, idx, mass)
        entries[tup] = mass
        order.append((tup, mass))
        steps.append(GreedyStep(len(steps) + 1, tup, mass, _saturated(resid, idx)))


def greedy_coupling(
    marginals: Sequence[Marginal | Iterable[float]],
) -> tuple[SparseCoupling, GreedyTrace]:
    resid = _coerce_marginals(marginals)
    m, n = resid.shape
    entries: dict[tuple[int, ...], float] = {}
    order: list[tuple[tuple[int, ...], float]] = []
    steps: list[GreedyStep] = []
    _update_until_drained(resid, entries, order, steps)
    coupling = SparseCoupling(m, (n,) * m, entries, tuple(order))
    return coupling, GreedyTrace(tuple(steps), None)


def greedy_coupling_two_phase(
    marginals: Sequence[Marginal | Iterable[float]],
) -> tuple[SparseCoupling, GreedyTrace]:
    resid = _coerce_marginals(marginals)
    m, n = resid.shape
    entries: dict[tuple[int, ...], float] = {}
    order: list[tuple[tuple[int, ...], float]] = []
    steps: list[GreedyStep] = []
    visited: list[set[int]] = [set() for _ in range(m)]
    for _ in range(n):
        idx = np.empty(m, dtype=int)
        for k in range(m):
            masked = resid[k].copy()
            if visited[k]:
                masked[sorted(visited[k])] = -1.0
            idx[k] = int(masked.argmax())
        mass = float(resid[np.arange(m), idx].min())
        tup = tuple(int(j) + 1 for j in idx)
        if mass > 0.0:
            if tup in entries:
                raise RuntimeError(f"greedy solver revisited cell {tup}")
            _subtract(resid, idx, mass)
            entries[tup] = mass
            order.append((tup, mass))
        steps.append(GreedyStep(len(steps) + 1, tup, mass, _saturated(resid, idx)))
        for k in range(m):
            visited[k].add(int(idx[k]))
    boundary = len(steps) + 1
    _update_until_drained(resid, entries, order, steps)
    if len(steps) > n * m - m + 1:
        raise RuntimeError(
            f"two-phase solver exceeded the {n * m - m + 1}-step bound"
        )
    coupling = SparseCoupling(m, (n,) * m, entries, tuple(order))
    return coupling, GreedyTrace(tuple(steps), boundary)
