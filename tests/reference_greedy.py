"""Reference greedy solvers: a masked argmax over the whole residual per step.

The library drives phase 1 from one sorted order per marginal and the
update loop from one heap per marginal. This module keeps the direct form
they replace: every step runs an ``argmax`` over each marginal's residual
(phase 1 masks visited states with -1) and the loop stops once a row sum
drops to ``EPS_ZERO``. Tests require the fast path to reproduce its
traces, saturations, masses and assignment order exactly. Input is
validated by the library's own ``coerce_marginals``, so both paths accept
and reject the same marginal sets.

The reference solvers keep the ``GreedyStep`` objects they build in a
``ReferenceTrace``, so a comparison reads them as built rather than
through the record a ``GreedyTrace`` keeps. ``trace_from_steps`` goes the
other way, from steps such as a test writes by hand to that record.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

import numpy as np

from minent import EPS_ZERO, GreedyStep, GreedyTrace, Marginal, SparseCoupling
from minent.core import coerce_marginals


class ReferenceTrace(NamedTuple):
    steps: tuple[GreedyStep, ...]
    phase_boundary: int | None


def trace_from_steps(
    steps: Iterable[tuple[int, tuple[int, ...], float, Iterable[tuple[int, int]]]],
    phase_boundary: int | None = None,
) -> GreedyTrace:
    """The trace of ``(iteration, cell, mass, saturated pairs)`` items, such
    as :class:`GreedyStep` objects.

    The record takes a closed axis's state from the cell, so a pair
    counts only where it names the cell's own state on an axis.
    """
    iterations, assignments, closed = [], [], []
    for iteration, cell, mass, pairs in steps:
        mask = 0
        for axis, state in pairs:
            if 1 <= axis <= len(cell) and cell[axis - 1] == state:
                mask |= 1 << (axis - 1)
        iterations.append(iteration)
        assignments.append((cell, mass))
        closed.append(mask)
    return GreedyTrace(tuple(assignments), tuple(closed), tuple(iterations), phase_boundary)


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
) -> tuple[SparseCoupling, ReferenceTrace]:
    resid = _coerce_marginals(marginals)
    m, n = resid.shape
    entries: dict[tuple[int, ...], float] = {}
    order: list[tuple[tuple[int, ...], float]] = []
    steps: list[GreedyStep] = []
    _update_until_drained(resid, entries, order, steps)
    coupling = SparseCoupling(m, (n,) * m, entries, tuple(order))
    return coupling, ReferenceTrace(tuple(steps), None)


def greedy_coupling_two_phase(
    marginals: Sequence[Marginal | Iterable[float]],
) -> tuple[SparseCoupling, ReferenceTrace]:
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
    return coupling, ReferenceTrace(tuple(steps), boundary)
