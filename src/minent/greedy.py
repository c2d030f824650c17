"""Greedy coupling solvers.

Two deterministic variants are provided. ``greedy_coupling`` repeatedly
takes each marginal's largest remaining mass and assigns the smallest of
those picks to one joint cell, subtracting it everywhere. The two-phase
variant first sweeps every state of every marginal exactly once, then
finishes with the same update loop on whatever mass remains.

Both solvers record a full :class:`GreedyTrace`; the trace carries the
structural information the ``certify`` module turns into a
local-optimality certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import (
    EPS_ZERO,
    DimensionError,
    DomainError,
    Marginal,
    SparseCoupling,
)


@dataclass(frozen=True)
class GreedyStep:
    """One solver assignment: a cell, its mass, and the constraints it closed.

    ``saturated_axes`` holds the (axis, state) pairs, 1-based, whose
    residual mass is exactly zero after this step. Two-phase runs may
    record zero-mass steps; those never enter the coupling itself.
    """

    iteration: int
    chosen_tuple: tuple[int, ...]
    mass: float
    saturated_axes: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class GreedyTrace:
    """The ordered steps of one solver run.

    ``phase_boundary`` is the 1-based index of the first second-phase step
    and is set only by the two-phase solver; when the second phase is
    empty it points just past the last step.
    """

    steps: tuple[GreedyStep, ...]
    phase_boundary: int | None = None

    def __len__(self) -> int:
        return len(self.steps)

    def positive_steps(self) -> tuple[GreedyStep, ...]:
        return tuple(s for s in self.steps if s.mass > 0.0)


def _coerce_marginals(marginals: Sequence[Marginal | Iterable[float]]) -> np.ndarray:
    ms = [p if isinstance(p, Marginal) else Marginal.of(p) for p in marginals]
    if len(ms) < 2:
        raise DomainError("need at least two marginals to couple")
    n = len(ms[0])
    if any(len(p) != n for p in ms):
        raise DimensionError(
            f"marginal lengths differ: {[len(p) for p in ms]}"
        )
    resid = np.array([p.probs for p in ms], dtype=float)
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
    """Run pick-max/assign-min rounds until some marginal is exhausted.

    Termination watches the smallest marginal total: all totals agree up
    to rounding, and once any marginal is drained the rest hold only dust.
    """
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
    """Couple marginals by iterating the pick-max/assign-min update.

    Each round locates the largest remaining mass in every marginal,
    assigns the smallest of those to the corresponding joint cell, and
    subtracts it from every marginal at its chosen state. Argmax ties go
    to the lowest state index, so the output is deterministic.

    Returns the coupling together with the full assignment trace. Runs in
    at most ``n*m - m + 1`` steps and fails loudly if that bound would be
    exceeded.
    """
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
    """Couple marginals with a sweep phase followed by the greedy update.

    Phase one runs exactly n rounds; round t picks, for each marginal, the
    largest mass among states it has not visited yet, assigns the minimum
    of those picks, and marks the chosen states visited. Rounds whose
    minimum is zero are recorded in the trace with mass 0 but excluded
    from the coupling. Phase two is the plain update loop on the residual
    mass; the trace's ``phase_boundary`` marks where it starts.
    """
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
