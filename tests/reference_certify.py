"""References for the witness system behind ``certify_local_optimum``.

The library solves the system by back-substitution over the steps, in
plain loops. This module keeps the forms it replaced: the explicit
system, one 0/1 row per positive step over the stacked (axis, state)
slots, with the O(rows^2) structural check that every row owns a column
whose last 1 sits in that row; and the back-substitution as it was
written with generators, ``next()`` and ``sum()``, which tests require
the library to match bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from minent import (
    EPS_CERT,
    Certificate,
    CertificationError,
    DimensionError,
    DomainError,
    GreedyStep,
    GreedyTrace,
    SparseCoupling,
)


@dataclass(frozen=True)
class CertificateSystem:
    """The linear system built from a trace: one row per positive step.

    ``matrix`` is 0/1 with shape (steps, n*m); the row for a step has ones
    exactly at the flattened (axis, state) slots of its chosen tuple,
    column ``(axis - 1) * n + state - 1``. ``rhs[j]`` is
    ``log2(mass_j) + 1``.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    n: int
    m: int
    tuples: tuple[tuple[int, ...], ...]

    @property
    def num_rows(self) -> int:
        return int(self.matrix.shape[0])


def build_system(
    trace: GreedyTrace | tuple[GreedyStep, ...], n: int, m: int
) -> CertificateSystem:
    """Assemble the witness system for a trace of positive-mass steps.

    The caller must drop zero-mass sweep rounds first (see
    ``GreedyTrace.positive_steps``); a zero or negative mass here is a
    domain error since its log is undefined.
    """
    steps = trace.steps if isinstance(trace, GreedyTrace) else tuple(trace)
    if not steps:
        raise DomainError("cannot build a system from an empty trace")
    matrix = np.zeros((len(steps), n * m), dtype=float)
    rhs = np.empty(len(steps), dtype=float)
    tuples = []
    for row, step in enumerate(steps):
        if step.mass <= 0.0:
            raise DomainError(
                f"step {step.iteration} has non-positive mass {step.mass!r}"
            )
        if len(step.chosen_tuple) != m:
            raise DimensionError(
                f"step tuple {step.chosen_tuple} does not have {m} axes"
            )
        for axis, state in enumerate(step.chosen_tuple):
            if not 1 <= state <= n:
                raise DimensionError(f"state {state} out of range 1..{n}")
            matrix[row, axis * n + state - 1] = 1.0
        rhs[row] = math.log2(step.mass) + 1.0
        tuples.append(step.chosen_tuple)
    return CertificateSystem(matrix, rhs, n, m, tuple(tuples))


def check_last_one_property(system: CertificateSystem) -> bool:
    """True when every row owns a column whose final 1 sits in that row.

    This is the structural consequence of greedy assignment (each step
    permanently exhausts some slot) and implies the rows are linearly
    independent, hence the system is consistent for any right-hand side.
    """
    matrix = system.matrix
    rows = matrix.shape[0]
    for j in range(rows):
        cols = np.flatnonzero(matrix[j])
        if cols.size == 0:
            return False
        if j == rows - 1:
            continue
        if not any(not matrix[j + 1 :, k].any() for k in cols):
            return False
    return True


def _trace_matches_coupling(
    steps: tuple[GreedyStep, ...], coupling: SparseCoupling
) -> bool:
    if len(steps) != coupling.num_entries:
        return False
    for step in steps:
        mass = coupling.entries.get(step.chosen_tuple)
        if mass is None or abs(mass - step.mass) > 1e-12:
            return False
    return True


def certify_local_optimum(
    coupling: SparseCoupling, trace: GreedyTrace
) -> Certificate:
    """Certify a solver output as a local optimum of entropy minimization.

    Solves the witness system by back-substitution over the positive steps
    in reverse order, in O(steps * m), and verifies that the witnesses
    reconstruct every stored mass. Each step owns the lowest-axis slot of
    its tuple that no later step uses; its witness there is fixed by its
    equation, and witnesses no step owns are 0. Raises
    :class:`CertificationError` when the trace does not match the
    coupling, a step owns no slot (its row would depend on later rows),
    the system residual exceeds ``EPS_CERT`` relative to the right-hand
    side, or any mass reconstructs off by more than ``EPS_CERT`` times
    itself.
    """
    positive = trace.positive_steps()
    if not positive:
        raise CertificationError("trace has no positive-mass steps")
    if not _trace_matches_coupling(positive, coupling):
        raise CertificationError("trace does not match the coupling's entries")
    cards = set(coupling.cardinalities)
    if len(cards) != 1:
        raise DimensionError("certification requires equal cardinalities per axis")
    n = cards.pop()
    m = coupling.num_vars
    # Slots come from the tuples, never from the recorded saturated_axes,
    # so a saved trace cannot claim an exhausted slot it does not have.
    last_use: dict[tuple[int, int], int] = {}
    for row, step in enumerate(positive):
        for slot in enumerate(step.chosen_tuple):
            last_use[slot] = row
    rhs = [math.log2(step.mass) + 1.0 for step in positive]
    u = [[0.0] * n for _ in range(m)]
    for row in range(len(positive) - 1, -1, -1):
        tup = positive[row].chosen_tuple
        owned = next(
            (axis for axis, state in enumerate(tup) if last_use[axis, state] == row),
            None,
        )
        if owned is None:
            raise CertificationError(
                f"step {positive[row].iteration} exhausts no slot that later "
                "steps leave alone; rows may be dependent"
            )
        fixed = sum(u[axis][state - 1] for axis, state in enumerate(tup) if axis != owned)
        u[owned][tup[owned] - 1] = rhs[row] - fixed
    sums = [
        sum(u[axis][state - 1] for axis, state in enumerate(step.chosen_tuple))
        for step in positive
    ]
    raw_residual = math.sqrt(math.fsum((total - b) ** 2 for total, b in zip(sums, rhs)))
    residual = raw_residual / max(1.0, math.sqrt(math.fsum(b * b for b in rhs)))
    if residual > EPS_CERT:
        raise CertificationError(
            f"witness system residual {residual:.3e} exceeds {EPS_CERT}",
            residual_norm=residual,
        )
    witnesses: dict[tuple[int, ...], float] = {}
    worst = 0.0
    worst_relative = 0.0
    for step, total in zip(positive, sums):
        mass = coupling.entries[step.chosen_tuple]
        rebuilt = 2.0 ** (total - 1.0)
        witnesses[step.chosen_tuple] = rebuilt
        error = abs(rebuilt - mass)
        worst = max(worst, error)
        worst_relative = max(worst_relative, error / mass)
    if worst_relative > EPS_CERT:
        raise CertificationError(
            f"mass reconstruction error {worst_relative:.3e} of the mass exceeds {EPS_CERT}",
            residual_norm=residual,
            max_reconstruction_error=worst,
        )
    return Certificate(tuple(map(tuple, u)), residual, witnesses, worst)
