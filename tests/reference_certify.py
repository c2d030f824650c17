"""Dense reference for the witness system behind ``certify_local_optimum``.

The library solves the system by back-substitution over the steps. This
module keeps the explicit form it replaces: one 0/1 row per positive step
over the stacked (axis, state) slots, plus the O(rows^2) structural check
that every row owns a column whose last 1 sits in that row. Tests compare
the fast path against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from minent import DimensionError, DomainError, GreedyStep, GreedyTrace


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
