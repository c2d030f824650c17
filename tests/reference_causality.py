"""Reference causal direction test: the numpy form of ``minent.causality``.

The library keeps the joint as a tuple of row tuples and sums it in plain
loops. This module keeps the numpy code they replace, unchanged but for
its imports, this docstring, its sums and its pruning. The sums follow
the library's two rules: ``math.fsum`` for the total checked against 1,
and in-order sums for every marginal (``np.cumsum`` along a row,
``sum(axis=0)`` down the columns), with each conditional divided by its
variable's marginal. Pruning repeats, as the library's does, until every
kept row and column carries mass. Tests require the library to reproduce
its reports bit for bit, its labels, joint values and warnings, and its
exceptions, apart from three messages the library words more precisely:
joints with one observed state of X or Y, ragged matrices, and the value
in the negative-entry message. Its ``conditionals_from_joint`` and
``exogenous_entropy_estimate`` are the library's per-direction scores,
which ``infer_direction`` computes itself; tests that need the
conditionals or the estimate take them from here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from minent.core import (
    EPS_SUM,
    EPS_ZERO,
    DimensionError,
    DomainError,
    Marginal,
    extended_entropy,
    require_finite,
)
from minent.greedy import SOLVERS


def row_sums(arr: np.ndarray) -> np.ndarray:
    """Each row's total, its entries added left to right."""
    return np.cumsum(arr, axis=1)[:, -1]


@dataclass(frozen=True)
class JointObservation:
    """An observed joint distribution of two discrete variables.

    Rows index the states of X, columns the states of Y. States that were
    never observed (all-zero rows or columns) are pruned on construction
    with a warning; ``row_labels`` / ``col_labels`` record which original
    states survived.
    """

    joint: np.ndarray
    row_labels: tuple[int, ...]
    col_labels: tuple[int, ...]

    @classmethod
    def from_matrix(cls, matrix: Sequence[Sequence[float]]) -> "JointObservation":
        arr = np.asarray(matrix, dtype=float)
        if arr.ndim != 2:
            raise DimensionError("joint observation must be a 2-D matrix")
        if arr.size == 0:
            raise DomainError("joint observation is empty")
        for i, row in enumerate(arr.tolist(), start=1):
            require_finite(row, f"joint row {i}")
        if float(arr.min()) < 0.0:
            raise DomainError(f"negative probability {arr.min()!r} in joint")
        total = math.fsum(arr.ravel().tolist())
        if abs(total - 1.0) > EPS_SUM:
            raise DomainError(f"joint sums to {total!r}, expected 1.0")
        return cls._pruned(arr, labels=None)

    @classmethod
    def from_samples(cls, pairs: Iterable[tuple[int, int]]) -> "JointObservation":
        pairs = list(pairs)
        if not pairs:
            raise DomainError("no samples given")
        xs = sorted({x for x, _ in pairs})
        ys = sorted({y for _, y in pairs})
        x_index = {x: i for i, x in enumerate(xs)}
        y_index = {y: j for j, y in enumerate(ys)}
        counts = np.zeros((len(xs), len(ys)), dtype=float)
        for x, y in pairs:
            counts[x_index[x], y_index[y]] += 1.0
        counts /= len(pairs)
        counts.setflags(write=False)
        return cls(counts, tuple(xs), tuple(ys))

    @classmethod
    def _pruned(cls, arr: np.ndarray, labels) -> "JointObservation":
        keep_rows, keep_cols = np.arange(arr.shape[0]), np.arange(arr.shape[1])
        while True:
            sub = arr[np.ix_(keep_rows, keep_cols)]
            if sub.size == 0:
                raise DomainError("joint observation carries no mass")
            rows_left = keep_rows[row_sums(sub) > EPS_ZERO]
            cols_left = keep_cols[sub.sum(axis=0) > EPS_ZERO]
            if rows_left.size == keep_rows.size and cols_left.size == keep_cols.size:
                break
            keep_rows, keep_cols = rows_left, cols_left
        if keep_rows.size < arr.shape[0] or keep_cols.size < arr.shape[1]:
            warnings.warn(
                "pruned states with zero observed mass from the joint",
                stacklevel=3,
            )
            arr = sub
        arr = arr.copy()
        arr.setflags(write=False)
        return cls(
            arr,
            tuple(int(i) + 1 for i in keep_rows),
            tuple(int(j) + 1 for j in keep_cols),
        )

    @property
    def n_x(self) -> int:
        return int(self.joint.shape[0])

    @property
    def n_y(self) -> int:
        return int(self.joint.shape[1])


@dataclass(frozen=True)
class DirectionReport:
    """Both causal directions' entropy scores and the resulting verdict.

    ``exo_x_to_y`` is the greedy coupling entropy of the conditionals
    {p(Y|X=i)}, an achievable entropy for the exogenous input of the
    X-causes-Y model; ``exo_y_to_x`` is the symmetric quantity. Scores add
    the candidate cause's own entropy. ``verdict`` is ``"XtoY"``,
    ``"YtoX"``, or ``"undecided"`` when the scores differ by at most
    ``margin`` bits.
    """

    h_x: float
    h_y: float
    exo_x_to_y: float
    exo_y_to_x: float
    score_x_to_y: float
    score_y_to_x: float
    margin: float
    verdict: str
    diagnostic: str | None = None

    def to_dict(self) -> dict:
        return {
            "H_X": float(self.h_x),
            "H_Y": float(self.h_y),
            "H_exo_XtoY": float(self.exo_x_to_y),
            "H_exo_YtoX": float(self.exo_y_to_x),
            "score_XtoY": float(self.score_x_to_y),
            "score_YtoX": float(self.score_y_to_x),
            "margin": float(self.margin),
            "verdict": self.verdict,
            "diagnostic": self.diagnostic,
        }


def conditionals_from_joint(
    obs: JointObservation, given_axis: int
) -> list[Marginal]:
    """Conditional distributions of one variable given each state of the other.

    ``given_axis=1`` conditions on X and returns {p(Y|X=i)} in row order;
    ``given_axis=2`` conditions on Y and returns {p(X|Y=j)}. Zero-mass
    conditioning states cannot occur because observations are pruned.
    """
    if given_axis == 1:
        slices, totals = obs.joint, row_sums(obs.joint)
    elif given_axis == 2:
        slices, totals = obs.joint.T, obs.joint.sum(axis=0)
    else:
        raise DimensionError(f"given_axis must be 1 or 2, got {given_axis}")
    return [Marginal.of(row / total) for row, total in zip(slices, totals)]


def exogenous_entropy_estimate(
    conditionals: Sequence[Marginal | Iterable[float]],
    solver: str = "alg2",
) -> float:
    """Greedy coupling entropy of the conditionals.

    Upper-bounds their minimum joint entropy, which is itself achievable
    as the entropy of an exogenous input independent of the conditioning
    variable.
    """
    if solver not in SOLVERS:
        names = " or ".join(map(repr, SOLVERS))
        raise DomainError(f"unknown solver {solver!r}; use {names}")
    coupling, _ = SOLVERS[solver](conditionals)
    return extended_entropy(coupling)


def infer_direction(
    obs: JointObservation,
    margin: float = 0.0,
    solver: str = "alg2",
) -> DirectionReport:
    """Score both causal directions of an observed joint and pick one.

    The verdict goes to the direction whose score undercuts the other by
    more than ``margin`` bits (finite and nonnegative); otherwise the call
    returns "undecided" with a diagnostic. An exactly independent joint
    always lands there, since both directions then score H(X) + H(Y).
    """
    require_finite([margin], "margin")
    if margin < 0.0:
        raise DomainError(f"margin must be nonnegative, got {margin}")
    p_x = row_sums(obs.joint)
    p_y = obs.joint.sum(axis=0)
    h_x = extended_entropy(p_x)
    h_y = extended_entropy(p_y)
    exo_xy = exogenous_entropy_estimate(conditionals_from_joint(obs, 1), solver)
    exo_yx = exogenous_entropy_estimate(conditionals_from_joint(obs, 2), solver)
    score_xy = h_x + exo_xy
    score_yx = h_y + exo_yx
    if score_xy + margin < score_yx:
        verdict, diagnostic = "XtoY", None
    elif score_yx + margin < score_xy:
        verdict, diagnostic = "YtoX", None
    else:
        verdict = "undecided"
        if np.allclose(obs.joint, np.outer(p_x, p_y), atol=1e-12):
            diagnostic = (
                "joint factorizes as the product of its marginals; "
                "direction is not identifiable"
            )
        else:
            diagnostic = (
                f"scores differ by {abs(score_xy - score_yx):.6g} bits, "
                f"within the margin of {margin:.6g}"
            )
    return DirectionReport(
        h_x=h_x,
        h_y=h_y,
        exo_x_to_y=exo_xy,
        exo_y_to_x=exo_yx,
        score_x_to_y=score_xy,
        score_y_to_x=score_yx,
        margin=margin,
        verdict=verdict,
        diagnostic=diagnostic,
    )
