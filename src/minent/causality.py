"""Causal direction scoring for two observed discrete variables.

Writing the forward model as effect = mechanism(cause, exogenous input)
with the input independent of the cause, the smallest achievable entropy
of the input in a given direction equals the minimum joint entropy of the
conditional distributions of the effect given each cause state. The
greedy coupling solvers estimate that quantity from above, and the
direction with the smaller total (cause entropy plus exogenous estimate)
is reported as the more plausible one.

The construction is exact for the reverse direction of a fixed model; we
apply it in both directions by symmetry, an interpretation choice noted
in the README. Ties within the configured margin come back as
"undecided", which is also what an exactly independent joint produces:
both scores then equal H(X) + H(Y) by construction.

The module needs no numpy: importing it cost more than the whole test on
the joints of a few hundred cells that ``minent infer`` reads. The joint
is a tuple of row tuples of floats, summed in plain loops that follow
numpy's order rather than ``math.fsum``, so reports match the numpy form
of this module (``tests/reference_causality.py``) bit for bit; with
fsum over half of them moved in their last bits. A row, a column or the
whole joint is summed as numpy's pairwise sum (``_pairwise_sum``), and
the marginal of Y adds the rows left to right, as ``sum(axis=0)`` does.
The sums are ``+=`` loops because ``sum()`` compensates its floats from
Python 3.12 on.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .core import (
    EPS_SUM,
    EPS_ZERO,
    DimensionError,
    DomainError,
    Marginal,
    Record,
    extended_entropy,
    require_finite,
)
from .greedy import SOLVERS

Matrix = tuple[tuple[float, ...], ...]


def _pairwise_sum(values: Sequence[float], start: int = 0, n: int | None = None) -> float:
    """numpy's pairwise sum of ``values[start:start + n]``.

    Below 8 terms it adds them in order from -0.0. Up to 128 it keeps 8
    accumulators, one per residue mod 8, joins them as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and adds the tail in order.
    Above 128 it splits at half the length rounded down to a multiple of
    8 and recurses.
    """
    if n is None:
        n = len(values)
    if n < 8:
        total = -0.0
        for i in range(start, start + n):
            total += values[i]
        return total
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = values[start:start + 8]
        end = start + n - n % 8
        for i in range(start + 8, end, 8):
            r0 += values[i]
            r1 += values[i + 1]
            r2 += values[i + 2]
            r3 += values[i + 3]
            r4 += values[i + 4]
            r5 += values[i + 5]
            r6 += values[i + 6]
            r7 += values[i + 7]
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(end, start + n):
            total += values[i]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, start, half) + _pairwise_sum(values, start + half, n - half)


def _column_sums(joint: Sequence[Sequence[float]]) -> list[float]:
    """numpy's ``sum(axis=0)``: rows added left to right.

    numpy sums a single column pairwise instead; that total is only
    compared with ``EPS_ZERO`` here, which either order passes alike.
    """
    sums = list(joint[0])
    for row in joint[1:]:
        for j, value in enumerate(row):
            sums[j] += value
    return sums


def _matrix_rows(matrix: Sequence[Sequence[float]]) -> list[list[float]]:
    """The rows of a 2-D sequence (numpy arrays included) as float lists."""
    not_2d = "joint observation must be a 2-D matrix"
    try:
        rows = [list(row) for row in matrix]
    except TypeError:  # a scalar, or a vector of scalars
        raise DimensionError(not_2d) from None
    if not rows:
        raise DimensionError(not_2d)
    lengths = [len(row) for row in rows]
    if any(length != lengths[0] for length in lengths):
        raise DimensionError(f"joint row lengths differ: {lengths}")
    try:
        return [[float(v) for v in row] for row in rows]
    except TypeError:
        if any(isinstance(v, Iterable) and not isinstance(v, str) for row in rows for v in row):
            raise DimensionError(not_2d) from None
        raise


class JointObservation(Record):
    """An observed joint distribution of two discrete variables.

    Rows index the states of X, columns the states of Y; ``joint`` is a
    tuple of row tuples. States that were never observed (all-zero rows
    or columns) are pruned on construction, and ``row_labels`` /
    ``col_labels`` are the record of it: the 1-based indices of the
    matrix's surviving rows and columns, or the observed sample values.
    """

    joint: Matrix
    row_labels: tuple[int, ...]
    col_labels: tuple[int, ...]

    def __init__(self, joint, row_labels, col_labels) -> None:
        self.__dict__.update(joint=joint, row_labels=row_labels, col_labels=col_labels)

    @classmethod
    def from_matrix(cls, matrix: Sequence[Sequence[float]]) -> "JointObservation":
        rows = _matrix_rows(matrix)
        if not rows[0]:
            raise DomainError("joint observation is empty")
        for i, row in enumerate(rows, start=1):
            require_finite(row, f"joint row {i}")
        low = min(map(min, rows))
        if low < 0.0:
            raise DomainError(f"negative probability {low!r} in joint")
        total = _pairwise_sum([v for row in rows for v in row])
        if abs(total - 1.0) > EPS_SUM:
            raise DomainError(f"joint sums to {total!r}, expected 1.0")
        keep_rows = [i for i, row in enumerate(rows) if _pairwise_sum(row) > EPS_ZERO]
        keep_cols = [j for j, s in enumerate(_column_sums(rows)) if s > EPS_ZERO]
        return cls(
            tuple(tuple(rows[i][j] for j in keep_cols) for i in keep_rows),
            tuple(i + 1 for i in keep_rows),
            tuple(j + 1 for j in keep_cols),
        )

    @classmethod
    def from_samples(cls, pairs: Iterable[tuple[int, int]]) -> "JointObservation":
        pairs = list(pairs)
        if not pairs:
            raise DomainError("no samples given")
        xs = sorted({x for x, _ in pairs})
        ys = sorted({y for _, y in pairs})
        x_index = {x: i for i, x in enumerate(xs)}
        y_index = {y: j for j, y in enumerate(ys)}
        counts = [[0.0] * len(ys) for _ in xs]
        for x, y in pairs:
            counts[x_index[x]][y_index[y]] += 1.0
        size = len(pairs)
        joint = tuple(tuple(c / size for c in row) for row in counts)
        return cls(joint, tuple(xs), tuple(ys))


class DirectionReport(Record):
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
    diagnostic: str | None

    def __init__(
        self, h_x, h_y, exo_x_to_y, exo_y_to_x, score_x_to_y, score_y_to_x, margin, verdict,
        diagnostic=None,
    ) -> None:
        self.__dict__.update(
            h_x=h_x, h_y=h_y, exo_x_to_y=exo_x_to_y, exo_y_to_x=exo_y_to_x,
            score_x_to_y=score_x_to_y, score_y_to_x=score_y_to_x, margin=margin,
            verdict=verdict, diagnostic=diagnostic,
        )

    def to_dict(self) -> dict:
        return {
            "H_X": self.h_x,
            "H_Y": self.h_y,
            "H_exo_XtoY": self.exo_x_to_y,
            "H_exo_YtoX": self.exo_y_to_x,
            "score_XtoY": self.score_x_to_y,
            "score_YtoX": self.score_y_to_x,
            "margin": float(self.margin),
            "verdict": self.verdict,
            "diagnostic": self.diagnostic,
        }


def _exogenous_entropy(
    slices: Iterable[Sequence[float]], totals: Iterable[float], solve
) -> float:
    """Greedy coupling entropy of the conditionals ``slice / total``.

    It upper-bounds their minimum joint entropy, which is itself
    achievable as the entropy of an exogenous input independent of the
    conditioning variable. No total is zero: observations are pruned.
    """
    coupling, _ = solve(
        [Marginal.of(v / total for v in row) for row, total in zip(slices, totals)]
    )
    return extended_entropy(coupling)


def _factorizes(joint: Matrix, p_x: Sequence[float], p_y: Sequence[float]) -> bool:
    """``np.allclose(joint, np.outer(p_x, p_y), atol=1e-12)``."""
    for row, px in zip(joint, p_x):
        for value, py in zip(row, p_y):
            product = px * py
            if not abs(value - product) <= 1e-12 + 1e-05 * abs(product):
                return False
    return True


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
    Each variable needs at least two observed states.
    """
    require_finite([margin], "margin")
    if margin < 0.0:
        raise DomainError(f"margin must be nonnegative, got {margin}")
    n_x, n_y = len(obs.joint), len(obs.joint[0])
    if n_x < 2 or n_y < 2:
        raise DomainError(
            f"joint observation is {n_x}x{n_y} after pruning; a causal "
            "direction needs at least two observed states of X and of Y"
        )
    if solver not in SOLVERS:
        names = " or ".join(map(repr, SOLVERS))
        raise DomainError(f"unknown solver {solver!r}; use {names}")
    solve = SOLVERS[solver]
    p_x = [_pairwise_sum(row) for row in obs.joint]
    p_y = _column_sums(obs.joint)
    h_x = extended_entropy(p_x)
    h_y = extended_entropy(p_y)
    exo_xy = _exogenous_entropy(obs.joint, p_x, solve)
    # each column by its own pairwise sum, not by p_y: its bits differ
    columns = tuple(zip(*obs.joint))
    exo_yx = _exogenous_entropy(columns, map(_pairwise_sum, columns), solve)
    score_xy = h_x + exo_xy
    score_yx = h_y + exo_yx
    if score_xy + margin < score_yx:
        verdict, diagnostic = "XtoY", None
    elif score_yx + margin < score_xy:
        verdict, diagnostic = "YtoX", None
    else:
        verdict = "undecided"
        if _factorizes(obs.joint, p_x, p_y):
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
