"""Exact two-marginal minimum entropy coupling on small instances.

Entropy is concave, so its minimum over the polytope of couplings is
attained at a vertex. For two marginals the vertices are the basic
feasible solutions of an n-by-n transportation problem, and every one of
them arises from some saturating order: repeatedly pick a cell whose row
and column both still carry mass, assign the smaller of the two
remainders, and drop whichever line is exhausted. Enumerating all cell
choices therefore reaches every vertex; duplicates produced by different
orders are merged afterwards.

Two consecutive assignments that touch disjoint rows and columns commute
exactly, so the recursion only explores the lexicographically least
interleaving of each commutation class; every vertex is still produced by
its canonical order. Cost still grows combinatorially with n, hence the
hard size cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import (
    EPS_ZERO,
    Marginal,
    SparseCoupling,
    coerce_marginals,
    extended_entropy,
)

DEFAULT_N_CAP = 5

# One completed saturating order: (row * width + col, mass) cells with
# 0-based lines; the flat integer coding keeps sorting and hashing cheap.
_Candidate = tuple[tuple[int, float], ...]


class SizeCapError(ValueError):
    """Instance exceeds the vertex-enumeration size cap."""


@dataclass(frozen=True)
class VertexSet:
    """All vertices of a two-marginal coupling polytope, deduplicated.

    ``vertices`` is sorted by canonical support order so the set is
    deterministic regardless of enumeration order; ``best`` is the vertex
    of minimum extended entropy.
    """

    vertices: tuple[SparseCoupling, ...]
    best: SparseCoupling
    best_entropy: float


def _snap(value: float) -> float:
    return 0.0 if value <= EPS_ZERO else value


def _collect(
    rows: list[float],
    cols: list[float],
    width: int,
    prev_row: int,
    prev_col: int,
    acc: list[tuple[int, float]],
    out: list[_Candidate],
) -> None:
    live_rows = [i for i, v in enumerate(rows) if v > 0.0]
    live_cols = [j for j, v in enumerate(cols) if v > 0.0]
    if not live_rows or not live_cols:
        out.append(tuple(acc))
        return
    prev_code = prev_row * width + prev_col
    for i in live_rows:
        row_mass = rows[i]
        base = i * width
        for j in live_cols:
            col_mass = cols[j]
            if base + j < prev_code:
                # Skip the non-canonical (decreasing) interleaving of two
                # assignments that commute: cells on disjoint lines always
                # do, and cells sharing a line do when each saturates its
                # cross line either way.
                if i != prev_row and j != prev_col:
                    continue
                if i == prev_row and col_mass <= row_mass:
                    continue
                if j == prev_col and row_mass <= col_mass:
                    continue
            mass = row_mass if row_mass <= col_mass else col_mass
            rows[i] = _snap(row_mass - mass)
            cols[j] = _snap(col_mass - mass)
            acc.append((base + j, mass))
            _collect(rows, cols, width, i, j, acc, out)
            acc.pop()
            rows[i] = row_mass
            cols[j] = col_mass


def _deduplicate(
    candidates: Iterable[_Candidate], width: int
) -> list[tuple[tuple[tuple[int, int], float], ...]]:
    """Merge candidates whose supports match and masses agree within 1e-9."""
    decoded = sorted(
        tuple(sorted((divmod(code, width), mass) for code, mass in c))
        for c in candidates
    )
    by_support: dict[tuple, list[tuple[float, ...]]] = {}
    kept: list[tuple[tuple[tuple[int, int], float], ...]] = []
    for cells in decoded:
        support = tuple(t for t, _ in cells)
        masses = tuple(v for _, v in cells)
        seen = by_support.setdefault(support, [])
        if any(
            all(abs(a - b) <= 1e-9 for a, b in zip(masses, other))
            for other in seen
        ):
            continue
        seen.append(masses)
        kept.append(
            tuple(((i + 1, j + 1), mass) for (i, j), mass in cells)
        )
    return kept


def enumerate_vertices(
    p: Marginal | Iterable[float],
    q: Marginal | Iterable[float],
    n_cap: int = DEFAULT_N_CAP,
) -> VertexSet:
    """Enumerate every vertex of the coupling polytope of two marginals.

    Raises :class:`SizeCapError` above ``n_cap`` states (default 5); the
    enumeration is exhaustive and blows up combinatorially beyond that.
    """
    pm, qm = coerce_marginals([p, q])
    n = len(pm)
    if n > n_cap:
        raise SizeCapError(f"n={n} exceeds the enumeration cap {n_cap}")
    rows = [_snap(v) for v in pm.probs]
    cols = [_snap(v) for v in qm.probs]
    candidates: list[_Candidate] = []
    _collect(rows, cols, n, -1, -1, [], candidates)
    vertices = []
    for cells in _deduplicate(candidates, n):
        entries = {tup: mass for tup, mass in cells}
        vertices.append(SparseCoupling(2, (n, n), entries, cells))
    best = min(
        vertices, key=lambda v: (extended_entropy(v), tuple(sorted(v.entries)))
    )
    return VertexSet(tuple(vertices), best, extended_entropy(best))


def exact_min_entropy_2var(
    p: Marginal | Iterable[float],
    q: Marginal | Iterable[float],
    n_cap: int = DEFAULT_N_CAP,
) -> tuple[SparseCoupling, float]:
    """The global minimum entropy coupling of two small marginals.

    Ground truth for approximation tests; subject to the same size cap as
    :func:`enumerate_vertices`.
    """
    vertex_set = enumerate_vertices(p, q, n_cap)
    return vertex_set.best, vertex_set.best_entropy
