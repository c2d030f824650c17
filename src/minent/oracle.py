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

:func:`enumerate_vertices` walks every canonical order.
:func:`exact_min_entropy_2var` walks the same tree by branch-and-bound.
It starts from the better of the two greedy couplings as the incumbent
and carries the partial entropy ``sum -x log2 x`` of the cells assigned
so far. A node is pruned when that partial entropy plus
``max(h(row residuals), h(column residuals))`` exceeds the incumbent by
more than a small slack, where ``h(v) = sum -v_i log2 v_i`` is taken
unnormalised over the live residuals. The bound holds because
``-x log2 x`` is concave and vanishes at 0, so it is subadditive: every
row residual still to be split into cells, and every column residual,
contributes at least its own ``h`` to the leaf's entropy. Leaves within
the slack of the best leaf then go through the same deduplication and
the same choice of minimum as the full enumeration, so both return the
same coupling and the same float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .core import (
    EPS_ZERO,
    Marginal,
    SparseCoupling,
    coerce_marginals,
    extended_entropy,
)
from .greedy import SOLVERS

DEFAULT_N_CAP = 5

# Slack in bits for pruning against the incumbent and for keeping leaves
# near the best one. Marginal totals may differ by up to EPS_MARG / 2; the
# mass the longer side keeps when the other runs out lets its ``h``
# overshoot the leaf's remaining entropy by up to about 2e-8. Leaves that
# ``_deduplicate`` merges (masses within 1e-9) differ in entropy by up to
# about 3e-8 per cell, and the full enumeration keeps the first of them,
# not the lowest. A slack of 1e-9 loses the optimum on such inputs; this
# one costs no measurable time, since few leaves lie within it.
_SLACK = 1e-6

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


def _h(value: float) -> float:
    return -value * math.log2(value) if value > 0.0 else 0.0


def _collect(
    rows: list[float],
    cols: list[float],
    width: int,
    prev_row: int,
    prev_col: int,
    acc: list[tuple[int, float]],
    out: list[tuple[float, _Candidate]],
    limit: float,
    partial: float,
    h_rows: float,
    h_cols: float,
) -> None:
    """Append ``(partial entropy, cells)`` for each canonical order's leaf.

    ``partial`` is the entropy of the cells in ``acc``; ``h_rows`` and
    ``h_cols`` are the unnormalised entropies of the live residuals. A
    node whose ``partial + max(h_rows, h_cols)`` exceeds ``limit`` is
    pruned; with ``limit = inf`` every canonical order is walked.
    """
    if partial + max(h_rows, h_cols) > limit:
        return
    live_rows = [i for i, v in enumerate(rows) if v > 0.0]
    live_cols = [j for j, v in enumerate(cols) if v > 0.0]
    if not live_rows or not live_cols:
        out.append((partial, tuple(acc)))
        return
    prev_code = prev_row * width + prev_col
    for i in live_rows:
        row_mass = rows[i]
        base = i * width
        h_row = _h(row_mass)
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
            h_col = _h(col_mass)
            if row_mass <= col_mass:
                mass, h_mass = row_mass, h_row
            else:
                mass, h_mass = col_mass, h_col
            rows[i] = row_left = _snap(row_mass - mass)
            cols[j] = col_left = _snap(col_mass - mass)
            acc.append((base + j, mass))
            _collect(
                rows, cols, width, i, j, acc, out, limit,
                partial + h_mass,
                h_rows - h_row + _h(row_left),
                h_cols - h_col + _h(col_left),
            )
            acc.pop()
            rows[i] = row_mass
            cols[j] = col_mass


def _leaves(
    pm: Marginal, qm: Marginal, limit: float = math.inf
) -> list[tuple[float, _Candidate]]:
    """Every canonical order's ``(entropy, cells)`` not pruned at ``limit``."""
    rows = [_snap(v) for v in pm.probs]
    cols = [_snap(v) for v in qm.probs]
    out: list[tuple[float, _Candidate]] = []
    _collect(
        rows, cols, len(rows), -1, -1, [], out, limit, 0.0,
        math.fsum(map(_h, rows)), math.fsum(map(_h, cols)),
    )
    return out


def _deduplicate(
    candidates: Iterable[_Candidate], width: int
) -> list[tuple[tuple[tuple[int, int], float], ...]]:
    """Merge candidates whose supports match and masses agree within 1e-9.

    Sorting the flat codes orders cells as their (row, col) pairs would.
    """
    by_support: dict[tuple[int, ...], list[tuple[float, ...]]] = {}
    kept: list[tuple[tuple[tuple[int, int], float], ...]] = []
    for cells in sorted(tuple(sorted(c)) for c in candidates):
        support = tuple(code for code, _ in cells)
        masses = tuple(v for _, v in cells)
        seen = by_support.setdefault(support, [])
        if any(
            all(abs(a - b) <= 1e-9 for a, b in zip(masses, other))
            for other in seen
        ):
            continue
        seen.append(masses)
        kept.append(
            tuple(((code // width + 1, code % width + 1), mass) for code, mass in cells)
        )
    return kept


def _vertices(
    candidates: Iterable[_Candidate], width: int
) -> tuple[list[SparseCoupling], SparseCoupling, float]:
    """The deduplicated vertices, the best of them and its entropy."""
    vertices = [
        SparseCoupling(2, (width, width), dict(cells), cells)
        for cells in _deduplicate(candidates, width)
    ]
    best = min(
        vertices, key=lambda v: (extended_entropy(v), tuple(sorted(v.entries)))
    )
    return vertices, best, extended_entropy(best)


def _capped(
    p: Marginal | Iterable[float], q: Marginal | Iterable[float], n_cap: int
) -> tuple[Marginal, Marginal]:
    pm, qm = coerce_marginals([p, q])
    if len(pm) > n_cap:
        raise SizeCapError(f"n={len(pm)} exceeds the enumeration cap {n_cap}")
    return pm, qm


def enumerate_vertices(
    p: Marginal | Iterable[float],
    q: Marginal | Iterable[float],
    n_cap: int = DEFAULT_N_CAP,
) -> VertexSet:
    """Enumerate every vertex of the coupling polytope of two marginals.

    Walks every canonical saturating order, with no pruning, and is the
    reference :func:`exact_min_entropy_2var` is tested against. Raises
    :class:`SizeCapError` above ``n_cap`` states (default 5); the
    enumeration blows up combinatorially beyond that.
    """
    pm, qm = _capped(p, q, n_cap)
    vertices, best, best_entropy = _vertices(
        (cells for _, cells in _leaves(pm, qm)), len(pm)
    )
    return VertexSet(tuple(vertices), best, best_entropy)


def exact_min_entropy_2var(
    p: Marginal | Iterable[float],
    q: Marginal | Iterable[float],
    n_cap: int = DEFAULT_N_CAP,
) -> tuple[SparseCoupling, float]:
    """The global minimum entropy coupling of two small marginals.

    Ground truth for approximation tests, found by branch-and-bound over
    the canonical orders of :func:`enumerate_vertices`. The incumbent is
    the better of the two greedy couplings, computed once the marginals
    pass validation and the size cap; a node is pruned when its partial
    entropy plus ``max(h(row residuals), h(column residuals))`` exceeds
    the incumbent by more than the slack. Leaves within the slack of the
    best leaf are deduplicated and compared as in the full enumeration,
    so the result equals ``enumerate_vertices(p, q).best`` and
    ``.best_entropy`` exactly. Subject to the same size cap.
    """
    pm, qm = _capped(p, q, n_cap)
    incumbent = min(
        extended_entropy(solve([pm, qm])[0]) for solve in SOLVERS.values()
    )
    leaves = _leaves(pm, qm, incumbent + _SLACK)
    least = min(partial for partial, _ in leaves)
    _, best, best_entropy = _vertices(
        (cells for partial, cells in leaves if partial <= least + _SLACK),
        len(pm),
    )
    return best, best_entropy
