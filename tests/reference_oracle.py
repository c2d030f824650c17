"""Reference for ``exact_min_entropy_2var``: every vertex, deduplicated.

The library walks the canonical saturating orders by branch-and-bound and
keeps one candidate per support. This module keeps the full enumeration
it replaces: every canonical order through this module's own walker with
no limit, leaves merged when their supports match and their masses agree
within 1e-9, and a ``SparseCoupling`` built for every vertex. The
greedy couplings are vertices too, reached with the solvers' rounding:
when the better of them has a strictly lower entropy than the best
enumerated vertex, it is ``best``, as in the library. Tests require the
library's optimum to equal this one's ``best`` and ``best_entropy``
exactly.

``_collect`` and ``_leaves`` here are the library's walker as it was
before its per-node work was cut and it became a closure in ``_leaves``:
a module-level function, each node of which tests its own bound, rebuilds
its live lines and calls ``_h`` and ``_snap``. It applies the library's
root rule, under which each node's highest live row closes last, and
tests require ``oracle._leaves`` to return exactly the same leaf list, in
the same order, at any limit. With ``root_last=False`` it walks every
canonical order, as the library did before the rule: tests check that
the rule keeps every support of that walk and only removes its leaves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from minent import EPS_ZERO, Marginal, SizeCapError, SparseCoupling, extended_entropy
from minent import oracle
from minent.core import coerce_marginals
from minent.greedy import SOLVERS
from minent.oracle import _Candidate


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
    root_last: bool,
) -> None:
    """Append ``(partial entropy, cells)`` for each canonical order's leaf.

    ``partial`` is the entropy of the cells in ``acc``; ``h_rows`` and
    ``h_cols`` are the unnormalised entropies of the live residuals. A
    node whose ``partial + max(h_rows, h_cols)`` exceeds ``limit`` is
    pruned; with ``limit = inf`` every canonical order is walked. With
    ``root_last``, a cell that closes the highest live row while its
    column keeps mass is skipped unless that row is the only live one.
    """
    if partial + max(h_rows, h_cols) > limit:
        return
    live_rows = [i for i, v in enumerate(rows) if v > 0.0]
    live_cols = [j for j, v in enumerate(cols) if v > 0.0]
    if not live_rows or not live_cols:
        out.append((partial, tuple(acc)))
        return
    prev_code = prev_row * width + prev_col
    root = live_rows[-1] if root_last and len(live_rows) > 1 else -1
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
            row_left = _snap(row_mass - mass)
            col_left = _snap(col_mass - mass)
            if i == root and not row_left and col_left:
                continue
            rows[i] = row_left
            cols[j] = col_left
            acc.append((base + j, mass))
            _collect(
                rows, cols, width, i, j, acc, out, limit,
                partial + h_mass,
                h_rows - h_row + _h(row_left),
                h_cols - h_col + _h(col_left),
                root_last,
            )
            acc.pop()
            rows[i] = row_mass
            cols[j] = col_mass


def _leaves(
    pm: Marginal, qm: Marginal, limit: float, root_last: bool = True
) -> list[tuple[float, _Candidate]]:
    """Every canonical order's ``(entropy, cells)`` not pruned at ``limit``;
    with ``root_last=False``, also the orders the root rule skips."""
    rows = [_snap(v) for v in pm.probs]
    cols = [_snap(v) for v in qm.probs]
    out: list[tuple[float, _Candidate]] = []
    _collect(
        rows, cols, len(rows), -1, -1, [], out, limit, 0.0,
        math.fsum(map(_h, rows)), math.fsum(map(_h, cols)), root_last,
    )
    return out


@dataclass(frozen=True)
class VertexSet:
    """All vertices of a two-marginal coupling polytope, deduplicated.

    ``vertices`` is sorted by canonical support order so the set is
    deterministic regardless of enumeration order; ``best`` is the vertex
    of minimum extended entropy, or the better greedy coupling where that
    one's entropy is strictly lower.
    """

    vertices: tuple[SparseCoupling, ...]
    best: SparseCoupling
    best_entropy: float


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


def enumerate_vertices(
    p: Marginal | Iterable[float], q: Marginal | Iterable[float]
) -> VertexSet:
    """Enumerate every vertex of the coupling polytope of two marginals.

    Walks every canonical saturating order whose root rows close last,
    with no pruning, and is the reference :func:`exact_min_entropy_2var`
    is tested against. Raises
    :class:`SizeCapError` above ``oracle.DEFAULT_N_CAP`` states, read at
    call time; the enumeration blows up combinatorially beyond that.
    """
    pm, qm = coerce_marginals([p, q])
    if len(pm) > oracle.DEFAULT_N_CAP:
        raise SizeCapError(f"n={len(pm)} exceeds the enumeration cap {oracle.DEFAULT_N_CAP}")
    vertices, best, best_entropy = _vertices(
        (cells for _, cells in _leaves(pm, qm, math.inf)), len(pm)
    )
    greedy = min((solve([pm, qm])[0] for solve in SOLVERS.values()), key=extended_entropy)
    if best_entropy > extended_entropy(greedy):
        best, best_entropy = greedy, extended_entropy(greedy)
    return VertexSet(tuple(vertices), best, best_entropy)
