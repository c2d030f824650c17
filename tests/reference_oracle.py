"""Reference for ``exact_min_entropy_2var``: every vertex, deduplicated.

The library walks the canonical saturating orders by branch-and-bound and
keeps one candidate per support. This module keeps the full enumeration
it replaces: every canonical order through ``oracle._leaves`` with no
limit, leaves merged when their supports match and their masses agree
within 1e-9, and a ``SparseCoupling`` built for every vertex. Tests
require the library's optimum to equal this one's ``best`` and
``best_entropy`` exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from minent import Marginal, SparseCoupling, extended_entropy
from minent.oracle import DEFAULT_N_CAP, _Candidate, _capped, _leaves


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
        (cells for _, cells in _leaves(pm, qm, math.inf)), len(pm)
    )
    return VertexSet(tuple(vertices), best, best_entropy)
