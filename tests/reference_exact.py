"""Exact minimum joint entropy of m marginals, by enumerating vertices.

The couplings of m marginals form a polytope cut out by one equation per
(axis, state) slot: the cells holding that state on that axis add up to
its mass. Entropy is concave, so its minimum over the polytope sits at a
vertex, and every vertex is a basic feasible solution: pick as many cells
as the equations have rank, solve the square system on them, and keep
the solution when no cell comes out negative. This module tries every
pick with numpy and keeps the feasible one of least entropy; the library
has no exact optimum for m >= 3, and tests compare its solvers with this
one.

A pick is a set of ``sum(n_k - 1) + 1`` cells among ``prod(n_k)``:
70 picks at n = 2, m = 3, 4,368 at n = 2, m = 4, and 888,030 at n = 3,
m = 3. Which picks are nonsingular depends only on the shape, so they
are found once per shape (about 1 s at n = 3, m = 3, where they take
21 MB), and each problem only solves them (about 0.5 s there). Picks
are tested and solved in chunks.

At m = 2 a vertex's support is a forest, and every support peels: a cell
goes when one of its slots has no other live cell, until none is left.
From m = 3 on, an optimal support need not peel; ``peels`` tells which.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from typing import Sequence

import numpy as np

from minent import extended_entropy

# A basic solution counts as feasible when no cell is below -NEGATIVE_TOL:
# solving these 0/1 systems leaves errors near 1e-16 on a mass.
NEGATIVE_TOL = 1e-13
CHUNK = 2048


def constraint_system(marginals: Sequence[Sequence[float]]):
    """The cells in index order, and independent slot equations ``A x = b``.

    Every marginal adds up to 1, so on every axis but the first the last
    state's equation follows from the others and is left out.
    """
    shape = [len(p) for p in marginals]
    cells = list(itertools.product(*(range(card) for card in shape)))
    rows, rhs = [], []
    for axis, p in enumerate(marginals):
        for state in range(len(p) if axis == 0 else len(p) - 1):
            rows.append([1.0 if cell[axis] == state else 0.0 for cell in cells])
            rhs.append(float(p[state]))
    return cells, np.array(rows), np.array(rhs)


@functools.lru_cache(maxsize=None)
def nonsingular_picks(shape: tuple[int, ...]) -> np.ndarray:
    """Every pick of cells whose basis is nonsingular, in pick order.

    The equations' left side depends only on the shape, not on the
    masses, so this is found once per shape and shared by every problem
    of that shape: 397,629 of the 888,030 picks at n = 3, m = 3.
    """
    _, a, b = constraint_system([[1.0] + [0.0] * (card - 1) for card in shape])
    picks = itertools.combinations(range(a.shape[1]), len(b))
    kept = []
    while True:
        flat = itertools.chain.from_iterable(itertools.islice(picks, CHUNK))
        chunk = np.fromiter(flat, dtype=np.intp).reshape(-1, len(b))
        if not len(chunk):
            break
        # a 0/1 matrix has an integer determinant: 0, or at least 1 in size
        kept.append(chunk[np.abs(np.linalg.det(a[:, chunk].transpose(1, 0, 2))) > 0.5])
    return np.concatenate(kept)


def optimum(marginals: Sequence[Sequence[float]]) -> tuple[float, dict[tuple[int, ...], float]]:
    """The least entropy over every vertex, and the first vertex reaching it.

    The vertex maps its positive cells, 0-based index tuples, to their
    masses; its entropy is the library's ``extended_entropy`` of them.
    """
    cells, a, b = constraint_system(marginals)
    rank = len(b)
    best_entropy, best = math.inf, None
    picks = nonsingular_picks(tuple(len(p) for p in marginals))
    for start in range(0, len(picks), CHUNK):
        chunk = picks[start:start + CHUNK]
        # bases[k] holds the columns of the cells in pick k
        bases = a[:, chunk].transpose(1, 0, 2)
        masses = np.linalg.solve(bases, np.broadcast_to(b, (len(chunk), rank))[..., None])[..., 0]
        feasible = (masses >= -NEGATIVE_TOL).all(axis=1)
        chunk, masses = chunk[feasible], masses[feasible]
        # numpy's entropy is within 1e-14 of the exact one, so a vertex
        # whose numpy entropy is 1e-9 above the best so far cannot beat it
        positive = np.where(masses > 0.0, masses, 1.0)
        near = -(positive * np.log2(positive)).sum(axis=1) <= best_entropy + 1e-9
        for pick, x in zip(chunk[near], masses[near]):
            vertex = {cells[c]: float(v) for c, v in zip(pick, x) if v > 0.0}
            entropy = extended_entropy(list(vertex.values()))
            if entropy < best_entropy:
                best_entropy, best = entropy, vertex
    return best_entropy, best


def peels(support) -> bool:
    """Whether the cells peel: one at a time, drop a cell that has a slot
    no other remaining cell holds, until none is left."""
    live = set(support)
    while live:
        slots = Counter((axis, state) for cell in live for axis, state in enumerate(cell))
        leaf = next(
            (cell for cell in live if any(slots[axis, state] == 1 for axis, state in enumerate(cell))),
            None,
        )
        if leaf is None:
            return False
        live.remove(leaf)
    return True


def meet_entropy(marginals: Sequence[Sequence[float]]) -> float:
    """Entropy of the majorization meet of marginals of one length.

    The meet's prefix sums are the pointwise minimum of the prefix sums of
    the decreasing rearrangements. Each marginal majorizes every coupling
    of them, so their meet does too, and ``H(meet)`` is at most the least
    entropy of any coupling.
    """
    prefixes = [itertools.accumulate(sorted(p, reverse=True)) for p in marginals]
    prefix = [min(column) for column in zip(*prefixes)]
    masses = [high - low for low, high in zip([0.0] + prefix[:-1], prefix)]
    return extended_entropy([v for v in masses if v > 0.0])
