"""Exact two-marginal minimum entropy coupling on small instances.

Entropy is concave, so its minimum over the polytope of couplings is
attained at a vertex. For two marginals the vertices are the basic
feasible solutions of an n-by-n transportation problem, and every one of
them arises from some saturating order: repeatedly pick a cell whose row
and column both still carry mass, assign the smaller of the two
remainders, and drop whichever line is exhausted. Walking all cell
choices therefore reaches every vertex, most of them by several orders.

Two consecutive assignments that touch disjoint rows and columns commute
exactly, so the recursion only explores the lexicographically least
interleaving of each commutation class; every vertex is still produced by
its canonical order. Cost still grows combinatorially with n, hence the
hard size cap.

Each node also has one root, its highest live row, which closes last: a
cell that closes the root while its column keeps more than ``EPS_ZERO``
is skipped, unless the root is the only live row. No vertex is lost. A
vertex's support is a forest, so its cells can be assigned leaves first,
each closing a line of degree one, and a tree with two or more cells has
such a line other than its highest row: that row waits for its tree's
last cell, which closes the row and its column together. The canonical
interleaving of that order keeps the property, since it moves a cell
later only past a commuting cell of lower code, and the cell that
closes a higher row has a higher code. Without the rule a vertex was reached by
any cell of its tree closing last: 40 random n = 4 problems made 1,719
leaves each for 206 supports when unpruned, and make 335 with it, for
the same supports. On the benchmark's seed-0 ``oracle`` pass, at the
incumbent limit, leaves went from 6,150 to 1,268 and walker calls from
75,327 to 36,226. ``exact_min_entropy_2var`` took 92, 82 and 87 ms on the
121 problems of seeds 1-3 (181, 145 and 146 ms before), 0.17 s on twelve
random n = 5 problems (0.54 s), 0.10-0.65 s on each of five random
n = 6 problems (0.26-1.85 s) and 4.4 s on ``special_family(6, 1.5)``
(12.2 s): medians of alternating runs, CPU time, 2-core machine. Where
the totals differ or dust lies near ``EPS_ZERO``, a support that exists
only through the stranded mass can be skipped; the optimum then moved by
at most 3.2e-9 bits in 3,000 random inputs with n <= 5. Measured and not
worth repeating: the lowest live row as the root loses vertices, since
the canonical interleaving can move the cell that closes it past a cell
of a lower row and make it close early; ``p = [0.324, 0.676]`` with
``q = [0.282, 0.718]`` loses the support {(1,2), (2,1), (2,2)}.

:func:`exact_min_entropy_2var` walks that tree by branch-and-bound. It
starts from the better of the two greedy couplings as the incumbent and
carries the partial entropy ``sum -x log2 x`` of the cells assigned so
far. A node is pruned when that partial entropy plus
``max(h(row residuals), h(column residuals))`` exceeds the incumbent by
more than a small slack, where ``h(v) = sum -v_i log2 v_i`` is taken
unnormalised over the live residuals. The bound holds because
``-x log2 x`` is concave and vanishes at 0, so it is subadditive: every
row residual still to be split into cells, and every column residual,
contributes at least its own ``h`` to the leaf's entropy.

A support fixes its vertex, so the orders that reach one support differ
in their masses only by rounding, or by where they strand the mismatch of
totals that ingest allows. Of the leaves within the slack of the best
leaf, each support keeps its least sorted cell list; the optimum is the
support of least ``(entropy, support)``, and only it becomes a
``SparseCoupling``. The greedy couplings are vertices too, with the
solvers' rounding, so when the better one's entropy is strictly below
the selected leaf's the oracle returns that coupling and its entropy:
its optimum never lies above a coupling it holds. The selected leaf
alone lay above on 126 of 400 random pairs with n = 2-4 (by at most
1.8e-15 bits), on 288 of 500 such pairs with totals 4.9e-10 apart (by
up to 7.2e-9 bits), and by 1.1e-11 bits on marginals with dust near
``EPS_ZERO``.

Measured at n = 6 (``DEFAULT_N_CAP`` raised to 6, random marginals,
2-core machine, with the walker before the per-node cut below) and not
worth repeating: pruning on ``partial + h(meet of the residuals)``
cuts nodes by 16-18 % but takes 4.7 s instead of 2.5 s (median), for the
same result; even the exact optimum as incumbent still visits 1.1
million nodes (1.7 million from greedy), so a tighter incumbent or
best-first child order gains at most about 1.6x; a memoised minimum over
residual states, with no pruning, reaches 3.1 million states and takes
61 s.

Per-node cost. A child is bounded in its parent's cell loop, before any
call, and a child with no live row or no live column is appended as a
leaf without one; ``-x log2 x`` and the ``EPS_ZERO`` snap are computed
inline, and the ascending lists of live lines are passed down, filtered
only when a step saturates a line. The walker is a closure in ``_leaves``
over what a walk holds fixed (the residuals, ``width``, ``limit``, the
leaf list and ``log2``), so a call passes only its node's eight values.
It visits the same nodes and returns the same leaves, in the same order,
as the walker it replaced (kept in ``tests/reference_oracle.py``, which
rebuilt both live lists, computed ``-x log2 x`` and the snap in helper
calls at every node and tested its own bound on entry). On the 121
problems of the benchmark's seed-0 ``oracle`` pass it visits 173,959
nodes; the old walker made a call for each, the new one makes 75,327
calls, and ``_leaves`` at the incumbent limit takes a median of
0.18-0.22 s instead of 0.37-0.39 s (15 interleaved passes in one
process, 2-core machine): about 1.1-1.3 us per node instead of 2.2.
Also measured there and not worth repeating: passing per-line entropy
arrays down with the residuals (0.19-0.24 s), computing each live
column's ``h`` once per node rather than once per cell (0.24 s), and the
closure instead of a 13-parameter function: same time (120 n = 4
problems took 0.34 s either way, 12 n = 5 ones 0.99 s, 16 rounds).
"""

from __future__ import annotations

import math
from typing import Iterable

from .core import (
    EPS_ZERO,
    Marginal,
    SizeCapError,
    SparseCoupling,
    coerce_marginals,
    extended_entropy,
)
from .greedy import SOLVERS

DEFAULT_N_CAP = 6

# Slack in bits for pruning against the incumbent and for keeping leaves
# near the best one. Marginal totals may differ by up to EPS_MARG / 2; the
# mass the longer side keeps when the other runs out lets its ``h``
# overshoot the leaf's remaining entropy by up to about 2e-8. The leaves
# of one support differ in entropy by up to about 3e-8 per cell, and the
# selection keeps the least cell list of each support, not the lowest
# entropy, so that leaf must survive the pruning too. A slack of 1e-9
# loses the optimum on such inputs; this one costs no measurable time,
# since few leaves lie within it.
_SLACK = 1e-6

# One completed saturating order: (row * width + col, mass) cells with
# 0-based lines; the flat integer coding keeps sorting and hashing cheap.
_Candidate = tuple[tuple[int, float], ...]


def _leaves(
    pm: Marginal, qm: Marginal, limit: float
) -> list[tuple[float, _Candidate]]:
    """Every canonical order's ``(entropy, cells)`` not pruned at ``limit``.

    ``collect`` walks the orders below a node that has passed the bound.
    ``live_rows`` and ``live_cols`` are the ascending indices of the lines
    that still carry mass, ``partial`` is the entropy of the cells in
    ``acc``, and ``h_rows`` and ``h_cols`` are the unnormalised entropies
    of the live residuals. A child whose own partial entropy plus the
    larger of its two residual entropies exceeds ``limit`` is pruned
    before the call, and a child with no live row or no live column is
    appended as a leaf without one. With ``limit = inf`` every canonical
    order whose root rows close last is walked.
    """
    rows = [0.0 if v <= EPS_ZERO else v for v in pm.probs]
    cols = [0.0 if v <= EPS_ZERO else v for v in qm.probs]
    h_rows = extended_entropy(rows)
    h_cols = extended_entropy(cols)
    if max(h_rows, h_cols) > limit:
        return []
    width = len(rows)
    log2 = math.log2
    out: list[tuple[float, _Candidate]] = []

    def collect(
        live_rows: list[int], live_cols: list[int], prev_row: int, prev_col: int,
        acc: _Candidate, partial: float, h_rows: float, h_cols: float,
    ) -> None:
        prev_code = prev_row * width + prev_col
        root = live_rows[-1]
        last_row = len(live_rows) == 1
        last_col = len(live_cols) == 1
        for i in live_rows:
            row_mass = rows[i]
            base = i * width
            h_row = -row_mass * log2(row_mass)
            rest_rows = h_rows - h_row
            for j in live_cols:
                col_mass = cols[j]
                code = base + j
                if code < prev_code:
                    # Skip the non-canonical (decreasing) interleaving of two
                    # commuting assignments: cells on disjoint lines always
                    # commute, and cells sharing a line do when each
                    # saturates its cross line either way.
                    if i != prev_row and j != prev_col:
                        continue
                    if i == prev_row and col_mass <= row_mass:
                        continue
                    if j == prev_col and row_mass <= col_mass:
                        continue
                h_col = -col_mass * log2(col_mass)
                # the saturated line's residual is exactly 0.0; the other's
                # is snapped to 0.0 at or below EPS_ZERO
                if row_mass <= col_mass:
                    mass = row_mass
                    child = partial + h_row
                    row_left = 0.0
                    hr = rest_rows
                    col_left = col_mass - row_mass
                    if col_left > EPS_ZERO:
                        if i == root and not last_row:
                            # the root row closes only with its column
                            continue
                        hc = h_cols - h_col - col_left * log2(col_left)
                    else:
                        col_left = 0.0
                        hc = h_cols - h_col
                else:
                    mass = col_mass
                    child = partial + h_col
                    col_left = 0.0
                    hc = h_cols - h_col
                    row_left = row_mass - col_mass
                    if row_left > EPS_ZERO:
                        hr = rest_rows - row_left * log2(row_left)
                    else:
                        row_left = 0.0
                        hr = rest_rows
                if child + (hr if hr >= hc else hc) > limit:
                    continue
                cells = acc + ((code, mass),)
                if (last_row and not row_left) or (last_col and not col_left):
                    out.append((child, cells))
                    continue
                rows[i] = row_left
                cols[j] = col_left
                collect(
                    live_rows if row_left else [r for r in live_rows if r != i],
                    live_cols if col_left else [c for c in live_cols if c != j],
                    i, j, cells, child, hr, hc,
                )
                rows[i] = row_mass
                cols[j] = col_mass

    collect(
        [i for i, v in enumerate(rows) if v > 0.0],
        [j for j, v in enumerate(cols) if v > 0.0],
        -1, -1, (), 0.0, h_rows, h_cols,
    )
    del collect  # it refers to itself: free that cycle, and the leaves, now
    return out


def exact_min_entropy_2var(
    p: Marginal | Iterable[float], q: Marginal | Iterable[float]
) -> tuple[SparseCoupling, float]:
    """The global minimum entropy coupling of two small marginals.

    Ground truth for approximation tests, found by branch-and-bound over
    the canonical saturating orders in which each node's highest live row
    closes last. The incumbent is the better of the
    two greedy couplings, computed once the marginals pass validation and
    the size cap; a node is pruned when its partial entropy plus
    ``max(h(row residuals), h(column residuals))`` exceeds the incumbent
    by more than the slack. Of the leaves within the slack of the best
    leaf, each support keeps its least sorted cell list, and the least
    ``(entropy, support)`` wins, unless its entropy is strictly above the
    incumbent's: then the better greedy coupling and its entropy are
    returned. Raises :class:`SizeCapError` above ``DEFAULT_N_CAP``
    states, read at call time; the walk blows up combinatorially beyond
    that.
    """
    pm, qm = coerce_marginals([p, q])
    if len(pm) > DEFAULT_N_CAP:
        raise SizeCapError(f"n={len(pm)} exceeds the enumeration cap {DEFAULT_N_CAP}")
    greedy = min(
        (solve([pm, qm])[0] for solve in SOLVERS.values()), key=extended_entropy
    )
    incumbent = extended_entropy(greedy)
    leaves = _leaves(pm, qm, incumbent + _SLACK)
    least = min(partial for partial, _ in leaves)
    # sorting the flat codes orders cells as their (row, col) pairs would,
    # so the first list of each support is its least
    by_support: dict[tuple[int, ...], _Candidate] = {}
    for cells in sorted(
        tuple(sorted(cells)) for partial, cells in leaves if partial <= least + _SLACK
    ):
        by_support.setdefault(tuple(code for code, _ in cells), cells)
    best_entropy, _, best = min(
        (extended_entropy([mass for _, mass in cells]), support, cells)
        for support, cells in by_support.items()
    )
    if best_entropy > incumbent:
        return greedy, incumbent
    width = len(pm)
    entries = {(code // width + 1, code % width + 1): mass for code, mass in best}
    return SparseCoupling(2, (width, width), entries), best_entropy
