"""Greedy coupling solvers.

Two deterministic variants are provided. ``greedy_coupling`` repeatedly
takes each marginal's largest remaining mass and assigns the smallest of
those picks to one joint cell, subtracting it everywhere. The two-phase
variant first sweeps every state of every marginal exactly once, then
finishes with the same update loop on whatever mass remains.

The sweep never changes a state before visiting it, so its cells and
masses are read up front from ``core.sorted_sweep``, the same sweep
``bound_report`` runs. The solver sweeps masses with dust at or below
``EPS_ZERO`` snapped to zero and the report sweeps the raw masses; when
no mass is that small, the sweep's masses are the report's
``pointwise_min`` and the update loop receives the report's residuals
``l_j``. That loop keeps one max-heap per marginal keyed
``(-mass, state)``, so ties go to the lowest state, and holds each
marginal's current top out of its heap: a reduced top goes back with
``heappushpop``, which hands over the new top in the same call. Cost:
O(n*m*log n + steps*m*log n) with ``steps <= n*m - m + 1``.

A step leaves two things behind: its ``(cell, mass)`` pair, appended to
the run's one list of pairs, and one int whose bit ``k`` says the step
exhausted its state on axis ``k + 1``. The coupling's entries are the
list's positive pairs, in order, and the trace is the whole list, the
sweep's zero-mass rounds included; a cell met twice among the positive
pairs is caught once, after both loops. :class:`GreedyTrace` holds this
record, and its :class:`GreedyStep` objects, each with a frozenset of
saturated pairs, are built on each read of ``steps`` and not kept.
Certify, the oracle, ``bound``, ``infer`` and ``couple`` without
``--trace`` never read them.
Against solvers that built every step in the loop, solving took
0.67-0.87x (in process, alternating, n = 2000 with m = 2, n = 700 with
m = 4 and n = 300 with m = 10, 2-core machine) and 0.85-0.92x on 300
problems with m = 2-4 and n = 2-6; solving then reading ``steps`` took
0.94-1.10x.

Per step, both solvers together went from 11.2 to 7.8 us in a traced
pass of the benchmark's ``large`` workload (seed 1, 2-core machine),
from the held-out tops and from steps built as a ``NamedTuple`` (0.43 us
through its constructor, against 0.95 us for the frozen dataclass
``GreedyStep`` was; ``tuple.__new__`` took 0.27 us, which stopped paying
once steps were built only on read). Measured and not kept:

- computing the sweep's saturations per axis up front: 1.02x;
- float-keyed heaps: ``heappushpop`` takes 0.22 us against 0.39 us with
  tuple keys, which does not pay for the extra lookup that keeps ties
  going to the lowest state;
- relying on ``heappushpop``'s early return: the reduced top stayed on
  top in 0 of 3,989 steps at n = 2000, m = 2;
- a C-level fast path for ``SparseCoupling`` validation: 1.09x at
  n = 2000, m = 2 but 0.91x at n = 4, m = 3, and a second construction
  path besides;
- a sorted list of each marginal's untouched states beside a heap of
  its reduced tops, in place of one heap: 0.82-1.01x at n = 5-2000 and
  m = 2-10;
- recording the closed axes as a flat list of axes with per-step end
  offsets instead of one bitmask per step: no difference beyond noise.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappushpop
from typing import Iterable, Iterator, NamedTuple, Sequence

from .core import EPS_ZERO, Marginal, Record, SparseCoupling, coerce_marginals, sorted_sweep


class GreedyStep(NamedTuple):
    """One solver assignment: a cell, its mass, and the constraints it closed.

    ``saturated_axes`` holds the (axis, state) pairs, 1-based, whose
    residual mass is exactly zero after this step. Two-phase runs may
    record zero-mass steps; those never enter the coupling itself.
    """

    iteration: int
    chosen_tuple: tuple[int, ...]
    mass: float
    saturated_axes: frozenset[tuple[int, int]]


class GreedyTrace(Record):
    """The ordered steps of one solver run, as the record the solver keeps.

    ``assignments`` holds each step's ``(cell, mass)`` pair, the cell a
    1-based index tuple; for a solver run its positive pairs, in order,
    are the coupling's entries. Bit ``k - 1`` of ``closed[t]`` is set when
    step t exhausted its cell's state on axis k. ``iterations`` numbers
    the steps: 1 to k for a solver run, the file's own numbers for a
    trace read back by ``minent certify --trace-in``.
    ``phase_boundary`` is the 1-based index of the first second-phase step
    and is set only by the two-phase solver; when the second phase is
    empty it points just past the last step.

    Both makers write the record directly: the solvers step by step, and
    the run-file reader of ``certify --trace-in`` in its one pass over
    the file's steps. ``steps`` is built on each read, one
    :class:`GreedyStep` per step from the record; nothing in the library
    reads it.
    """

    assignments: tuple[tuple[tuple[int, ...], float], ...]
    closed: tuple[int, ...]
    iterations: tuple[int, ...]
    phase_boundary: int | None

    def __init__(self, assignments, closed, iterations, phase_boundary=None) -> None:
        self.__dict__.update(
            assignments=assignments, closed=closed, iterations=iterations,
            phase_boundary=phase_boundary,
        )

    def saturated_pairs(self) -> Iterator[list[tuple[int, int]]]:
        """Each step's exhausted (axis, state) pairs, 1-based, in axis order."""
        slots = {
            mask: [(k + 1, k) for k in range(mask.bit_length()) if mask >> k & 1]
            for mask in set(self.closed)
        }
        for (cell, _), mask in zip(self.assignments, self.closed):
            pairs = []
            for axis, k in slots[mask]:
                pairs.append((axis, cell[k]))
            yield pairs

    @property
    def steps(self) -> tuple[GreedyStep, ...]:
        return tuple([
            GreedyStep(iteration, cell, mass, frozenset(pairs))
            for iteration, (cell, mass), pairs in zip(
                self.iterations, self.assignments, self.saturated_pairs()
            )
        ])

    def positive_steps(self) -> tuple[GreedyStep, ...]:
        return tuple([s for s in self.steps if s.mass > 0.0])


def _sweep(resid: list[list[float]], closed: list[int]) -> list[tuple[tuple[int, ...], float]]:
    """Phase one: round t assigns the minimum of every marginal's t-th largest mass.

    Returns every round's ``(cell, mass)`` pair, zero-mass rounds included.
    """
    # no state changes before its round, so the masses can be read up front
    ranks, masses = sorted_sweep(resid)
    pairs = list(zip(zip(*[[j + 1 for j in rank] for rank in ranks]), masses))
    for tup, mass in pairs:
        mask = 0
        for k, (row, state) in enumerate(zip(resid, tup)):
            left = row[state - 1] - mass
            if left <= EPS_ZERO:
                row[state - 1] = 0.0
                mask |= 1 << k
            else:
                row[state - 1] = left
        closed.append(mask)
    return pairs


def _update_until_drained(
    resid: list[list[float]], pairs: list[tuple[tuple[int, ...], float]], closed: list[int]
) -> None:
    """Run pick-max/assign-min rounds until some marginal is exhausted.

    Every residual is 0 or above EPS_ZERO, so a marginal is exhausted when
    its nonzero residuals run out; the others then hold at most the
    EPS_MARG / 2 by which ingest lets the totals differ. Marginal k's
    largest residual is ``-negs[k]`` at ``states[k]``, held out of its heap.
    """
    m, n = len(resid), len(resid[0])
    heaps = [[(-v, j) for j, v in enumerate(row, start=1) if v > 0.0] for row in resid]
    if not all(heaps):
        return
    negs, states = [], []
    for heap in heaps:
        heapify(heap)
        neg, state = heappop(heap)
        negs.append(neg)
        states.append(state)
    axes = range(m)
    limit = n * m - m + 1
    drained = False
    while not drained:
        if len(closed) >= limit:
            raise RuntimeError(
                f"greedy solver exceeded the {limit}-step bound for n={n}, m={m}"
            )
        mass = -max(negs)
        pairs.append((tuple(states), mass))
        mask = 0
        for k in axes:
            left = -negs[k] - mass
            if left <= EPS_ZERO:
                mask |= 1 << k
                heap = heaps[k]
                if heap:
                    negs[k], states[k] = heappop(heap)
                else:
                    drained = True
            else:
                negs[k], states[k] = heappushpop(heaps[k], (-left, states[k]))
        closed.append(mask)


def _solve(
    marginals: Sequence[Marginal | Iterable[float]], sweep: bool
) -> tuple[SparseCoupling, GreedyTrace]:
    # Entries at or below EPS_ZERO are unassignable; zero them up front so
    # every residual is either exactly 0 or strictly above EPS_ZERO.
    resid = [
        [0.0 if v <= EPS_ZERO else v for v in p.probs]
        for p in coerce_marginals(marginals)
    ]
    m, n = len(resid), len(resid[0])
    closed: list[int] = []
    pairs = _sweep(resid, closed) if sweep else []
    boundary = len(pairs) + 1 if sweep else None
    _update_until_drained(resid, pairs, closed)
    # the coupling is the positive steps in order, the trace every step;
    # the lists are dropped before the coupling's two dicts are built
    pairs, closed = tuple(pairs), tuple(closed)
    entries = {tup: mass for tup, mass in pairs if mass > 0.0}
    if len(entries) < len(pairs) - [mass for _, mass in pairs].count(0.0):
        seen = set()
        for tup in [tup for tup, mass in pairs if mass > 0.0]:
            if tup in seen:
                raise RuntimeError(f"greedy solver revisited cell {tup}")
            seen.add(tup)
    coupling = SparseCoupling(m, (n,) * m, entries)
    trace = GreedyTrace(pairs, closed, tuple(range(1, len(closed) + 1)), boundary)
    return coupling, trace


def greedy_coupling(
    marginals: Sequence[Marginal | Iterable[float]],
) -> tuple[SparseCoupling, GreedyTrace]:
    """Couple marginals by iterating the pick-max/assign-min update.

    Each round locates the largest remaining mass in every marginal,
    assigns the smallest of those to the corresponding joint cell, and
    subtracts it from every marginal at its chosen state. Argmax ties go
    to the lowest state index, so the output is deterministic.

    Returns the coupling together with the full assignment trace. Runs in
    at most ``n*m - m + 1`` steps and fails loudly if that bound would be
    exceeded.
    """
    return _solve(marginals, sweep=False)


def greedy_coupling_two_phase(
    marginals: Sequence[Marginal | Iterable[float]],
) -> tuple[SparseCoupling, GreedyTrace]:
    """Couple marginals with a sweep phase followed by the greedy update.

    Phase one runs exactly n rounds; round t assigns the minimum over the
    marginals of their t-th largest mass (equal masses in state order).
    Rounds whose minimum is zero are recorded in the trace with mass 0 but
    excluded from the coupling. Phase two is the plain update loop on the
    residual mass; the trace's ``phase_boundary`` marks where it starts.
    """
    return _solve(marginals, sweep=True)


# The one solver registry: ``minent couple --alg N`` runs ``alg<N>`` and
# ``minent infer --solver`` takes these names.
SOLVERS = {"alg1": greedy_coupling, "alg2": greedy_coupling_two_phase}
