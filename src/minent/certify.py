"""Local-optimality certificates for greedy couplings.

Every positive assignment in a solver trace gives one linear equation over
per-axis witness values ``u[axis][state]``: the witnesses at the step's
chosen states must add up to ``log2(mass) + 1``. Each step exhausts at
least one (axis, state) slot that no later step touches, so every step
owns a slot whose last use it is. Read backwards, each equation therefore
brings in one witness not yet fixed: the system is triangular, its rows
are linearly independent, and back-substitution solves it in
O(steps * m). The owned witness of each step is set to ``log2(mass) + 1``
minus the witnesses already fixed at its other slots; every witness that
no step owns stays 0.

Independent rows are the proof. The rows are the columns of the
marginal constraints restricted to the coupling's support, so their rank
says the support is a vertex of the coupling polytope. A feasible
direction that kept the support would lie in the kernel of those
columns, which is zero; every feasible direction away from a vertex
therefore moves mass onto a cell outside the support. There ``-t*log2 t``
rises with infinite slope at ``t = 0``, while the cells inside the
support change the entropy at a finite rate. So entropy strictly
increases along every feasible direction: each vertex, and thus each
certified greedy coupling, is a strict local minimum.

The witnesses restate the masses in product form, ``2 ** (-1 + sum of
witnesses at the cell's states)``, and rebuilding every stored mass from
them checks the solve: each mass must come back within ``EPS_CERT`` of
itself, relative to the mass.

Certify reads the trace's record, its ``(cell, mass)`` pairs and the
``iterations`` that name steps in messages, and never builds the
trace's ``GreedyStep`` objects. A prototype whose certify read
``steps`` from the record made the benchmark's ``small-corpus``
workload 4 % slower, since every problem there is certified. The
closed axes the record also keeps are never read.

One walk over the trace raises at the first step off the coupling and
keeps the trace's own positive ``(cell, mass)`` pairs, each compared
with the coupling's entries. Back-substitution is one backward walk in
plain loops: a row owns the first axis whose slot no later row has
marked, then marks all its slots. The marks, like ``u``, are one list
per axis sized from the coupling's cardinalities, so every shape
certifies. A last walk adds up each row's witnesses once, for its
residual and its rebuilt mass. Witnesses are added in axis order from
int 0, as ``sum()`` adds floats up to Python 3.11, so ``u`` keeps every
bit. Against a forward pass that first stored each slot's last row, the
walk took 0.84x on the benchmark's ``large`` and small-corpus certify
shapes (CPU time in process, 2-core machine); marks in a set keyed by
(axis, state) tuples, in place of the lists, measured 1.05x.
"""

from __future__ import annotations

import math

from .core import CertificationError, DomainError, Record, SparseCoupling
from .greedy import GreedyTrace

# Residual tolerance, and relative mass-reconstruction tolerance, for
# certificates. Looser than the marginal tolerances: masses near EPS_ZERO
# carry large-magnitude logs that amplify rounding in the solve.
EPS_CERT = 1e-8


class Certificate(Record):
    """Witness vectors proving a coupling's masses factor per axis.

    ``u`` holds one witness vector per axis, as back-substitution left it:
    witnesses that no step owns are 0. A stored cell's mass is
    ``2 ** (-1 + sum of u at the cell's states)``. Construction enforces
    that both the system residual and the worst reconstruction error of
    those masses are within ``EPS_CERT``.
    """

    u: tuple[tuple[float, ...], ...]
    residual_norm: float
    max_reconstruction_error: float

    def __init__(self, u, residual_norm, max_reconstruction_error) -> None:
        if residual_norm > EPS_CERT:
            raise DomainError(f"certificate residual {residual_norm!r} exceeds {EPS_CERT}")
        if max_reconstruction_error > EPS_CERT:
            raise DomainError(
                f"reconstruction error {max_reconstruction_error!r} exceeds {EPS_CERT}"
            )
        self.__dict__.update(
            u=u, residual_norm=residual_norm, max_reconstruction_error=max_reconstruction_error
        )

    def to_dict(self) -> dict:
        return {
            "u": [list(vec) for vec in self.u],
            "residual_norm": self.residual_norm,
            "max_reconstruction_error": self.max_reconstruction_error,
        }


def certify_local_optimum(
    coupling: SparseCoupling, trace: GreedyTrace
) -> Certificate:
    """Certify a solver output as a local optimum of entropy minimization.

    Solves the witness system by back-substitution over the positive steps
    in reverse order, in O(steps * m), and verifies that the witnesses
    reconstruct every stored mass. Each step owns the lowest-axis slot of
    its tuple that no later step uses; its witness there is fixed by its
    equation, and witnesses no step owns are 0. Raises
    :class:`CertificationError` when the trace does not match the
    coupling, a step off the coupling has a mass other than 0.0 or a
    cell outside the coupling's shape, a step owns no slot (its row would
    depend on later rows), the system residual exceeds ``EPS_CERT``
    relative to the right-hand side or is no finite float (witnesses past
    the float range; no such number is kept on the error), or any mass
    reconstructs off by more than ``EPS_CERT`` times itself. Messages
    name steps by the trace's ``iterations``.
    """
    assignments = trace.assignments
    entries = coupling.entries
    shape = coupling.cardinalities
    positive = []
    matches = True
    for iteration, pair in zip(trace.iterations, assignments):
        tup, mass = pair
        if mass > 0.0:
            positive.append(pair)
            stored = entries.get(tup)
            if stored is None or abs(stored - mass) > 1e-12:
                matches = False
        elif mass != 0.0 or len(tup) != len(shape) or not all(
            1 <= state <= card for state, card in zip(tup, shape)
        ):
            raise CertificationError(
                f"step {iteration} assigns {mass!r} to the cell "
                f"{list(tup)}; a step off the coupling assigns 0.0 to a cell "
                f"within {list(shape)}"
            )
    if not positive:
        raise CertificationError("trace has no positive-mass steps")
    if not matches or len(positive) != coupling.num_entries:
        raise CertificationError("trace does not match the coupling's entries")
    # Slots come from the tuples, never from the trace's closed axes,
    # so a saved trace cannot claim an exhausted slot it does not have.
    marked = [[False] * card for card in shape]
    rhs = [math.log2(mass) + 1.0 for _, mass in positive]
    u = [[0.0] * card for card in shape]
    for row in range(len(positive) - 1, -1, -1):
        tup = positive[row][0]
        # the first axis no later row marked is owned; the others are added
        # in axis order from int 0
        owned = -1
        fixed = 0
        for axis, state in enumerate(tup):
            marks = marked[axis]
            if owned < 0 and not marks[state - 1]:
                owned = axis
            else:
                fixed += u[axis][state - 1]
            marks[state - 1] = True
        if owned < 0:
            numbers = [i for i, (_, mass) in zip(trace.iterations, assignments) if mass > 0.0]
            raise CertificationError(
                f"step {numbers[row]} exhausts no slot that later "
                "steps leave alone; rows may be dependent"
            )
        u[owned][tup[owned] - 1] = rhs[row] - fixed
    squares = []
    worst = 0.0
    worst_relative = 0.0
    for (tup, _), b in zip(positive, rhs):
        total = 0
        for vec, state in zip(u, tup):
            total += vec[state - 1]
        gap = total - b
        squares.append(gap * gap)
        mass = entries[tup]
        # a total this large fails the residual check, which is raised first,
        # and would overflow the power
        error = math.inf if total >= 1024.0 else abs(2.0 ** (total - 1.0) - mass)
        relative = error / mass
        if error > worst:
            worst = error
        if relative > worst_relative:
            worst_relative = relative
    try:
        raw_residual = math.sqrt(math.fsum(squares))
    except OverflowError:
        # finite squares whose sum passes the float range
        raw_residual = math.inf
    residual = raw_residual / max(1.0, math.sqrt(math.fsum([b * b for b in rhs])))
    if not math.isfinite(residual):
        # witnesses past the float range give an inf or NaN total or square
        raise CertificationError("witness system residual is not a finite float")
    if residual > EPS_CERT:
        raise CertificationError(
            f"witness system residual {residual:.3e} exceeds {EPS_CERT}",
            residual_norm=residual,
        )
    if worst_relative > EPS_CERT:
        raise CertificationError(
            f"mass reconstruction error {worst_relative:.3e} of the mass exceeds {EPS_CERT}",
            residual_norm=residual,
            max_reconstruction_error=worst,
        )
    return Certificate(tuple(map(tuple, u)), residual, worst)
