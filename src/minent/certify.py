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

Certify reads the trace's record in place: its ``(cell, mass)`` pairs,
and the ``iterations`` that name steps in messages. It never builds
``GreedyStep`` objects, which made ``small-corpus`` 4 % slower in a
prototype, and never reads the closed axes.

It walks the record twice. The forward walk raises at the first step
off the coupling and compares each positive step with its entry. The
backward walk owns, solves, rebuilds and measures: a row owns the first
axis whose slot no later row has marked, then marks all its slots, so
no earlier row writes a witness it reads and its residual and rebuilt
mass are final at once; ``math.fsum`` and the maxima ignore the rows'
order. Witnesses are added in axis order from 0.0, the bits of
``sum()`` up to Python 3.11, whose int start adds as 0.0; from int 0
certify took 1.03-1.06x on ``large``. Marks and ``u`` are one list per
axis, sized from the coupling's cardinalities (marks in a set of (axis,
state) tuples: 1.05x). Against three walks over a copy of the positive
pairs, the two took 0.96-1.01x on the benchmark's ``large`` shapes and
0.91-0.93x on its small-corpus shapes (CPU time in process,
alternating, 2-core machine).
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
    rows = 0
    matches = True
    for iteration, (tup, mass) in zip(trace.iterations, assignments):
        if mass > 0.0:
            rows += 1
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
    if not rows:
        raise CertificationError("trace has no positive-mass steps")
    if not matches or rows != coupling.num_entries:
        raise CertificationError("trace does not match the coupling's entries")
    # Slots come from the tuples, never from the trace's closed axes,
    # so a saved trace cannot claim an exhausted slot it does not have.
    marked = [[False] * card for card in shape]
    u = [[0.0] * card for card in shape]
    log2 = math.log2
    squares = []
    rhs_squares = []
    worst = 0.0
    worst_relative = 0.0
    for iteration, (tup, mass) in zip(reversed(trace.iterations), reversed(assignments)):
        if not mass > 0.0:
            continue
        b = log2(mass) + 1.0
        # the first axis no later row marked is owned; the others are added
        # in axis order
        owned = -1
        fixed = 0.0
        for axis, state in enumerate(tup):
            marks = marked[axis]
            if owned < 0 and not marks[state - 1]:
                owned = axis
            else:
                fixed += u[axis][state - 1]
            marks[state - 1] = True
        if owned < 0:
            raise CertificationError(
                f"step {iteration} exhausts no slot that later "
                "steps leave alone; rows may be dependent"
            )
        u[owned][tup[owned] - 1] = b - fixed
        # every slot of the row is marked now, so no earlier row writes a
        # witness it reads: its residual and rebuilt mass are final
        total = 0.0
        for vec, state in zip(u, tup):
            total += vec[state - 1]
        gap = total - b
        squares.append(gap * gap)
        rhs_squares.append(b * b)
        stored = entries[tup]
        # a total this large fails the residual check, which is raised first,
        # and would overflow the power
        error = math.inf if total >= 1024.0 else abs(2.0 ** (total - 1.0) - stored)
        relative = error / stored
        if error > worst:
            worst = error
        if relative > worst_relative:
            worst_relative = relative
    try:
        raw_residual = math.sqrt(math.fsum(squares))
    except OverflowError:
        # finite squares whose sum passes the float range
        raw_residual = math.inf
    residual = raw_residual / max(1.0, math.sqrt(math.fsum(rhs_squares)))
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
