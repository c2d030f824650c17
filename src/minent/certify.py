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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .core import DimensionError, DomainError, SparseCoupling
from .greedy import GreedyStep, GreedyTrace

# Residual tolerance, and relative mass-reconstruction tolerance, for
# certificates. Looser than the marginal tolerances: masses near EPS_ZERO
# carry large-magnitude logs that amplify rounding in the solve.
EPS_CERT = 1e-8


class CertificationError(RuntimeError):
    """The coupling could not be certified as a local optimum.

    Signals either a tampered coupling/trace pair or numerically
    degenerate input. Diagnostics that were computed before the failure
    are attached when available.
    """

    def __init__(
        self,
        message: str,
        *,
        residual_norm: float | None = None,
        max_reconstruction_error: float | None = None,
    ) -> None:
        super().__init__(message)
        self.residual_norm = residual_norm
        self.max_reconstruction_error = max_reconstruction_error


@dataclass(frozen=True)
class Certificate:
    """Witness vectors proving a coupling's masses factor per axis.

    ``u`` holds one witness vector per axis, as back-substitution left it:
    witnesses that no step owns are 0. ``witnesses`` maps every stored
    cell to its reconstructed mass ``2 ** (-1 + sum of u at the cell's
    states)``. Construction enforces that both the system residual
    and the worst reconstruction error are within ``EPS_CERT``.
    """

    u: tuple[tuple[float, ...], ...]
    residual_norm: float
    witnesses: Mapping[tuple[int, ...], float]
    max_reconstruction_error: float

    def __post_init__(self) -> None:
        if self.residual_norm > EPS_CERT:
            raise DomainError(
                f"certificate residual {self.residual_norm!r} exceeds {EPS_CERT}"
            )
        if self.max_reconstruction_error > EPS_CERT:
            raise DomainError(
                f"reconstruction error {self.max_reconstruction_error!r} exceeds {EPS_CERT}"
            )
        object.__setattr__(self, "witnesses", dict(self.witnesses))

    def to_dict(self) -> dict:
        return {
            "u": [list(vec) for vec in self.u],
            "residual_norm": float(self.residual_norm),
            "max_reconstruction_error": float(self.max_reconstruction_error),
        }


def _trace_matches_coupling(
    steps: tuple[GreedyStep, ...], coupling: SparseCoupling
) -> bool:
    if len(steps) != coupling.num_entries:
        return False
    for step in steps:
        mass = coupling.entries.get(step.chosen_tuple)
        if mass is None or abs(mass - step.mass) > 1e-12:
            return False
    return True


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
    coupling, a step owns no slot (its row would depend on later rows),
    the system residual exceeds ``EPS_CERT`` relative to the right-hand
    side, or any mass reconstructs off by more than ``EPS_CERT`` times
    itself.
    """
    positive = trace.positive_steps()
    if not positive:
        raise CertificationError("trace has no positive-mass steps")
    if not _trace_matches_coupling(positive, coupling):
        raise CertificationError("trace does not match the coupling's entries")
    cards = set(coupling.cardinalities)
    if len(cards) != 1:
        raise DimensionError("certification requires equal cardinalities per axis")
    n = cards.pop()
    m = coupling.num_vars
    # Slots come from the tuples, never from the recorded saturated_axes,
    # so a saved trace cannot claim an exhausted slot it does not have.
    last_use: dict[tuple[int, int], int] = {}
    for row, step in enumerate(positive):
        for slot in enumerate(step.chosen_tuple):
            last_use[slot] = row
    rhs = [math.log2(step.mass) + 1.0 for step in positive]
    u = [[0.0] * n for _ in range(m)]
    for row in range(len(positive) - 1, -1, -1):
        tup = positive[row].chosen_tuple
        owned = next(
            (axis for axis, state in enumerate(tup) if last_use[axis, state] == row),
            None,
        )
        if owned is None:
            raise CertificationError(
                f"step {positive[row].iteration} exhausts no slot that later "
                "steps leave alone; rows may be dependent"
            )
        fixed = sum(u[axis][state - 1] for axis, state in enumerate(tup) if axis != owned)
        u[owned][tup[owned] - 1] = rhs[row] - fixed
    sums = [
        sum(u[axis][state - 1] for axis, state in enumerate(step.chosen_tuple))
        for step in positive
    ]
    raw_residual = math.sqrt(math.fsum((total - b) ** 2 for total, b in zip(sums, rhs)))
    residual = raw_residual / max(1.0, math.sqrt(math.fsum(b * b for b in rhs)))
    if residual > EPS_CERT:
        raise CertificationError(
            f"witness system residual {residual:.3e} exceeds {EPS_CERT}",
            residual_norm=residual,
        )
    witnesses: dict[tuple[int, ...], float] = {}
    worst = 0.0
    worst_relative = 0.0
    for step, total in zip(positive, sums):
        mass = coupling.entries[step.chosen_tuple]
        rebuilt = 2.0 ** (total - 1.0)
        witnesses[step.chosen_tuple] = rebuilt
        error = abs(rebuilt - mass)
        worst = max(worst, error)
        worst_relative = max(worst_relative, error / mass)
    if worst_relative > EPS_CERT:
        raise CertificationError(
            f"mass reconstruction error {worst_relative:.3e} of the mass exceeds {EPS_CERT}",
            residual_norm=residual,
            max_reconstruction_error=worst,
        )
    return Certificate(tuple(map(tuple, u)), residual, witnesses, worst)
