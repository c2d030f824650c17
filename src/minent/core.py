"""Shared distribution types, entropy functionals, and the sorted sweep.

States are numbered 1..n in all public inputs and outputs. Every type
validates its invariants on construction and is immutable afterwards, so
values can be shared freely across threads or processes. All entropies are
in bits (logarithm base 2).
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping, Sequence

# Sum-to-one checks on distributions.
EPS_SUM = 1e-9
# Agreement required when a coupling's marginal is compared to its target.
EPS_MARG = 1e-9
# Residual masses below this are snapped to exactly zero so floating-point
# dust cannot trigger spurious solver iterations.
EPS_ZERO = 1e-12


class DomainError(ValueError):
    """A value violates a domain invariant (negative mass, bad total, ...)."""


class DimensionError(ValueError):
    """Inputs that must share a length or shape do not."""


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


class SizeCapError(ValueError):
    """Instance exceeds the vertex-enumeration size cap."""


class Record:
    """Base of the package's immutable value types.

    A subclass annotates its fields in order, and its own ``__init__``
    validates its arguments and fills ``self.__dict__``; a field may
    instead be a property derived from the stored ones. ``repr``, ``==``
    and ``hash`` run over the fields as a frozen dataclass's do, and
    assigning or deleting an attribute raises AttributeError. Instances
    keep their ``__dict__``, so ``functools.cached_property``, pickle and
    ``copy.deepcopy`` work on them. Not a dataclass: ``dataclasses``
    imports ``inspect``, which every CLI call would pay for at start-up.
    Four fields filled this way take 0.55 us against 0.81 us for a frozen
    dataclass; one generic ``*args`` constructor for all subclasses made
    the benchmark's ``small-corpus`` workload 8-10 % slower.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        fields = [f"{name}={value!r}" for name, value in zip(self._fields, self._values())]
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def require_finite(values: Sequence[float], what: str) -> None:
    """Raise DomainError naming the first NaN or infinite entry of ``values``.

    NaN slips past every ``<`` and ``>`` check, so this runs before them.
    """
    if all(map(math.isfinite, values)):
        return
    position, bad = next(
        (i, v) for i, v in enumerate(values, start=1) if not math.isfinite(v)
    )
    raise DomainError(f"{what} has non-finite entry {bad!r} at position {position}")


class Marginal(Record):
    """A discrete probability distribution over states 1..n.

    Entries must be finite, nonnegative and sum to 1 within ``EPS_SUM``.
    They are converted to a tuple of floats once, on construction.
    """

    probs: tuple[float, ...]

    def __init__(self, probs: Iterable[float]) -> None:
        probs = tuple(map(float, probs))
        if len(probs) == 0:
            raise DomainError("marginal needs at least one state")
        require_finite(probs, "marginal")
        low = min(probs)
        if low < 0.0:
            raise DomainError(f"negative probability {low!r} in marginal")
        total = math.fsum(probs)
        if abs(total - 1.0) > EPS_SUM:
            raise DomainError(f"marginal sums to {total!r}, expected 1.0")
        self.__dict__["probs"] = probs

    @classmethod
    def of(cls, values: Iterable[float]) -> "Marginal":
        return cls(values)

    def __len__(self) -> int:
        return len(self.probs)

    def __iter__(self) -> Iterator[float]:
        return iter(self.probs)


def coerce_marginals(
    marginals: Iterable[Marginal | Iterable[float]],
    too_few: str = "need at least two marginals to couple",
) -> tuple[Marginal, ...]:
    """Validate marginals that are to be coupled together.

    Needs at least two marginals of one length whose ``math.fsum``
    totals lie within ``EPS_MARG / 2`` of each other: a solver stops once
    one marginal is drained and strands the difference in the others.
    """
    ms = tuple(p if isinstance(p, Marginal) else Marginal.of(p) for p in marginals)
    if len(ms) < 2:
        raise DomainError(too_few)
    lengths = [len(p) for p in ms]
    if any(length != lengths[0] for length in lengths):
        raise DimensionError(f"marginal lengths differ: {lengths}")
    totals = [math.fsum(p.probs) for p in ms]
    if max(totals) - min(totals) > EPS_MARG / 2:
        raise DomainError(
            f"marginal totals differ: {min(totals)!r} vs {max(totals)!r}, "
            f"more than {EPS_MARG / 2} apart"
        )
    return ms


class SparseCoupling(Record):
    """A joint distribution over m variables stored as tuple -> mass.

    Index tuples are 1-based. Only strictly positive masses are stored;
    anything at or below ``EPS_ZERO`` is rejected. ``entries`` keep the
    order a solver assigned them in, which ``assignment_order`` restates
    as pairs on each read; an order given to the constructor must list
    each cell once, with its mass, and reorders ``entries``.
    """

    num_vars: int
    cardinalities: tuple[int, ...]
    entries: Mapping[tuple[int, ...], float]
    # a field for repr, == and hash, but read from entries, never stored
    assignment_order: tuple[tuple[tuple[int, ...], float], ...]

    def __init__(self, num_vars, cardinalities, entries, assignment_order=()) -> None:
        if num_vars < 2:
            raise DomainError("coupling needs at least two variables")
        if len(cardinalities) != num_vars:
            raise DimensionError(f"{num_vars} variables but {len(cardinalities)} cardinalities")
        if any(c < 1 for c in cardinalities):
            raise DomainError("cardinalities must be positive")
        if not entries:
            raise DomainError("coupling has no entries")
        entries = dict(entries)
        for tup, mass in entries.items():
            if len(tup) != num_vars:
                raise DimensionError(f"index tuple {tup} does not have {num_vars} axes")
            for axis, state in enumerate(tup):
                if not 1 <= state <= cardinalities[axis]:
                    raise DomainError(f"state {state} out of range on axis {axis + 1}")
            if not math.isfinite(mass):
                raise DomainError(f"non-finite mass {mass!r} at {tup}")
            if mass <= EPS_ZERO:
                raise DomainError(f"mass {mass!r} at {tup} is not above {EPS_ZERO}")
        total = math.fsum(entries.values())
        if abs(total - 1.0) > EPS_SUM:
            raise DomainError(f"coupling mass sums to {total!r}, expected 1.0")
        if assignment_order:
            order = dict(assignment_order)
            if order.keys() != entries.keys():
                raise DomainError("assignment order does not cover the coupling support")
            if len(order) < len(assignment_order) or order != entries:
                raise DomainError("assignment order must list each cell once, with its mass")
            entries = {tup: entries[tup] for tup in order}
        self.__dict__.update(num_vars=num_vars, cardinalities=cardinalities, entries=entries)

    @property
    def assignment_order(self) -> tuple[tuple[tuple[int, ...], float], ...]:
        return tuple(self.entries.items())

    @property
    def num_entries(self) -> int:
        return len(self.entries)


MassLike = Marginal | SparseCoupling | Mapping | Iterable[float]


def extended_entropy(values: MassLike) -> float:
    """-sum(v * log2 v) in bits over any nonnegative vector, with 0 log 0 = 0.

    Accepts a :class:`Marginal`, a :class:`SparseCoupling` (its mass
    multiset), a mapping from indices to masses, or any iterable of floats.
    The input does not have to sum to 1, but every entry must be finite.
    The terms are summed by ``math.fsum``, so the result does not depend on
    the order of the masses.
    """
    # both distribution types validated their entries on construction
    if isinstance(values, SparseCoupling):
        masses = values.entries.values()
    elif isinstance(values, Marginal):
        masses = values.probs
    else:
        if isinstance(values, Mapping):
            values = values.values()
        masses = [float(v) for v in values]
        require_finite(masses, "entropy input")
        if masses and min(masses) < 0.0:
            raise DomainError(
                f"negative entry {min(masses)!r} passed to extended_entropy"
            )
    log2 = math.log2
    terms = [v * log2(v) for v in masses if v > 0.0]
    if not terms:
        return 0.0
    return -math.fsum(terms)


def sorted_sweep(
    rows: Sequence[Sequence[float]],
) -> tuple[list[list[int]], list[float]]:
    """Each row's decreasing order and the pointwise minimum of the sorted rows.

    ``ranks[j][t]`` is the 0-based state holding row j's t-th largest
    value; equal values keep state order. ``pointwise_min[t]`` is the
    smallest of the rows' t-th largest values; of equal smallest values
    (``0.0`` beside ``-0.0``) the last row's is kept.
    """
    # reverse=True keeps the sort stable: equal values stay in state order
    ranks = [
        sorted(range(len(row)), key=row.__getitem__, reverse=True) for row in rows
    ]
    sorted_rows = [[row[i] for i in rank] for row, rank in zip(rows, ranks)]
    # min keeps the first of equal values, so the rows go in reverse
    pointwise_min = list(map(min, zip(*reversed(sorted_rows))))
    return ranks, pointwise_min


def marginalize(coupling: SparseCoupling, axis: int) -> list[float]:
    """The marginal distribution a coupling implies along one axis (1-based)."""
    if not 1 <= axis <= coupling.num_vars:
        raise DimensionError(
            f"axis {axis} out of range for {coupling.num_vars} variables"
        )
    out = [0.0] * coupling.cardinalities[axis - 1]
    for tup, mass in coupling.entries.items():
        out[tup[axis - 1] - 1] += mass
    return out
