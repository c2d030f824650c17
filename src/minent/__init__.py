"""Minimum entropy coupling toolkit.

Greedy approximate solvers for the minimum entropy coupling problem,
local-optimality certificates for their outputs, additive approximation
bound reports, an exact branch-and-bound oracle for small two-marginal
instances, and an entropic causal direction test built on the solvers.

The causal direction test's five names are imported on first access, so
``import minent`` and the ``couple``, ``certify`` and ``bound`` commands
do not compile ``causality.py`` when no bytecode is cached. None of the
library needs numpy.
"""

from .bounds import (
    BoundReport,
    bound_report,
    special_family,
)
from .certify import (
    EPS_CERT,
    Certificate,
    CertificationError,
    certify_local_optimum,
)
from .core import (
    EPS_MARG,
    EPS_SUM,
    EPS_ZERO,
    DimensionError,
    DomainError,
    Marginal,
    ResidualVector,
    SparseCoupling,
    extended_entropy,
    marginalize,
)
from .greedy import (
    GreedyStep,
    GreedyTrace,
    greedy_coupling,
    greedy_coupling_two_phase,
)
from .oracle import (
    DEFAULT_N_CAP,
    SizeCapError,
    exact_min_entropy_2var,
)

__version__ = "0.1.0"

_CAUSALITY_NAMES = frozenset(
    {
        "DirectionReport",
        "JointObservation",
        "conditionals_from_joint",
        "exogenous_entropy_estimate",
        "infer_direction",
    }
)


def __getattr__(name: str):
    if name in _CAUSALITY_NAMES:
        from . import causality

        value = getattr(causality, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BoundReport",
    "Certificate",
    "CertificationError",
    "DEFAULT_N_CAP",
    "DimensionError",
    "DirectionReport",
    "DomainError",
    "EPS_CERT",
    "EPS_MARG",
    "EPS_SUM",
    "EPS_ZERO",
    "GreedyStep",
    "GreedyTrace",
    "JointObservation",
    "Marginal",
    "ResidualVector",
    "SizeCapError",
    "SparseCoupling",
    "bound_report",
    "certify_local_optimum",
    "conditionals_from_joint",
    "exact_min_entropy_2var",
    "exogenous_entropy_estimate",
    "extended_entropy",
    "greedy_coupling",
    "greedy_coupling_two_phase",
    "infer_direction",
    "marginalize",
    "special_family",
]
