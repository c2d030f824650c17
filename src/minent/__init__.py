"""Minimum entropy coupling toolkit.

Greedy approximate solvers for the minimum entropy coupling problem,
local-optimality certificates for their outputs, additive approximation
bound reports, an exact branch-and-bound oracle for small two-marginal
instances, and an entropic causal direction test built on the solvers.

``import minent`` loads no submodule: each public name is imported from
its module on first access and then kept here, so a ``minent`` command
compiles and runs only the modules it uses. Nothing in the package needs
numpy: ``generate --family random`` draws numpy's seeded numbers in pure
Python (``_random.py``).
"""

__version__ = "0.1.0"

# The module that defines each public name.
_NAMES = {
    "bounds": ("BoundReport", "bound_report", "special_family"),
    "causality": ("DirectionReport", "JointObservation", "infer_direction"),
    "certify": ("EPS_CERT", "Certificate", "certify_local_optimum"),
    "core": (
        "CertificationError", "DimensionError", "DomainError", "EPS_MARG", "EPS_SUM",
        "EPS_ZERO", "Marginal", "SizeCapError", "SparseCoupling", "extended_entropy",
        "marginalize",
    ),
    "greedy": ("GreedyStep", "GreedyTrace", "greedy_coupling", "greedy_coupling_two_phase"),
    "oracle": ("DEFAULT_N_CAP", "exact_min_entropy_2var"),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
