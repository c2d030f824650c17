"""Reference for the CLI's JSON writers: round, then ``json.dumps(indent=2)``.

``cli._json_text`` rounds a payload and hands it to ``json.dumps``. This
module does the same on its own: ``_clean`` rounds every float to 12
significant digits into a fresh tree, and the standard encoder lays it
out. Tests require the two to agree byte for byte.

``couple`` writes its entries and trace from fixed templates
(``cli._couple_text``); ``couple_payload`` builds the payload those
templates stand for, as ``couple`` built it before, from the steps of
the trace. A mass above ``EPS_ZERO`` that 12 digits would round down to
it is written in full, so it goes into the payload as an ``_Unrounded``.
"""

import json

from minent import EPS_ZERO, extended_entropy


class _Unrounded(float):
    """A float ``_clean`` passes through with every digit."""


def _round12(value: float) -> float:
    return float(f"{value:.12g}")


def _mass(mass: float) -> float:
    return _Unrounded(mass) if _round12(mass) <= EPS_ZERO < mass else mass


def _clean(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, _Unrounded):
        return float(obj)
    if isinstance(obj, float):
        return _round12(obj)
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    return obj


def reference_json_text(obj) -> str:
    return json.dumps(_clean(obj), indent=2)


def _entries_payload(coupling) -> list[dict]:
    return [
        {"indices": list(tup), "mass": _mass(mass)}
        for tup, mass in coupling.assignment_order
    ]


def _trace_payload(trace) -> list[dict]:
    return [
        {
            "iteration": step.iteration,
            "indices": list(step.chosen_tuple),
            "mass": _mass(step.mass),
            "saturated": [list(pair) for pair in sorted(step.saturated_axes)],
        }
        for step in trace.steps
    ]


def couple_payload(coupling, trace, with_trace: bool) -> dict:
    """What ``couple`` prints for a solver's ``(coupling, trace)``, as a dict."""
    payload = {
        "entries": _entries_payload(coupling),
        "entropy_bits": extended_entropy(coupling),
        "steps": len(trace.steps),
    }
    if trace.phase_boundary is not None:
        payload["phase_boundary"] = trace.phase_boundary
    if with_trace:
        payload["trace"] = _trace_payload(trace)
    return payload
