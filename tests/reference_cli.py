"""Reference for the CLI's JSON writers: round, then ``json.dumps(indent=2)``.

The CLI writes its output in one pass (``cli._json_text``). This module
keeps the two-pass form it replaces: ``_clean`` rounds every float to 12
significant digits into a fresh tree, and the standard encoder lays it
out. Tests require the two to agree byte for byte.

``couple`` writes its entries and trace from fixed templates
(``cli._couple_text``); ``couple_payload`` builds the payload those
templates stand for, as ``couple`` built it before.
"""

import json

from minent import extended_entropy


def _round12(value: float) -> float:
    return float(f"{value:.12g}")


def _clean(obj):
    if isinstance(obj, bool):
        return obj
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
        {"indices": list(tup), "mass": mass}
        for tup, mass in coupling.assignment_order
    ]


def _trace_payload(trace) -> list[dict]:
    return [
        {
            "iteration": step.iteration,
            "indices": list(step.chosen_tuple),
            "mass": step.mass,
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
