"""Reference for the CLI's JSON writer: round, then ``json.dumps(indent=2)``.

The CLI writes its output in one pass (``cli._json_text``). This module
keeps the two-pass form it replaces: ``_clean`` rounds every float to 12
significant digits into a fresh tree, and the standard encoder lays it
out. Tests require the two to agree byte for byte.
"""

import json


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
