"""Reference for ``core.extended_entropy``: the numpy sum it replaces.

The library sums the terms ``v * log2 v`` with ``math.fsum``, so its
result does not depend on the order of the masses. This module keeps the
numpy form, whose pairwise sum does; tests compare the two within a
relative 1e-12.
"""

from collections.abc import Mapping

import numpy as np

from minent import DomainError, SparseCoupling
from minent.core import require_finite


def _mass_array(values) -> np.ndarray:
    # a Marginal iterates over its masses
    if isinstance(values, SparseCoupling):
        return np.asarray(list(values.entries.values()), dtype=float)
    if isinstance(values, Mapping):
        return np.asarray(list(values.values()), dtype=float)
    return np.asarray(list(values), dtype=float)


def reference_entropy(values) -> float:
    arr = _mass_array(values)
    if arr.size == 0:
        return 0.0
    if not np.isfinite(arr).all():
        require_finite(arr.tolist(), "entropy input")
    if float(arr.min()) < 0.0:
        raise DomainError(f"negative entry {arr.min()!r} passed to extended_entropy")
    pos = arr[arr > 0.0]
    if pos.size == 0:
        return 0.0
    return float(-np.sum(pos * np.log2(pos)))
