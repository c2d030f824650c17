import numpy as np
import pytest
from hypothesis import strategies as st

from minent import EPS_ZERO


def dirichlet_marginals(rng: np.random.Generator, m: int, n: int) -> list[list[float]]:
    """m symmetric-Dirichlet marginals over n states."""
    return [[float(v) for v in row] for row in rng.dirichlet(np.ones(n), size=m)]


@st.composite
def probability_vectors(draw, min_n=2, max_n=6):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    raw = draw(
        st.lists(
            st.floats(min_value=1e-3, max_value=1.0),
            min_size=n,
            max_size=n,
        )
    )
    total = sum(raw)
    return [v / total for v in raw]


@st.composite
def marginal_families(draw, min_m=2, max_m=4, min_n=2, max_n=6):
    """m probability vectors sharing a common length n."""
    m = draw(st.integers(min_value=min_m, max_value=max_m))
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    rows = []
    for _ in range(m):
        raw = draw(
            st.lists(
                st.floats(min_value=1e-3, max_value=1.0),
                min_size=n,
                max_size=n,
            )
        )
        total = sum(raw)
        rows.append([v / total for v in raw])
    return rows


@st.composite
def tied_and_tiny_families(draw, min_m=2, max_m=4, min_n=2, max_n=6):
    """m marginals with exact ties and masses within 10x of EPS_ZERO.

    Regular masses come from a few dyadic levels, so equal masses within
    and across marginals are common. Tiny masses lie between EPS_ZERO / 2
    and 10 * EPS_ZERO: some are snapped to zero, the rest enter the
    coupling as cells just above the snapping threshold.
    """
    m = draw(st.integers(min_value=min_m, max_value=max_m))
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    regular = st.sampled_from([1.0, 0.5, 0.25, 0.125])
    tiny = st.floats(min_value=EPS_ZERO / 2, max_value=10 * EPS_ZERO)
    rows = []
    for _ in range(m):
        is_tiny = draw(
            st.lists(st.booleans(), min_size=n, max_size=n).filter(lambda f: not all(f))
        )
        values = [draw(tiny) if flag else draw(regular) for flag in is_tiny]
        tiny_total = sum(v for v, flag in zip(values, is_tiny) if flag)
        scale = (1.0 - tiny_total) / sum(v for v, flag in zip(values, is_tiny) if not flag)
        rows.append([v if flag else v * scale for v, flag in zip(values, is_tiny)])
    return rows


@st.composite
def residual_families(draw, min_m=2, max_m=4, min_n=2, max_n=6):
    """m nonnegative vectors of a common length sharing a common total."""
    m = draw(st.integers(min_value=min_m, max_value=max_m))
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    total = draw(st.floats(min_value=0.05, max_value=1.0))
    rows = []
    for _ in range(m):
        raw = draw(
            st.lists(
                st.floats(min_value=1e-3, max_value=1.0),
                min_size=n,
                max_size=n,
            )
        )
        scale = total / sum(raw)
        rows.append([v * scale for v in raw])
    return rows


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
