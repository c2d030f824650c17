"""``minent._random`` draws what numpy's generator draws, bit for bit.

Every comparison is by ``float.hex`` or by integer equality: the point
of the module is that ``generate --family random`` writes the files
numpy wrote for a seed, so no tolerance is allowed.
"""

import glob
import os
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minent import _random
from minent._random import dirichlet_rows

seeds = (
    st.just(0)
    | st.integers(0, 2**32 - 1)
    | st.integers(2**32, 2**64 - 1)
    | st.integers(2**64, 2**200)
)


def hexes(rows) -> list[list[str]]:
    return [[float(v).hex() for v in row] for row in rows]


@given(seeds, st.integers(1, 1000), st.integers(2, 4))
@example(0, 1, 2)
@example(7, 3, 3)
@example(2**32 + 1, 1000, 2)
@example(2**64 + 1, 5, 2)
@settings(max_examples=100, deadline=None)
def test_dirichlet_rows_match_numpy(seed, n, m):
    expected = np.random.default_rng(seed).dirichlet(np.ones(n), size=m)
    assert hexes(dirichlet_rows(seed, n, m)) == hexes(expected)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_seed_pool_and_raw_stream_match_numpy(seed):
    assert _random._seed_pool(seed) == np.random.SeedSequence(seed).pool.tolist()
    draws = _random._pcg64(seed)
    raw = np.random.PCG64(seed).random_raw(20).tolist()
    assert [next(draws) for _ in raw] == raw


def test_exponential_stream_matches_numpy_through_every_branch(monkeypatch):
    """Fed numpy's raw words, the ziggurat returns numpy's exponentials
    and consumes exactly the words numpy consumed. The stream reaches the
    tail of layer 0, the wedge test, and a wedge rejection that starts
    the draw over."""
    seed, count = 20261019, 200_000
    calls = {"log1p": 0, "exp": 0}

    def counted(name, function):
        def wrapper(x):
            calls[name] += 1
            return function(x)
        return wrapper

    monkeypatch.setattr(_random, "log1p", counted("log1p", _random.log1p))
    monkeypatch.setattr(_random, "exp", counted("exp", _random.exp))
    words = np.random.PCG64(seed).random_raw(count + count // 10).tolist()
    position = 0

    def next64():
        nonlocal position
        position += 1
        return words[position - 1]

    got = [_random._standard_exponential(next64) for _ in range(count)]
    generator = np.random.Generator(np.random.PCG64(seed))
    expected = generator.standard_exponential(count).tolist()
    assert [v.hex() for v in got] == [v.hex() for v in expected]
    assert words[position] == generator.bit_generator.random_raw()
    # each draw takes one word per try, and a tail or wedge test one more
    retries = position - count - calls["log1p"] - calls["exp"]
    assert calls["log1p"] > 0
    assert calls["exp"] > retries > 0


@pytest.mark.parametrize("seed", [-1, -(2**64)])
def test_negative_seed_rejected_as_numpy_does(seed):
    with pytest.raises(ValueError) as numpy_error:
        np.random.default_rng(seed)
    with pytest.raises(ValueError) as error:
        dirichlet_rows(seed, 3, 2)
    assert str(error.value) == str(numpy_error.value) == "expected non-negative integer"


def test_tables_are_numpys():
    """Each ziggurat table lies, as stored, in numpy's generator binary."""
    directory = os.path.join(os.path.dirname(np.__file__), "random")
    (path,) = [p for p in glob.glob(os.path.join(directory, "_generator.*")) if not p.endswith(".pyi")]
    with open(path, "rb") as binary:
        data = binary.read()
    for typecode, table in (("Q", _random._KE), ("d", _random._WE), ("d", _random._FE)):
        assert len(table) == 256
        assert array(typecode, table).tobytes() in data
