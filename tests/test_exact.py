"""Both solvers against the exact optimum for m >= 3 marginals.

``reference_exact`` enumerates every vertex of the coupling polytope, so
at n = 2 it gives the optimum ``H*`` for m = 3 and m = 4 in milliseconds.
Each solver's coupling entropy must lie at or above ``H*``, with a
tolerance only for the rounding of the solve, and within the bound
report's ``slack`` of it; the meet of the marginals must lie at or below
``H*``. Three problems have n = 3 states on m = 3 axes: 888,030 bases,
of which ``reference_exact`` finds the 397,629 nonsingular ones once
(about 1 s), after which each problem takes 0.3-0.7 s.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minent import bound_report, exact_min_entropy_2var, extended_entropy
from minent.greedy import SOLVERS

from conftest import marginal_families, tied_and_tiny_families
from reference_exact import meet_entropy, optimum, peels

# The optimal support of this m = 3 problem is the four cells of even
# parity, where every slot holds two cells: no cell can be peeled, and
# no saturating order of the cells reaches it.
UNPEELED = [[0.1649, 0.8351], [0.3031, 0.6969], [0.5432, 0.4568]]

FIXED = [
    UNPEELED,
    [[0.5, 0.5]] * 3,
    [[0.5, 0.5], [0.25, 0.75], [0.125, 0.875]],
    [[0.6, 0.4], [0.7, 0.3], [0.2, 0.8]],
    [[0.9719, 0.0281], [0.5894, 0.4106], [0.1916, 0.8084], [0.2922, 0.7078]],
    [[0.5, 0.5], [0.5, 0.5], [0.25, 0.75], [0.75, 0.25]],
    [[0.3, 0.7], [0.45, 0.55], [0.6, 0.4], [0.1, 0.9]],
]


# Each n = 3, m = 3 problem, its optimum, and each solver's gap above it:
# alg1 alone reaches the first optimum, neither solver the second, and
# both the third.
N3_M3 = [
    (
        [[0.5, 0.3, 0.2], [0.4, 0.4, 0.2], [0.6, 0.25, 0.15]],
        2.0414460712,
        {"alg1": 0.0, "alg2": 0.1622556249},
    ),
    (
        [[1 / 3] * 3, [0.5, 0.25, 0.25], [0.6, 0.3, 0.1]],
        2.2093128499,
        {"alg1": 0.0307476167, "alg2": 0.1953193331},
    ),
    (
        [[0.4, 0.3, 0.3], [0.35, 0.35, 0.3], [0.5, 0.3, 0.2]],
        2.0638651220,
        {"alg1": 0.0, "alg2": 0.0},
    ),
]


def check_against_optimum(marginals, solve, best=None):
    if best is None:
        best, _ = optimum(marginals)
    achieved = extended_entropy(solve(marginals)[0])
    assert achieved >= best - 1e-9
    assert achieved - best <= bound_report(marginals).slack + 1e-9
    assert meet_entropy(marginals) <= best + 1e-9


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("marginals", FIXED, ids=[f"m{len(ms)}-{k}" for k, ms in enumerate(FIXED)])
def test_fixed_problems(marginals, solver):
    check_against_optimum(marginals, SOLVERS[solver])


@pytest.mark.parametrize("marginals, expected, gaps", N3_M3, ids=["alg1-only", "neither", "both"])
def test_three_states_on_three_axes(marginals, expected, gaps):
    best, _ = optimum(marginals)
    assert best == pytest.approx(expected, abs=1e-9)
    for name, solve in SOLVERS.items():
        check_against_optimum(marginals, solve, best)
        assert extended_entropy(solve(marginals)[0]) - best == pytest.approx(gaps[name], abs=1e-9)


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@given(
    family=st.one_of(
        marginal_families(min_m=3, max_m=4, min_n=2, max_n=2),
        tied_and_tiny_families(min_m=3, max_m=4, min_n=2, max_n=2),
    )
)
@settings(max_examples=100, deadline=None)
def test_random_problems(solver, family):
    check_against_optimum(family, SOLVERS[solver])


def test_an_optimal_support_that_does_not_peel():
    best, vertex = optimum(UNPEELED)
    assert sorted(vertex) == [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    assert best == pytest.approx(1.4657672276, abs=1e-9)
    assert not peels(vertex)
    for solve in SOLVERS.values():
        coupling, _ = solve(UNPEELED)
        assert peels(coupling.entries)
        assert extended_entropy(coupling) > best + 1e-3


@pytest.mark.parametrize("marginals", [
    [[0.6, 0.4], [0.5, 0.5]],
    [[0.3275, 0.2947, 0.3778], [0.1802, 0.61, 0.2098]],
    [[0.5, 0.25, 0.25], [0.4, 0.4, 0.2]],
])
def test_two_marginals_match_the_oracle(marginals):
    best, vertex = optimum(marginals)
    assert best == pytest.approx(exact_min_entropy_2var(*marginals)[1], abs=1e-12)
    assert peels(vertex)
