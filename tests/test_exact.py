"""Both solvers against the exact optimum for m >= 3 marginals.

``reference_exact`` enumerates every vertex of the coupling polytope, so
at n = 2 it gives the optimum ``H*`` for m = 3 and m = 4 in milliseconds.
Each solver's coupling entropy must lie at or above ``H*``, with a
tolerance only for the rounding of the solve, and within the bound
report's ``slack`` of it; the meet of the marginals must lie at or below
``H*``. One problem has n = 3 states on m = 3 axes: 888,030 bases, about
1.2-2.2 s of enumeration, done once for both solvers.
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


# alg1 reaches the optimum here and alg2 stays 0.16 bits above it
N3_M3 = [[0.5, 0.3, 0.2], [0.4, 0.4, 0.2], [0.6, 0.25, 0.15]]


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


def test_three_states_on_three_axes():
    best, _ = optimum(N3_M3)
    assert best == pytest.approx(2.0414460712, abs=1e-9)
    for solve in SOLVERS.values():
        check_against_optimum(N3_M3, solve, best)
    assert extended_entropy(SOLVERS["alg1"](N3_M3)[0]) == pytest.approx(best, abs=1e-9)
    assert extended_entropy(SOLVERS["alg2"](N3_M3)[0]) > best + 0.1


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
