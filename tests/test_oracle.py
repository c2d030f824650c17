import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minent import (
    EPS_MARG,
    EPS_ZERO,
    DimensionError,
    SizeCapError,
    bound_report,
    exact_min_entropy_2var,
    extended_entropy,
    greedy_coupling,
    greedy_coupling_two_phase,
    marginalize,
    special_family,
)
from minent import oracle
from minent.core import coerce_marginals
from minent.greedy import SOLVERS

import reference_oracle
from conftest import dirichlet_marginals, marginal_families, tied_and_tiny_families
from reference_exact import meet_entropy, peels
from reference_oracle import enumerate_vertices


def brute_force_vertices(p, q):
    """Reference enumeration: all saturating orders, no pruning.

    Returns the deduplicated set of couplings as frozensets of
    (cell, mass rounded to 9 decimals).
    """
    found = set()

    def walk(rows, cols, acc):
        live_r = [i for i, v in enumerate(rows) if v > 1e-12]
        live_c = [j for j, v in enumerate(cols) if v > 1e-12]
        if not live_r or not live_c:
            found.add(frozenset((cell, round(mass, 9)) for cell, mass in acc))
            return
        for i in live_r:
            for j in live_c:
                mass = min(rows[i], cols[j])
                next_rows = list(rows)
                next_cols = list(cols)
                next_rows[i] -= mass
                next_cols[j] -= mass
                walk(next_rows, next_cols, acc + [((i + 1, j + 1), mass)])

    walk(list(p), list(q), [])
    return found


class TestEnumerateVertices:
    def test_worked_instance_has_two_vertices(self):
        vertex_set = enumerate_vertices([0.6, 0.4], [0.5, 0.5])
        supports = {tuple(v.entries) for v in vertex_set.vertices}
        assert supports == {
            ((1, 1), (1, 2), (2, 2)),
            ((1, 1), (1, 2), (2, 1)),
        }
        for vertex in vertex_set.vertices:
            assert extended_entropy(vertex) == pytest.approx(
                1.3609640474436813, abs=1e-9
            )
        assert vertex_set.best_entropy == pytest.approx(
            1.3609640474436813, abs=1e-9
        )

    def test_point_mass(self):
        vertex_set = enumerate_vertices([1.0], [1.0])
        assert len(vertex_set.vertices) == 1
        assert vertex_set.best_entropy == 0.0

    def test_mass_exactly_eps_zero_is_snapped(self):
        vertex_set = enumerate_vertices([0.5, 0.5], [1.0 - EPS_ZERO, EPS_ZERO])
        assert {tuple(v.entries) for v in vertex_set.vertices} == {((1, 1), (2, 1))}

    def test_equal_uniform_pair(self):
        vertex_set = enumerate_vertices([0.5, 0.5], [0.5, 0.5])
        supports = {tuple(v.entries) for v in vertex_set.vertices}
        assert supports == {((1, 1), (2, 2)), ((1, 2), (2, 1))}
        assert vertex_set.best_entropy == pytest.approx(1.0, abs=1e-12)

    def test_size_cap(self):
        uniform7 = [1.0 / 7] * 7
        with pytest.raises(SizeCapError):
            enumerate_vertices(uniform7, uniform7)

    def test_size_cap_override(self, monkeypatch):
        monkeypatch.setattr(oracle, "DEFAULT_N_CAP", 7)
        uniform7 = [1.0 / 7] * 7
        vertex_set = enumerate_vertices(uniform7, uniform7)
        assert vertex_set.best_entropy == pytest.approx(math.log2(7), abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            enumerate_vertices([0.5, 0.5], [1.0])

    def test_deterministic(self, rng):
        p, q = dirichlet_marginals(rng, 2, 4)
        assert enumerate_vertices(p, q) == enumerate_vertices(p, q)

    def test_vertices_satisfy_marginals(self, rng):
        for _ in range(10):
            p, q = dirichlet_marginals(rng, 2, 4)
            for vertex in enumerate_vertices(p, q).vertices:
                assert marginalize(vertex, 1) == pytest.approx(p, abs=1e-9)
                assert marginalize(vertex, 2) == pytest.approx(q, abs=1e-9)

    def test_supports_are_acyclic_and_small(self, rng):
        for _ in range(10):
            p, q = dirichlet_marginals(rng, 2, 4)
            for vertex in enumerate_vertices(p, q).vertices:
                assert vertex.num_entries <= 2 * 4 - 1
                # at m = 2, a support peels exactly when it is a forest
                assert peels(vertex.entries)

    @pytest.mark.parametrize("n,repeats", [(2, 8), (3, 8), (4, 1)])
    def test_matches_unpruned_reference(self, rng, n, repeats):
        # the order-pruned search must find exactly the same vertex set as
        # exhaustive enumeration over every saturating order
        for _ in range(repeats):
            p, q = dirichlet_marginals(rng, 2, n)
            reference = brute_force_vertices(p, q)
            pruned = {
                frozenset((cell, round(mass, 9)) for cell, mass in v.entries.items())
                for v in enumerate_vertices(p, q).vertices
            }
            assert pruned == reference

    def test_two_state_optimum_against_closed_form(self, rng):
        # 2x2 couplings form a segment; concave entropy is minimized at an
        # endpoint, so the optimum is the better of the two extreme cells
        for _ in range(25):
            p, q = dirichlet_marginals(rng, 2, 2)
            low = max(0.0, p[0] + q[0] - 1.0)
            high = min(p[0], q[0])
            best_direct = min(
                extended_entropy(
                    [v for v in (a, p[0] - a, q[0] - a, 1 - p[0] - q[0] + a) if v > 0]
                )
                for a in (low, high)
            )
            _, best = exact_min_entropy_2var(p, q)
            assert best == pytest.approx(best_direct, abs=1e-9)


def two_marginals(min_n, max_n):
    """Random or tied-and-tiny pairs, and a shift of the second total by
    up to 0.49 * EPS_MARG, or none."""
    return st.tuples(
        st.one_of(
            marginal_families(min_m=2, max_m=2, min_n=min_n, max_n=max_n),
            tied_and_tiny_families(min_m=2, max_m=2, min_n=min_n, max_n=max_n),
        ),
        st.just(0.0) | st.floats(min_value=-0.49 * EPS_MARG, max_value=0.49 * EPS_MARG),
    )


class TestExactMinEntropy:
    def test_worked_instance_matches_greedy(self):
        _, best_entropy = exact_min_entropy_2var([0.6, 0.4], [0.5, 0.5])
        assert best_entropy == pytest.approx(1.3609640474436813, abs=1e-9)

    def test_equal_marginals_attain_their_entropy(self):
        p = [0.3, 0.3, 0.4]
        _, best_entropy = exact_min_entropy_2var(p, p)
        assert best_entropy == pytest.approx(extended_entropy(p), abs=1e-9)

    def test_oracle_never_beats_lower_bound(self, rng):
        for _ in range(20):
            p, q = dirichlet_marginals(rng, 2, 3)
            _, best = exact_min_entropy_2var(p, q)
            assert best >= bound_report([p, q]).lower_bound - 1e-9

    @given(case=two_marginals(1, 4))
    @example(case=(([0.5, 0.5 - 5e-12, 5e-12], [0.25, 0.75 - 3e-13, 3e-13]), 0.0))
    @settings(max_examples=150, deadline=None)
    def test_oracle_dominates_both_solvers(self, case):
        # no tolerance: the oracle holds both greedy couplings, so its
        # optimum never lies above either, shifted totals and dust included
        (p, q), shift = case
        q = [v * (1.0 + shift) for v in q]
        coupling, best = exact_min_entropy_2var(p, q)
        assert best == extended_entropy(coupling)
        for solver in (greedy_coupling, greedy_coupling_two_phase):
            assert best <= extended_entropy(solver([p, q])[0])


def assert_same_as_enumeration(p, q):
    best, best_entropy = exact_min_entropy_2var(p, q)
    vertex_set = enumerate_vertices(p, q)
    assert best == vertex_set.best
    assert best_entropy == vertex_set.best_entropy


def assert_same_leaves(family, shift, limits=("inf", "incumbent")):
    """The walker's leaf list equals the reference walker's, in order."""
    p, q = family
    pm, qm = coerce_marginals([p, [v * (1.0 + shift) for v in q]])
    incumbent = min(extended_entropy(solve([pm, qm])[0]) for solve in SOLVERS.values())
    for name in limits:
        limit = math.inf if name == "inf" else incumbent + oracle._SLACK
        assert oracle._leaves(pm, qm, limit) == reference_oracle._leaves(pm, qm, limit)


class TestWalker:
    """``oracle._leaves`` returns the reference walker's leaves exactly."""

    @given(case=two_marginals(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_up_to_four_states(self, case):
        assert_same_leaves(*case)

    @given(case=two_marginals(5, 5))
    @settings(max_examples=10, deadline=None)
    def test_five_states_at_incumbent(self, case):
        assert_same_leaves(*case, limits=("incumbent",))

    @given(case=two_marginals(5, 5))
    @settings(max_examples=2, deadline=None)
    def test_five_states_unpruned(self, case):
        # few examples: an unpruned walk at n = 5 can take seconds
        assert_same_leaves(*case, limits=("inf",))

    def test_root_pruned(self):
        assert oracle._leaves(*coerce_marginals([[0.5, 0.5], [0.5, 0.5]]), 0.5) == []


def closes_root_last(pm, qm, cells):
    """Whether no step of a leaf's order closes the highest live row while
    its column keeps mass, unless that row is the only live one.

    Replays the order on the snapped residuals with the walk's arithmetic.
    """
    rows = [0.0 if v <= EPS_ZERO else v for v in pm.probs]
    cols = [0.0 if v <= EPS_ZERO else v for v in qm.probs]
    width = len(rows)
    for code, _ in cells:
        i, j = divmod(code, width)
        live_rows = [r for r, v in enumerate(rows) if v > 0.0]
        if rows[i] <= cols[j]:
            rows[i], cols[j] = 0.0, cols[j] - rows[i]
            if cols[j] <= EPS_ZERO:
                cols[j] = 0.0
            elif i == live_rows[-1] and len(live_rows) > 1:
                return False
        else:
            rows[i], cols[j] = rows[i] - cols[j], 0.0
            if rows[i] <= EPS_ZERO:
                rows[i] = 0.0
    return True


class TestRootRule:
    """The highest live row closes last: the walk skips orders, not vertices."""

    @given(
        case=two_marginals(1, 4).filter(
            lambda case: case[1] == 0.0 and min(min(m) for m in case[0]) >= 1e-9
        )
    )
    @example(case=(([0.324, 0.676], [0.282, 0.718]), 0.0))
    @settings(max_examples=150, deadline=None)
    def test_reaches_every_support_of_the_rule_free_walk(self, case):
        # no dust and no shift: each vertex is reached with its root row
        # closing last. The example loses the support {(1,2), (2,1), (2,2)}
        # when the lowest live row is the root.
        pm, qm = coerce_marginals(case[0])

        def supports(root_last):
            leaves = reference_oracle._leaves(pm, qm, math.inf, root_last)
            return {tuple(sorted(code for code, _ in cells)) for _, cells in leaves}

        assert supports(True) == supports(False)

    @given(case=two_marginals(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_leaves_are_an_ordered_subsequence_of_the_rule_free_walk(self, case):
        # the rule only removes children: the kept leaves are, bit for bit
        # and in order, the rule-free walk's leaves whose order closes the
        # root row last, dust and shifts included
        (p, q), shift = case
        pm, qm = coerce_marginals([p, [v * (1.0 + shift) for v in q]])
        incumbent = min(extended_entropy(solve([pm, qm])[0]) for solve in SOLVERS.values())
        for limit in (math.inf, incumbent + oracle._SLACK):
            rule_free = reference_oracle._leaves(pm, qm, limit, False)
            assert oracle._leaves(pm, qm, limit) == [
                leaf for leaf in rule_free if closes_root_last(pm, qm, leaf[1])
            ]

    @given(case=two_marginals(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_optimum_within_1e_8_of_the_rule_free_leaves(self, case):
        # dust and totals apart make supports that only the stranded mass
        # reaches; the rule may skip them, at a measured cost of up to
        # 3.2e-9 bits. The rule-free walk at the incumbent limit keeps
        # every leaf that could be its optimum.
        (p, q), shift = case
        pm, qm = coerce_marginals([p, [v * (1.0 + shift) for v in q]])
        _, best = exact_min_entropy_2var(pm, qm)
        incumbent = min(extended_entropy(solve([pm, qm])[0]) for solve in SOLVERS.values())
        rule_free = min(
            extended_entropy([mass for _, mass in cells])
            for _, cells in reference_oracle._leaves(pm, qm, incumbent + oracle._SLACK, False)
        )
        assert abs(best - rule_free) <= 1e-8


# Fixed n = 6 problems, the oracle's cap; criterion 5 also checks them.
SIX_STATE_PROBLEMS = [
    ([0.4, 0.2, 0.15, 0.1, 0.1, 0.05], [0.3, 0.3, 0.2, 0.1, 0.05, 0.05]),
    ([0.12, 0.04, 0.49, 0.11, 0.11, 0.13], [0.15, 0.11, 0.42, 0.1, 0.07, 0.15]),
    ([0.02, 0.2, 0.03, 0.42, 0.23, 0.1], [0.03, 0.4, 0.29, 0.11, 0.03, 0.14]),
]


class TestBranchAndBound:
    """The pruned search returns exactly the full enumeration's optimum."""

    @given(family=marginal_families(min_m=2, max_m=2, min_n=1, max_n=4))
    @settings(max_examples=100, deadline=None)
    def test_random_families(self, family):
        assert_same_as_enumeration(*family)

    @given(family=tied_and_tiny_families(min_m=2, max_m=2, min_n=1, max_n=4))
    @settings(max_examples=100, deadline=None)
    def test_tied_and_tiny_families(self, family):
        assert_same_as_enumeration(*family)

    @given(
        family=st.one_of(
            marginal_families(min_m=2, max_m=2, min_n=5, max_n=5),
            tied_and_tiny_families(min_m=2, max_m=2, min_n=5, max_n=5),
        )
    )
    @settings(max_examples=3, deadline=None)
    def test_five_states(self, family):
        # few examples: the full enumeration takes seconds at n = 5
        assert_same_as_enumeration(*family)

    @given(
        family=marginal_families(min_m=2, max_m=2, min_n=1, max_n=4),
        shift=st.floats(min_value=-0.49 * EPS_MARG, max_value=0.49 * EPS_MARG),
    )
    @settings(max_examples=60, deadline=None)
    def test_totals_apart_within_ingest_tolerance(self, family, shift):
        # the longer side keeps up to EPS_MARG / 2 of mass when the other
        # runs out, so its residual entropy overshoots the leaf's
        p, q = family
        assert_same_as_enumeration(p, [v * (1.0 + shift) for v in q])

    @pytest.mark.parametrize(
        "p,q",
        [
            ([0.2] * 5, [0.2] * 5),
            special_family(4, 1.5)[:2],
            ([0.1, 0.15, 0.2, 0.25, 0.3], [0.1, 0.15, 0.2, 0.25, 0.3]),
            ([1.0], [1.0]),
            ([0.5, 0.5], [1.0 - EPS_ZERO, EPS_ZERO]),
        ],
        ids=["uniform-5", "special-4", "identical-5", "n-1", "eps-zero"],
    )
    def test_fixed_cases(self, p, q):
        assert_same_as_enumeration(p, q)

    @pytest.mark.parametrize("p,q", SIX_STATE_PROBLEMS, ids=["skewed-6", "greedy-gap-6", "spread-6"])
    def test_six_states(self, p, q):
        # no full enumeration to compare with at n = 6; each problem takes
        # well under a second
        _, optimum = exact_min_entropy_2var(p, q)
        floor = max(extended_entropy(p), extended_entropy(q))
        achieved = min(
            extended_entropy(solve([p, q])[0])
            for solve in (greedy_coupling, greedy_coupling_two_phase)
        )
        assert floor - 1e-9 <= optimum <= achieved + 1e-9

    def test_size_cap_before_any_solver(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("solver ran before the size cap check")

        for name in list(SOLVERS):
            monkeypatch.setitem(SOLVERS, name, unreachable)
        uniform7 = [1.0 / 7] * 7
        with pytest.raises(SizeCapError, match="n=7 exceeds the enumeration cap 6"):
            exact_min_entropy_2var(uniform7, uniform7)


# Compton (ISIT 2022): greedy is within log2(e)/e bits of the optimum for
# two marginals.
LOG2E_OVER_E = math.log2(math.e) / math.e


class TestAdditiveGap:
    """``alg1`` against the exact optimum at m = 2 (ROADMAP item 3)."""

    @given(
        family=st.one_of(
            marginal_families(min_m=2, max_m=2, min_n=2, max_n=5),
            tied_and_tiny_families(min_m=2, max_m=2, min_n=2, max_n=5),
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_within_log2e_over_e_of_optimum(self, family):
        p, q = family
        achieved = extended_entropy(greedy_coupling([p, q])[0])
        _, optimum = exact_min_entropy_2var(p, q)
        assert achieved - optimum <= LOG2E_OVER_E

    def test_random_pairs(self, rng):
        for n in (2, 3, 4, 5):
            for _ in range(15):
                p, q = dirichlet_marginals(rng, 2, n)
                achieved = extended_entropy(greedy_coupling([p, q])[0])
                _, optimum = exact_min_entropy_2var(p, q)
                assert achieved - optimum <= LOG2E_OVER_E

    def test_meet_in_place_of_optimum_breaks_the_constant(self):
        # H(meet) lower-bounds the optimum, but it cannot stand in for it:
        # here greedy is 0.540 bits above H(meet) and 0.092 above the optimum
        p = [0.3275, 0.2947, 0.3778]
        q = [0.1802, 0.61, 0.2098]
        achieved = extended_entropy(greedy_coupling([p, q])[0])
        _, optimum = exact_min_entropy_2var(p, q)
        meet = meet_entropy([p, q])
        assert achieved == pytest.approx(2.1176, abs=1e-4)
        assert optimum == pytest.approx(2.0252, abs=1e-4)
        assert meet == pytest.approx(1.5774, abs=1e-4)
        assert meet <= optimum <= achieved
        assert achieved - optimum <= LOG2E_OVER_E < achieved - meet
