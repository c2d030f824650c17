import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_bounds
from minent import (
    EPS_SUM,
    DimensionError,
    DomainError,
    Marginal,
    bound_report,
    extended_entropy,
    greedy_coupling,
    greedy_coupling_two_phase,
    special_family,
)

from conftest import marginal_families, residual_families, tied_and_tiny_families
from reference_bounds import outer_product_coupling, outer_product_entropy_identity
from reference_cli import _clean


class TestBoundReport:
    def test_worked_instance(self):
        report = bound_report([[0.6, 0.4], [0.5, 0.5]])
        assert report.residual_total == pytest.approx(0.1, abs=1e-12)
        assert report.residuals[0] == pytest.approx((0.1, 0.0), abs=1e-12)
        assert report.residuals[1] == pytest.approx((0.0, 0.1), abs=1e-12)
        h = -0.1 * math.log2(0.1)
        assert report.residual_entropies == pytest.approx((h, h), abs=1e-9)
        # T*log2(1/T) cancels min h(l) exactly here, leaving slack 1
        assert report.slack == pytest.approx(1.0, abs=1e-9)
        assert report.lower_bound == pytest.approx(1.0, abs=1e-12)
        assert report.upper_bound == pytest.approx(2.0, abs=1e-9)

    def test_identical_marginals_degenerate(self):
        report = bound_report([[0.3, 0.7], [0.3, 0.7]])
        assert report.residual_total == 0.0
        assert all(h == 0.0 for h in report.residual_entropies)
        assert report.slack == pytest.approx(1.0, abs=1e-12)

    def test_two_level_family_residual_entropies(self):
        uniform, skewed, _, _ = special_family(4, 1.5)
        report = bound_report([uniform, skewed])
        # closed form ((alpha-1)/2) * log2(n / (alpha-1)) at n=4, alpha=1.5
        assert report.residual_entropies == pytest.approx((0.75, 0.75), abs=1e-9)
        assert report.residual_total == pytest.approx(0.25, abs=1e-12)

    def test_m2_slack_matches_min_form(self):
        report = bound_report([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3]])
        t = report.residual_total
        expected = (
            1.0
            + t * math.log2(t)
            + min(report.residual_entropies)
        )
        assert report.slack == pytest.approx(expected, abs=1e-12)

    def test_achieved_carried_through(self):
        report = bound_report([[0.6, 0.4], [0.5, 0.5]], achieved=1.25)
        assert report.achieved == 1.25

    def test_single_marginal_rejected(self):
        with pytest.raises(DomainError):
            bound_report([[0.5, 0.5]])

    def test_ragged_rejected(self):
        with pytest.raises(DimensionError):
            bound_report([[0.5, 0.5], [0.2, 0.3, 0.5]])

    @given(family=marginal_families())
    @settings(max_examples=120, deadline=None)
    def test_residual_totals_agree(self, family):
        report = bound_report(family)
        for residual in report.residuals:
            assert math.fsum(residual) == pytest.approx(
                report.residual_total, abs=1e-9
            )

    @given(family=marginal_families())
    @settings(max_examples=100, deadline=None)
    def test_bracket_holds_for_both_solvers(self, family):
        report = bound_report(family)
        assert report.lower_bound <= report.upper_bound + 1e-12
        for solver in (greedy_coupling, greedy_coupling_two_phase):
            coupling, _ = solver(family)
            achieved = extended_entropy(coupling)
            assert achieved >= report.lower_bound - 1e-9
            assert achieved <= report.upper_bound + 1e-9


def report_json(report):
    return json.dumps(_clean(report.to_dict()))


class TestAgainstReference:
    """The sorted-sweep report equals the sort-and-numpy reference exactly."""

    @pytest.mark.parametrize(
        "family",
        [
            [[0.5, 0.5, 0.0], [0.5, 0.5, -0.0]],
            [[0.5, 0.5, -0.0], [0.5, 0.5, 0.0]],
            [[0.5, -0.0, 0.5], [0.0, 0.5, 0.5], [-0.0, 1.0, 0.0]],
            [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
            [[0.0, 0.6, 0.0, 0.4], [0.5, 0.0, 0.5, 0.0], [0.25, 0.25, 0.25, 0.25]],
            [[0.5, 0.5 - 1e-13, 1e-13], [0.5, 0.5 - 2e-12, 2e-12]],
        ],
    )
    def test_signed_zeros_exact_zeros_and_dust(self, family):
        for achieved in (None, 1.5):
            report = bound_report(family, achieved)
            expected = reference_bounds.bound_report(family, achieved)
            assert repr(report) == repr(expected)
            assert report_json(report) == report_json(expected)

    def test_negative_zero_survives_in_pointwise_min(self):
        report = bound_report([[0.5, 0.5, 0.0], [0.5, 0.5, -0.0]])
        assert repr(report.pointwise_min[2]) == "-0.0"
        assert '"pointwise_min": [0.5, 0.5, -0.0]' in report_json(report)

    @given(
        family=st.one_of(marginal_families(), tied_and_tiny_families()),
        achieved=st.one_of(st.none(), st.floats(min_value=0.0, max_value=8.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_report_identical(self, family, achieved):
        report = bound_report(family, achieved)
        expected = reference_bounds.bound_report(family, achieved)
        assert repr(report) == repr(expected)
        assert report_json(report) == report_json(expected)

    @given(
        family=st.one_of(marginal_families(), tied_and_tiny_families()),
        shifts=st.lists(
            st.floats(min_value=-2e-10, max_value=2e-10), min_size=4, max_size=4
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_residual_totals_agree_within_eps_sum(self, family, shifts):
        # totals up to 4e-10 apart: close to the EPS_MARG / 2 ingest limit
        family = [[v * (1 + d) for v in row] for row, d in zip(family, shifts)]
        report = bound_report(family)
        totals = [math.fsum(r) for r in report.residuals]
        assert max(totals) - min(totals) <= EPS_SUM
        if report.m == 2:
            p, q = (Marginal.of(row) for row in family)
            tv = reference_bounds.total_variation_sorted(p, q)
            assert abs(report.residual_total - tv) <= EPS_SUM


class TestOuterProduct:
    def test_disjoint_supports(self):
        tensor = outer_product_coupling([[0.1, 0.0], [0.0, 0.1]])
        assert set(tensor) == {(1, 2)}
        assert tensor[(1, 2)] == pytest.approx(0.1, abs=1e-12)

    def test_single_state(self):
        tensor = outer_product_coupling([[0.3], [0.3]])
        assert tensor == pytest.approx({(1, 1): 0.3})

    def test_three_flat_residuals(self):
        tensor = outer_product_coupling([[0.1, 0.1]] * 3)
        assert len(tensor) == 8
        for mass in tensor.values():
            assert mass == pytest.approx(0.025, abs=1e-12)

    def test_mismatched_totals_rejected(self):
        with pytest.raises(DomainError):
            outer_product_coupling([[0.1, 0.1], [0.3, 0.0]])

    def test_zero_total_degenerates(self):
        assert outer_product_coupling([[0.0, 0.0], [0.0, 0.0]]) == {}

    @given(residuals=residual_families())
    @settings(max_examples=120, deadline=None)
    def test_marginals_recover_residuals(self, residuals):
        tensor = outer_product_coupling(residuals)
        m, n = len(residuals), len(residuals[0])
        for axis in range(m):
            implied = [0.0] * n
            for tup, mass in tensor.items():
                implied[tup[axis] - 1] += mass
            assert implied == pytest.approx(residuals[axis], abs=1e-9)


class TestEntropyIdentity:
    def test_disjoint_supports(self):
        lhs, rhs = outer_product_entropy_identity([[0.1, 0.0], [0.0, 0.1]])
        assert lhs == pytest.approx(-0.1 * math.log2(0.1), abs=1e-12)
        assert rhs == pytest.approx(lhs, abs=1e-12)

    def test_unit_total_independence(self):
        lhs, rhs = outer_product_entropy_identity([[0.5, 0.5], [0.5, 0.5]])
        assert lhs == pytest.approx(2.0, abs=1e-12)
        assert rhs == pytest.approx(2.0, abs=1e-12)

    def test_three_flat_residuals(self):
        lhs, rhs = outer_product_entropy_identity([[0.1, 0.1]] * 3)
        assert lhs == pytest.approx(1.0643856189774725, abs=1e-9)
        assert rhs == pytest.approx(lhs, abs=1e-9)

    @given(residuals=residual_families())
    @settings(max_examples=150, deadline=None)
    def test_equality_holds(self, residuals):
        lhs, rhs = outer_product_entropy_identity(residuals)
        assert abs(lhs - rhs) <= 1e-9


class TestSpecialFamily:
    def test_worked_instance(self):
        uniform, skewed, predicted, second = special_family(4, 1.5)
        assert uniform.probs == (0.25,) * 4
        assert skewed.probs == (0.375, 0.375, 0.125, 0.125)
        assert predicted == pytest.approx(2.5, abs=1e-12)
        assert second == pytest.approx(1.811278124459133, abs=1e-9)

    def test_n8_alpha_125(self):
        uniform, skewed, predicted, second = special_family(8, 1.25)
        assert skewed.probs[:4] == (1.25 / 8,) * 4
        assert skewed.probs[4:] == (0.75 / 8,) * 4
        expected_predicted = (
            3.0 - 0.125 * math.log2(0.25) - 0.375 * math.log2(0.75)
        )
        assert predicted == pytest.approx(expected_predicted, abs=1e-12)
        expected_second = (
            3.0 - 0.625 * math.log2(1.25) - 0.375 * math.log2(0.75)
        )
        assert second == pytest.approx(expected_second, abs=1e-12)

    def test_near_degenerate_alpha_gap_vanishes(self):
        _, _, predicted, second = special_family(4, 1.0 + 1e-9)
        assert predicted - second == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("bad_n", [0, 3, 5, -2])
    def test_odd_or_invalid_n_rejected(self, bad_n):
        with pytest.raises(DomainError):
            special_family(bad_n, 1.5)

    @pytest.mark.parametrize("bad_alpha", [1.0, 2.0, 0.5, 2.5])
    def test_alpha_out_of_range_rejected(self, bad_alpha):
        with pytest.raises(DomainError):
            special_family(4, bad_alpha)

    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    @pytest.mark.parametrize("alpha", [1.25, 1.5, 1.75])
    def test_solver_meets_closed_form_within_one_bit(self, n, alpha):
        uniform, skewed, predicted, second = special_family(n, alpha)
        coupling, _ = greedy_coupling_two_phase([uniform, skewed])
        achieved = extended_entropy(coupling)
        assert achieved == pytest.approx(predicted, abs=1e-9)
        eps = alpha - 1.0
        gap_formula = 0.5 * math.log2(1.0 + eps) + eps / 2.0 * math.log2(
            1.0 + 1.0 / eps
        )
        assert achieved - extended_entropy(skewed) == pytest.approx(
            gap_formula, abs=1e-9
        )
        assert achieved - second <= 1.0 + 1e-9

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_slack_term_grows_while_gap_stays_bounded(self, n):
        # the report's min residual entropy scales with log2(n); the true
        # gap does not, which is the documented looseness of the bracket
        alpha = 1.5
        uniform, skewed, predicted, second = special_family(n, alpha)
        report = bound_report([uniform, skewed])
        expected_min_h = (alpha - 1) / 2 * math.log2(n / (alpha - 1))
        assert min(report.residual_entropies) == pytest.approx(
            expected_min_h, abs=1e-9
        )
        assert predicted - second <= 1.0


class TestReportVectors:
    def test_report_residuals_feed_the_outer_product(self):
        residuals = bound_report([[0.6, 0.4], [0.5, 0.5]]).residuals
        tensor = outer_product_coupling(residuals)
        assert tensor[(1, 2)] == pytest.approx(0.1, abs=1e-12)

    def test_report_marginals_are_sorted(self):
        report = bound_report([[0.2, 0.5, 0.3], [0.3, 0.3, 0.4]])
        assert report.sorted_marginals == ((0.5, 0.3, 0.2), (0.4, 0.3, 0.3))
        for p in report.sorted_marginals:
            assert all(a >= b for a, b in zip(p, p[1:]))
