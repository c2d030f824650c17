import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minent import (
    EPS_ZERO,
    DimensionError,
    DomainError,
    Marginal,
    extended_entropy,
    greedy_coupling,
    greedy_coupling_two_phase,
    marginalize,
)

from conftest import marginal_families

SOLVERS = [greedy_coupling, greedy_coupling_two_phase]


def assert_close_entries(entries, expected, abs_tol=1e-9):
    assert set(entries) == set(expected)
    for tup, mass in expected.items():
        assert entries[tup] == pytest.approx(mass, abs=abs_tol)


class TestWorkedInstances:
    def test_identical_binary_marginals(self):
        coupling, trace = greedy_coupling([[0.5, 0.5], [0.5, 0.5]])
        assert_close_entries(coupling.entries, {(1, 1): 0.5, (2, 2): 0.5})
        assert extended_entropy(coupling) == pytest.approx(1.0, abs=1e-12)
        assert len(trace) == 2

    def test_hand_traced_instance(self):
        coupling, trace = greedy_coupling([[0.6, 0.4], [0.5, 0.5]])
        assert_close_entries(
            coupling.entries, {(1, 1): 0.5, (2, 2): 0.4, (1, 2): 0.1}
        )
        assert [s.chosen_tuple for s in trace.steps] == [(1, 1), (2, 2), (1, 2)]
        assert extended_entropy(coupling) == pytest.approx(
            1.3609640474436813, abs=1e-9
        )

    def test_three_identical_marginals(self):
        coupling, _ = greedy_coupling([[0.5, 0.5]] * 3)
        assert_close_entries(coupling.entries, {(1, 1, 1): 0.5, (2, 2, 2): 0.5})
        assert extended_entropy(coupling) == pytest.approx(1.0, abs=1e-12)

    def test_two_phase_same_instance(self):
        coupling, trace = greedy_coupling_two_phase([[0.6, 0.4], [0.5, 0.5]])
        assert_close_entries(
            coupling.entries, {(1, 1): 0.5, (2, 2): 0.4, (1, 2): 0.1}
        )
        # the sweep phase covers steps 1 and 2, the update loop starts at 3
        assert trace.phase_boundary == 3
        assert len(trace) == 3

    def test_two_phase_masses_on_two_level_family(self):
        coupling, trace = greedy_coupling_two_phase(
            [[0.25] * 4, [0.375, 0.375, 0.125, 0.125]]
        )
        assert trace.phase_boundary == 5
        phase_one = sorted(s.mass for s in trace.steps[:4])
        phase_two = sorted(s.mass for s in trace.steps[4:])
        assert phase_one == pytest.approx([0.125, 0.125, 0.25, 0.25], abs=1e-12)
        assert phase_two == pytest.approx([0.125, 0.125], abs=1e-12)
        assert extended_entropy(coupling) == pytest.approx(2.5, abs=1e-9)

    def test_two_phase_identical_marginals_skips_phase_two(self):
        coupling, trace = greedy_coupling_two_phase(
            [[0.5, 0.3, 0.2], [0.5, 0.3, 0.2]]
        )
        assert_close_entries(
            coupling.entries, {(1, 1): 0.5, (2, 2): 0.3, (3, 3): 0.2}
        )
        assert trace.phase_boundary == len(trace.steps) + 1

    def test_two_phase_records_zero_mass_rounds(self):
        # second sweep round finds both marginals empty at state 2
        coupling, trace = greedy_coupling_two_phase([[1.0, 0.0], [1.0, 0.0]])
        assert_close_entries(coupling.entries, {(1, 1): 1.0})
        assert len(trace.steps) == 2
        assert trace.steps[1].mass == 0.0
        assert trace.positive_steps() == trace.steps[:1]

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_mass_exactly_eps_zero_is_snapped(self, solver):
        # a state holding exactly EPS_ZERO is dust, not a coupling cell
        coupling, _ = solver([[0.5, 0.5], [1.0 - EPS_ZERO, EPS_ZERO]])
        assert set(coupling.entries) == {(1, 1), (2, 1)}

    def test_single_state_marginals(self):
        coupling, trace = greedy_coupling([[1.0], [1.0]])
        assert_close_entries(coupling.entries, {(1, 1): 1.0})
        assert len(trace) == 1


class TestErrors:
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_ragged_lengths(self, solver):
        with pytest.raises(DimensionError):
            solver([[0.5, 0.5], [0.3, 0.3, 0.4]])

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_invalid_marginal(self, solver):
        with pytest.raises(DomainError):
            solver([[0.5, 0.4], [0.5, 0.5]])

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_single_marginal(self, solver):
        with pytest.raises(DomainError):
            solver([[0.5, 0.5]])


class TestSolverInvariants:
    @pytest.mark.parametrize("solver", SOLVERS)
    @given(family=marginal_families())
    @settings(max_examples=120, deadline=None)
    def test_marginals_are_reproduced(self, solver, family):
        coupling, _ = solver(family)
        for axis, target in enumerate(family, start=1):
            implied = marginalize(coupling, axis)
            assert implied == pytest.approx(target, abs=1e-9)

    @pytest.mark.parametrize("solver", SOLVERS)
    @given(family=marginal_families())
    @settings(max_examples=120, deadline=None)
    def test_step_bound_and_no_duplicates(self, solver, family):
        m, n = len(family), len(family[0])
        coupling, trace = solver(family)
        assert len(trace.steps) <= n * m - m + 1
        tuples = [s.chosen_tuple for s in trace.steps]
        assert len(tuples) == len(set(tuples))
        assert coupling.num_entries <= n * m - m + 1

    @pytest.mark.parametrize("solver", SOLVERS)
    @given(family=marginal_families())
    @settings(max_examples=100, deadline=None)
    def test_entropy_at_least_worst_marginal(self, solver, family):
        coupling, _ = solver(family)
        lower = max(extended_entropy(p) for p in family)
        assert extended_entropy(coupling) >= lower - 1e-9

    @pytest.mark.parametrize("solver", SOLVERS)
    @given(family=marginal_families())
    @settings(max_examples=100, deadline=None)
    def test_each_step_saturates_something(self, solver, family):
        _, trace = solver(family)
        for step in trace.steps:
            assert step.saturated_axes

    @pytest.mark.parametrize("solver", SOLVERS)
    @given(family=marginal_families())
    @settings(max_examples=100, deadline=None)
    def test_some_axis_never_reselected_later(self, solver, family):
        # one chosen slot per step stays untouched for the rest of the run
        _, trace = solver(family)
        steps = trace.steps
        for t, step in enumerate(steps):
            later = steps[t + 1 :]
            assert any(
                all(
                    other.chosen_tuple[axis] != state
                    for other in later
                )
                for axis, state in enumerate(step.chosen_tuple)
            )

    @pytest.mark.parametrize("solver", SOLVERS)
    @given(family=marginal_families())
    @settings(max_examples=60, deadline=None)
    def test_deterministic(self, solver, family):
        first_coupling, first_trace = solver(family)
        second_coupling, second_trace = solver(family)
        assert first_coupling == second_coupling
        assert first_trace == second_trace

    @pytest.mark.parametrize("solver", SOLVERS)
    @given(family=marginal_families())
    @settings(max_examples=100, deadline=None)
    def test_masses_positive_and_total_one(self, solver, family):
        coupling, _ = solver(family)
        assert all(v > 0 for v in coupling.masses())
        assert math.fsum(coupling.masses()) == pytest.approx(1.0, abs=1e-9)

    @given(family=marginal_families())
    @settings(max_examples=60, deadline=None)
    def test_trace_masses_shrink_residual(self, family):
        # assigned masses account for all probability mass exactly once
        _, trace = greedy_coupling(family)
        remaining = 1.0
        for step in trace.steps:
            assert step.mass > 0
            assert step.mass <= remaining + 1e-9
            remaining -= step.mass
        assert remaining == pytest.approx(0.0, abs=1e-9)
