import contextlib
import inspect
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_greedy
from minent import (
    EPS_MARG,
    EPS_ZERO,
    DimensionError,
    DomainError,
    GreedyStep,
    Marginal,
    bound_report,
    extended_entropy,
    greedy_coupling,
    greedy_coupling_two_phase,
    marginalize,
    special_family,
)
from minent import greedy
from minent.cli import main

from conftest import marginal_families, perturbed_families, tied_and_tiny_families

SOLVERS = [greedy_coupling, greedy_coupling_two_phase]
# each fast solver beside the argmax loop it replaced
REFERENCE_PAIRS = [
    (greedy_coupling, reference_greedy.greedy_coupling),
    (greedy_coupling_two_phase, reference_greedy.greedy_coupling_two_phase),
]


def solver_outcome(solver, family):
    """Everything a solver run exposes, or the type of what it raised."""
    try:
        coupling, trace = solver(family)
    except Exception as exc:  # the exception type is compared, not handled
        return type(exc)
    return trace.steps, trace.phase_boundary, coupling.assignment_order


def assert_close_entries(entries, expected, abs_tol=1e-9):
    assert set(entries) == set(expected)
    for tup, mass in expected.items():
        assert entries[tup] == pytest.approx(mass, abs=abs_tol)


class TestWorkedInstances:
    def test_identical_binary_marginals(self):
        coupling, trace = greedy_coupling([[0.5, 0.5], [0.5, 0.5]])
        assert_close_entries(coupling.entries, {(1, 1): 0.5, (2, 2): 0.5})
        assert extended_entropy(coupling) == pytest.approx(1.0, abs=1e-12)
        assert len(trace.steps) == 2

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
        assert len(trace.steps) == 3

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
        assert len(trace.steps) == 1


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

    def test_revisited_cell_is_caught_after_the_loops(self, monkeypatch):
        # no correct run revisits a cell; a sweep made to repeat one must
        # fail loudly, naming the cell, before any coupling is built, while
        # a zero-mass step at a cell the coupling holds is no revisit
        sweep = greedy._sweep

        def repeating_sweep(resid, closed):
            pairs = sweep(resid, closed)
            return pairs + [(pairs[1][0], 0.0), pairs[0]]

        monkeypatch.setattr(greedy, "_sweep", repeating_sweep)
        with pytest.raises(RuntimeError, match=r"^greedy solver revisited cell \(1, 1\)$"):
            greedy_coupling_two_phase([[0.6, 0.4], [0.5, 0.5]])

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_step_bound_is_enforced(self, monkeypatch, solver):
        # with no residual ever closing, the update loop would run forever
        monkeypatch.setattr(greedy, "EPS_ZERO", -1.0)
        message = r"^greedy solver exceeded the 3-step bound for n=2, m=2$"
        with pytest.raises(RuntimeError, match=message):
            solver([[0.6, 0.4], [0.5, 0.5]])


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
        assert all(v > 0 for v in coupling.entries.values())
        assert math.fsum(coupling.entries.values()) == pytest.approx(1.0, abs=1e-9)

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


class TestAgainstReference:
    @pytest.mark.parametrize("fast, reference", REFERENCE_PAIRS)
    @given(family=perturbed_families())
    @settings(max_examples=300, deadline=None)
    def test_same_trace_as_argmax_loop(self, fast, reference, family):
        # steps (with saturated_axes), phase boundary, assignment order and
        # any raised exception type all match the loop the solvers replaced
        assert solver_outcome(fast, family) == solver_outcome(reference, family)

    @pytest.mark.parametrize("fast, reference", REFERENCE_PAIRS)
    @given(family=perturbed_families(max_m=10, min_n=9, max_n=64))
    @settings(max_examples=40, deadline=None)
    def test_same_trace_at_larger_sizes(self, fast, reference, family):
        # heaps of up to 64 states and up to 10 marginals, as the solvers
        # meet them on large inputs
        assert solver_outcome(fast, family) == solver_outcome(reference, family)

    @pytest.mark.parametrize("fast, reference", REFERENCE_PAIRS)
    @pytest.mark.parametrize("n", [8, 64, 512])
    def test_same_trace_on_special_family(self, fast, reference, n):
        # every state of each marginal ties with its half, so each step's
        # picks rest on the lowest-state tie rule
        uniform, skewed, _, _ = special_family(n, 1.5)
        family = [uniform, skewed]
        assert solver_outcome(fast, family) == solver_outcome(reference, family)

    @given(family=marginal_families(min_n=1, max_n=8))
    @settings(max_examples=150, deadline=None)
    def test_sweep_masses_are_pointwise_min(self, family):
        # with no entry at or below EPS_ZERO nothing is snapped before the
        # sweep, so its masses are the bound report's pointwise minimum
        _, trace = greedy_coupling_two_phase(family)
        sweep = [s.mass for s in trace.steps[: trace.phase_boundary - 1]]
        assert sweep == list(bound_report(family).pointwise_min)


class TestGreedyStepContract:
    STEP = GreedyStep(1, (1, 2), 0.5, frozenset({(1, 2)}))

    def test_fields_in_order(self):
        fields = ["iteration", "chosen_tuple", "mass", "saturated_axes"]
        assert list(inspect.signature(GreedyStep).parameters) == fields
        assert list(GreedyStep._fields) == fields

    @pytest.mark.parametrize("solver", SOLVERS)
    @given(family=st.one_of(marginal_families(), tied_and_tiny_families()))
    @settings(max_examples=60, deadline=None)
    def test_solver_steps_hold_exact_types(self, solver, family):
        _, trace = solver(family)
        for step in trace.steps:
            assert type(step) is GreedyStep
            assert type(step.iteration) is int
            assert type(step.chosen_tuple) is tuple
            assert all(type(state) is int for state in step.chosen_tuple)
            assert type(step.mass) is float
            assert type(step.saturated_axes) is frozenset
            for pair in step.saturated_axes:
                assert type(pair) is tuple and len(pair) == 2
                assert all(type(v) is int for v in pair)

    @pytest.mark.parametrize("name", ["iteration", "chosen_tuple", "mass", "saturated_axes"])
    def test_fields_cannot_be_assigned(self, name):
        with pytest.raises(AttributeError):
            setattr(self.STEP, name, None)

    def test_keyword_construction(self):
        step = GreedyStep(
            iteration=1, chosen_tuple=(1, 2), mass=0.5, saturated_axes=frozenset({(1, 2)})
        )
        assert step == self.STEP
        assert (step.iteration, step.chosen_tuple, step.mass) == (1, (1, 2), 0.5)

    def test_repr(self):
        assert repr(self.STEP) == (
            "GreedyStep(iteration=1, chosen_tuple=(1, 2), mass=0.5, "
            "saturated_axes=frozenset({(1, 2)}))"
        )


def cli_exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ) as err:
        code = main(argv)
    return code, err.getvalue()


class TestUnequalTotals:
    @given(family=perturbed_families())
    @settings(max_examples=200, deadline=None)
    def test_reproduced_or_rejected_everywhere(self, family):
        totals = [math.fsum(row) for row in family]
        if max(totals) - min(totals) <= EPS_MARG / 2:
            for solver in SOLVERS:
                coupling, _ = solver(family)
                for axis, target in enumerate(family, start=1):
                    implied = marginalize(coupling, axis)
                    assert max(abs(a - b) for a, b in zip(implied, target)) <= EPS_MARG
            return
        for solver in SOLVERS:
            with pytest.raises(DomainError, match="totals differ"):
                solver(family)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "problem.json"
            path.write_text(json.dumps({"marginals": family}), encoding="utf-8")
            for command in ("couple", "certify", "bound"):
                code, err = cli_exit_code([command, str(path)])
                assert code == 2
                assert "totals differ" in err

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_opposite_shifts_rejected_naming_both_totals(self, solver):
        p = [0.3, 0.7]
        low = [v * (1 - 9e-10) for v in p]
        high = [v * (1 + 9e-10) for v in p]
        with pytest.raises(DomainError) as info:
            solver([low, high])
        message = str(info.value)
        assert repr(math.fsum(low)) in message
        assert repr(math.fsum(high)) in message
