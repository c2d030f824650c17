"""The record a ``GreedyTrace`` keeps, and the paths that never read its steps.

Solvers write one ``(cell, mass)`` pair and one closed-axes bitmask per
step; ``GreedyStep`` objects are built from that record only when
``trace.steps`` is read. Solving, certifying, bounding, the oracle and
``infer`` need only the record, so on those paths no trace may build its
steps.
"""

import gc
import io
import json
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minent import (
    GreedyStep,
    GreedyTrace,
    JointObservation,
    certify_local_optimum,
    exact_min_entropy_2var,
    greedy_coupling,
    greedy_coupling_two_phase,
    infer_direction,
)
from minent.cli import _load_marginals, _load_run_file, _mass_text, main
from minent.core import coerce_marginals

from conftest import marginal_families, tied_and_tiny_families
from reference_greedy import trace_from_steps

SOLVERS = [greedy_coupling, greedy_coupling_two_phase]
FAMILIES = st.one_of(marginal_families(), tied_and_tiny_families())


class TestRecord:
    @pytest.mark.parametrize("solver", SOLVERS)
    @given(family=FAMILIES)
    @settings(max_examples=80, deadline=None)
    def test_record_restates_the_steps(self, solver, family):
        coupling, trace = solver(family)
        assert "steps" not in vars(trace)
        steps = trace.steps
        assert trace.iterations == tuple(range(1, len(steps) + 1))
        assert trace.assignments == tuple((s.chosen_tuple, s.mass) for s in steps)
        assert all(type(mask) is int for mask in trace.closed)
        assert [sorted(s.saturated_axes) for s in steps] == list(trace.saturated_pairs())
        for step, mask in zip(steps, trace.closed):
            assert mask == sum(1 << (axis - 1) for axis, _ in step.saturated_axes)
        positive = [pair for pair in trace.assignments if pair[1] > 0.0]
        assert tuple(positive) == coupling.assignment_order
        rebuilt = trace_from_steps(steps, trace.phase_boundary)
        assert rebuilt == trace
        assert rebuilt.steps == steps

    @given(family=FAMILIES)
    @settings(max_examples=40, deadline=None)
    def test_update_loop_shares_the_coupling_pairs(self, family):
        # the coupling stores its entries alone; its order is the trace's
        # positive steps, by construction
        for solver in SOLVERS:
            coupling, trace = solver(family)
            assert "assignment_order" not in vars(coupling)
            positive = tuple(pair for pair in trace.assignments if pair[1] > 0.0)
            assert positive == coupling.assignment_order

    def test_steps_built_on_each_read_and_not_kept(self):
        _, trace = greedy_coupling_two_phase([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3]])
        assert trace.steps == trace.steps
        assert "steps" not in vars(trace)
        assert trace.positive_steps() == tuple(s for s in trace.steps if s.mass > 0.0)

    def test_worked_record(self):
        _, trace = greedy_coupling([[0.6, 0.4], [0.5, 0.5]])
        assert [cell for cell, _ in trace.assignments] == [(1, 1), (2, 2), (1, 2)]
        # step 1 closes axis 2, step 2 axis 1, step 3 both
        assert trace.closed == (0b10, 0b01, 0b11)
        assert list(trace.saturated_pairs()) == [[(2, 1)], [(1, 2)], [(1, 1), (2, 2)]]

    def test_hand_built_trace(self):
        trace = GreedyTrace((((1, 2, 3), 0.5), ((2, 1, 1), 0.0)), (0b101, 0), (7, 9), 2)
        assert trace.steps == (
            GreedyStep(7, (1, 2, 3), 0.5, frozenset({(1, 1), (3, 3)})),
            GreedyStep(9, (2, 1, 1), 0.0, frozenset()),
        )
        assert trace.positive_steps() == trace.steps[:1]


class TestRunFileRecord:
    @pytest.mark.parametrize("alg", ["1", "2"])
    def test_reader_keeps_what_couple_wrote(self, tmp_path, alg):
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({"marginals": PROBLEM}), encoding="utf-8")
        text = _cli(["couple", str(problem), "--alg", alg, "--trace"])
        run = tmp_path / "run.json"
        run.write_text(text, encoding="utf-8")
        _, trace = _load_run_file(str(run), _load_marginals(str(problem)))
        written = json.loads(text)["trace"]
        assert trace.iterations == tuple(item["iteration"] for item in written)
        assert trace.assignments == tuple(
            (tuple(item["indices"]), item["mass"]) for item in written
        )
        assert list(trace.saturated_pairs()) == [
            [tuple(pair) for pair in item["saturated"]] for item in written
        ]
        assert trace.phase_boundary == json.loads(text).get("phase_boundary")

    @pytest.mark.parametrize("alg", ["1", "2"])
    @given(family=FAMILIES)
    @settings(max_examples=60, deadline=None)
    def test_reader_keeps_the_solver_record(self, alg, family):
        # ties and dust give steps that close several axes at once
        _, trace = SOLVERS[int(alg) - 1](family)
        text = _cli(["couple", "-", "--alg", alg, "--trace"], json.dumps({"marginals": family}))
        with tempfile.TemporaryDirectory() as tmp:
            run = Path(tmp) / "run.json"
            run.write_text(text, encoding="utf-8")
            _, read = _load_run_file(str(run), coerce_marginals(family))
        assert read.closed == trace.closed
        assert read.iterations == trace.iterations
        assert [cell for cell, _ in read.assignments] == [cell for cell, _ in trace.assignments]
        assert [mass for _, mass in read.assignments] == [
            float(_mass_text(mass)) for _, mass in trace.assignments
        ]
        assert read.phase_boundary == trace.phase_boundary

    def test_reader_drops_pairs_off_the_cell(self, tmp_path):
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({"marginals": [[0.6, 0.4], [0.5, 0.5]]}), encoding="utf-8")
        doc = json.loads(_cli(["couple", str(problem), "--alg", "1", "--trace"]))
        # step 3's cell is (1, 2): (1, 1.0) names its state on axis 1,
        # (2, 1) another state on axis 2, (3, 1) and (0, 1) no axis at all
        doc["trace"][2]["saturated"] = [[2, 1], [1, 1.0], [3, 1], [0, 1]]
        run = tmp_path / "run.json"
        run.write_text(json.dumps(doc), encoding="utf-8")
        _, trace = _load_run_file(str(run), _load_marginals(str(problem)))
        assert trace.closed[2] == 0b01
        assert list(trace.saturated_pairs())[2] == [(1, 1)]


@contextmanager
def steps_never_built(monkeypatch):
    """Every ``GreedyTrace`` made inside the block; reading ``steps`` fails.

    On leaving the block, none of them may have cached its steps and no
    ``GreedyStep`` may have outlived the work.
    """
    made = []
    init = GreedyTrace.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    def refuse(trace):
        raise AssertionError("GreedyTrace.steps read on a path that needs only the record")

    monkeypatch.setattr(GreedyTrace, "__init__", record)
    monkeypatch.setattr(GreedyTrace, "steps", property(refuse))
    before = _live_steps()
    yield made
    assert made, "the path made no trace, so it checked nothing"
    assert not any("steps" in vars(trace) for trace in made)
    assert _live_steps() == before


@pytest.fixture
def no_steps_built(monkeypatch):
    with steps_never_built(monkeypatch) as made:
        yield made


def _live_steps() -> int:
    gc.collect()
    return sum(type(obj) is GreedyStep for obj in gc.get_objects())


PROBLEM = [[0.5, 0.3, 0.2], [0.25, 0.25, 0.5]]


def _cli(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    real = sys.stdout, sys.stderr, sys.stdin
    sys.stdout, sys.stderr, sys.stdin = out, err, io.StringIO(stdin)
    try:
        code = main(argv)
    finally:
        sys.stdout, sys.stderr, sys.stdin = real
    assert code == 0, err.getvalue()
    return out.getvalue()


class TestHotPathsBuildNoSteps:
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_solve_and_certify(self, no_steps_built, solver):
        coupling, trace = solver(PROBLEM)
        certify_local_optimum(coupling, trace)

    def test_oracle(self, no_steps_built):
        exact_min_entropy_2var(PROBLEM[0], PROBLEM[1])

    def test_infer_direction(self, no_steps_built):
        infer_direction(JointObservation.from_matrix([[0.3, 0.1], [0.2, 0.4]]))

    @pytest.mark.parametrize(
        "argv",
        [
            ["couple", "-", "--alg", "1"],
            ["couple", "-", "--alg", "2"],
            ["certify", "-", "--alg", "1"],
            ["certify", "-", "--alg", "2"],
            ["bound", "-", "--alg", "1"],
            ["bound", "-", "--alg", "2"],
            ["bound", "-", "--oracle"],
        ],
    )
    def test_cli_on_a_problem(self, no_steps_built, argv):
        _cli(argv, json.dumps({"marginals": PROBLEM}))

    @pytest.mark.parametrize("alg", ["1", "2"])
    def test_certify_trace_in(self, tmp_path, monkeypatch, alg):
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({"marginals": PROBLEM}), encoding="utf-8")
        run = tmp_path / "run.json"
        run.write_text(_cli(["couple", str(problem), "--alg", alg, "--trace"]), encoding="utf-8")
        with steps_never_built(monkeypatch) as made:
            _cli(["certify", str(problem), "--trace-in", str(run)])
        assert len(made) == 1

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["infer", "-"], "0.3,0.1\n0.2,0.4\n"),
            (["infer", "-", "--samples"], "1,1\n1,2\n2,2\n2,2\n1,1\n"),
        ],
        ids=["matrix", "samples"],
    )
    def test_cli_infer(self, no_steps_built, argv, text):
        _cli(argv, text)
