import json
import math
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minent import EPS_MARG, EPS_ZERO, SparseCoupling, marginalize
from minent.cli import _MAX_DEPTH, _couple_text, _is_float, _json_text
from minent.core import coerce_marginals
from minent.greedy import SOLVERS

from conftest import marginal_families, tied_and_tiny_families
from reference_cli import couple_payload, reference_json_text
from replay_golden import replay
from test_certify import _doctored_growing_witnesses


# the least int magnitude that float() rejects; "1" + HUGE_DIGITS is a
# 401-digit int far beyond it
FLOAT_INT_LIMIT = 2**1024 - 2**970
HUGE_DIGITS = "0" * 400
# "1" + LONG_DIGITS is past Python's integer-string conversion limit, 4,300
# digits by default, whose message differs between 3.10 and 3.11
LONG_DIGITS = "0" * 5000
TOO_LONG = "JSON input holds an integer literal too long to convert"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def problem_file(tmp_path, marginals, name="problem.json"):
    return write(tmp_path, name, json.dumps({"marginals": marginals}))


class TestCouple:
    def test_json_input_alg1(self, tmp_path):
        path = problem_file(tmp_path, [[0.6, 0.4], [0.5, 0.5]])
        code, out, _ = replay({"argv": ["couple", path, "--alg", "1"]})
        assert code == 0
        doc = json.loads(out)
        assert len(doc["entries"]) == 3
        assert doc["entropy_bits"] == pytest.approx(1.360964047443681, abs=1e-9)
        assert doc["steps"] == 3
        assert "phase_boundary" not in doc

    def test_csv_input_alg2(self, tmp_path):
        path = write(tmp_path, "problem.csv", "0.6,0.4\n0.5,0.5\n")
        code, out, _ = replay({"argv": ["couple", path, "--alg", "2"]})
        assert code == 0
        doc = json.loads(out)
        assert doc["phase_boundary"] == 3

    def test_trivial_single_state(self, tmp_path):
        path = problem_file(tmp_path, [[1.0], [1.0]])
        code, out, _ = replay({"argv": ["couple", path]})
        assert code == 0
        doc = json.loads(out)
        assert doc["entries"] == [{"indices": [1, 1], "mass": 1.0}]
        assert doc["entropy_bits"] == 0.0

    def test_trace_flag(self, tmp_path):
        path = problem_file(tmp_path, [[0.6, 0.4], [0.5, 0.5]])
        code, out, _ = replay({"argv": ["couple", path, "--alg", "2", "--trace"]})
        doc = json.loads(out)
        assert code == 0
        assert len(doc["trace"]) == doc["steps"]
        first = doc["trace"][0]
        assert set(first) == {"iteration", "indices", "mass", "saturated"}

    def test_ragged_rows_exit_2(self, tmp_path):
        path = write(tmp_path, "bad.csv", "0.5,0.5\n0.2,0.3,0.5\n")
        code, _, err = replay({"argv": ["couple", path]})
        assert code == 2
        assert "lengths differ" in err

    def test_malformed_json_exit_2(self, tmp_path):
        path = write(tmp_path, "bad.json", "{not json")
        code, _, err = replay({"argv": ["couple", path]})
        assert code == 2

    def test_missing_file_exit_2(self):
        code, _, err = replay({"argv": ["couple", "/nonexistent/problem.json"]})
        assert code == 2


    def test_round_trip_marginals(self, tmp_path):
        marginals = [[0.6, 0.4], [0.5, 0.5]]
        path = problem_file(tmp_path, marginals)
        _, out, _ = replay({"argv": ["couple", path, "--alg", "2"]})
        doc = json.loads(out)
        entries = {
            tuple(item["indices"]): item["mass"] for item in doc["entries"]
        }
        coupling = SparseCoupling(2, (2, 2), entries)
        for axis, target in enumerate(marginals, start=1):
            assert marginalize(coupling, axis) == pytest.approx(
                target, abs=1e-9
            )

class TestCertify:
    def test_certifies_fresh_run(self, tmp_path):
        path = problem_file(tmp_path, [[0.6, 0.4], [0.5, 0.5]])
        code, out, _ = replay({"argv": ["certify", path, "--alg", "1"]})
        assert code == 0
        doc = json.loads(out)
        assert doc["local_optimum_certified"] is True
        assert doc["max_reconstruction_error"] < 1e-8
        assert doc["residual_norm"] < 1e-8

    def test_symmetric_instance_zero_witness(self, tmp_path):
        path = problem_file(tmp_path, [[0.5, 0.5], [0.5, 0.5]])
        code, out, _ = replay({"argv": ["certify", path]})
        assert code == 0
        doc = json.loads(out)
        assert doc["local_optimum_certified"] is True
        assert all(abs(v) < 1e-9 for vec in doc["u"] for v in vec)

    def test_trace_in_round_trip(self, tmp_path):
        path = problem_file(tmp_path, [[0.6, 0.4], [0.5, 0.5]])
        _, out, _ = replay({"argv": ["couple", path, "--alg", "2", "--trace"]})
        run_file = write(tmp_path, "run.json", out)
        code, out, _ = replay({"argv": ["certify", path, "--trace-in", run_file]})
        assert code == 0
        assert json.loads(out)["local_optimum_certified"] is True

    def test_tampered_trace_exit_3(self, tmp_path):
        path = problem_file(tmp_path, [[0.6, 0.4], [0.5, 0.5]])
        _, out, _ = replay({"argv": ["couple", path, "--alg", "2", "--trace"]})
        doc = json.loads(out)
        doc["trace"][1]["mass"] = 0.35  # no longer matches the entries
        run_file = write(tmp_path, "tampered.json", json.dumps(doc))
        code, out, _ = replay({"argv": ["certify", path, "--trace-in", run_file]})
        assert code == 3
        assert json.loads(out)["local_optimum_certified"] is False

    @pytest.mark.parametrize(
        "extra, iteration",
        [
            ({"indices": [7, 9], "mass": math.nan}, 9),
            ({"indices": [1, 1], "mass": -0.25}, 9),
            ({"indices": [3, 1], "mass": 0.0}, 9),
            ({"indices": [1], "mass": 0.0}, 9),
        ],
        ids=["nan-off-shape", "negative", "zero-off-shape", "zero-short-cell"],
    )
    def test_bad_step_off_the_coupling_exit_3(self, tmp_path, extra, iteration):
        path = problem_file(tmp_path, [[0.6, 0.4], [0.5, 0.5]])
        _, out, _ = replay({"argv": ["couple", path, "--alg", "2", "--trace"]})
        doc = json.loads(out)
        doc["trace"].append({"iteration": iteration, "saturated": [], **extra})
        doc["trace"].append({"iteration": 10, "indices": [1, 1], "mass": -0.25, "saturated": []})
        run_file = write(tmp_path, "doctored.json", json.dumps(doc))
        code, out, err = replay({"argv": ["certify", path, "--trace-in", run_file]})
        assert (code, err) == (3, "")
        doc = json.loads(out)
        assert doc["local_optimum_certified"] is False
        assert doc["reason"].startswith(f"step {iteration} assigns ")

    def test_zero_mass_step_in_shape_certifies(self, tmp_path):
        path = problem_file(tmp_path, [[0.6, 0.4], [0.5, 0.5]])
        _, out, _ = replay({"argv": ["couple", path, "--alg", "2", "--trace"]})
        expected = replay({"argv": ["certify", path, "--trace-in", write(tmp_path, "run.json", out)]})
        doc = json.loads(out)
        doc["trace"].append({"iteration": 9, "indices": [2, 2], "mass": -0.0, "saturated": []})
        run_file = write(tmp_path, "extra.json", json.dumps(doc))
        assert replay({"argv": ["certify", path, "--trace-in", run_file]}) == expected
        assert expected[0] == 0

    def test_infeasible_entries_exit_3(self, tmp_path):
        path = problem_file(tmp_path, [[0.6, 0.4], [0.5, 0.5]])
        _, out, _ = replay({"argv": ["couple", path, "--alg", "1", "--trace"]})
        doc = json.loads(out)
        # swap two masses consistently in entries and trace: still a valid
        # distribution, no longer a coupling of the inputs
        for section in ("entries", "trace"):
            items = doc[section]
            items[0]["mass"], items[1]["mass"] = items[1]["mass"], items[0]["mass"]
        run_file = write(tmp_path, "swapped.json", json.dumps(doc))
        code, out, _ = replay({"argv": ["certify", path, "--trace-in", run_file]})
        assert code == 3
        assert json.loads(out)["local_optimum_certified"] is False

    def test_reconstruction_error_exit_3_reports_both_diagnostics(self, tmp_path):
        # the trace's tiny mass is within the 1e-12 matching tolerance of
        # the entry's, yet rebuilds 27 % off it
        marginals = [[0.6, 0.4 - 3e-12, 3e-12], [0.5, 0.5 - 3e-12, 3e-12]]
        path = problem_file(tmp_path, marginals)
        _, out, _ = replay({"argv": ["couple", path, "--alg", "1", "--trace"]})
        doc = json.loads(out)
        (tiny,) = [item for item in doc["trace"] if item["mass"] == 3e-12]
        tiny["mass"] += 8e-13
        run_file = write(tmp_path, "run.json", json.dumps(doc))
        code, out, err = replay({"argv": ["certify", path, "--trace-in", run_file]})
        assert (code, err) == (3, "")
        assert json.loads(out) == {
            "local_optimum_certified": False,
            "reason": "mass reconstruction error 2.667e-01 of the mass exceeds 1e-08",
            "residual_norm": 0.0,
            "max_reconstruction_error": 8e-13,
        }

    @pytest.mark.parametrize("rows", [1500, 3000])
    def test_witnesses_past_the_float_range_exit_3(self, tmp_path, rows):
        # a hand-made run whose witnesses overflow; no NaN or Infinity,
        # which are not JSON, may reach stdout
        coupling, trace = _doctored_growing_witnesses(rows)
        axes = range(1, coupling.num_vars + 1)
        path = problem_file(tmp_path, [marginalize(coupling, axis) for axis in axes])
        run_file = write(tmp_path, "run.json", _couple_text(coupling, trace, True))
        code, out, err = replay({"argv": ["certify", path, "--trace-in", run_file]})
        assert (code, err) == (3, "")
        assert json.loads(out, parse_constant=_no_constant) == {
            "local_optimum_certified": False,
            "reason": "witness system residual is not a finite float",
        }


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def _renumber(steps, numbers):
    for item, number in zip(steps, numbers):
        item["iteration"] = number


class TestOddRunFiles:
    """What ``certify --trace-in`` makes of run files ``couple`` never writes.

    The certificate is read from the trace's cells and masses in trace
    order; ``iteration`` values only name steps in messages. Certify
    uses only the shape of the ``saturated`` pairs: the reader still
    turns them into the trace's ``closed`` bits, which certify never
    reads.
    """

    @pytest.mark.parametrize(
        "doctor",
        [
            lambda doc: _renumber(doc["trace"], [10, 20, 30]),
            lambda doc: _renumber(doc["trace"], [3, 2, 1]),
            lambda doc: _renumber(doc["trace"], [5, 5, 5]),
            lambda doc: _renumber(doc["trace"], [0, -4, 2**70]),
            lambda doc: [item.update(saturated=[[2, 9], [7, 1], [0, 0]]) for item in doc["trace"]],
            lambda doc: [item.update(saturated=[[1, 1], [1, 1]]) for item in doc["trace"]],
            lambda doc: doc["entries"].reverse(),
            lambda doc: doc["trace"].append({**doc["trace"][0], "iteration": 4, "mass": 0.0}),
        ],
        ids=["iterations-by-ten", "iterations-reversed", "iterations-repeated",
             "iterations-out-of-range", "saturated-off-the-cells", "saturated-repeated",
             "entries-reversed", "repeated-cell-with-zero-mass"],
    )
    def test_certifies_as_the_file_couple_wrote(self, tmp_path, doctor):
        path = problem_file(tmp_path, [[0.6, 0.4], [0.5, 0.5]])
        _, out, _ = replay({"argv": ["couple", path, "--alg", "2", "--trace"]})
        expected = replay({"argv": ["certify", path, "--trace-in", write(tmp_path, "run.json", out)]})
        doc = json.loads(out)
        doctor(doc)
        run_file = write(tmp_path, "odd.json", json.dumps(doc))
        assert replay({"argv": ["certify", path, "--trace-in", run_file]}) == expected
        assert expected[0] == 0

    @pytest.mark.parametrize("where", [0, 1, 3], ids=["first", "second", "last"])
    def test_repeated_positive_cell_exit_3(self, tmp_path, where):
        path = problem_file(tmp_path, [[0.6, 0.4], [0.5, 0.5]])
        _, out, _ = replay({"argv": ["couple", path, "--alg", "2", "--trace"]})
        doc = json.loads(out)
        doc["trace"].insert(where, dict(doc["trace"][0]))
        run_file = write(tmp_path, "odd.json", json.dumps(doc))
        reason = "trace does not match the coupling's entries"
        assert replay({"argv": ["certify", path, "--trace-in", run_file]}) == (
            3, '{\n  "local_optimum_certified": false,\n  "reason": "%s"\n}\n' % reason, ""
        )

    def test_dependent_step_named_by_its_own_iteration(self, tmp_path):
        # every cell of the 2x2 grid: the first step's slots are both used
        # again later, and the message names it as the file numbers it
        path = problem_file(tmp_path, [[0.5, 0.5], [0.5, 0.5]])
        cells = [(1, 1), (1, 2), (2, 1), (2, 2)]
        doc = {
            "entries": [{"indices": list(cell), "mass": 0.25} for cell in cells],
            "trace": [
                {"iteration": number, "indices": list(cell), "mass": 0.25, "saturated": []}
                for number, cell in zip((42, 17, 3, 8), cells)
            ],
        }
        run_file = write(tmp_path, "odd.json", json.dumps(doc))
        reason = "step 42 exhausts no slot that later steps leave alone; rows may be dependent"
        assert replay({"argv": ["certify", path, "--trace-in", run_file]}) == (
            3, '{\n  "local_optimum_certified": false,\n  "reason": "%s"\n}\n' % reason, ""
        )


class TestBound:
    def test_oracle_tightness_zero_on_worked_instance(self, tmp_path):
        path = problem_file(tmp_path, [[0.6, 0.4], [0.5, 0.5]])
        code, out, _ = replay({"argv": ["bound", path, "--alg", "1", "--oracle"]})
        assert code == 0
        doc = json.loads(out)
        assert doc["oracle"]["tightness"] == pytest.approx(0.0, abs=1e-9)
        assert doc["achieved"] == pytest.approx(1.360964047443681, abs=1e-9)

    def test_two_level_family_file(self, tmp_path):
        path = problem_file(
            tmp_path, [[0.25] * 4, [0.375, 0.375, 0.125, 0.125]]
        )
        code, out, _ = replay({"argv": ["bound", path, "--alg", "2"]})
        assert code == 0
        doc = json.loads(out)
        assert doc["achieved"] == pytest.approx(2.5, abs=1e-9)
        assert doc["residual_total"] == pytest.approx(0.25, abs=1e-9)
        assert doc["residual_entropies"] == pytest.approx([0.75, 0.75], abs=1e-9)

    def test_identical_marginals(self, tmp_path):
        path = problem_file(tmp_path, [[0.3, 0.7], [0.3, 0.7]])
        code, out, _ = replay({"argv": ["bound", path]})
        doc = json.loads(out)
        assert doc["residual_total"] == 0.0
        assert doc["slack"] == pytest.approx(1.0, abs=1e-9)

    def test_oracle_needs_two_marginals(self, tmp_path):
        path = problem_file(tmp_path, [[0.5, 0.5]] * 3)
        code, _, err = replay({"argv": ["bound", path, "--oracle"]})
        assert code == 2
        assert "two marginals" in err

    def test_oracle_size_cap_exit_4(self, tmp_path):
        seventh = 1.0 / 7
        path = problem_file(tmp_path, [[seventh] * 7, [seventh] * 7])
        code, _, err = replay({"argv": ["bound", path, "--oracle"]})
        assert code == 4
        assert "cap" in err

    @pytest.mark.parametrize(
        "marginals,code,message",
        [
            ([[1.0 / 7] * 7] * 2, 4, "n=7 exceeds the enumeration cap 6"),
            ([[1e-4] * 10**4] * 2, 4, "n=10000 exceeds the enumeration cap 6"),
            ([[0.5, 0.5]] * 3, 2, "--oracle needs exactly two marginals"),
        ],
    )
    def test_oracle_rejects_before_solving(
        self, tmp_path, monkeypatch, marginals, code, message
    ):
        def unreachable(*args):
            raise AssertionError("solver ran before the oracle checks")

        for name in list(SOLVERS):
            monkeypatch.setitem(SOLVERS, name, unreachable)
        path = problem_file(tmp_path, marginals)
        got, out, err = replay({"argv": ["bound", path, "--alg", "2", "--oracle"]})
        assert (got, out) == (code, "")
        assert err == f"error: {message}\n"


class TestInfer:
    def test_matrix_input(self, tmp_path):
        path = write(tmp_path, "joint.csv", "0.3,0.1\n0.2,0.4\n")
        code, out, _ = replay({"argv": ["infer", path, "--solver", "alg1"]})
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "XtoY"
        assert doc["score_XtoY"] == pytest.approx(2.1596724699955354, abs=1e-9)
        assert doc["score_YtoX"] == pytest.approx(2.3709505944546687, abs=1e-9)

    def test_diagonal_joint_undecided(self, tmp_path):
        path = write(tmp_path, "joint.csv", "0.5,0\n0,0.5\n")
        code, out, _ = replay({"argv": ["infer", path]})
        assert code == 0
        assert json.loads(out)["verdict"] == "undecided"

    def test_samples_input(self, tmp_path):
        rows = "\n".join(["1,1"] * 40 + ["1,2"] * 10 + ["2,2"] * 50)
        path = write(tmp_path, "samples.csv", rows + "\n")
        code, out, _ = replay({"argv": ["infer", path, "--samples"]})
        assert code == 0
        doc = json.loads(out)
        assert doc["H_X"] == pytest.approx(1.0, abs=1e-9)

    def test_samples_skip_blank_rows(self, tmp_path):
        rows = ["1,1"] * 4 + ["1,2", "2,2"] * 3
        plain = write(tmp_path, "plain.csv", "\n".join(rows) + "\n")
        blank = write(tmp_path, "blank.csv", "\n ,\n".join(rows) + "\n\n")
        assert replay({"argv": ["infer", blank, "--samples"]}) == replay(
            {"argv": ["infer", plain, "--samples"]}
        )

    def test_samples_all_blank_exit_2(self, tmp_path):
        path = write(tmp_path, "samples.csv", "\n , \n\n")
        code, out, err = replay({"argv": ["infer", path, "--samples"]})
        assert (code, out, err) == (2, "", "error: no samples in input\n")

    def test_malformed_csv_exit_2(self, tmp_path):
        path = write(tmp_path, "joint.csv", "0.5,abc\n0,0.5\n")
        code, _, _ = replay({"argv": ["infer", path]})
        assert code == 2

    @pytest.mark.parametrize(
        "text, argv, shape",
        [
            ("0.5,0.5\n", [], "1x2"),
            ("0.5\n0.25\n0.25\n", [], "3x1"),
            ("0.5,0,0\n0.5,0,0\n", [], "2x1"),
            ("1,1\n1,2\n1,1\n", ["--samples"], "1x2"),
        ],
        ids=["one-row", "one-column", "pruned-to-one-column", "samples-one-x"],
    )
    def test_one_observed_state_exit_2(self, tmp_path, text, argv, shape):
        # these used to exit 2 with the solver's "need at least two marginals"
        path = write(tmp_path, "joint.csv", text)
        code, out, err = replay({"argv": ["infer", path, *argv]})
        assert (code, out) == (2, "")
        assert err.endswith(
            f"error: joint observation is {shape} after pruning; a causal direction "
            "needs at least two observed states of X and of Y\n"
        )

    @pytest.mark.parametrize(
        "text, kept, line",
        [
            ("0.5,0,0.2\n0.3,0,0\n", "0.5,0.2\n0.3,0\n", "X [], Y [2]; kept X [1, 2], Y [1, 3]"),
            ("0.5,0.2\n0,0\n0.3,0\n", "0.5,0.2\n0.3,0\n", "X [2], Y []; kept X [1, 3], Y [1, 2]"),
            (
                "0,0,0\n0.5,0,0.2\n0,0,0\n0.3,0,0\n",
                "0.5,0.2\n0.3,0\n",
                "X [1, 3], Y [2]; kept X [2, 4], Y [1, 3]",
            ),
        ],
        ids=["column", "row", "rows-and-column"],
    )
    def test_pruned_states_named_on_stderr(self, tmp_path, text, kept, line):
        # one line naming the pruned and the kept states, 1-based, in
        # place of Python's UserWarning with its source line
        code, out, err = replay({"argv": ["infer", write(tmp_path, "joint.csv", text)]})
        assert err == f"warning: pruned states with zero observed mass: {line}\n"
        # the report is that of the joint without the pruned states
        assert (code, out, "") == replay({"argv": ["infer", write(tmp_path, "kept.csv", kept)]})

    @pytest.mark.parametrize(
        "name, text",
        [
            ("joint.csv", "0.5,0.25\n0.25\n"),
            ("joint.json", '{"joint": [[0.5, 0.25], [0.25]]}'),
        ],
    )
    def test_ragged_joint_exit_2_naming_row_lengths(self, tmp_path, name, text):
        path = write(tmp_path, name, text)
        code, out, err = replay({"argv": ["infer", path]})
        assert (code, out, err) == (2, "", "error: joint row lengths differ: [2, 1]\n")

    def test_negative_entry_exit_2_naming_the_value(self, tmp_path):
        path = write(tmp_path, "joint.csv", "0.6,-0.1\n0.3,0.2\n")
        code, out, err = replay({"argv": ["infer", path]})
        assert (code, out, err) == (2, "", "error: negative probability -0.1 in joint\n")

    def test_margin_flag(self, tmp_path):
        path = write(tmp_path, "joint.csv", "0.3,0.1\n0.2,0.4\n")
        code, out, _ = replay({"argv": ["infer", path, "--margin", "1.0"]})
        assert code == 0
        assert json.loads(out)["verdict"] == "undecided"

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_margin_exit_2(self, tmp_path, token):
        path = write(tmp_path, "joint.csv", "0.3,0.1\n0.2,0.4\n")
        code, out, err = replay({"argv": ["infer", path, f"--margin={token}"]})
        assert code == 2
        assert out == ""
        assert f"margin has non-finite entry {token}" in err


class TestGenerate:
    def test_special_family(self):
        code, out, _ = replay(
            {"argv": ["generate", "--family", "special", "--n", "4", "--alpha", "1.5"]}
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["marginals"][0] == [0.25] * 4
        assert doc["marginals"][1] == [0.375, 0.375, 0.125, 0.125]
        assert doc["predicted_coupling_entropy_bits"] == pytest.approx(2.5)

    def test_special_family_requires_alpha(self):
        code, _, err = replay({"argv": ["generate", "--family", "special", "--n", "4"]})
        assert code == 2
        assert "alpha" in err

    def test_random_family_seeded(self):
        args = [
            "generate", "--family", "random", "--n", "3", "--m", "2",
            "--seed", "7",
        ]
        code, first, _ = replay({"argv": args})
        assert code == 0
        _, second, _ = replay({"argv": args})
        assert first == second
        doc = json.loads(first)
        assert len(doc["marginals"]) == 2
        for row in doc["marginals"]:
            assert sum(row) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--n", "0"], "--n must be at least 1, got 0"),
            (["--n", "-2"], "--n must be at least 1, got -2"),
            (["--n", "3", "--m", "1"], "--m must be at least 2, got 1"),
            (["--n", "3", "--m", "0"], "--m must be at least 2, got 0"),
            (["--n", "3", "--m", "-1"], "--m must be at least 2, got -1"),
        ],
    )
    def test_random_family_rejects_unusable_sizes(self, flags, message):
        code, out, err = replay({"argv": ["generate", "--family", "random", *flags]})
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("n, m", [(1, 2), (3, 2), (2, 4)])
    def test_random_family_feeds_couple(self, tmp_path, n, m):
        args = ["--family", "random", "--n", str(n), "--m", str(m)]
        code, out, _ = replay({"argv": ["generate", *args]})
        assert code == 0
        path = write(tmp_path, "generated.json", out)
        code, _, _ = replay({"argv": ["couple", path]})
        assert code == 0

    def test_generated_file_feeds_couple(self, tmp_path):
        code, out, _ = replay({"argv": ["generate", "--family", "special", "--n", "8", "--alpha", "1.25"]})
        path = write(tmp_path, "generated.json", out)
        code, out, _ = replay({"argv": ["couple", path, "--alg", "2"]})
        assert code == 0
        doc = json.loads(out)
        expected = 3.0 - 0.125 * math.log2(0.25) - 0.375 * math.log2(0.75)
        assert doc["entropy_bits"] == pytest.approx(expected, abs=1e-9)


class TestNonFiniteInput:
    @pytest.mark.parametrize("command", ["couple", "certify", "bound"])
    @pytest.mark.parametrize(
        "json_token, csv_token, shown",
        [("NaN", "nan", "nan"), ("Infinity", "inf", "inf"), ("-Infinity", "-inf", "-inf")],
    )
    def test_exit_2_naming_the_entry(self, tmp_path, command, json_token, csv_token, shown):
        files = [
            write(tmp_path, "p.json", f'{{"marginals": [[0.5, 0.5], [{json_token}, 1.0]]}}'),
            write(tmp_path, "p.csv", f"0.5,0.5\n{csv_token},1.0\n"),
        ]
        for path in files:
            code, out, err = replay({"argv": [command, path]})
            assert code == 2
            assert out == ""
            assert f"marginal has non-finite entry {shown} at position 1" in err

    def test_infer_exit_2(self, tmp_path):
        path = write(tmp_path, "joint.csv", "0.3,nan\n0.2,0.4\n")
        code, _, err = replay({"argv": ["infer", path]})
        assert code == 2
        assert "joint row 1 has non-finite entry nan at position 2" in err


class TestStrictCsvNumbers:
    """CSV cells are ASCII numbers: float() and int() would also read
    digit-group underscores and non-ASCII digits."""

    CELLS = ["0.2_5", "\u0660.\u0662\u0665", "\uff10.\uff12\uff15"]

    @pytest.mark.parametrize("cell", CELLS, ids=["underscore", "arabic-indic", "full-width"])
    @pytest.mark.parametrize("command", ["couple", "certify", "bound", "infer"])
    def test_matrix_cell_exit_2(self, tmp_path, command, cell):
        path = write(tmp_path, "p.csv", f"0.75,{cell}\n0.5,0.5\n")
        code, out, err = replay({"argv": [command, path]})
        assert (code, out) == (2, "")
        assert err == f"error: could not convert string to float: {cell!r}\n"

    @pytest.mark.parametrize(
        "cell", ["1_0", "\u0661", "\uff11", " 1_0 "],
        ids=["underscore", "arabic-indic", "full-width", "padded-underscore"],
    )
    def test_sample_cell_exit_2(self, tmp_path, cell):
        path = write(tmp_path, "samples.csv", f"1,2\n{cell},1\n2,2\n")
        code, out, err = replay({"argv": ["infer", path, "--samples"]})
        assert (code, out) == (2, "")
        assert err == f"error: invalid literal for int() with base 10: {cell!r}\n"

    def test_long_sample_label_exit_2(self, tmp_path):
        path = write(tmp_path, "samples.csv", f"1{LONG_DIGITS},1\n2,2\n")
        message = "error: sample label is an integer too long to convert\n"
        assert replay({"argv": ["infer", path, "--samples"]}) == (2, "", message)
        # the same digits and a letter are no number, which 3.10 and 3.11
        # word as past the limit; int() quotes 200 characters of the text
        path = write(tmp_path, "samples.csv", f" -1{LONG_DIGITS}x,1\n2,2\n")
        message = "error: invalid literal for int() with base 10: ' -1" + "0" * 196 + "\n"
        assert replay({"argv": ["infer", path, "--samples"]}) == (2, "", message)

    def test_long_option_integer_is_argparse_words(self):
        seed = f"1{LONG_DIGITS}"
        code, out, err = replay({"argv": ["generate", "--family", "random", "--n", "3", "--seed", seed]})
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument --seed: invalid int value: {seed!r}\n")

    def test_ascii_cells_read_as_before(self, tmp_path):
        plain = write(tmp_path, "plain.csv", "0.25,0.75\n0.5,0.5\n")
        padded = write(tmp_path, "padded.csv", " 0.25 ,\t0.75\n+0.5,5e-1\n")
        assert replay({"argv": ["couple", padded]}) == replay({"argv": ["couple", plain]})
        samples = write(tmp_path, "samples.csv", " 1 ,+2\n-1,1\n")
        code, _, _ = replay({"argv": ["infer", samples, "--samples"]})
        assert code == 0
        path = write(tmp_path, "bad.csv", "0.5, abc \n0,0.5\n")
        assert replay({"argv": ["infer", path]}) == (
            2, "", "error: could not convert string to float: ' abc '\n"
        )


class TestStrictOptionNumbers:
    """Numeric options follow the CSV rule: int() and float() would also
    read digit-group underscores and non-ASCII digits."""

    @pytest.mark.parametrize(
        "argv, option, kind, value",
        [
            (["generate", "--family", "special", "--n", "٣", "--alpha", "1.5"], "--n", "int", "٣"),
            (["generate", "--family", "random", "--n", "3", "--seed", "1_0"], "--seed", "int", "1_0"),
            (["generate", "--family", "random", "--n", "3", "--m", "２"], "--m", "int", "２"),
            (["generate", "--family", "special", "--n", "4", "--alpha", "1_5"], "--alpha", "float", "1_5"),
            (["generate", "--family", "special", "--n", "4", "--alpha", "١.٥"], "--alpha", "float", "١.٥"),
            (["infer", "{joint}", "--margin", "0.0_1"], "--margin", "float", "0.0_1"),
            (["infer", "{joint}", "--margin", " ０ "], "--margin", "float", " ０ "),
        ],
        ids=["n-arabic-indic", "seed-underscore", "m-full-width", "alpha-underscore",
             "alpha-arabic-indic", "margin-underscore", "margin-padded-full-width"],
    )
    def test_exit_2_as_argparse_words_it(self, tmp_path, argv, option, kind, value):
        joint = write(tmp_path, "joint.csv", "0.3,0.1\n0.2,0.4\n")
        code, out, err = replay({"argv": [a.format(joint=joint) for a in argv]})
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument {option}: invalid {kind} value: {value!r}\n")

    def test_ascii_values_read_as_before(self, tmp_path):
        code, out, _ = replay({"argv": ["generate", "--family", "special", "--n", " 4 ", "--alpha", "+1.5"]})
        assert code == 0
        assert replay({"argv": ["generate", "--family", "special", "--n", "4", "--alpha", "1.5"]})[1] == out
        code, out, _ = replay({"argv": ["generate", "--family", "random", "--n", "3", "--m", "+2", "--seed", "10"]})
        assert code == 0
        assert json.loads(out)["seed"] == 10
        joint = write(tmp_path, "joint.csv", "0.3,0.1\n0.2,0.4\n")
        assert replay({"argv": ["infer", joint, "--margin", "1e-1"]})[0] == 0


class TestOneIngestRule:
    SHIFTED = [[v * (1 - 9e-10) for v in (0.3, 0.7)], [v * (1 + 9e-10) for v in (0.3, 0.7)]]

    @pytest.mark.parametrize(
        "marginals, message",
        [
            ([[0.6, 0.4]], "need at least two marginals to couple"),
            ([[0.6, 0.4], [0.2, 0.3, 0.5]], "marginal lengths differ: [2, 3]"),
            (SHIFTED, "marginal totals differ: 0.9999999991 vs 1.0000000009"),
        ],
    )
    @pytest.mark.parametrize(
        "argv", [["couple"], ["certify"], ["bound"], ["certify", "--trace-in"]]
    )
    def test_exit_2_before_any_work(self, tmp_path, marginals, message, argv):
        # certify --trace-in used to exit 3 on one or ragged marginals, and
        # couple accepted shifted totals that certify then failed (exit 3)
        run = problem_file(tmp_path, [[0.6, 0.4], [0.5, 0.5]], name="ok.json")
        _, saved, _ = replay({"argv": ["couple", run, "--trace"]})
        run_file = write(tmp_path, "run.json", saved)
        path = problem_file(tmp_path, marginals)
        extra = [run_file] if argv[-1] == "--trace-in" else []
        code, out, err = replay({"argv": [argv[0], path, *argv[1:], *extra]})
        assert code == 2
        assert out == ""
        assert message in err


class TestByteOrderMark:
    """A leading U+FEFF, as Excel's "CSV UTF-8" writes, reads as if absent."""

    BOM = "\ufeff"
    WORKED_CSV = "0.6,0.4\n0.5,0.5\n"

    @pytest.mark.parametrize(
        "command, name, text",
        [
            ("couple", "problem.csv", WORKED_CSV),
            ("couple", "problem.json", '{"marginals": [[0.6, 0.4], [0.5, 0.5]]}'),
            ("infer", "joint.csv", "0.3,0.1\n0.2,0.4\n"),
        ],
    )
    def test_input_file(self, tmp_path, command, name, text):
        plain = replay({"argv": [command, write(tmp_path, name, text)]})
        marked = replay({"argv": [command, write(tmp_path, "bom-" + name, self.BOM + text)]})
        assert plain[0] == 0
        assert marked == plain

    def test_stdin(self):
        outputs = [
            replay({"argv": ["couple", "-", "--alg", "2"], "stdin": prefix + self.WORKED_CSV})
            for prefix in ("", self.BOM)
        ]
        assert outputs[0][0] == 0
        assert outputs[1] == outputs[0]

    def test_run_file(self, tmp_path):
        problem = write(tmp_path, "problem.csv", self.WORKED_CSV)
        _, run, _ = replay({"argv": ["couple", problem, "--trace"]})
        outputs = [
            replay({"argv": ["certify", problem, "--trace-in", write(tmp_path, name, text)]})
            for name, text in [("run.json", run), ("bom-run.json", self.BOM + run)]
        ]
        assert outputs[0][0] == 0
        assert outputs[1] == outputs[0]

    def test_only_one_mark_is_dropped(self, tmp_path):
        path = write(tmp_path, "problem.csv", self.BOM * 2 + self.WORKED_CSV)
        code, out, err = replay({"argv": ["couple", path]})
        assert (code, out) == (2, "")
        assert err == "error: could not convert string to float: '\\ufeff0.6'\n"


class TestMalformedShapes:
    """JSON of the wrong shape exits 2 naming the field, not with a traceback."""

    @pytest.mark.parametrize("command", ["couple", "certify", "bound"])
    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"marginals": [0.5, 0.5]}', "'marginals' item 1 is not a list"),
            ('{"marginals": [[0.5, 0.5], null]}', "'marginals' item 2 is not a list"),
            ('{"marginals": [[0.5, null], [0.5, 0.5]]}', "'marginals' item 1 item 2 is not a number"),
            ('{"marginals": 3}', "'marginals' is not a list"),
            # only JSON numbers are masses: not booleans, not numeric strings
            ('{"marginals": [[true, false], [0.5, 0.5]]}', "'marginals' item 1 item 1 is not a number"),
            ('{"marginals": [[0.5, 0.5], [1, false]]}', "'marginals' item 2 item 2 is not a number"),
            ('{"marginals": [["0.5", "0.5"], [0.5, 0.5]]}', "'marginals' item 1 item 1 is not a number"),
            # ints that float() rejects with OverflowError
            pytest.param(
                '{"marginals": [[1%s, 0.5], [0.5, 0.5]]}' % HUGE_DIGITS,
                "'marginals' item 1 item 1 is too large for a float",
                id="huge-int",
            ),
            pytest.param(
                '{"marginals": [[0.5, 0.5], [0.5, %d]]}' % -FLOAT_INT_LIMIT,
                "'marginals' item 2 item 2 is too large for a float",
                id="negative-int-at-limit",
            ),
            pytest.param(
                '{"marginals": [[1%s, 0.5], [0.5, 0.5]]}' % LONG_DIGITS,
                TOO_LONG,
                id="int-past-conversion-limit",
            ),
        ],
    )
    def test_marginals_exit_2(self, tmp_path, command, text, message):
        path = write(tmp_path, "bad.json", text)
        code, out, err = replay({"argv": [command, path]})
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_joint_exit_2(self, tmp_path):
        path = write(tmp_path, "joint.json", '{"joint": [[0.5, 0.5], 3]}')
        code, out, err = replay({"argv": ["infer", path]})
        assert (code, out, err) == (2, "", "error: 'joint' item 2 is not a list\n")

    @pytest.mark.parametrize("cell", ["true", "false", '"0.25"'])
    def test_joint_non_number_exit_2(self, tmp_path, cell):
        text = '{"joint": [[%s, 0.25], [0.25, 0.25]]}' % cell
        path = write(tmp_path, "joint.json", text)
        code, out, err = replay({"argv": ["infer", path]})
        assert (code, out, err) == (2, "", "error: 'joint' item 1 item 1 is not a number\n")

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"entries": 3, "trace": []}, "run file 'entries' is not a list"),
            ({"entries": [3], "trace": []}, "run file 'entries' item 1 is not an object"),
            (
                {"entries": [{"indices": None, "mass": 1.0}], "trace": []},
                "run file 'entries' item 1 field 'indices' is not a list",
            ),
            ({"entries": [], "trace": {"a": 1}}, "run file 'trace' is not a list"),
            (
                {"entries": [], "trace": [{"iteration": 1, "indices": [1, 1], "mass": 1.0, "saturated": [3]}]},
                "run file 'trace' item 1 field 'saturated' item 1 is not a list",
            ),
            (3, "run file needs both 'entries' and 'trace' fields"),
            (
                {"entries": [{"indices": [1, 1], "mass": True}], "trace": []},
                "run file 'entries' item 1 field 'mass' is not a number",
            ),
            (
                {"entries": [], "trace": [{"iteration": "1", "indices": [1, 1], "mass": 1.0}]},
                "run file 'trace' item 1 field 'iteration' is not a number",
            ),
            pytest.param(
                {"entries": [{"indices": [1, 1], "mass": 10**400}], "trace": []},
                "run file 'entries' item 1 field 'mass' is too large for a float",
                id="entry-mass-huge-int",
            ),
            pytest.param(
                {"entries": [], "trace": [{"iteration": 1, "indices": [1, 1], "mass": FLOAT_INT_LIMIT}]},
                "run file 'trace' item 1 field 'mass' is too large for a float",
                id="step-mass-int-at-limit",
            ),
        ],
    )
    def test_run_file_exit_2(self, tmp_path, doc, message):
        path = problem_file(tmp_path, [[0.6, 0.4], [0.5, 0.5]])
        run_file = write(tmp_path, "run.json", json.dumps(doc))
        code, out, err = replay({"argv": ["certify", path, "--trace-in", run_file]})
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_joint_huge_integer_exit_2(self, tmp_path):
        text = '{"joint": [[0.25, 0.25], [0.25, 1%s]]}' % HUGE_DIGITS
        path = write(tmp_path, "joint.json", text)
        code, out, err = replay({"argv": ["infer", path]})
        assert (code, out, err) == (2, "", "error: 'joint' item 2 item 2 is too large for a float\n")

    def test_run_file_index_past_the_int_conversion_limit_exit_2(self, tmp_path):
        path = problem_file(tmp_path, [[0.6, 0.4], [0.5, 0.5]])
        text = '{"entries": [{"indices": [1%s, 1], "mass": 1.0}], "trace": []}' % LONG_DIGITS
        run_file = write(tmp_path, "run.json", text)
        code, out, err = replay({"argv": ["certify", path, "--trace-in", run_file]})
        assert (code, out, err) == (2, "", f"error: {TOO_LONG}\n")

    def test_float_limit_is_where_float_overflows(self):
        for value in (FLOAT_INT_LIMIT - 1, 1 - FLOAT_INT_LIMIT):
            assert abs(float(value)) == sys.float_info.max
            assert _is_float(value)
        for value in (FLOAT_INT_LIMIT, -FLOAT_INT_LIMIT, 10**400):
            with pytest.raises(OverflowError):
                float(value)
            assert not _is_float(value)

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                {"entries": [{"indices": [1.7, 1.7], "mass": 1.0}], "trace": []},
                "run file 'entries' item 1 field 'indices' item 1 is not an integer",
            ),
            (
                {"entries": [], "trace": [{"iteration": 1.5, "indices": [1, 1], "mass": 1.0}]},
                "run file 'trace' item 1 field 'iteration' is not an integer",
            ),
            (
                {"entries": [], "trace": [{"iteration": 1, "indices": [1, 2.25], "mass": 1.0}]},
                "run file 'trace' item 1 field 'indices' item 2 is not an integer",
            ),
            (
                {"entries": [], "trace": [{"iteration": 1, "indices": [1, 1], "mass": 1.0, "saturated": [[1, 1.5]]}]},
                "run file 'trace' item 1 field 'saturated' item 1 item 2 is not an integer",
            ),
            (
                {"entries": [{"indices": [1, float("inf")], "mass": 1.0}], "trace": []},
                "run file 'entries' item 1 field 'indices' item 2 is not an integer",
            ),
        ],
    )
    def test_run_file_non_integral_exit_2(self, tmp_path, doc, message):
        path = problem_file(tmp_path, [[0.6, 0.4], [0.5, 0.5]])
        run_file = write(tmp_path, "run.json", json.dumps(doc))
        code, out, err = replay({"argv": ["certify", path, "--trace-in", run_file]})
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "doctor, message",
        [
            (lambda doc: doc["entries"][0].pop("mass"), "run file 'entries' item 1 lacks a 'mass' field"),
            (lambda doc: doc["entries"][2].pop("indices"), "run file 'entries' item 3 lacks a 'indices' field"),
            (lambda doc: doc["trace"][0].pop("indices"), "run file 'trace' item 1 lacks a 'indices' field"),
            (lambda doc: doc["trace"][1].pop("iteration"), "run file 'trace' item 2 lacks a 'iteration' field"),
            (lambda doc: doc["trace"][2].pop("mass"), "run file 'trace' item 3 lacks a 'mass' field"),
            (
                lambda doc: doc["trace"][0].update(saturated=[[1]]),
                "run file 'trace' item 1 field 'saturated' item 1 is not a pair",
            ),
            (
                lambda doc: doc["trace"][2].update(saturated=[[1, 1], [2, 2, 2]]),
                "run file 'trace' item 3 field 'saturated' item 2 is not a pair",
            ),
            (
                lambda doc: doc["trace"][2].update(saturated=[[1, 1], []]),
                "run file 'trace' item 3 field 'saturated' item 2 is not a pair",
            ),
        ],
        ids=["entry-mass", "entry-indices", "step-indices", "step-iteration", "step-mass",
             "short-pair", "long-pair", "empty-pair"],
    )
    def test_run_file_missing_field_or_malformed_pair_exit_2(self, tmp_path, doctor, message):
        # these used to exit 2 with a bare KeyError or an unpacking error
        path = problem_file(tmp_path, [[0.6, 0.4], [0.5, 0.5]])
        _, out, _ = replay({"argv": ["couple", path, "--alg", "2", "--trace"]})
        doc = json.loads(out)
        doctor(doc)
        run_file = write(tmp_path, "run.json", json.dumps(doc))
        code, out, err = replay({"argv": ["certify", path, "--trace-in", run_file]})
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "doctor, message",
        [
            (
                lambda doc: doc["entries"].append(dict(doc["entries"][0])),
                "run file 'entries' item 4 repeats the cell [1, 1]",
            ),
            (
                lambda doc: doc["entries"].insert(2, dict(doc["entries"][1])),
                "run file 'entries' item 3 repeats the cell [2, 2]",
            ),
            (lambda doc: doc.update(phase_boundary="x"), "run file 'phase_boundary' is not a number"),
            (lambda doc: doc.update(phase_boundary=True), "run file 'phase_boundary' is not a number"),
            (lambda doc: doc.update(phase_boundary=[3]), "run file 'phase_boundary' is not a number"),
            (lambda doc: doc.update(phase_boundary=2.5), "run file 'phase_boundary' is not an integer"),
        ],
        ids=["repeated-last", "repeated-inside", "boundary-string", "boundary-bool",
             "boundary-list", "boundary-fraction"],
    )
    def test_run_file_that_used_to_certify_exit_2(self, tmp_path, doctor, message):
        # a repeated cell was merged by dict() and an unchecked boundary
        # passed through, so each of these certified with exit 0
        path = problem_file(tmp_path, [[0.6, 0.4], [0.5, 0.5]])
        _, out, _ = replay({"argv": ["couple", path, "--alg", "2", "--trace"]})
        doc = json.loads(out)
        doctor(doc)
        run_file = write(tmp_path, "run.json", json.dumps(doc))
        code, out, err = replay({"argv": ["certify", path, "--trace-in", run_file]})
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "doctor",
        [
            lambda doc: [step.pop("saturated") for step in doc["trace"]],
            lambda doc: doc.update(phase_boundary=None),
            lambda doc: doc.update(phase_boundary=3.0),
        ],
        ids=["no-saturated", "null-boundary", "integral-float-boundary"],
    )
    def test_optional_run_file_fields_still_read(self, tmp_path, doctor):
        path = problem_file(tmp_path, [[0.6, 0.4], [0.5, 0.5]])
        _, out, _ = replay({"argv": ["couple", path, "--alg", "2", "--trace"]})
        expected = replay({"argv": ["certify", path, "--trace-in", write(tmp_path, "run.json", out)]})
        doc = json.loads(out)
        doctor(doc)
        run_file = write(tmp_path, "doctored.json", json.dumps(doc))
        assert replay({"argv": ["certify", path, "--trace-in", run_file]}) == expected
        assert expected[0] == 0

    def test_shifted_run_file_exit_2(self, tmp_path):
        # int() used to truncate every shifted index back to the original,
        # so this file certified with exit 0
        path = problem_file(tmp_path, [[0.6, 0.4], [0.5, 0.5]])
        _, out, _ = replay({"argv": ["couple", path, "--alg", "2", "--trace"]})
        doc = json.loads(out)
        for section in ("entries", "trace"):
            for item in doc[section]:
                item["indices"] = [i + 0.7 for i in item["indices"]]
        run_file = write(tmp_path, "shifted.json", json.dumps(doc))
        code, out, err = replay({"argv": ["certify", path, "--trace-in", run_file]})
        message = "run file 'entries' item 1 field 'indices' item 1 is not an integer"
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_integral_floats_still_read(self, tmp_path):
        path = problem_file(tmp_path, [[0.6, 0.4], [0.5, 0.5]])
        _, out, _ = replay({"argv": ["couple", path, "--alg", "2", "--trace"]})
        run_file = write(tmp_path, "run.json", out)
        expected = replay({"argv": ["certify", path, "--trace-in", run_file]})
        doc = json.loads(out)
        for section in ("entries", "trace"):
            for item in doc[section]:
                item["indices"] = [float(i) for i in item["indices"]]
                if "iteration" in item:
                    item["iteration"] = float(item["iteration"])
                    item["saturated"] = [[float(a), float(s)] for a, s in item["saturated"]]
        as_floats = write(tmp_path, "floats.json", json.dumps(doc))
        assert replay({"argv": ["certify", path, "--trace-in", as_floats]}) == expected
        assert expected[0] == 0


# Nested far past the depth that any interpreter's JSON parser follows:
# 3.10-3.12 stop near the recursion limit of 1,000, 3.13 near 10,000.
DEEP_LIST = "[" * 100_000 + "]" * 100_000
DEEP_OBJECT = '{"a": ' * 100_000 + "0" + "}" * 100_000
DEEP_ERROR = (2, "", "error: JSON input is nested too deeply to parse\n")


def _nest(depth):
    return "[" * depth + "]" * depth


class TestDeepNesting:
    """JSON nested too deeply to parse exits 2 with one message, not a traceback."""

    @pytest.mark.parametrize("command", ["couple", "certify", "bound"])
    @pytest.mark.parametrize("deep", [DEEP_LIST, DEEP_OBJECT], ids=["list", "object"])
    def test_problem_file_exit_2(self, tmp_path, command, deep):
        path = write(tmp_path, "deep.json", '{"marginals": %s}' % deep)
        assert replay({"argv": [command, path]}) == DEEP_ERROR

    def test_joint_exit_2(self, tmp_path):
        path = write(tmp_path, "deep.json", '{"joint": %s}' % DEEP_LIST)
        assert replay({"argv": ["infer", path]}) == DEEP_ERROR

    @pytest.mark.parametrize(
        "text", ['{"entries": %s, "trace": []}', '{"entries": [], "trace": %s}'],
        ids=["entries", "trace"],
    )
    def test_run_file_exit_2(self, tmp_path, text):
        path = problem_file(tmp_path, [[0.6, 0.4], [0.5, 0.5]])
        run_file = write(tmp_path, "run.json", text % DEEP_LIST)
        assert replay({"argv": ["certify", path, "--trace-in", run_file]}) == DEEP_ERROR

    def test_shallow_nesting_still_names_the_item(self, tmp_path):
        text = '{"marginals": [[%s], [0.5, 0.5]]}' % ("[" * 50 + "]" * 50)
        path = write(tmp_path, "nested.json", text)
        message = "error: 'marginals' item 1 item 1 is not a number\n"
        assert replay({"argv": ["couple", path]}) == (2, "", message)

    # Malformed text, cut off by a non-value after `depth` brackets: the
    # parser of 3.13 follows 2,000 levels to the error and 600 levels parse
    # to it on every interpreter, so the text read before the error is
    # measured. Brackets inside strings before it do not count.
    @pytest.mark.parametrize("depth", [_MAX_DEPTH - 1, _MAX_DEPTH, 600, 2000])
    def test_malformed_text_past_the_limit_exit_2(self, tmp_path, depth):
        past = depth + 1 > _MAX_DEPTH
        text = '{"marginals": ' + "[" * depth + "x"
        path = write(tmp_path, "deep.json", text)
        column = len(text)
        message = f"error: Expecting value: line 1 column {column} (char {column - 1})\n"
        assert replay({"argv": ["couple", path]}) == (DEEP_ERROR if past else (2, "", message))

    def test_closed_lists_do_not_nest(self, tmp_path):
        # 600 sibling lists, each closed before the next opens: the text
        # read before the error nests 3 deep, not 602
        text = '{"marginals": [' + "[0.5]," * 600 + "x"
        path = write(tmp_path, "siblings.json", text)
        message = "error: Expecting value: line 1 column 3616 (char 3615)\n"
        assert replay({"argv": ["couple", path]}) == (2, "", message)

    def test_brackets_in_strings_do_not_nest(self, tmp_path):
        text = '{"note": "\\"%s", "marginals": [[x' % ("[" * 600)
        path = write(tmp_path, "strings.json", text)
        code, _, err = replay({"argv": ["couple", path]})
        assert (code, err.startswith("error: Expecting value")) == (2, True)

    # Depths counting the document as 1: the CLI's limit, one past it, and
    # 700, which every interpreter's parser follows. Each where the shape
    # check fails on a nested item (marginals), and where it bounds nothing
    # (an unknown field of the problem file, an unknown key of a trace step).
    @pytest.mark.parametrize("depth", [_MAX_DEPTH, _MAX_DEPTH + 1, 700])
    def test_the_cli_limit_holds_on_every_path(self, tmp_path, depth):
        past = depth > _MAX_DEPTH
        path = write(tmp_path, "deep.json", '{"marginals": %s}' % _nest(depth - 1))
        message = "error: 'marginals' item 1 item 1 is not a number\n"
        assert replay({"argv": ["couple", path]}) == (DEEP_ERROR if past else (2, "", message))

        text = '{"marginals": [[0.6, 0.4], [0.5, 0.5]], "note": %s}' % _nest(depth - 1)
        path = write(tmp_path, "note.json", text)
        code, _, err = replay({"argv": ["couple", path]})
        assert (code, err) == ((2, DEEP_ERROR[2]) if past else (0, ""))

        path = problem_file(tmp_path, [[0.6, 0.4], [0.5, 0.5]])
        _, out, _ = replay({"argv": ["couple", path, "--alg", "2", "--trace"]})
        expected = replay({"argv": ["certify", path, "--trace-in", write(tmp_path, "run.json", out)]})
        doc = json.loads(out)
        doc["trace"][0]["note"] = "@"
        text = json.dumps(doc).replace('"@"', _nest(depth - 3))
        run_file = write(tmp_path, "noted.json", text)
        code, out, err = replay({"argv": ["certify", path, "--trace-in", run_file]})
        assert (code, out, err) == (DEEP_ERROR if past else expected)


# masses above EPS_ZERO that 12 significant digits round down to it
DUST_BAND = st.floats(
    min_value=EPS_ZERO, max_value=1.000000000005e-12, exclude_min=True, exclude_max=True
)


@st.composite
def dust_band_families(draw):
    """Marginals sharing a state whose mass lies in ``DUST_BAND``.

    Some sets repeat one marginal (ties everywhere), some shift one
    marginal's total by up to 0.6 * EPS_MARG, across the ingest limit of
    EPS_MARG / 2, and some hold a NaN or an infinity.
    """
    m = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=2, max_value=6))
    dust = draw(DUST_BAND)
    where = draw(st.integers(min_value=0, max_value=n - 1))
    repeat = draw(st.booleans())
    rows = []
    for _ in range(m):
        if repeat and rows:
            rows.append(list(rows[0]))
            continue
        raw = draw(st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=n - 1, max_size=n - 1))
        scale = (1.0 - dust) / math.fsum(raw)
        row = [v * scale for v in raw]
        row.insert(where, dust)
        rows.append(row)
    shift = draw(st.one_of(st.just(0.0), st.floats(-0.6 * EPS_MARG, 0.6 * EPS_MARG)))
    rows[-1] = [v * (1.0 + shift) for v in rows[-1]]
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        rows[0][draw(st.integers(min_value=0, max_value=n - 1))] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf])
        )
    return rows


class TestCoupleToCertify:
    """Every command accepts what ``couple`` accepts, or all reject it."""

    @pytest.mark.parametrize("alg", ["1", "2"])
    @given(rows=dust_band_families())
    @example(rows=[[0.5, 0.499999999999, 1.0000000000004e-12]] * 2)
    @settings(max_examples=150, deadline=None)
    def test_run_file_certifies_or_every_command_exits_2(self, alg, rows):
        with tempfile.TemporaryDirectory() as tmp:
            problem = Path(tmp) / "problem.json"
            problem.write_text(json.dumps({"marginals": rows}), encoding="utf-8")
            code, out, _ = replay({"argv": ["couple", str(problem), "--alg", alg, "--trace"]})
            if code == 2:
                for argv in (["certify", str(problem)], ["bound", str(problem)]):
                    assert replay({"argv": argv + ["--alg", alg]})[0] == 2
                return
            assert code == 0
            run = Path(tmp) / "run.json"
            run.write_text(out, encoding="utf-8")
            assert replay({"argv": ["certify", str(problem), "--trace-in", str(run)]})[0] == 0
            assert replay({"argv": ["certify", str(problem), "--alg", alg]})[0] == 0
            assert replay({"argv": ["bound", str(problem), "--alg", alg]})[0] == 0


json_floats = st.floats() | st.sampled_from(
    [-0.0, math.nan, math.inf, -math.inf, 5e-324, 2.5e-310, 1e300, 1e-5, 1e16, 0.1 + 0.2]
)
json_ints = st.integers() | st.sampled_from([-(2**63), 2**64, 10**40, -(10**40)])
json_strings = st.text() | st.sampled_from(
    ["", '"', "\\", 'a \\"quoted\\" \\\\ path', "\x00\x1f\x7f\n\t\r\b\f", "caf\u00e9 \u2264 \U0001f600 \ud800"]
)
json_values = st.recursive(
    st.none() | st.booleans() | json_ints | json_floats | json_strings,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(json_strings, inner, max_size=5),
    max_leaves=25,
)


class TestJsonWriter:
    """The CLI's writers print what rounding then json.dumps(indent=2) does."""

    @given(json_values)
    @example({"x": -0.0, "rows": [[], {}, ()], "flags": [True, False, None, 1]})
    @example(0.1 + 0.2)
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, value):
        assert _json_text(value) == reference_json_text(value)

    def test_rejects_what_json_rejects(self):
        with pytest.raises(TypeError):
            _json_text({"a": {1, 2}})

    @given(
        marginal_families(max_n=8) | tied_and_tiny_families(max_n=8),
        st.sampled_from(sorted(SOLVERS)),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_couple_writer_matches_reference(self, rows, solver, with_trace):
        coupling, trace = SOLVERS[solver](coerce_marginals(rows))
        payload = couple_payload(coupling, trace, with_trace)
        assert _couple_text(coupling, trace, with_trace) == reference_json_text(payload)


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("couple", "{path}", "--alg", "2", "--trace"),
            ("certify", "{path}", "--alg", "1"),
            ("bound", "{path}", "--alg", "2", "--oracle"),
        ],
    )
    def test_repeat_invocations_identical(self, tmp_path, argv):
        path = problem_file(tmp_path, [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3]])
        argv = [a.format(path=path) for a in argv]
        _, first, _ = replay({"argv": argv})
        _, second, _ = replay({"argv": argv})
        assert first == second

    def test_floats_capped_at_12_significant_digits(self, tmp_path):
        path = problem_file(tmp_path, [[0.6, 0.4], [0.5, 0.5]])
        _, out, _ = replay({"argv": ["couple", path, "--alg", "1"]})
        doc = json.loads(out)
        masses = sorted(item["mass"] for item in doc["entries"])
        assert masses == [0.1, 0.4, 0.5]  # 0.09999999999999998 rounds away
