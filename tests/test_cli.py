import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minent import Marginal, SparseCoupling, marginalize
from minent.cli import _json_text, main
from minent.greedy import SOLVERS

from reference_cli import reference_json_text


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def problem_file(tmp_path, marginals, name="problem.json"):
    return write(tmp_path, name, json.dumps({"marginals": marginals}))


class TestCouple:
    def test_json_input_alg1(self, tmp_path, capsys):
        path = problem_file(tmp_path, [[0.6, 0.4], [0.5, 0.5]])
        code, out, _ = run_cli(capsys, "couple", path, "--alg", "1")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["entries"]) == 3
        assert doc["entropy_bits"] == pytest.approx(1.360964047443681, abs=1e-9)
        assert doc["steps"] == 3
        assert "phase_boundary" not in doc

    def test_csv_input_alg2(self, tmp_path, capsys):
        path = write(tmp_path, "problem.csv", "0.6,0.4\n0.5,0.5\n")
        code, out, _ = run_cli(capsys, "couple", path, "--alg", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["phase_boundary"] == 3

    def test_trivial_single_state(self, tmp_path, capsys):
        path = problem_file(tmp_path, [[1.0], [1.0]])
        code, out, _ = run_cli(capsys, "couple", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["entries"] == [{"indices": [1, 1], "mass": 1.0}]
        assert doc["entropy_bits"] == 0.0

    def test_trace_flag(self, tmp_path, capsys):
        path = problem_file(tmp_path, [[0.6, 0.4], [0.5, 0.5]])
        code, out, _ = run_cli(capsys, "couple", path, "--alg", "2", "--trace")
        doc = json.loads(out)
        assert code == 0
        assert len(doc["trace"]) == doc["steps"]
        first = doc["trace"][0]
        assert set(first) == {"iteration", "indices", "mass", "saturated"}

    def test_ragged_rows_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "bad.csv", "0.5,0.5\n0.2,0.3,0.5\n")
        code, _, err = run_cli(capsys, "couple", path)
        assert code == 2
        assert "lengths differ" in err

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", "{not json")
        code, _, err = run_cli(capsys, "couple", path)
        assert code == 2

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "couple", "/nonexistent/problem.json")
        assert code == 2

    def test_round_trip_marginals(self, tmp_path, capsys):
        marginals = [[0.6, 0.4], [0.5, 0.5]]
        path = problem_file(tmp_path, marginals)
        _, out, _ = run_cli(capsys, "couple", path, "--alg", "2")
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
    def test_certifies_fresh_run(self, tmp_path, capsys):
        path = problem_file(tmp_path, [[0.6, 0.4], [0.5, 0.5]])
        code, out, _ = run_cli(capsys, "certify", path, "--alg", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["local_optimum_certified"] is True
        assert doc["max_reconstruction_error"] < 1e-8
        assert doc["residual_norm"] < 1e-8

    def test_symmetric_instance_zero_witness(self, tmp_path, capsys):
        path = problem_file(tmp_path, [[0.5, 0.5], [0.5, 0.5]])
        code, out, _ = run_cli(capsys, "certify", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["local_optimum_certified"] is True
        assert all(abs(v) < 1e-9 for vec in doc["u"] for v in vec)

    def test_trace_in_round_trip(self, tmp_path, capsys):
        path = problem_file(tmp_path, [[0.6, 0.4], [0.5, 0.5]])
        _, out, _ = run_cli(capsys, "couple", path, "--alg", "2", "--trace")
        run_file = write(tmp_path, "run.json", out)
        code, out, _ = run_cli(
            capsys, "certify", path, "--trace-in", run_file
        )
        assert code == 0
        assert json.loads(out)["local_optimum_certified"] is True

    def test_tampered_trace_exit_3(self, tmp_path, capsys):
        path = problem_file(tmp_path, [[0.6, 0.4], [0.5, 0.5]])
        _, out, _ = run_cli(capsys, "couple", path, "--alg", "2", "--trace")
        doc = json.loads(out)
        doc["trace"][1]["mass"] = 0.35  # no longer matches the entries
        run_file = write(tmp_path, "tampered.json", json.dumps(doc))
        code, out, _ = run_cli(capsys, "certify", path, "--trace-in", run_file)
        assert code == 3
        assert json.loads(out)["local_optimum_certified"] is False

    def test_infeasible_entries_exit_3(self, tmp_path, capsys):
        path = problem_file(tmp_path, [[0.6, 0.4], [0.5, 0.5]])
        _, out, _ = run_cli(capsys, "couple", path, "--alg", "1", "--trace")
        doc = json.loads(out)
        # swap two masses consistently in entries and trace: still a valid
        # distribution, no longer a coupling of the inputs
        for section in ("entries", "trace"):
            items = doc[section]
            items[0]["mass"], items[1]["mass"] = items[1]["mass"], items[0]["mass"]
        run_file = write(tmp_path, "swapped.json", json.dumps(doc))
        code, out, _ = run_cli(capsys, "certify", path, "--trace-in", run_file)
        assert code == 3
        assert json.loads(out)["local_optimum_certified"] is False


class TestBound:
    def test_oracle_tightness_zero_on_worked_instance(self, tmp_path, capsys):
        path = problem_file(tmp_path, [[0.6, 0.4], [0.5, 0.5]])
        code, out, _ = run_cli(capsys, "bound", path, "--alg", "1", "--oracle")
        assert code == 0
        doc = json.loads(out)
        assert doc["oracle"]["tightness"] == pytest.approx(0.0, abs=1e-9)
        assert doc["achieved"] == pytest.approx(1.360964047443681, abs=1e-9)

    def test_two_level_family_file(self, tmp_path, capsys):
        path = problem_file(
            tmp_path, [[0.25] * 4, [0.375, 0.375, 0.125, 0.125]]
        )
        code, out, _ = run_cli(capsys, "bound", path, "--alg", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["achieved"] == pytest.approx(2.5, abs=1e-9)
        assert doc["residual_total"] == pytest.approx(0.25, abs=1e-9)
        assert doc["residual_entropies"] == pytest.approx([0.75, 0.75], abs=1e-9)

    def test_identical_marginals(self, tmp_path, capsys):
        path = problem_file(tmp_path, [[0.3, 0.7], [0.3, 0.7]])
        code, out, _ = run_cli(capsys, "bound", path)
        doc = json.loads(out)
        assert doc["residual_total"] == 0.0
        assert doc["slack"] == pytest.approx(1.0, abs=1e-9)

    def test_oracle_needs_two_marginals(self, tmp_path, capsys):
        path = problem_file(tmp_path, [[0.5, 0.5]] * 3)
        code, _, err = run_cli(capsys, "bound", path, "--oracle")
        assert code == 2
        assert "two marginals" in err

    def test_oracle_size_cap_exit_4(self, tmp_path, capsys):
        sixth = 1.0 / 6
        path = problem_file(tmp_path, [[sixth] * 6, [sixth] * 6])
        code, _, err = run_cli(capsys, "bound", path, "--oracle")
        assert code == 4
        assert "cap" in err

    @pytest.mark.parametrize(
        "marginals,code,message",
        [
            ([[1.0 / 6] * 6] * 2, 4, "n=6 exceeds the enumeration cap 5"),
            ([[1e-4] * 10**4] * 2, 4, "n=10000 exceeds the enumeration cap 5"),
            ([[0.5, 0.5]] * 3, 2, "--oracle needs exactly two marginals"),
        ],
    )
    def test_oracle_rejects_before_solving(
        self, tmp_path, capsys, monkeypatch, marginals, code, message
    ):
        def unreachable(*args):
            raise AssertionError("solver ran before the oracle checks")

        for name in list(SOLVERS):
            monkeypatch.setitem(SOLVERS, name, unreachable)
        path = problem_file(tmp_path, marginals)
        got, out, err = run_cli(capsys, "bound", path, "--alg", "2", "--oracle")
        assert (got, out) == (code, "")
        assert err == f"error: {message}\n"


class TestInfer:
    def test_matrix_input(self, tmp_path, capsys):
        path = write(tmp_path, "joint.csv", "0.3,0.1\n0.2,0.4\n")
        code, out, _ = run_cli(capsys, "infer", path, "--solver", "alg1")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "XtoY"
        assert doc["score_XtoY"] == pytest.approx(2.1596724699955354, abs=1e-9)
        assert doc["score_YtoX"] == pytest.approx(2.3709505944546687, abs=1e-9)

    def test_diagonal_joint_undecided(self, tmp_path, capsys):
        path = write(tmp_path, "joint.csv", "0.5,0\n0,0.5\n")
        code, out, _ = run_cli(capsys, "infer", path)
        assert code == 0
        assert json.loads(out)["verdict"] == "undecided"

    def test_samples_input(self, tmp_path, capsys):
        rows = "\n".join(["1,1"] * 40 + ["1,2"] * 10 + ["2,2"] * 50)
        path = write(tmp_path, "samples.csv", rows + "\n")
        code, out, _ = run_cli(capsys, "infer", path, "--samples")
        assert code == 0
        doc = json.loads(out)
        assert doc["H_X"] == pytest.approx(1.0, abs=1e-9)

    def test_malformed_csv_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "joint.csv", "0.5,abc\n0,0.5\n")
        code, _, _ = run_cli(capsys, "infer", path)
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
    @pytest.mark.filterwarnings("ignore:pruned states")
    def test_one_observed_state_exit_2(self, tmp_path, capsys, text, argv, shape):
        # these used to exit 2 with the solver's "need at least two marginals"
        path = write(tmp_path, "joint.csv", text)
        code, out, err = run_cli(capsys, "infer", path, *argv)
        assert (code, out) == (2, "")
        assert err.endswith(
            f"error: joint observation is {shape} after pruning; a causal direction "
            "needs at least two observed states of X and of Y\n"
        )

    @pytest.mark.parametrize(
        "name, text",
        [
            ("joint.csv", "0.5,0.25\n0.25\n"),
            ("joint.json", '{"joint": [[0.5, 0.25], [0.25]]}'),
        ],
    )
    def test_ragged_joint_exit_2_naming_row_lengths(self, tmp_path, capsys, name, text):
        path = write(tmp_path, name, text)
        code, out, err = run_cli(capsys, "infer", path)
        assert (code, out, err) == (2, "", "error: joint row lengths differ: [2, 1]\n")

    def test_negative_entry_exit_2_naming_the_value(self, tmp_path, capsys):
        path = write(tmp_path, "joint.csv", "0.6,-0.1\n0.3,0.2\n")
        code, out, err = run_cli(capsys, "infer", path)
        assert (code, out, err) == (2, "", "error: negative probability -0.1 in joint\n")

    def test_margin_flag(self, tmp_path, capsys):
        path = write(tmp_path, "joint.csv", "0.3,0.1\n0.2,0.4\n")
        code, out, _ = run_cli(capsys, "infer", path, "--margin", "1.0")
        assert code == 0
        assert json.loads(out)["verdict"] == "undecided"

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_margin_exit_2(self, tmp_path, capsys, token):
        path = write(tmp_path, "joint.csv", "0.3,0.1\n0.2,0.4\n")
        code, out, err = run_cli(capsys, "infer", path, f"--margin={token}")
        assert code == 2
        assert out == ""
        assert f"margin has non-finite entry {token}" in err


class TestGenerate:
    def test_special_family(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "--family", "special", "--n", "4",
            "--alpha", "1.5",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["marginals"][0] == [0.25] * 4
        assert doc["marginals"][1] == [0.375, 0.375, 0.125, 0.125]
        assert doc["predicted_coupling_entropy_bits"] == pytest.approx(2.5)

    def test_special_family_requires_alpha(self, capsys):
        code, _, err = run_cli(
            capsys, "generate", "--family", "special", "--n", "4"
        )
        assert code == 2
        assert "alpha" in err

    def test_random_family_seeded(self, capsys):
        args = [
            "generate", "--family", "random", "--n", "3", "--m", "2",
            "--seed", "7",
        ]
        code, first, _ = run_cli(capsys, *args)
        assert code == 0
        _, second, _ = run_cli(capsys, *args)
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
    def test_random_family_rejects_unusable_sizes(self, capsys, flags, message):
        code, out, err = run_cli(capsys, "generate", "--family", "random", *flags)
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("n, m", [(1, 2), (3, 2), (2, 4)])
    def test_random_family_feeds_couple(self, tmp_path, capsys, n, m):
        args = ["--family", "random", "--n", str(n), "--m", str(m)]
        code, out, _ = run_cli(capsys, "generate", *args)
        assert code == 0
        path = write(tmp_path, "generated.json", out)
        code, _, _ = run_cli(capsys, "couple", path)
        assert code == 0

    def test_generated_file_feeds_couple(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "--family", "special", "--n", "8",
            "--alpha", "1.25",
        )
        path = write(tmp_path, "generated.json", out)
        code, out, _ = run_cli(capsys, "couple", path, "--alg", "2")
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
    def test_exit_2_naming_the_entry(self, tmp_path, capsys, command, json_token, csv_token, shown):
        files = [
            write(tmp_path, "p.json", f'{{"marginals": [[0.5, 0.5], [{json_token}, 1.0]]}}'),
            write(tmp_path, "p.csv", f"0.5,0.5\n{csv_token},1.0\n"),
        ]
        for path in files:
            code, out, err = run_cli(capsys, command, path)
            assert code == 2
            assert out == ""
            assert f"marginal has non-finite entry {shown} at position 1" in err

    def test_infer_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "joint.csv", "0.3,nan\n0.2,0.4\n")
        code, _, err = run_cli(capsys, "infer", path)
        assert code == 2
        assert "joint row 1 has non-finite entry nan at position 2" in err


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
    def test_exit_2_before_any_work(self, tmp_path, capsys, marginals, message, argv):
        # certify --trace-in used to exit 3 on one or ragged marginals, and
        # couple accepted shifted totals that certify then failed (exit 3)
        run = problem_file(tmp_path, [[0.6, 0.4], [0.5, 0.5]], name="ok.json")
        _, saved, _ = run_cli(capsys, "couple", run, "--trace")
        run_file = write(tmp_path, "run.json", saved)
        path = problem_file(tmp_path, marginals)
        extra = [run_file] if argv[-1] == "--trace-in" else []
        code, out, err = run_cli(capsys, argv[0], path, *argv[1:], *extra)
        assert code == 2
        assert out == ""
        assert message in err


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
        ],
    )
    def test_marginals_exit_2(self, tmp_path, capsys, command, text, message):
        path = write(tmp_path, "bad.json", text)
        code, out, err = run_cli(capsys, command, path)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_joint_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "joint.json", '{"joint": [[0.5, 0.5], 3]}')
        code, out, err = run_cli(capsys, "infer", path)
        assert (code, out, err) == (2, "", "error: 'joint' item 2 is not a list\n")

    @pytest.mark.parametrize("cell", ["true", "false", '"0.25"'])
    def test_joint_non_number_exit_2(self, tmp_path, capsys, cell):
        text = '{"joint": [[%s, 0.25], [0.25, 0.25]]}' % cell
        path = write(tmp_path, "joint.json", text)
        code, out, err = run_cli(capsys, "infer", path)
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
        ],
    )
    def test_run_file_exit_2(self, tmp_path, capsys, doc, message):
        path = problem_file(tmp_path, [[0.6, 0.4], [0.5, 0.5]])
        run_file = write(tmp_path, "run.json", json.dumps(doc))
        code, out, err = run_cli(capsys, "certify", path, "--trace-in", run_file)
        assert (code, out, err) == (2, "", f"error: {message}\n")

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
    def test_run_file_non_integral_exit_2(self, tmp_path, capsys, doc, message):
        path = problem_file(tmp_path, [[0.6, 0.4], [0.5, 0.5]])
        run_file = write(tmp_path, "run.json", json.dumps(doc))
        code, out, err = run_cli(capsys, "certify", path, "--trace-in", run_file)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_shifted_run_file_exit_2(self, tmp_path, capsys):
        # int() used to truncate every shifted index back to the original,
        # so this file certified with exit 0
        path = problem_file(tmp_path, [[0.6, 0.4], [0.5, 0.5]])
        _, out, _ = run_cli(capsys, "couple", path, "--alg", "2", "--trace")
        doc = json.loads(out)
        for section in ("entries", "trace"):
            for item in doc[section]:
                item["indices"] = [i + 0.7 for i in item["indices"]]
        run_file = write(tmp_path, "shifted.json", json.dumps(doc))
        code, out, err = run_cli(capsys, "certify", path, "--trace-in", run_file)
        message = "run file 'entries' item 1 field 'indices' item 1 is not an integer"
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_integral_floats_still_read(self, tmp_path, capsys):
        path = problem_file(tmp_path, [[0.6, 0.4], [0.5, 0.5]])
        _, out, _ = run_cli(capsys, "couple", path, "--alg", "2", "--trace")
        run_file = write(tmp_path, "run.json", out)
        expected = run_cli(capsys, "certify", path, "--trace-in", run_file)
        doc = json.loads(out)
        for section in ("entries", "trace"):
            for item in doc[section]:
                item["indices"] = [float(i) for i in item["indices"]]
                if "iteration" in item:
                    item["iteration"] = float(item["iteration"])
                    item["saturated"] = [[float(a), float(s)] for a, s in item["saturated"]]
        as_floats = write(tmp_path, "floats.json", json.dumps(doc))
        assert run_cli(capsys, "certify", path, "--trace-in", as_floats) == expected
        assert expected[0] == 0


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
    """The one-pass writer prints what rounding then json.dumps(indent=2) did."""

    @given(json_values)
    @example({"x": -0.0, "rows": [[], {}, ()], "flags": [True, False, None, 1]})
    @example(0.1 + 0.2)
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, value):
        assert _json_text(value) == reference_json_text(value)

    def test_rejects_what_json_rejects(self):
        with pytest.raises(TypeError):
            _json_text({"a": {1, 2}})


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("couple", "{path}", "--alg", "2", "--trace"),
            ("certify", "{path}", "--alg", "1"),
            ("bound", "{path}", "--alg", "2", "--oracle"),
        ],
    )
    def test_repeat_invocations_identical(self, tmp_path, capsys, argv):
        path = problem_file(tmp_path, [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3]])
        argv = [a.format(path=path) for a in argv]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_floats_capped_at_12_significant_digits(self, tmp_path, capsys):
        path = problem_file(tmp_path, [[0.6, 0.4], [0.5, 0.5]])
        _, out, _ = run_cli(capsys, "couple", path, "--alg", "1")
        doc = json.loads(out)
        masses = sorted(item["mass"] for item in doc["entries"])
        assert masses == [0.1, 0.4, 0.5]  # 0.09999999999999998 rounds away
