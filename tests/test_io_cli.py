"""File formats and the command-line front end."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import clfmeasures
from clfmeasures import ALL_PROPERTIES, ConfusionMatrix, InputError, read_labels_csv
from clfmeasures.cli import MULTICLASS_IDS, _load_model_pairs, main
from clfmeasures.dataio import (
    matrix_to_csv,
    matrix_to_json,
    parse_inputs,
    read_matrix_csv,
    read_matrix_json,
    write_matrix,
)

MATRIX = ConfusionMatrix(((4, 1), (2, 3)))


def labels_file(tmp_path, name="labels.csv", header=True, rows=((0, 1), (1, 1), (1, 1))):
    lines = ["true,pred"] if header else []
    lines += [f"{t},{p}" for t, p in rows]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


class TestLabelsCsv:
    def test_basic_parse(self, tmp_path):
        pair = read_labels_csv(labels_file(tmp_path))
        assert pair.truth.labels == (0, 1, 1)
        assert pair.pred.labels == (1, 1, 1)
        assert pair.alphabet == ("0", "1")
        assert pair.matrix() == ConfusionMatrix(((0, 1), (0, 2)))

    def test_headerless(self, tmp_path):
        pair = read_labels_csv(labels_file(tmp_path, header=False))
        assert pair.n == 3

    def test_numeric_label_sort(self, tmp_path):
        # "10" must sort after "2" when all labels are integers
        pair = read_labels_csv(
            labels_file(tmp_path, rows=((2, 10), (10, 2), (10, 10)))
        )
        assert pair.alphabet == ("2", "10")
        assert pair.matrix() == ConfusionMatrix(((0, 1), (1, 1)))

    def test_string_labels(self, tmp_path):
        pair = read_labels_csv(
            labels_file(tmp_path, rows=(("cat", "dog"), ("dog", "dog")))
        )
        assert pair.alphabet == ("cat", "dog")
        assert pair.matrix() == ConfusionMatrix(((0, 1), (0, 1)))

    def test_explicit_alphabet(self, tmp_path):
        path = labels_file(tmp_path, rows=(("a", "a"), ("a", "b")))
        pair = read_labels_csv(path, alphabet=("a", "b", "c"))
        assert pair.m == 3
        assert pair.matrix().m == 3

    def test_label_outside_alphabet(self, tmp_path):
        path = labels_file(tmp_path, rows=(("a", "z"),))
        with pytest.raises(InputError):
            read_labels_csv(path, alphabet=("a", "b"))

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("true,pred\n0,1\n1\n")
        with pytest.raises(InputError):
            read_labels_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(InputError):
            read_labels_csv(path)


class TestMatrixFiles:
    def test_json_round_trip_exact(self, tmp_path):
        C = ConfusionMatrix(((Fraction(2, 3), 1), (0, Fraction(1, 3))))
        path = tmp_path / "m.json"
        path.write_text(matrix_to_json(C))
        assert read_matrix_json(path) == C

    def test_json_object_form(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"matrix": [[4, 1], [2, 3]]}))
        assert read_matrix_json(path) == MATRIX

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(matrix_to_csv(MATRIX))
        assert read_matrix_csv(path) == MATRIX

    def test_fraction_strings(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("2/3,1/3\n0,1\n")
        C = read_matrix_csv(path)
        assert C[0, 0] == Fraction(2, 3)

    def test_negative_entry(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[[1, -1], [0, 2]]")
        with pytest.raises(InputError):
            read_matrix_json(path)

    def test_non_square(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[[1, 0, 2], [0, 2, 1]]")
        with pytest.raises(InputError):
            read_matrix_json(path)

    def test_non_integral_float(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[[1.5, 0], [0, 2]]")
        with pytest.raises(InputError):
            read_matrix_json(path)

    def test_write_matrix_formats(self, tmp_path):
        for fmt, reader in (("matrix-json", read_matrix_json), ("matrix-csv", read_matrix_csv)):
            path = tmp_path / f"out-{fmt}"
            write_matrix(MATRIX, path, fmt)
            assert reader(path) == MATRIX

    def test_parse_inputs_dispatch(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(matrix_to_json(MATRIX))
        assert parse_inputs(path, "matrix-json") == MATRIX


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text(matrix_to_json(MATRIX))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCliEval:
    def test_markdown_report(self, capsys, matrix_file):
        code, out, err = run_cli(
            capsys, "eval", "--matrix", matrix_file, "--no-timestamp"
        )
        assert code == 0 and not err
        assert "# eval" in out
        assert "kappa" in out and "`2/5`" in out

    def test_json_report_values(self, capsys, matrix_file):
        code, out, _ = run_cli(
            capsys,
            "eval", "--matrix", matrix_file,
            "--measures", "kappa,cc,acc",
            "--output", "json", "--no-timestamp",
        )
        assert code == 0
        report = json.loads(out)
        by = {r["measure"]: r for r in report["results"]}
        assert by["kappa"]["value"] == "2/5"
        assert by["kappa"]["arithmetic"] == "exact-rational"
        assert by["acc"]["value"] == "7/10"
        assert by["cc"]["float"] == pytest.approx(1 / 6**0.5)

    def test_deterministic_bytes(self, capsys, matrix_file):
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(
                capsys,
                "eval", "--matrix", matrix_file,
                "--output", "json", "--no-timestamp",
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_labels_input(self, capsys, tmp_path):
        path = labels_file(tmp_path)
        code, out, _ = run_cli(
            capsys,
            "eval", "--labels", str(path),
            "--measures", "ce", "--output", "json", "--no-timestamp",
        )
        assert code == 0
        report = json.loads(out)
        assert report["input"]["label_mapping"] == {"0": 0, "1": 1}
        (ce,) = report["results"]
        # entropy of the one confused pair: log((a0+b0)/c01) base 2m-2
        assert ce["float"] == pytest.approx(0.3869882, abs=1e-6)

    def test_unknown_measure(self, capsys, matrix_file):
        code, _, err = run_cli(
            capsys, "eval", "--matrix", matrix_file, "--measures", "nope"
        )
        assert code == 2
        assert "error" in err

    def test_binary_measure_on_multiclass(self, capsys, tmp_path):
        path = tmp_path / "m3.json"
        path.write_text("[[2,0,0],[1,1,0],[0,1,1]]")
        code, _, err = run_cli(
            capsys, "eval", "--matrix", str(path), "--measures", "f:beta=1"
        )
        assert code == 2
        assert "error" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--matrix", "does-not-exist.json")
        assert code == 2

    def test_multiclass_labels_default_measures(self, capsys, tmp_path):
        path = labels_file(tmp_path, rows=((0, 0), (1, 2), (2, 2), (2, 1)))
        code, out, err = run_cli(
            capsys, "eval", "--labels", str(path), "--output", "json", "--no-timestamp"
        )
        assert code == 0, err
        report = json.loads(out)
        assert report["input"]["m"] == 3
        assert [r["measure"] for r in report["results"]] == list(MULTICLASS_IDS)

    def test_out_file(self, capsys, matrix_file, tmp_path):
        target = tmp_path / "report.md"
        code, out, _ = run_cli(
            capsys,
            "eval", "--matrix", matrix_file, "--out", str(target), "--no-timestamp",
        )
        assert code == 0
        assert target.exists() and "# eval" in target.read_text()


class TestCliAudit:
    def test_small_grid(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "audit",
            "--measures", "cc,acc",
            "--properties", "max,min",
            "--n-max", "4",
            "--output", "json", "--no-timestamp",
        )
        assert code == 0
        report = json.loads(out)
        cells = {(r["measure"], r["property"]): r["status"] for r in report["grid"]}
        assert cells[("cc", "max")] == "satisfied"
        assert cells[("acc", "min")] == "satisfied"

    def test_witness_in_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "audit",
            "--measures", "ba",
            "--properties", "smon",
            "--output", "json", "--no-timestamp",
        )
        assert code == 0
        (cell,) = json.loads(out)["grid"]
        assert cell["status"] == "violated"
        assert cell["witness"]["values"] == ["3/4", "3/4"]

    def test_preservation_grid(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "audit", "--preservation",
            "--properties", "smon",
            "--output", "json", "--no-timestamp",
        )
        assert code == 0
        report = json.loads(out)
        rows = {r["scheme"]: r for r in report["grid"]}
        assert set(rows) == {"micro", "macro", "weighted"}
        for row in rows.values():
            assert row["status"] == "not_preserved"
            assert row["witness_measure"] == "netagree"

    def test_multiclass_audit(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "audit",
            "--m", "3",
            "--measures", "kappa",
            "--properties", "min",
            "--n-max", "4",
            "--output", "json", "--no-timestamp",
        )
        assert code == 0
        (cell,) = json.loads(out)["grid"]
        assert cell["status"] == "violated"

    def test_multiclass_default_measures(self, capsys):
        code, out, err = run_cli(
            capsys,
            "audit", "--m", "3", "--properties", "max", "--n-max", "3",
            "--output", "json", "--no-timestamp",
        )
        assert code == 0, err
        assert json.loads(out)["measures"] == list(MULTICLASS_IDS)

    def test_markdown_grid(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "audit", "--measures", "acc", "--properties", "max,cb",
            "--n-max", "4", "--no-timestamp",
        )
        assert code == 0
        assert "✓" in out and "✗" in out
        assert "## counterexamples" in out


class TestGoldenReports:
    """The exact report bytes of a few fixed commands.

    Any change to a verdict, a witness, a value or its rendering changes
    the digest; update a digest only together with a deliberate change of
    the output, and say which.
    """

    DIGESTS = {
        ("audit", "--n-max", "4"):
            "5c732aaf3169dd9708fe87b1cd8f3f22787dca195cce7a1831c1af89dbb328e6",
        ("audit", "--m", "3", "--measures", "acc,ba,kappa,cc", "--n-max", "3"):
            "595467ee7c6a7538c6574d281232bd737e761b42bb5b85d8de94bdd3c5da6d62",
        ("audit", "--preservation", "--properties", "min"):
            "001e3c832611717469983513deb703cf715d3bb0842ba3ba7a514d6b4a5a3899",
        ("baseline", "--a", "3,3,2", "--b", "2,3,3", "--method", "both"):
            "fcde2afd4964832474e28dc7ba38dcd1cd2a7b5ca840c9c6f2d61e2f41374c08",
    }

    @pytest.mark.parametrize("argv", list(DIGESTS), ids=" ".join)
    def test_json_bytes(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--output", "json", "--no-timestamp")
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[argv]


class TestCliDistinguish:
    def test_range(self, capsys):
        code, out, _ = run_cli(
            capsys, "distinguish", "--n", "2:3", "--output", "json", "--no-timestamp"
        )
        assert code == 0
        groups = json.loads(out)["groups"]
        assert len(groups["2"]) == 1
        assert sorted(len(g) for g in groups["3"]) == [1, 1, 6]

    def test_large_n_needs_full(self, capsys):
        code, _, err = run_cli(capsys, "distinguish", "--n", "9")
        assert code == 2
        assert "--full" in err

    def test_cap(self, capsys):
        code, _, err = run_cli(capsys, "distinguish", "--n", "13", "--full")
        assert code == 2


class TestCliCompareRank:
    @pytest.fixture
    def model_files(self, tmp_path):
        rows_a = ((0, 0), (0, 0), (1, 1), (1, 1), (1, 0))
        rows_b = ((0, 1), (0, 0), (1, 1), (1, 1), (1, 1))
        return [
            str(labels_file(tmp_path, "model_a.csv", rows=rows_a)),
            str(labels_file(tmp_path, "model_b.csv", rows=rows_b)),
        ]

    def test_rank(self, capsys, model_files):
        code, out, _ = run_cli(
            capsys,
            "rank", "--labels", *model_files,
            "--measures", "acc,ba",
            "--output", "json", "--no-timestamp",
        )
        assert code == 0
        report = json.loads(out)
        assert report["models"] == ["model_a", "model_b"]
        rankings = {r["measure"]: r["ranking"] for r in report["rankings"]}
        assert {e["name"] for e in rankings["acc"]} == {"model_a", "model_b"}

    def test_compare(self, capsys, model_files):
        code, out, _ = run_cli(
            capsys,
            "compare", "--labels", *model_files,
            "--measures", "acc,ba,cc",
            "--output", "json", "--no-timestamp",
        )
        assert code == 0
        report = json.loads(out)
        assert report["model_pairs"] == 1
        assert report["pairwise"]["comparisons"] == 1
        assert {tuple(e["pair"]) for e in report["pairwise"]["pairs"]} == {
            ("acc", "ba"), ("acc", "cc"), ("ba", "cc"),
        }

    def test_truth_mismatch(self, capsys, tmp_path, model_files):
        other = labels_file(
            tmp_path, "model_c.csv", rows=((1, 0), (0, 0), (1, 1), (1, 1), (1, 1))
        )
        code, _, err = run_cli(
            capsys, "rank", "--labels", model_files[0], str(other)
        )
        assert code == 2
        assert "error" in err

    def test_compare_needs_two(self, capsys, model_files):
        code, _, err = run_cli(capsys, "compare", "--labels", model_files[0])
        assert code == 2

    def test_models_with_different_alphabets(self, tmp_path):
        truth = ("2", "10", "2", "10", "2")
        preds = {
            "a.csv": ("2", "10", "2", "2", "2"),
            "b.csv": ("2", "10", "10", "10", "2"),
            "c.csv": ("7", "10", "2", "10", "2"),  # the only model predicting 7
        }
        paths = []
        for name, pred in preds.items():
            path = tmp_path / name
            path.write_text("".join(f"{t},{p}\n" for t, p in zip(truth, pred)))
            paths.append(str(path))
        names, pairs = _load_model_pairs(paths)
        assert names == ["a", "b", "c"]
        shared = ("2", "7", "10")
        for path, pair in zip(paths, pairs):
            assert pair.alphabet == shared
            assert pair == read_labels_csv(path, alphabet=shared)


class TestCliBaseline:
    def test_constants(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "baseline", "--a", "2,1", "--b", "2,1",
            "--measures", "cc,ba,kappa",
            "--method", "both",
            "--output", "json", "--no-timestamp",
        )
        assert code == 0
        by = {r["measure"]: r for r in json.loads(out)["results"]}
        assert by["cc"]["value"] == "0"
        assert by["kappa"]["value"] == "0"
        assert by["ba"]["value"] == "1/2"
        assert all(r["routes_agree"] for r in by.values())

    def test_accuracy_depends_on_margins(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "baseline", "--a", "2,1", "--b", "1,2",
            "--measures", "acc",
            "--output", "json", "--no-timestamp",
        )
        assert code == 0
        (acc,) = json.loads(out)["results"]
        assert acc["value"] == "4/9"

    def test_size_mismatch(self, capsys):
        code, _, err = run_cli(capsys, "baseline", "--a", "2,1", "--b", "2,2")
        assert code == 2

    def test_budget_exceeded(self, capsys):
        code, _, err = run_cli(
            capsys,
            "baseline", "--a", "4,4", "--b", "4,4",
            "--measures", "cc", "--method", "labelings", "--budget", "2",
        )
        assert code == 3
        assert "budget" in err

    def test_bad_budget(self, capsys):
        code, _, err = run_cli(
            capsys, "baseline", "--a", "2,1", "--b", "2,1", "--budget", "0"
        )
        assert code == 2


#: One command per enumeration the CLI runs: every audit property, a
#: preservation cell, the distinguishability pairs and both baseline routes.
BUDGETED_COMMANDS = [
    ("audit", "--measures", "cc", "--properties", prop) for prop in ALL_PROPERTIES
] + [
    ("audit", "--preservation", "--properties", "acb"),
    ("distinguish", "--n", "2:4"),
    ("baseline", "--a", "2,2", "--b", "2,2", "--method", "both"),
]


class TestBudgetEverywhere:
    @pytest.mark.parametrize("argv", BUDGETED_COMMANDS, ids=" ".join)
    def test_flag(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--budget", "1")
        assert code == 3, err
        assert "budget" in err and not out

    @pytest.mark.parametrize("argv", BUDGETED_COMMANDS, ids=" ".join)
    def test_environment(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("MEASURE_AUDIT_BUDGET", "1")
        code, out, err = run_cli(capsys, *argv)
        assert code == 3, err
        assert "budget" in err and not out

    def test_flag_overrides_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("MEASURE_AUDIT_BUDGET", "1")
        code, _, err = run_cli(
            capsys, "baseline", "--a", "2,2", "--b", "2,2", "--budget", "100"
        )
        assert code == 0, err

    def test_bad_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("MEASURE_AUDIT_BUDGET", "lots")
        code, _, err = run_cli(capsys, "baseline", "--a", "2,2", "--b", "2,2")
        assert code == 2
        assert "MEASURE_AUDIT_BUDGET" in err

    def test_jobs_option_is_gone(self, capsys):
        code, _, _ = run_cli(capsys, "audit", "--jobs", "2")
        assert code == 2


def console_script():
    """The command and environment that run the ``clfmeasures`` console script.

    An installed script on PATH runs as it is.  From a source checkout the
    ``[project.scripts]`` target runs the way pip's wrapper runs it, with the
    directory that holds the imported package first on ``PYTHONPATH``.
    """
    script = shutil.which("clfmeasures")
    if script:
        return [script], None
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["clfmeasures"]
    module, func = target.split(":")
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    src = str(Path(clfmeasures.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return [sys.executable, "-c", code], env


def test_console_script(matrix_file):
    argv, env = console_script()
    proc = subprocess.run(
        [*argv, "eval", "--matrix", matrix_file, "--no-timestamp"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "# eval" in proc.stdout

    # neither --matrix nor --labels: main's 2 must become the exit status
    proc = subprocess.run(
        [*argv, "eval"], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 2, proc.stderr


def test_usage_error_exit_code(capsys):
    assert main(["eval"]) == 2  # neither --matrix nor --labels
    capsys.readouterr()
