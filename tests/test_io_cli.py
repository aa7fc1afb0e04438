"""File formats and the command-line front end."""

import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import clfmeasures
from clfmeasures import (
    ALL_PROPERTIES,
    ConfusionMatrix,
    InputError,
    confusion_matrix,
    evaluate,
    read_labels_csv,
)
from clfmeasures.baselines import METHODS, exact_baseline_expectation
from clfmeasures.inconsistency import pairwise_inconsistency
from clfmeasures.cli import MULTICLASS_IDS, _budget_limit, _load_model_pairs, main
from clfmeasures.measures import MeasureParseError, parse_measure_id
from clfmeasures.dataio import (
    matrix_to_csv,
    matrix_to_json,
    parse_inputs,
    read_matrix_csv,
    read_matrix_json,
    write_matrix,
)
from golden import ENTRIES, sha256

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
        pair = read_labels_csv(path).with_alphabet(("a", "b", "c"))
        assert pair.m == 3
        assert pair.matrix().m == 3

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

    @pytest.mark.parametrize("output", ("markdown", "json", "csv"))
    def test_byte_order_mark_is_dropped(self, capsys, tmp_path, output):
        plain = labels_file(tmp_path, "plain.csv", rows=((0, 1), (1, 1), (1, 0)))
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        reports = []
        for path in (plain, marked):
            code, out, err = run_cli(
                capsys, "eval", "--labels", str(path), "--output", output, "--no-timestamp"
            )
            assert code == 0, err
            reports.append(out.replace(str(path), "<path>"))
        assert reports[0] == reports[1]
        assert read_labels_csv(marked).n == 3

    @pytest.mark.parametrize("name, text", [("m.json", "[[4, 1], [2, 3]]"), ("m.csv", "4,1\n2,3\n")])
    def test_byte_order_mark_in_matrix_files(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        fmt = "matrix-json" if name.endswith(".json") else "matrix-csv"
        assert parse_inputs(path, fmt) == MATRIX

    @pytest.mark.parametrize("option", ("--labels", "--matrix"))
    def test_invalid_utf8_names_the_file(self, capsys, tmp_path, option):
        path = tmp_path / "latin1.csv"
        path.write_bytes("true,pred\ncaf\xe9,1\n".encode("latin-1"))
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}: not UTF-8 text: "):
            read_labels_csv(path)
        code, _, err = run_cli(capsys, "eval", option, str(path))
        assert code == 2
        assert err.startswith(f"error: {path}: not UTF-8 text: ")


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

    def test_deeply_nested_json(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(InputError, match="nested too deeply"):
            read_matrix_json(path)
        code, _, err = run_cli(capsys, "eval", "--matrix", str(path))
        assert code == 2
        assert err == f"error: {path}: JSON nested too deeply\n"

    @pytest.mark.parametrize("fmt", ("matrix-json", "matrix-csv"))
    def test_decimal_exponent_bound(self, tmp_path, fmt):
        path = tmp_path / "m"

        def corner(entry):
            if fmt == "matrix-json":
                path.write_text(json.dumps([[entry, 0], [0, 1]]))
            else:
                path.write_text(f"{entry},0\n0,1\n")
            return parse_inputs(path, fmt)[0, 0]

        assert corner("1e4300") == 10**4300
        assert corner("25E-4_300") == Fraction(25, 10**4300)
        assert corner("1e0000000000000000000000003") == 1000
        for entry in ("1e4301", "1e-4301", "1E+999999999", "2.5e" + "9" * 5000):
            with pytest.raises(InputError, match="decimal exponent beyond 4300"):
                corner(entry)

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

    def test_format_overrides_the_suffix(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(matrix_to_csv(MATRIX))
        code, out, err = run_cli(
            capsys, "eval", "--matrix", str(path), "--format", "matrix-csv",
            "--measures", "acc", "--output", "json",
        )
        assert code == 0, err
        assert json.loads(out)["results"][0]["value"] == "7/10"
        # The suffix rule reads anything but .csv as JSON.
        code, _, err = run_cli(capsys, "eval", "--matrix", str(path))
        assert code == 2, err

    def test_matrix_cannot_be_labels_csv(self, capsys, matrix_file):
        code, _, err = run_cli(capsys, "eval", "--matrix", matrix_file, "--format", "labels-csv")
        assert code == 2
        assert "labels-csv" in err

    def test_labels_cannot_be_a_matrix_format(self, capsys, tmp_path):
        path = labels_file(tmp_path)
        code, _, err = run_cli(capsys, "eval", "--labels", str(path), "--format", "matrix-json")
        assert code == 2
        assert "labels-csv" in err


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

    def test_m4_audits_four_classes(self, capsys):
        code, out, err = run_cli(
            capsys,
            "audit", "--m", "4", "--measures", "acc", "--properties", "csym",
            "--n-max", "4", "--output", "json", "--no-timestamp",
        )
        assert code == 0, err
        report = json.loads(out)
        (cell,) = report["grid"]
        assert report["m"] == cell["space"]["m"] == 4
        # 4**4 matrices with one element per true class, 23 relabelings each
        assert cell["checked"] == 23 * 4**4

    def test_m4_default_windows(self, capsys):
        code, out, err = run_cli(
            capsys,
            "audit", "--m", "4", "--measures", "acc", "--properties", "max,mon",
            "--output", "json", "--no-timestamp",
        )
        assert code == 0, err
        for cell in json.loads(out)["grid"]:
            assert cell["status"] == "satisfied"
            assert cell["space"]["m"] == 4
            assert cell["space"]["n_max"] == cell["space"]["mon_n_max"] == 5
            assert cell["space"]["dist_n_max"] == cell["space"]["cb_n"][1] == 4

    def test_m4_default_windows_see_the_known_violations(self, capsys):
        # A one-level value space (n = 4) and edit walks to n = 4 read all
        # three cells as satisfied.
        code, out, err = run_cli(
            capsys,
            "audit", "--m", "4", "--measures", "kappa,cc,cd", "--properties", "min,mon",
            "--output", "json", "--no-timestamp",
        )
        assert code == 0, err
        cells = {(c["measure"], c["property"]): c for c in json.loads(out)["grid"]}

        def matrices(witness):
            return [[[int(x) for x in row] for row in C] for C in witness["matrices"]]

        kappa = cells["kappa", "min"]["witness"]
        assert matrices(kappa) == [
            [[0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 1, 0]],
            [[0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 2, 0]],
        ]
        assert kappa["values"] == ["-1/3", "-8/17"]
        for mid in ("cc", "cd"):
            witness = cells[mid, "mon"]["witness"]
            assert witness["kind"] == "improvement_penalized"
            assert matrices(witness) == [
                [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 4, 0, 0]],
                [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 3, 0, 1]],
            ]

    def test_markdown_grid(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "audit", "--measures", "acc", "--properties", "max,cb",
            "--n-max", "4", "--no-timestamp",
        )
        assert code == 0
        assert "✓" in out and "✗" in out
        assert "## counterexamples" in out

    @pytest.mark.parametrize(
        "flag",
        [("--measures", "acc"), ("--m", "7"), ("--n-max", "1")],
        ids=lambda f: f[0],
    )
    def test_preservation_rejects_ignored_flags(self, capsys, flag):
        code, _, err = run_cli(capsys, "audit", "--preservation", *flag, "--properties", "min")
        assert code == 2, err
        assert f"does not take {flag[0]}" in err

    @pytest.mark.parametrize(
        "bounds",
        [("--n-max", "1"), ("--n-max", "0"), ("--n-max", "-3"), ("--m", "3", "--n-max", "2")],
        ids=" ".join,
    )
    def test_n_max_below_m(self, capsys, bounds):
        code, _, err = run_cli(
            capsys, "audit", *bounds, "--measures", "acc", "--properties", "max"
        )
        assert code == 2, err
        assert "--n-max must be at least m" in err

    @pytest.mark.parametrize("m", ["0", "1", "-3"])
    def test_fewer_than_two_classes(self, capsys, m):
        code, _, err = run_cli(
            capsys, "audit", "--m", m, "--measures", "acc", "--properties", "max"
        )
        assert code == 2, err
        assert "need at least two classes" in err

    def test_binary_flag_is_gone(self, capsys):
        code, _, err = run_cli(capsys, "audit", "--binary", "--measures", "acc")
        assert code == 2, err
        assert "unrecognized arguments: --binary" in err

    def test_binary_only_refused_before_any_audit(self, capsys):
        # The budget would run out while auditing acc, the first measure.
        code, _, err = run_cli(
            capsys, "audit", "--m", "3", "--measures", "acc,f:beta=1", "--budget", "1"
        )
        assert code == 2, err
        assert "binary-only" in err


@pytest.mark.parametrize("eps", ["-5", "inf", "nan"])
def test_eps_must_be_finite_and_non_negative(capsys, eps):
    code, _, err = run_cli(
        capsys, "audit", f"--eps={eps}", "--measures", "cd", "--properties", "max",
        "--n-max", "3",
    )
    assert code == 2
    assert "--eps: must be finite and >= 0" in err


@pytest.mark.parametrize(
    "measure_id", ["f:beta=1/0", "gm:r=1/0", "f:beta=inf", "gm:r=nan", "gm:r=inf", "gm:r=1e400"]
)
def test_bad_measure_number_exits_2(capsys, matrix_file, measure_id):
    # Parse first: the CLI would evaluate a measure id the parser accepts.
    with pytest.raises(MeasureParseError):
        parse_measure_id(measure_id)
    code, _, err = run_cli(capsys, "eval", "--matrix", matrix_file, "--measures", measure_id)
    assert code == 2
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "rows, measure_id",
    [
        ([[4, 1], [2, 3]], "gm:r=64"),
        ([[4, 1], [2, 3]], "gm:r=-40"),
        ([[40000, 10000], [20000, 30000]], "gm:r=24"),
    ],
    ids=["n10-r64", "n10-r-40", "n100000-r24"],
)
def test_gm_radicand_past_int_str_limit(capsys, tmp_path, int_str_limit, rows, measure_id):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(rows))
    code, out, err = run_cli(
        capsys, "eval", "--matrix", str(path), "--measures", measure_id,
        "--output", "json", "--no-timestamp",
    )
    assert code == 0, err
    (result,) = json.loads(out)["results"]
    coeff, radicand = result["value"].removeprefix("(").split(")*(")
    radicand, index = radicand.split(")^(1/")
    int_str_limit(0)
    expect = evaluate(parse_measure_id(measure_id), confusion_matrix(rows))
    assert len(radicand) > 4300
    assert (Fraction(coeff), Fraction(radicand), int(index.rstrip(")"))) == (
        expect.coeff, expect.radicand, expect.index
    )


def test_gm_large_r_has_a_float(capsys, matrix_file):
    code, out, err = run_cli(
        capsys, "eval", "--matrix", matrix_file, "--measures", "gm:r=16",
        "--output", "json", "--no-timestamp",
    )
    assert code == 0, err
    (gm,) = json.loads(out)["results"]
    assert gm["float"] == pytest.approx(0.4069133585534509)


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
            assert pair.truth.labels == tuple(shared.index(t) for t in truth)
            assert pair.pred.labels == tuple(shared.index(p) for p in preds[Path(path).name])

    def test_compare_with_a_class_one_model_never_predicts(self, capsys, tmp_path):
        rng = random.Random(5)
        truth = [rng.choice(("2", "10")) for _ in range(60)]
        preds = {
            "a.csv": [t if rng.random() < 0.8 else "2" for t in truth],
            "b.csv": [rng.choice(("2", "10")) for _ in truth],
            "c.csv": [rng.choice(("2", "7", "10")) for _ in truth],
        }
        paths = [
            str(labels_file(tmp_path, name, rows=tuple(zip(truth, pred))))
            for name, pred in preds.items()
        ]
        code, out, err = run_cli(
            capsys, "compare", "--labels", *paths, "--output", "json", "--no-timestamp"
        )
        assert code == 0, err
        report = json.loads(out)
        shared = ("2", "7", "10")
        matrices = []
        for path in paths:
            own = read_labels_csv(path)
            cells = [[0] * len(shared) for _ in shared]
            for i, t in enumerate(own.alphabet):
                for j, p in enumerate(own.alphabet):
                    cells[shared.index(t)][shared.index(p)] = own.matrix()[i, j]
            matrices.append(ConfusionMatrix(tuple(map(tuple, cells))))
        assert read_labels_csv(paths[0]).alphabet == ("2", "10")
        expected = pairwise_inconsistency(
            report["measures"],
            [(matrices[i], matrices[j]) for i in range(3) for j in range(i + 1, 3)],
            report["pairwise"]["eps"],
        )
        assert report["m"] == 3
        assert report["pairwise"] == json.loads(json.dumps(expected.to_dict()))


class TestOneClassInputs:
    """At one class the default measures leave out ``ce``, which needs two
    classes; asked for by name, it still exits 2."""

    @pytest.fixture
    def inputs(self, tmp_path):
        matrix = tmp_path / "one.json"
        matrix.write_text("[[5]]")
        models = [
            str(labels_file(tmp_path, f"model_{k}.csv", rows=(("a", "a"),) * 3))
            for k in (1, 2)
        ]
        return {
            "eval": ["--matrix", str(matrix)],
            "rank": ["--labels", *models],
            "compare": ["--labels", *models],
        }

    @pytest.mark.parametrize("command", ["eval", "rank", "compare"])
    def test_defaults_leave_out_ce(self, capsys, inputs, command):
        code, out, err = run_cli(
            capsys, command, *inputs[command], "--output", "json", "--no-timestamp"
        )
        assert code == 0, err
        report = json.loads(out)
        measures = [r["measure"] for r in report.get("results", ())] or report["measures"]
        assert measures == [mid for mid in MULTICLASS_IDS if mid != "ce"]

    @pytest.mark.parametrize("command", ["eval", "rank", "compare"])
    def test_explicit_ce_exits_2(self, capsys, inputs, command):
        code, _, err = run_cli(capsys, command, *inputs[command], "--measures", "acc,ce")
        assert code == 2
        assert "confusion entropy needs at least two classes" in err


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

    @pytest.mark.parametrize(
        "argv",
        [
            ("--a", "30,30", "--b", "30,30", "--method", "labelings"),
            ("--a", "30,30", "--b", "30,30", "--method", "both"),
            ("--a", "30,30,30", "--b", "30,30,30", "--method", "matrices"),
        ],
        ids=" ".join,
    )
    def test_huge_baseline_stops_early(self, capsys, argv):
        # C(60, 30) labelings and 123,256 3x3 matrices: only an enumeration
        # that stops at the budget returns within seconds.
        start = time.monotonic()
        code, out, err = run_cli(capsys, "baseline", *argv, "--budget", "1000")
        assert code == 3, err
        assert "budget" in err and not out
        assert time.monotonic() - start < 30

    @pytest.mark.parametrize(
        "argv, a, b",
        [
            (("audit", "--measures", "cc", "--properties", "cb"), (0, 2), (1, 1)),
            (("baseline", "--a", "2,2", "--b", "2,2", "--method", "both"), (2, 2), (2, 2)),
        ],
        ids=lambda x: " ".join(x) if isinstance(x[0], str) else None,
    )
    def test_kept_tables_still_charged(self, capsys, argv, a, b):
        # Warm the expectation tables the command reads first: reading
        # kept tables must still charge the budget.
        for method in METHODS:
            exact_baseline_expectation(parse_measure_id("cc"), a, b, method)
        code, out, err = run_cli(capsys, *argv, "--budget", "1")
        assert code == 3, err
        assert "budget" in err and not out

    def test_bad_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("MEASURE_AUDIT_BUDGET", "lots")
        code, _, err = run_cli(capsys, "baseline", "--a", "2,2", "--b", "2,2")
        assert code == 2
        assert "MEASURE_AUDIT_BUDGET" in err

    def test_jobs_option_is_gone(self, capsys):
        code, _, _ = run_cli(capsys, "audit", "--jobs", "2")
        assert code == 2

    def test_budget_env_var(self, monkeypatch):
        monkeypatch.setenv("MEASURE_AUDIT_BUDGET", "7")
        assert _budget_limit(None) == 7
        assert _budget_limit(100) == 100


def unbudgeted_argv(tmp_path, command):
    """``command``, one that enumerates nothing, on small inputs."""
    if command == "eval":
        path = tmp_path / "matrix.json"
        path.write_text(matrix_to_json(MATRIX))
        return ("eval", "--matrix", str(path))
    paths = [
        str(labels_file(tmp_path, name, rows=zip((0, 1, 1), pred)))
        for name, pred in (("model_0.csv", (0, 1, 0)), ("model_1.csv", (1, 1, 1)))
    ]
    return (command, "--labels", *paths)


class TestNoBudgetWithoutEnumeration:
    """``eval``, ``compare`` and ``rank`` enumerate nothing: they take no
    ``--budget`` and never read its variable, and ``eval`` compares no
    values, so it takes no ``--eps`` either."""

    @pytest.mark.parametrize(
        "command, flag",
        [("eval", "--eps"), ("eval", "--budget"), ("compare", "--budget"), ("rank", "--budget")],
    )
    def test_flag_refused(self, capsys, tmp_path, command, flag):
        value = "1e-9" if flag == "--eps" else "5"
        code, out, err = run_cli(capsys, *unbudgeted_argv(tmp_path, command), flag, value)
        assert code == 2, err
        assert flag in err and not out

    @pytest.mark.parametrize("command", ["eval", "compare", "rank"])
    def test_environment_ignored(self, capsys, monkeypatch, tmp_path, command):
        monkeypatch.setenv("MEASURE_AUDIT_BUDGET", "abc")
        code, out, err = run_cli(capsys, *unbudgeted_argv(tmp_path, command))
        assert code == 0, err
        assert out


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


def test_python_dash_m(matrix_file):
    src = str(Path(clfmeasures.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "clfmeasures", *args],
            capture_output=True, text=True, env=env, timeout=60,
        )

    proc = run("--help")
    assert proc.returncode == 0, proc.stderr
    assert "compare" in proc.stdout
    proc = run("eval", "--matrix", matrix_file, "--no-timestamp")
    assert proc.returncode == 0, proc.stderr
    assert "# eval" in proc.stdout
    assert run("eval").returncode == 2


#: The baseline report pinned in ``golden.py`` as "baseline json".
GOLDEN_BASELINE = ("baseline", "--a", "3,3,2", "--b", "2,3,3", "--method", "both")


class TestGoldenReports:
    """The pinned baseline JSON as ``main`` writes it to the real stdout,
    which ``golden.output`` replaces with a ``StringIO``."""

    @pytest.mark.parametrize("argv", [GOLDEN_BASELINE], ids=" ".join)
    def test_json_bytes(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--output", "json", "--no-timestamp")
        assert code == 0, err
        assert sha256(out) == ENTRIES["baseline json"].digest


class TestGoldenRenderings:
    """The pinned baseline JSON as the bytes ``python -m clfmeasures``
    writes, with no newline translation."""

    @pytest.mark.parametrize("output", ["json"], ids=["baseline-json"])
    def test_bytes(self, output):
        src = str(Path(clfmeasures.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "clfmeasures", *GOLDEN_BASELINE,
             "--output", output, "--no-timestamp"],
            capture_output=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert sha256(proc.stdout.decode()) == ENTRIES["baseline json"].digest


def test_huge_exponent_exits_2_at_once(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('[["1e999999999", 1], [0, 1]]')
    argv, env = console_script()
    proc = subprocess.run(
        [*argv, "eval", "--matrix", str(path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == (
        f"error: {path} row 1: entry '1e999999999' has a decimal exponent beyond 4300\n"
    )


def test_total_past_int_str_limit_renders(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text('[["1e4300", 1], [0, 1]]')
    code, out, err = run_cli(
        capsys, "eval", "--matrix", str(path), "--measures", "acc",
        "--output", "json", "--no-timestamp",
    )
    assert code == 0, err
    assert json.loads(out)["input"]["n"] == "1" + "0" * 4299 + "2"


def test_json_integer_past_digit_limit(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text("[[" + "9" * 4301 + ", 1], [2, 3]]")
    code, _, err = run_cli(capsys, "eval", "--matrix", str(path))
    assert code == 2
    assert err.startswith(f"error: {path}: invalid JSON: ")


def _reject_constant(token):
    raise AssertionError(f"non-standard JSON token {token}")


@pytest.mark.parametrize("output", ["json", "csv", "markdown"])
def test_value_beyond_float_range_renders(capsys, tmp_path, output):
    path = tmp_path / "big.json"
    path.write_text('[["1e400","1"],["2","3e400"]]\n')
    code, out, err = run_cli(
        capsys, "eval", "--matrix", str(path), "--measures", "netagree",
        "--output", output, "--no-timestamp",
    )
    assert code == 0, err
    assert "3" + "9" * 399 + "7" in out  # the exact netagree value
    if output == "json":
        # RFC 8259 has no Infinity token: the float is written as null.
        (result,) = json.loads(out, parse_constant=_reject_constant)["results"]
        assert result["float"] is None
    else:
        assert ",inf," in out if output == "csv" else "| inf |" in out


def test_usage_error_exit_code(capsys):
    assert main(["eval"]) == 2  # neither --matrix nor --labels
    capsys.readouterr()
