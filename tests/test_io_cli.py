"""File formats and the command-line front end."""

import hashlib
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

MATRIX = ConfusionMatrix(((4, 1), (2, 3)))


def labels_file(tmp_path, name="labels.csv", header=True, rows=((0, 1), (1, 1), (1, 1))):
    lines = ["true,pred"] if header else []
    lines += [f"{t},{p}" for t, p in rows]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


def generated_models(tmp_path, m, count, rows, seed):
    """Write ``count`` labels files of ``rows`` rows over ``m`` classes.

    Every file shares one truth; model ``k`` keeps the true class with
    probability 0.9 - 0.15 k and otherwise draws any class.
    """
    rng = random.Random(seed)
    truth = [rng.randrange(m) for _ in range(rows)]
    paths = []
    for k in range(count):
        rate = 0.9 - 0.15 * k
        pred = [t if rng.random() < rate else rng.randrange(m) for t in truth]
        paths.append(str(labels_file(tmp_path, f"gen_{k}.csv", rows=zip(truth, pred))))
    return paths


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
            assert cell["space"]["n_max"] == cell["space"]["mon_n_max"] == 4

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
        ("distinguish", "--n", "2:12", "--full"):
            "ddc0bc63357b6130a20a9509bd51f03c6fa15c0e6f695c2c8a8f26281e796584",
        # The rows compared on their cc key; at eps = 0.01 many pairs are
        # left to the angles.
        ("audit", "--measures", "cd,cdprime", "--n-max", "5"):
            "f755b0380036ced58042c6634fce1f98ba6386f5cbae66bc3d4bb2b7836ca62d",
        ("audit", "--m", "3", "--measures", "cd,cdprime", "--n-max", "4"):
            "4225fc67505af6acd09dd5c420f2188acc74eca912935d6b1106417d801abab0",
        ("audit", "--measures", "cd,cdprime", "--n-max", "5", "--eps", "0.01"):
            "e4e2d005f6ea8ae54635a9c9f768ed015c93a1a14ad73a2dd323e8361fdebf1d",
        # The same keyed comparison in the distinguish walk.
        ("distinguish", "--n", "2:10", "--full", "--measures", "cd,cdprime,cc,ce,acc"):
            "e2347490bf9291b8209486161a79236d683bc2bc2cbceb96ada60fdfcb22420e",
        ("distinguish", "--n", "2:10", "--full", "--measures", "cd,cdprime,cc,ce,acc",
         "--eps", "0.05"):
            "6dfb552510d2d0b178a195de1f651e2dff3fa6054aa9e1f32db0fc7c09067773",
    }

    #: The same at the default windows, about 25 s together.
    FULL_WINDOW_DIGESTS = {
        ("audit",):
            "3cba62d2726f08f2ffbb7d7fe1d60fa6988c90c79e8d2a0b3a00bbc00d66f902",
        ("audit", "--preservation"):
            "393a15942fdebc6ffe78ab2f25740b3fc0b3cef23ddcbd3dbbddae7e610e0098",
        ("audit", "--m", "3", "--measures", "acc,ba,kappa,cc", "--n-max", "5"):
            "dddd97945b6d4f09ba594a38e50cafe5950fe630c2c15cefdadaab91cd771f09",
        ("audit", "--preservation", "--properties", "min,smon"):
            "6be2a79b693ee4b49432c47b7dfed988971ce00bee333867fcb9398ff402259f",
        ("audit", "--m", "3", "--properties", "dist"):
            "85d2eababdbbb5d6a3c8c62db422ccdc0d1e85036c895c10033aabd10ff6517c",
        ("audit", "--m", "4", "--properties", "dist"):
            "166b1427cf28209a202da977acd6a79a6357b25402902bfc41c8a66d90833718",
        ("audit", "--m", "3", "--measures", "acc,ba,kappa,cc",
         "--properties", "mon,smon,csym,max,min"):
            "220642759dfb17fcfb796c26dfbafdb9e5636e788f88594503129b2897286068",
    }

    @staticmethod
    def json_digest(capsys, argv) -> str:
        code, out, err = run_cli(capsys, *argv, "--output", "json", "--no-timestamp")
        assert code == 0, err
        return hashlib.sha256(out.encode()).hexdigest()

    @pytest.mark.parametrize("argv", list(DIGESTS), ids=" ".join)
    def test_json_bytes(self, capsys, argv):
        assert self.json_digest(capsys, argv) == self.DIGESTS[argv]

    @pytest.mark.slow
    @pytest.mark.parametrize("argv", list(FULL_WINDOW_DIGESTS), ids=" ".join)
    def test_full_window_json_bytes(self, capsys, argv):
        assert self.json_digest(capsys, argv) == self.FULL_WINDOW_DIGESTS[argv]

    #: (command, classes, models, rows, seed, *options) of generated labels files.
    GENERATED = {
        ("compare", 3, 3, 3000, 11):
            "de733a36f3a3e961e7aac7b77fd208989f4b1e7f60f36eba84674b161f010fdf",
        ("rank", 2, 4, 3000, 12):
            "db9c836cc531fe5d6c5bd7f64dad143e7877cf5a0f6a5065bc4d82c852ad6308",
        # Keyed rows, with ties and steps inside a wide eps window.
        ("rank", 3, 5, 3000, 14, "--measures", "cd,cdprime,cc,ce", "--eps", "0.3"):
            "e191137df4d83caa8383950a2357cf6a47d9c36b20c857d5efc1444527a5d7ec",
    }

    @pytest.mark.parametrize("case", list(GENERATED), ids=str)
    def test_generated_labels_json_bytes(self, capsys, tmp_path, case):
        command, m, count, rows, seed, *options = case
        paths = generated_models(tmp_path, m, count, rows, seed)
        code, out, err = run_cli(
            capsys, command, "--labels", *paths, *options, "--output", "json", "--no-timestamp"
        )
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == self.GENERATED[case]

    #: Root-valued, float-valued and rational averages of ``eval`` on a
    #: generated 4-class labels file (3000 rows, seed 13).
    AVERAGED_MEASURES = (
        "cc:macro,cc:weighted,gm:r=2:macro,gm:r=-3:weighted,ce:macro,cd:weighted,"
        "cdprime:macro,f:beta=1:macro,ba:weighted,kappa:micro"
    )
    AVERAGED_DIGEST = "393e98353b5f35fab8d8c2a53295ca676ffbfa9983db13017801bd962adf6f9f"

    def test_averaged_eval_json_bytes(self, capsys, tmp_path, monkeypatch):
        (path,) = generated_models(tmp_path, 4, 1, 3000, 13)
        monkeypatch.chdir(tmp_path)  # the report names the file as given
        code, out, err = run_cli(
            capsys, "eval", "--labels", os.path.basename(path),
            "--measures", self.AVERAGED_MEASURES, "--output", "json", "--no-timestamp",
        )
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == self.AVERAGED_DIGEST


GOLDEN_TRUTH = (0, 0, 0, 1, 1, 1, 1, 1, 0, 1)
GOLDEN_MODELS = {
    "model_0.csv": (1, 1, 0, 1, 1, 1, 0, 1, 0, 1),
    "model_1.csv": (1, 0, 0, 0, 1, 1, 0, 0, 1, 0),
    "model_2.csv": (0, 1, 1, 1, 1, 1, 1, 1, 1, 0),
    "model_3.csv": (0, 1, 0, 0, 1, 1, 0, 1, 1, 1),
}
GOLDEN_PETS = (
    ("cat", "cat"), ("dog", "cat"), ("cat", "dog"), ("fox", "fox"),
    ("dog", "dog"), ("fox", "cat"), ("cat", "cat"),
)
MODEL_NAMES = tuple(GOLDEN_MODELS)


class TestGoldenRenderings:
    """The exact bytes of every command in every report format.

    The inputs are written from the fixed rows above and named by
    relative paths, because the ``eval`` markdown prints the input path.
    The compare inputs use ``--eps 0.05`` so that some ``ce``/``cd``
    verdicts flip between eps/10 and 10*eps.  Update a digest only
    together with a deliberate change of the output, and say which.
    """

    COMMANDS = {
        "eval-matrix": ("eval", "--matrix", "matrix.json"),
        "eval-labels": ("eval", "--labels", "pets.csv"),
        "audit": (
            "audit", "--n-max", "3", "--measures", "acc,f:beta=1,ba,cc",
            "--properties", "max,min,sym,dist,mon,smon,cb",
        ),
        "audit-m3": (
            "audit", "--m", "3", "--measures", "acc,kappa",
            "--properties", "csym,mon,acb", "--n-max", "3",
        ),
        "audit-preservation": ("audit", "--preservation", "--properties", "min,acb"),
        "distinguish": ("distinguish", "--n", "2:4"),
        "compare": (
            "compare", "--labels", *MODEL_NAMES,
            "--measures", "acc,ba,ce,cd,f:beta=1", "--eps", "0.05",
        ),
        "rank": ("rank", "--labels", *MODEL_NAMES),
        "baseline": ("baseline", "--a", "3,3,2", "--b", "2,3,3", "--method", "both"),
        "baseline-binary": ("baseline", "--a", "2,3", "--b", "3,2"),
        "baseline-labelings": (
            "baseline", "--a", "5,2", "--b", "3,4", "--method", "labelings",
            "--measures", "ce,cd,cdprime,gm:r=1/2,f:beta=1:weighted",
        ),
    }

    DIGESTS = {
        ("eval-matrix", "markdown"):
            "8ab75b0227c766c046357816f9e5504fd133d2feb3d0e6c23051176a5f0e99c6",
        ("eval-matrix", "csv"):
            "94e67dddbfd46117c8ac261d27faff44c394fecf50d582b7497121207b98031b",
        ("eval-matrix", "json"):
            "7d1e7df58c84cf9519c50cbba7f4888ba45a914e5345538ce9ca8a11891bef3d",
        ("eval-labels", "markdown"):
            "86cd3c9d00838c63eecbf8988526b1a895bbee220110271e825c2f5af76370b5",
        ("eval-labels", "csv"):
            "72ab68dadf069dc0f2cef5fd8199b6305b93528252e571a76ec442bb8f861c6e",
        ("eval-labels", "json"):
            "79acbc85887f1ffb2b02f1f411e14f791d510c8b962fea85d447daba837e5e92",
        ("audit", "markdown"):
            "a930a72b77c7ccdfe11386cf92e8efdbd7ea8890e42402e3822f78f91d6ca22b",
        ("audit", "csv"):
            "76df63747c4d5b0abfe913772b2536d685f3b729e769fa5ca040fc0251cba6ef",
        ("audit", "json"):
            "5a46411dc5a45e304ea3731b40d7f832f2972c9da0274ca4728b5324002ec7ea",
        ("audit-m3", "markdown"):
            "ecad0b9c16fc9f604c9489b06796a65328254d8c897522ff948e156647ed6a53",
        ("audit-m3", "csv"):
            "4cac06a86fdf4f28a2fca4b7760067f3ba6937068f37959178d8d22655922562",
        ("audit-m3", "json"):
            "64531ceb6500ae1c88b40a520bd50a50345de0472d38354235a34c216b7542a1",
        ("audit-preservation", "markdown"):
            "de3e1c316c8eb5bc9692139bc835b92d04b62795a8ed6ec40539014cf917508e",
        ("audit-preservation", "csv"):
            "53b466c9229e91976f7c4afabb59038966772ea14675e965e6828e843e78ec94",
        ("audit-preservation", "json"):
            "c48305f83e099fe9ecfa1d904045bbc41531e1289472e1f84a649fefe3dd1a7e",
        ("distinguish", "markdown"):
            "2db03681f5136bc22cb4dc18e80f002e5743da049fc14be678049430afdf1444",
        ("distinguish", "csv"):
            "0a2d4eb5d2857dbf8aa7723545ff7c29026561c88be9c97606014254e64642b4",
        ("distinguish", "json"):
            "911d0de0ab2d7d0599ca6f36b70736d93318161ff624a3bf7518ffd1b5d49357",
        ("compare", "markdown"):
            "5286f669fee79f4ac22a23dacc8a1927d6958e59d278fcd34518a6ae877c95c9",
        ("compare", "csv"):
            "7650703ce526dc785979b67424c80cc67be0a2b6a3cccf86415118cfbd2887b9",
        ("compare", "json"):
            "c454bd04b3e0788c6bdd2a2d7733eb2f593529ef499c3550add4e702993a79d1",
        ("rank", "markdown"):
            "d57ba4ea3c11d333d17b618053b86e8c40f251eae5f1a6e937d9454c3b5ad09a",
        ("rank", "csv"):
            "ba0f0419e86e0351049cbf6e3760e96aa3b16bc252c5ef66c4ade205a9f4ab56",
        ("rank", "json"):
            "735de3a68c6fab7513d243531a8502f938b7fec6ad4f30289f181e1cd82021d2",
        ("baseline", "markdown"):
            "dc629f629464f20c0d3074a1a39292ac1605046fb927746bed872e987fbab7ae",
        ("baseline", "csv"):
            "952d1bf8a9caa08995ca902d846d1007b7111ca89ffe776ad338a62fb3804541",
        ("baseline", "json"):
            "fcde2afd4964832474e28dc7ba38dcd1cd2a7b5ca840c9c6f2d61e2f41374c08",
        ("baseline-binary", "markdown"):
            "131ba4a204c1cfa35667cbbbc5c6b7099aa8da2dafb76dfa92710fad15f3add0",
        ("baseline-binary", "csv"):
            "67d84e3c584d53ff3ce187d9c22be719d36dd573d7b29472671202cda312db1c",
        ("baseline-binary", "json"):
            "319770d912284847b7b7fbe74d7c13046551ebb7b59cb3f177411946ca33b83f",
        ("baseline-labelings", "markdown"):
            "43b3da5e83a819e3eae7ad5bf81423ae4d59ef51b5c8bd5f25dafba6cb692ea3",
        ("baseline-labelings", "csv"):
            "9f174741f9c886fac58a703c3f1f4057bbbef29d838bf11005f1fcbcfee0825a",
        ("baseline-labelings", "json"):
            "ba21391913c8828b6dddc28f2d85d0c4919ea5136a85b9cbcde2f1663e8f3404",
    }

    @pytest.fixture
    def inputs(self, tmp_path, monkeypatch):
        (tmp_path / "matrix.json").write_text(matrix_to_json(MATRIX))
        labels_file(tmp_path, "pets.csv", rows=GOLDEN_PETS)
        for name, pred in GOLDEN_MODELS.items():
            labels_file(tmp_path, name, rows=tuple(zip(GOLDEN_TRUTH, pred)))
        monkeypatch.chdir(tmp_path)

    @pytest.mark.parametrize("fmt", ("markdown", "csv", "json"))
    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_bytes(self, capsys, inputs, name, fmt):
        argv = self.COMMANDS[name]
        code, out, err = run_cli(capsys, *argv, "--output", fmt, "--no-timestamp")
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[name, fmt]


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
