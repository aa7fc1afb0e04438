"""Command-line front end.

Subcommands, one per report family:

* ``eval``        evaluate measures on one matrix or labeling file
* ``audit``       property grid (or averaging-preservation grid)
* ``distinguish`` order-identical measure groups per sample size
* ``compare``     pairwise inconsistency rates over model predictions
* ``rank``        rank model predictions under each measure
* ``baseline``    exact expectation under margin-preserving randomization

Reports are emitted as markdown (default), JSON, or CSV.  JSON is the
report a command builds; CSV writes the rows of its one row model, and
markdown lays out the same rows.  JSON carries exact values as
fraction/root strings next to float renderings; percentages use one
decimal everywhere.  With ``--no-timestamp`` the bytes are a pure
function of config and input.

Exit codes: 0 success, 2 input or usage error, 3 enumeration budget
exceeded, 4 internal error.  Each command builds one enumeration budget
(``--budget``, else the ``MEASURE_AUDIT_BUDGET`` variable, else 10**9
states) and charges every enumeration it runs against it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from .core import BUDGET_ENV_VAR, Budget, EnumerationBudgetExceeded
from .dataio import (
    FORMATS,
    InputError,
    LabelingPair,
    _sorted_alphabet,
    parse_inputs,
    read_labels_csv,
)
from .inconsistency import (
    indistinguishable_groups,
    pairwise_inconsistency,
    rank_models,
)
from .measures import (
    CANONICAL_IDS,
    CONSISTENCY_IDS,
    MeasureArityError,
    MeasureParseError,
    evaluate,
    parse_measure_id,
)
from .properties import (
    ALL_PROPERTIES,
    audit_grid,
    parse_property,
    preservation_grid,
)
from .baselines import METHODS, exact_baseline_expectation
from .measures import SCHEMES
from .values import DEFAULT_EPS, Root, as_float, value_str, values_equal

#: Multiclass-capable measures, used as defaults when inputs have m > 2.
MULTICLASS_IDS = ("acc", "ba", "kappa", "ce", "cc", "sba", "cd")


# ---------------------------------------------------------------------------
# argument handling


def _parse_measures(text: str, default: tuple[str, ...]) -> list[str]:
    if not text or text == "default":
        ids = list(default)
    elif text == "all":
        ids = list(CANONICAL_IDS)
    elif text == "consistency":
        ids = list(CONSISTENCY_IDS)
    else:
        ids = [part.strip() for part in text.split(",") if part.strip()]
    if not ids:
        raise InputError("empty measure list")
    seen = []
    for mid in ids:
        canonical = parse_measure_id(mid).measure_id
        if canonical in seen:
            raise InputError(f"measure {canonical} listed twice")
        seen.append(canonical)
    return seen


def _registry_default(m: int) -> tuple[str, ...]:
    """Default measures of ``eval``, ``audit`` and ``baseline`` at m classes."""
    return CANONICAL_IDS if m == 2 else MULTICLASS_IDS


def _parse_n_range(text: str) -> tuple[int, int]:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise InputError(f"bad sample-size range {text!r}; use N or LO:HI") from None
    if lo < 2 or hi < lo:
        raise InputError(f"bad sample-size range {text!r}; need 2 <= LO <= HI")
    return lo, hi


def _parse_sizes(text: str, what: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise InputError(f"bad {what} class sizes {text!r}; use e.g. 5,5") from None
    if not sizes or any(s < 0 for s in sizes):
        raise InputError(f"{what} class sizes must be non-negative")
    return sizes


def _parse_eps(text: str) -> float:
    try:
        eps = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(eps) or eps < 0:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return eps


def _detect_matrix_format(path: str) -> str:
    return "matrix-csv" if Path(path).suffix.lower() == ".csv" else "matrix-json"


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--output",
        choices=("markdown", "json", "csv"),
        default="markdown",
        help="report format (default: markdown)",
    )
    sub.add_argument("--out", metavar="FILE", help="write the report to FILE")
    sub.add_argument(
        "--eps",
        type=_parse_eps,
        default=DEFAULT_EPS,
        help="comparison tolerance for float-valued measures (default 1e-12)",
    )
    sub.add_argument(
        "--budget",
        type=int,
        metavar="STATES",
        help=f"enumeration budget of the whole command, in states (default: "
        f"${BUDGET_ENV_VAR}, else 10**9)",
    )
    sub.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit the generation time, making report bytes reproducible",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clfmeasures",
        description="Evaluate, audit, and compare classification measures.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("eval", help="evaluate measures on one input")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--matrix", metavar="FILE", help="confusion matrix file")
    group.add_argument(
        "--labels", metavar="FILE", help="labels-csv file with true,pred columns"
    )
    p.add_argument(
        "--format",
        choices=FORMATS,
        help="input format (default: inferred from the file suffix)",
    )
    p.add_argument(
        "--measures",
        default="default",
        help="comma-separated measure ids; 'all' for the full registry "
        "(default: the full registry at m=2, the multiclass measures above)",
    )
    _add_common(p)

    p = commands.add_parser("audit", help="property grid for the registry")
    p.add_argument(
        "--measures",
        default="default",
        help="comma-separated measure ids to audit; 'all' for the full registry "
        "(default: the full registry at m=2, the multiclass measures above)",
    )
    p.add_argument(
        "--properties",
        default="all",
        help=f"comma-separated properties (default all: {','.join(ALL_PROPERTIES)})",
    )
    p.add_argument(
        "--m",
        type=int,
        metavar="M",
        help="audit at M classes (default 2).  Default windows: n <= 8 at M = 2 "
        "(n <= 12 for ce's min/mon/smon); n <= 6 and edit walks to n <= 9 at "
        "M = 3; n <= 4 from M = 4 on, with value spaces to n <= M",
    )
    p.add_argument(
        "--n-max",
        type=int,
        metavar="N",
        help="override the generic sample-size bound (measures with wider "
        "documented windows keep them; the labeling-triple bound stays capped)",
    )
    p.add_argument(
        "--preservation",
        action="store_true",
        help="audit micro/macro/weighted preservation instead of base measures",
    )
    _add_common(p)

    p = commands.add_parser(
        "distinguish", help="order-identical measure groups per sample size"
    )
    p.add_argument("--n", required=True, metavar="N|LO:HI", help="sample size range")
    p.add_argument("--measures", default="consistency")
    p.add_argument(
        "--full",
        action="store_true",
        help="allow sample sizes above 8 (larger exhaustive comparison spaces)",
    )
    _add_common(p)

    p = commands.add_parser(
        "compare", help="pairwise inconsistency rates over model predictions"
    )
    p.add_argument(
        "--labels",
        nargs="+",
        required=True,
        metavar="FILE",
        help="one labels-csv per model, all sharing the true column",
    )
    p.add_argument("--measures", default="default")
    _add_common(p)

    p = commands.add_parser("rank", help="rank model predictions per measure")
    p.add_argument(
        "--labels",
        nargs="+",
        required=True,
        metavar="FILE",
        help="one labels-csv per model, all sharing the true column",
    )
    p.add_argument("--measures", default="default")
    _add_common(p)

    p = commands.add_parser(
        "baseline", help="exact expectation under margin randomization"
    )
    p.add_argument("--a", required=True, metavar="SIZES", help="true class sizes")
    p.add_argument("--b", required=True, metavar="SIZES", help="predicted class sizes")
    p.add_argument("--measures", default="default")
    p.add_argument(
        "--method",
        choices=METHODS + ("both",),
        default="matrices",
        help="enumeration route; 'both' cross-checks the two",
    )
    _add_common(p)

    return parser


# ---------------------------------------------------------------------------
# shared report plumbing


def _timestamp() -> str:
    from datetime import datetime, timezone

    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _arith_class(value) -> str:
    if isinstance(value, (int, Fraction)):
        return "exact-rational"
    if isinstance(value, Root):
        return "exact-root"
    return "high-precision-float"


def _float_str(x: float) -> str:
    return repr(float(x))


def _table(headers, rows) -> str:
    head = "| " + " | ".join(str(h) for h in headers) + " |"
    sep = "|" + "|".join(" --- " for _ in headers) + "|"
    body = ["| " + " | ".join(str(c) for c in row) + " |" for row in rows]
    return "\n".join([head, sep, *body])


def _value_table(headers, rows) -> str:
    """A markdown table with the exact values of the ``value`` column in code spans."""
    k = headers.index("value")
    return _table(headers, [(*row[:k], f"`{row[k]}`", *row[k + 1:]) for row in rows])


def _csv_lines(headers, rows) -> str:
    import csv as _csv
    import io

    buf = io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(text: str, out_path) -> None:
    if out_path:
        try:
            Path(out_path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _finish(report: dict, args) -> dict:
    if not args.no_timestamp:
        report["generated"] = _timestamp()
    return report


# ---------------------------------------------------------------------------
# eval


def _cmd_eval(args, budget: Budget) -> dict:
    if args.labels:
        fmt = args.format or "labels-csv"
        if fmt != "labels-csv":
            raise InputError("--labels implies the labels-csv format")
        parsed = read_labels_csv(args.labels)
        matrix = parsed.matrix()
        path = args.labels
        input_info = {
            "path": str(path),
            "format": fmt,
            "n": parsed.n,
            "m": parsed.m,
            "label_mapping": parsed.mapping(),
        }
    else:
        fmt = args.format or _detect_matrix_format(args.matrix)
        if fmt == "labels-csv":
            raise InputError("--matrix cannot use the labels-csv format")
        matrix = parse_inputs(args.matrix, fmt)
        path = args.matrix
        input_info = {
            "path": str(path),
            "format": fmt,
            "n": value_str(matrix.n),
            "m": matrix.m,
        }
    measure_ids = _parse_measures(args.measures, _registry_default(matrix.m))
    results = []
    for mid in measure_ids:
        desc = parse_measure_id(mid)
        value = evaluate(desc, matrix)
        results.append(
            {
                "measure": desc.measure_id,
                "label": desc.label,
                "value": value_str(value),
                "float": as_float(value),
                "arithmetic": _arith_class(value),
            }
        )
    return {"command": "eval", "input": input_info, "results": results}


def _rows_eval(report: dict):
    return ["measure", "value", "float", "arithmetic"], [
        (r["measure"], r["value"], _float_str(r["float"]), r["arithmetic"])
        for r in report["results"]
    ]


def _md_eval(report: dict, headers, rows) -> list[str]:
    info = report["input"]
    lines = [
        f"- input: `{info['path']}` ({info['format']})",
        f"- n = {info['n']}, m = {info['m']}",
    ]
    if "label_mapping" in info:
        mapping = ", ".join(f"{k} -> {v}" for k, v in info["label_mapping"].items())
        lines.append(f"- label mapping: {mapping}")
    return lines + ["", _value_table(headers, rows)]


# ---------------------------------------------------------------------------
# audit


def _cmd_audit(args, budget: Budget) -> dict:
    properties = (
        list(ALL_PROPERTIES)
        if args.properties in ("all", "", None)
        else [parse_property(p.strip()) for p in args.properties.split(",") if p.strip()]
    )
    if not properties:
        raise InputError("empty property list")
    if args.preservation:
        ignored = [
            flag
            for flag, given in (
                ("--measures", args.measures != "default"),
                ("--m", args.m is not None),
                ("--n-max", args.n_max is not None),
            )
            if given
        ]
        if ignored:
            raise InputError(
                f"--preservation audits fixed spaces; it does not take {', '.join(ignored)}"
            )
        grid = preservation_grid(SCHEMES, properties, args.eps, budget)
        return {
            "command": "audit",
            "mode": "preservation",
            "schemes": list(SCHEMES),
            "properties": properties,
            "grid": [verdict.to_dict() for verdict in grid],
        }
    m = 2 if args.m is None else args.m
    if m < 2:
        raise InputError("need at least two classes")
    if args.n_max is not None and args.n_max < m:
        raise InputError(f"--n-max must be at least m = {m}, got {args.n_max}")
    measure_ids = _parse_measures(args.measures, _registry_default(m))
    verdicts = audit_grid(
        measure_ids, properties, m, eps=args.eps, n_max=args.n_max, budget=budget
    )
    return {
        "command": "audit",
        "mode": "properties",
        "m": m,
        "measures": measure_ids,
        "properties": properties,
        "grid": [v.to_dict() for v in verdicts],
    }


_MARK = {"satisfied": "✓", "violated": "✗", "preserved": "✓", "not_preserved": "✗"}


def _rows_audit(report: dict):
    if report["mode"] == "preservation":
        return ["scheme", "property", "status", "witness_measure"], [
            (g["scheme"], g["property"], g["status"], g["witness_measure"] or "")
            for g in report["grid"]
        ]
    return ["measure", "property", "status"], [
        (g["measure"], g["property"], g["status"]) for g in report["grid"]
    ]


def _md_audit(report: dict, headers, rows) -> list[str]:
    if report["mode"] == "preservation":
        lines = ["Preservation of binary properties under averaging."]
        keys = report["schemes"]
        failures = [
            f"- **{g['scheme']} / {g['property']}** via `{g['witness_measure']}`: "
            f"`{json.dumps(g['inner']['witness'], sort_keys=True)}`"
            for g in report["grid"]
            if g["status"] == "not_preserved"
        ]
    else:
        lines = [f"Property audit at m = {report['m']}."]
        keys = report["measures"]
        failures = [
            f"- **{g['measure']} / {g['property']}**: "
            f"`{json.dumps(g['witness'], sort_keys=True)}`"
            for g in report["grid"]
            if g["status"] == "violated"
        ]
    props = report["properties"]
    mark = {(key, prop): _MARK[status] for key, prop, status, *_ in rows}
    grid = [[key] + [mark[key, p] for p in props] for key in keys]
    lines += ["", _table([headers[0]] + props, grid)]
    if failures:
        lines += ["", "## counterexamples", "", *failures]
    return lines


# ---------------------------------------------------------------------------
# distinguish


def _cmd_distinguish(args, budget: Budget) -> dict:
    lo, hi = _parse_n_range(args.n)
    if hi > 12:
        raise InputError("sample sizes above 12 are not supported")
    if hi > 8 and not args.full:
        raise InputError("sample sizes above 8 need --full")
    measure_ids = _parse_measures(args.measures, CONSISTENCY_IDS)
    if len(measure_ids) < 2:
        raise InputError("need at least two measures to distinguish")
    groups_by_n = {}
    for n in range(lo, hi + 1):
        groups = indistinguishable_groups(n, measure_ids, args.eps, budget)
        groups_by_n[str(n)] = [list(g) for g in groups]
    return {
        "command": "distinguish",
        "n_range": [lo, hi],
        "measures": measure_ids,
        "groups": groups_by_n,
    }


def _rows_distinguish(report: dict):
    return ["n", "group", "members"], [
        (n_str, idx, ";".join(group))
        for n_str, groups in report["groups"].items()
        for idx, group in enumerate(groups)
    ]


def _md_distinguish(report: dict, headers, rows) -> list[str]:
    shown = {}
    for n_str, _, members in rows:
        shown.setdefault(n_str, [])
        if ";" in members:
            shown[n_str].append("{" + members.replace(";", ", ") + "}")
    return [
        "Measures sharing a cell rank every prediction pair identically "
        "at that sample size.",
        "",
        _table(
            ["n", "order-identical groups"],
            [(n_str, "; ".join(multi) or "-") for n_str, multi in shown.items()],
        ),
    ]


# ---------------------------------------------------------------------------
# compare / rank common input handling


def _load_model_pairs(paths) -> tuple[list[str], list[LabelingPair]]:
    if len(paths) < 1:
        raise InputError("no model files given")
    parsed = [read_labels_csv(p) for p in paths]
    # Shared alphabet so every model's matrix indexes classes identically.
    alphabet = _sorted_alphabet({name for pair in parsed for name in pair.alphabet})
    pairs = [pair.with_alphabet(alphabet) for pair in parsed]
    truth = pairs[0].truth
    for path, pair in zip(paths, pairs):
        if pair.truth != truth:
            raise InputError(
                f"{path}: true column differs from {paths[0]}; "
                "all models must be scored against one truth"
            )
    names = []
    for path in paths:
        stem = Path(path).stem
        name = stem
        k = 2
        while name in names:
            name = f"{stem}_{k}"
            k += 1
        names.append(name)
    return names, pairs


def _default_for_m(m: int) -> tuple[str, ...]:
    return CONSISTENCY_IDS if m == 2 else MULTICLASS_IDS


# ---------------------------------------------------------------------------
# compare


def _cmd_compare(args, budget: Budget) -> dict:
    names, pairs = _load_model_pairs(args.labels)
    if len(pairs) < 2:
        raise InputError("compare needs at least two model files")
    m = pairs[0].m
    measure_ids = _parse_measures(args.measures, _default_for_m(m))
    matrices = [pair.matrix() for pair in pairs]
    comparisons = [
        (matrices[i], matrices[j])
        for i in range(len(matrices))
        for j in range(i + 1, len(matrices))
    ]
    result = pairwise_inconsistency(measure_ids, comparisons, args.eps)
    return {
        "command": "compare",
        "models": names,
        "n": pairs[0].n,
        "m": m,
        "model_pairs": len(comparisons),
        "measures": measure_ids,
        "pairwise": result.to_dict(),
    }


def _rows_compare(report: dict):
    pairwise = report["pairwise"]
    headers = ["measure_1", "measure_2", "inconsistent", "comparisons", "percent", "eps_sensitive"]
    return headers, [
        (*entry["pair"], entry["inconsistent"], pairwise["comparisons"],
         entry["percent"], entry["eps_sensitive"])
        for entry in pairwise["pairs"]
    ]


def _md_compare(report: dict, headers, rows) -> list[str]:
    ids = report["measures"]
    percent = {}
    for m1, m2, _, _, pct, _ in rows:
        percent[m1, m2] = percent[m2, m1] = pct
    square = [[a] + ["-" if a == b else percent[a, b] for b in ids] for a in ids]
    lines = [
        f"- models: {', '.join(report['models'])} (n = {report['n']}, m = {report['m']})",
        f"- model pairs compared: {report['model_pairs']}",
        "",
        "Share of model pairs ranked differently (%):",
        "",
        _table([""] + list(ids), square),
    ]
    sensitive = [
        f"- {m1} vs {m2}: {flips} of {total}"
        for m1, m2, _, total, _, flips in rows
        if flips
    ]
    if sensitive:
        lines += ["", "Comparisons whose verdict flips between eps/10 and 10*eps:", *sensitive]
    return lines


# ---------------------------------------------------------------------------
# rank


def _cmd_rank(args, budget: Budget) -> dict:
    names, pairs = _load_model_pairs(args.labels)
    m = pairs[0].m
    measure_ids = _parse_measures(args.measures, _default_for_m(m))
    rankings = rank_models(
        measure_ids,
        pairs[0].truth,
        [pair.pred for pair in pairs],
        names=names,
        eps=args.eps,
    )
    return {
        "command": "rank",
        "models": names,
        "n": pairs[0].n,
        "m": m,
        "measures": measure_ids,
        "rankings": [r.to_dict() for r in rankings],
    }


def _rows_rank(report: dict):
    return ["measure", "rank", "model", "value", "float"], [
        (ranking["measure"], e["rank"], e["name"], e["value"], _float_str(e["value_float"]))
        for ranking in report["rankings"]
        for e in ranking["ranking"]
    ]


def _md_rank(report: dict, headers, rows) -> list[str]:
    lines = [
        f"- models: {', '.join(report['models'])} (n = {report['n']}, m = {report['m']})"
    ]
    for measure, group in itertools.groupby(rows, key=lambda row: row[0]):
        table = _value_table(headers[1:], [row[1:] for row in group])
        lines += ["", f"## {measure}", "", table]
    return lines


# ---------------------------------------------------------------------------
# baseline


def _cmd_baseline(args, budget: Budget) -> dict:
    a_sizes = _parse_sizes(args.a, "true")
    b_sizes = _parse_sizes(args.b, "predicted")
    if len(a_sizes) != len(b_sizes):
        raise InputError("true and predicted size vectors must have equal length")
    if sum(a_sizes) != sum(b_sizes):
        raise InputError("true and predicted sizes must sum to the same total")
    measure_ids = _parse_measures(args.measures, _registry_default(len(a_sizes)))
    results = []
    for mid in measure_ids:
        desc = parse_measure_id(mid)
        if args.method == "both":
            v1 = exact_baseline_expectation(desc, a_sizes, b_sizes, "matrices", budget)
            v2 = exact_baseline_expectation(desc, a_sizes, b_sizes, "labelings", budget)
            entry = {
                "measure": desc.measure_id,
                "value": value_str(v1),
                "float": as_float(v1),
                "arithmetic": _arith_class(v1),
                "routes_agree": values_equal(v1, v2, args.eps),
            }
        else:
            v = exact_baseline_expectation(desc, a_sizes, b_sizes, args.method, budget)
            entry = {
                "measure": desc.measure_id,
                "value": value_str(v),
                "float": as_float(v),
                "arithmetic": _arith_class(v),
            }
        results.append(entry)
    return {
        "command": "baseline",
        "a": list(a_sizes),
        "b": list(b_sizes),
        "method": args.method,
        "results": results,
    }


def _rows_baseline(report: dict):
    return ["measure", "value", "float", "arithmetic", "routes_agree"], [
        (r["measure"], r["value"], _float_str(r["float"]), r["arithmetic"],
         r.get("routes_agree", ""))
        for r in report["results"]
    ]


def _md_baseline(report: dict, headers, rows) -> list[str]:
    intro = (
        f"Expected values over uniformly random predictions with class sizes "
        f"b = {tuple(report['b'])}, truth sizes a = {tuple(report['a'])} "
        f"(method: {report['method']})."
    )
    if any(row[4] != "" for row in rows):
        table = _value_table(
            headers[:4] + ["routes agree"],
            [(*row[:4], "yes" if row[4] else "NO") for row in rows],
        )
    else:
        table = _value_table(headers[:4], [row[:4] for row in rows])
    return [intro, "", table]


# ---------------------------------------------------------------------------
# dispatch


_COMMANDS = {
    "eval": (_cmd_eval, _rows_eval, _md_eval),
    "audit": (_cmd_audit, _rows_audit, _md_audit),
    "distinguish": (_cmd_distinguish, _rows_distinguish, _md_distinguish),
    "compare": (_cmd_compare, _rows_compare, _md_compare),
    "rank": (_cmd_rank, _rows_rank, _md_rank),
    "baseline": (_cmd_baseline, _rows_baseline, _md_baseline),
}


def _render(report: dict, args) -> str:
    """The report as JSON, or as its rows: CSV verbatim, markdown laid out."""
    if args.output == "json":
        return json.dumps(report, indent=2) + "\n"
    _, rows_of, layout = _COMMANDS[report["command"]]
    headers, rows = rows_of(report)
    if args.output == "csv":
        return _csv_lines(headers, rows)
    lines = [f"# {report['command']}", "", *layout(report, headers, rows)]
    if "generated" in report:
        lines += ["", f"*generated: {report['generated']}*"]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    if getattr(args, "budget", None) is not None and args.budget <= 0:
        print("error: --budget must be positive", file=sys.stderr)
        return 2
    try:
        budget = Budget(args.budget)
        builder = _COMMANDS[args.command][0]
        report = _finish(builder(args, budget), args)
        _emit(_render(report, args), args.out)
        return 0
    except (InputError, MeasureParseError, MeasureArityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EnumerationBudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
