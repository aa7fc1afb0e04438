"""Fast self-test of the benchmark, at tiny sizes.

    python3 bench/selftest.py

Run from the root of a source checkout; it takes about a minute.  It runs
every workload end to end, untraced and traced, at the ``TINY`` sizes,
and shows that a corrupted output is counted as a failed operation and
clears ``correct``.  It exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
import spans
import workloads

SEED = 7


class SelfTestFailed(Exception):
    pass


def expect(cond, message: str) -> None:
    if not cond:
        raise SelfTestFailed(message)


def _first_matrix_witness(report: dict) -> dict:
    return next(g["witness"] for g in report["grid"]
                if g["status"] == "violated" and "values" in g["witness"])


def _merge_two_groups(report: dict) -> None:
    groups = report["groups"][max(report["groups"], key=int)]
    groups[0].extend(groups.pop(1))


def _swap_ranking(report: dict) -> None:
    ranking = report["rankings"][0]["ranking"]
    ranking[0]["name"], ranking[1]["name"] = ranking[1]["name"], ranking[0]["name"]


#: (workload, operation, what is corrupted, corruption of its output).
CORRUPTIONS = (
    ("audit", "audit_m3", "a witness value",
     lambda r: _first_matrix_witness(r)["values"].__setitem__(0, "12345/7")),
    ("audit", "audit_m3", "a satisfied verdict's cell",
     lambda r: r["grid"].pop()),
    ("preservation", "preserve_weighted_mon", "a witness float",
     lambda r: r["inner"]["witness"]["value_floats"].__setitem__(1, 0.5)),
    ("preservation", "preserve_macro_acb", "a verdict's status",
     lambda r: r.__setitem__("status", "not_preserved")),
    ("baselines", "expect_m3_labelings", "an expectation",
     lambda r: r["entries"][0].__setitem__("value", "1/7")),
    ("baselines", "order_cd", "a baseline order",
     lambda r: r.__setitem__("order", 3)),
    ("baselines", "normalizer_r2", "a normalizer verdict",
     lambda r: r["conditions"][2].__setitem__("holds", False)),
    ("cli", "eval_binary", "an eval value",
     lambda r: r["results"][3].__setitem__("value", "1/3")),
    ("cli", "compare", "an inconsistency count",
     lambda r: r["pairwise"]["pairs"][0].__setitem__(
         "inconsistent", r["pairwise"]["pairs"][0]["inconsistent"] + 1)),
    ("cli", "rank", "a ranking order", _swap_ranking),
    ("cli", "distinguish", "the groups", _merge_two_groups),
    ("cli", "baseline", "a routes_agree flag",
     lambda r: r["results"][0].__setitem__("routes_agree", False)),
)


def corrupted_tally(result: dict, op_name: str, mutate) -> dict:
    """Tally of the run with one output of its first round corrupted."""
    out = result["rounds"][0][0]
    path = out / f"{op_name}.json"
    original = path.read_text(encoding="utf-8")
    doc = json.loads(original)
    mutate(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        return run.tally(result["ops"], result["rounds"], workloads.TINY, SEED)
    finally:
        path.write_text(original, encoding="utf-8")


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "clfmeasures" / "__init__.py").is_file():
        print("error: run from the root of a clfmeasures source checkout", file=sys.stderr)
        return 2
    base = root / run.WORK_DIR / "selftest"
    try:
        results = {}
        for workload in workloads.WORKLOADS:
            result = run.run(workload, SEED, 0, False, root, workloads.TINY,
                             keep=base / workload)
            rounds = len(result["rounds"])
            ops = workloads.operations(workload, workloads.TINY, base / workload / "data")
            known = sum(1 for op in ops if op.known_fault)
            expect(result["correct"], f"{workload}: {result['failures']}")
            expect(result["attempted"] == rounds * len(ops), f"{workload}: attempted")
            expect(result["failed"] == rounds * known, f"{workload}: failed {result['failed']}")
            expect(set(result["metrics"]) == {name for name, _ in run.END_TO_END},
                   f"{workload}: end-to-end metrics")
            results[workload] = result
            print(f"ok   {workload}: {result['attempted']} attempted, "
                  f"{result['failed']} failed by the known fault")

        for workload, op_name, what, mutate in CORRUPTIONS:
            clean = results[workload]
            tally = corrupted_tally(clean, op_name, mutate)
            expect(tally["failed"] == clean["failed"] + 1 and not tally["correct"],
                   f"{workload}/{op_name}: corrupting {what} was not counted as failed")
            reason = next(r for name, r, _ in tally["failures"] if name == op_name)
            print(f"ok   {workload}/{op_name}: corrupted {what} -> failed ({reason})")

        for workload in workloads.WORKLOADS:
            traced = [
                run.run(workload, SEED, 0, True, root, workloads.TINY,
                        keep=base / f"{workload}-traced{k}")
                for k in range(2)
            ]
            names = [name for name, _ in spans.LAYER_METRICS] + ["trace.overhead_s"]
            for result in traced:
                expect(result["correct"], f"{workload} traced: {result['failures']}")
                expect(list(result["metrics"]) == names, f"{workload}: per-layer metrics")
            counts = [
                {name: r["metrics"][name]["value"]
                 for name, unit in spans.LAYER_METRICS if unit == "count"}
                for r in traced
            ]
            expect(counts[0] == counts[1], f"{workload}: counts differ between traced runs")
            print(f"ok   {workload}: traced twice, identical counts")
    except SelfTestFailed as exc:
        print(f"FAILED {exc}")
        return 1
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            (root / run.WORK_DIR).rmdir()
        except OSError:
            pass
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
