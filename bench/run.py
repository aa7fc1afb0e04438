"""Benchmark of clfmeasures: one workload, timed from outside the program.

    python3 bench/run.py --workload audit --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout.  The run repeats whole rounds of
the workload's operations until ``--seconds`` have passed (at least
three rounds untraced), each round in a fresh single-threaded
interpreter (``worker.py``), then checks every output with the
benchmark's own evaluator (``checks.py``).  The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (medians over
rounds); with ``--trace 1`` each round runs once untraced and once
traced, and the metrics are the per-layer ones from the traced rounds
plus ``trace.overhead_s``.  Failed operations are listed on standard
output before that line, with the reason.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
#: Where runs keep their inputs and outputs, relative to the checkout.
WORK_DIR = ".bench_work"
MIN_ROUNDS = 3
#: Interpreters started only to time set-up, on top of one per round.
SETUP_LAUNCHES = 8
ROUND_TIMEOUT_S = 150

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env.pop("MEASURE_AUDIT_BUDGET", None)  # the program's budget default applies
    env["PYTHONHASHSEED"] = "0"
    return env


def run_round(workload, root: Path, out_dir: Path, data_dir: Path | None,
              trace: bool, tiny: bool, setup_only: bool = False) -> dict:
    """Run one round in a fresh interpreter; return what it measured."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--out-dir", str(out_dir)]
    if data_dir is not None:
        cmd += ["--data-dir", str(data_dir)]
    for flag, on in (("--trace", trace), ("--tiny", tiny), ("--setup-only", setup_only)):
        if on:
            cmd.append(flag)
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned)],
        cwd=root, env=_child_env(root), capture_output=True, text=True,
        timeout=ROUND_TIMEOUT_S,
    )
    summary = out_dir / "round.json"
    if proc.returncode != 0 or not summary.is_file():
        raise RuntimeError(
            f"worker for {workload} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(summary.read_text(encoding="utf-8"))


def run_setups(workload: str, root: Path, work: Path, tiny: bool) -> list:
    """Set-up times of ``SETUP_LAUNCHES`` interpreters that run nothing."""
    return [
        run_round(workload, root, work / f"setup{k}", None, False, tiny, setup_only=True)
        for k in range(SETUP_LAUNCHES)
    ]


def run_rounds(workload: str, seconds: float, trace: bool, root: Path, work: Path,
               data_dir: Path | None, tiny: bool) -> list:
    """Whole rounds until ``seconds`` have passed: [(out_dir, summary, traced)]."""
    rounds = []
    begin = time.monotonic()
    while True:
        k = sum(1 for r in rounds if not r[2])
        out = work / f"round{k}"
        rounds.append((out, run_round(workload, root, out, data_dir, False, tiny), False))
        if trace:
            out = work / f"round{k}t"
            rounds.append((out, run_round(workload, root, out, data_dir, True, tiny), True))
        if time.monotonic() - begin >= seconds and (trace or k + 1 >= MIN_ROUNDS):
            return rounds


def tally(ops, rounds, sizes: workloads.Sizes, seed: int) -> dict:
    """Check every operation of every round; count attempted and failed.

    An operation fails when it raises, exits with another code than the
    documented one, or its output does not pass its check.  ``correct``
    stays true only if every failure is the known fault of its operation.
    Identical outputs are checked once.
    """
    cache = checks.LabelsCache()
    verdicts: dict = {}
    attempted = failed = 0
    correct = True
    failures = []
    for out, summary, _ in rounds:
        for op, record in zip(ops, summary["ops"]):
            attempted += 1
            path = out / f"{op.name}.json"
            digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
            key = (op.name, record["rc"], record.get("error"), digest)
            if key not in verdicts:
                verdicts[key] = checks.check_op(op, record, out, sizes, seed, cache)
            reason = verdicts[key]
            if reason is None:
                continue
            failed += 1
            known = op.known_fault is not None and record["rc"] == 0
            correct = correct and known
            failures.append((op.name, reason, op.known_fault if known else None))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "failures": failures}


def metrics_of(rounds, setups, trace: bool) -> dict:
    """End-to-end metrics (medians over untraced rounds; ``setup_s`` also
    over the set-up launches), or with ``trace`` the per-layer ones (from
    traced rounds) and ``trace.overhead_s``."""
    plain = [s for _, s, traced in rounds if not traced]
    metrics = {}
    if not trace:
        for name, unit in END_TO_END:
            samples = plain + setups if name == "setup_s" else plain
            metrics[name] = {"value": statistics.median(s[name] for s in samples),
                             "unit": unit}
        return metrics
    traced = [s for _, s, t in rounds if t]
    per_round = [spans.layer_metrics(Path(s["trace"]), s["speed"]) for s in traced]
    for name, unit in spans.LAYER_METRICS:
        metrics[name] = {"value": statistics.median_low(r[name] for r in per_round),
                         "unit": unit}
    overhead = (statistics.median(s["wall_s"] for s in traced)
                - statistics.median(s["wall_s"] for s in plain))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path,
        sizes: workloads.Sizes = workloads.FULL, keep: Path | None = None) -> dict:
    """Run one workload and check it; return the result, with the rounds'
    summaries and the failures under ``rounds`` and ``failures``.

    ``keep``, if given, is the directory the run's inputs and outputs are
    written to and left in; otherwise they go to a fresh directory under
    the checkout that is removed at the end.
    """
    tiny = sizes is workloads.TINY
    work = keep or root / WORK_DIR / f"{workload}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        data_dir = None
        if workload == "cli":
            data_dir = work / "data"
            workloads.make_labels_files(data_dir, seed, sizes.rows)
        ops = workloads.operations(workload, sizes, data_dir)
        setups = [] if trace else run_setups(workload, root, work, tiny)
        rounds = run_rounds(workload, seconds, trace, root, work, data_dir, tiny)
        result = tally(ops, rounds, sizes, seed)
        result["metrics"] = metrics_of(rounds, setups, trace)
        result["ops"] = ops
        result["rounds"] = rounds
        return result
    finally:
        if keep is None:
            shutil.rmtree(work, ignore_errors=True)
            try:
                (root / WORK_DIR).rmdir()
            except OSError:
                pass


def _report(workload: str, result: dict) -> None:
    """Human-readable details: per-operation times on standard error, and
    each distinct failure on standard output."""
    plain = [s for _, s, traced in result["rounds"] if not traced]
    print(f"{workload}: {len(plain)} untraced rounds", file=sys.stderr)
    for key in ("wall_s", "raw_wall_s", "setup_s", "raw_setup_s", "speed"):
        vals = ", ".join(f"{s[key]:.3f}" for s in plain)
        print(f"  {key}: {vals}", file=sys.stderr)
    for i, op in enumerate(result["ops"]):
        med = statistics.median(s["ops"][i]["seconds"] for s in plain)
        print(f"  {op.name}: {med:.3f} s (median, at reference speed)", file=sys.stderr)
    failures = result["failures"]
    for name, reason, known in dict.fromkeys(failures):
        count = failures.count((name, reason, known))
        fault = f" [known fault: {known}]" if known else ""
        print(f"FAILED {workload}/{name} x{count}: {reason}{fault}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="clfmeasures benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "clfmeasures" / "__init__.py").is_file():
        print("error: run from the root of a clfmeasures source checkout "
              "(src/clfmeasures not found)", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _report(args.workload, result)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
