"""One round of one workload, in a fresh interpreter.

``run.py`` starts this script once per round.  It imports the program,
optionally installs the span tracer, runs every operation of the round
once, and writes what it measured and what the program returned to a
JSON file.  It checks nothing: the checks run in the parent, which never
imports the program.

    python3 bench/worker.py --workload audit --out-dir DIR --spawned-at T \\
        [--trace] [--tiny] [--setup-only]
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import clfmeasures  # noqa: F401  (numpy and mpmath come with it)
from clfmeasures import baselines, cli, measures, orders, properties, values

#: The program is imported and ready: set-up ends here.
_READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import spans  # noqa: E402
import workloads  # noqa: E402


#: Time of :func:`_probe` on the reference host (a 2.1 GHz Xeon vCPU) when
#: nothing else contends for it.  Times are reported at that speed.
REFERENCE_PROBE_S = 0.0011
#: Seconds between two probes while operations run.
PROBE_INTERVAL_S = 0.1


def _probe() -> None:
    """A fixed mix of Fraction arithmetic, tuples, dicts and an integer
    loop, the kind of work the program does, to gauge the host's speed."""
    acc = Fraction(0)
    memo = {}
    for i in range(1, 200):
        q = Fraction(i % 7 + 1, i % 5 + 2)
        acc += q * q
        memo[(i, i % 13)] = (acc.numerator % 97, q)
    s = 0
    for i in range(5000):
        s += (i * i) % 7


class SpeedSampler:
    """Samples the host's speed on this CPU while operations run.

    On a shared machine the speed of a vCPU drifts by tens of percent
    within seconds.  A timer signal interrupts the operations every
    ``PROBE_INTERVAL_S`` to time :func:`_probe`; an operation's times are
    then scaled to the reference speed by the mean of
    ``REFERENCE_PROBE_S / probe time`` over its probes, and the time the
    probes took is taken out of them.  The garbage collector is off
    during a probe, so that it does not time collections whose cost grows
    with the program's heap.
    """

    def __init__(self):
        self.probes: list[float] = []  # probe durations
        self.spent: list[float] = []  # running total of time spent probing

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        p0 = time.perf_counter()
        _probe()
        p1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.probes.append(p1 - p0)
        self.spent.append((self.spent[-1] if self.spent else 0.0) + time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def mark(self) -> int:
        """Take a probe now; return its index.  The timer signal waits
        meanwhile, so that its probe does not nest inside this one."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self.sample()
            return len(self.probes) - 1
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def factor(self, first: int, last: int) -> float:
        """Reference over measured speed, from probes first..last."""
        probes = self.probes[first:last + 1]
        return REFERENCE_PROBE_S * sum(1 / p for p in probes) / len(probes)

    def time_between(self, first: int, last: int) -> float:
        """Time spent in probes after probe ``first`` up to before ``last``."""
        return self.spent[last - 1] - self.spent[first]


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _preservation_space(sizes: workloads.Sizes):
    m, n_max = sizes.preservation_space
    return properties.AuditSpace(
        m=m, n_max=n_max, mon_n_max=n_max, dist_n_max=n_max, cb_n_max=n_max,
        cb_min_col=1,
    )


def _run_op(op: workloads.Op, sizes: workloads.Sizes, out_dir: Path, main):
    """Run one operation; return (exit code, in-memory result or None)."""
    if op.kind == "cli":
        return main(list(op.argv) + ["--out", str(out_dir / f"{op.name}.json")]), None
    p = op.params
    if op.kind == "preservation":
        verdict = properties.check_averaging_preservation(
            p["scheme"], p["property"], spaces=(_preservation_space(sizes),)
        )
        return 0, verdict
    if op.kind == "expectations":
        m = p["m"]
        descs = [measures.parse_measure_id(mid) for mid in workloads.expectation_ids(m)]
        out = []
        for a, b in workloads.margin_pairs(m, *sizes.baseline_n):
            for desc in descs:
                v = baselines.exact_baseline_expectation(desc, a, b, p["method"])
                out.append((a, b, desc.measure_id, v))
        return 0, out
    if op.kind == "order":
        grid = None
        if sizes.order_steps is not None:
            grid = orders.default_rate_grid(sizes.order_steps)
        return 0, orders.baseline_order(p["measure"], l_max=p["l_max"], grid=grid)
    if op.kind == "normalizer":
        return 0, orders.check_gm_normalizer_conditions(
            p["r"], steps=sizes.normalizer_steps
        )
    raise ValueError(f"unknown operation kind {op.kind!r}")


def _serialize(op: workloads.Op, result) -> dict:
    if op.kind == "preservation":
        return result.to_dict()
    if op.kind == "expectations":
        return {
            "entries": [
                {"a": list(a), "b": list(b), "measure": mid,
                 "value": values.value_str(v), "type": type(v).__name__}
                for a, b, mid, v in result
            ]
        }
    if op.kind == "order":
        return result.to_dict()
    if op.kind == "normalizer":
        return {**result, "conditions": [c.to_dict() for c in result["conditions"]]}
    raise ValueError(op.kind)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--data-dir", type=Path)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="measure the set-up time and run no operation")
    args = parser.parse_args(argv)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    sampler = SpeedSampler()
    setup_probes = [sampler.mark() for _ in range(3)]
    raw_setup = _READY - args.spawned_at
    setup = {"setup_s": raw_setup * sampler.factor(setup_probes[0], setup_probes[-1]),
             "raw_setup_s": raw_setup}
    if args.setup_only:
        (args.out_dir / "round.json").write_text(json.dumps(setup), encoding="utf-8")
        return 0

    sizes = workloads.TINY if args.tiny else workloads.FULL
    ops = workloads.operations(args.workload, sizes, args.data_dir)

    tracer = None
    main_fn = cli.main
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
        main_fn = tracer.wrap(spans.CLI_MAIN, cli.main)

    sampler.start()
    records = []
    results = []
    before = sampler.mark()
    for op in ops:
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            rc, result = _run_op(op, sizes, args.out_dir, main_fn)
            error = None
        except Exception:  # reported as a failed operation by the parent
            rc, result, error = None, None, traceback.format_exc(limit=4)
        t1 = time.perf_counter()
        cpu1 = _cpu_seconds()
        after = sampler.mark()
        probing = sampler.time_between(before, after)
        seconds = t1 - t0 - probing
        cpu = cpu1 - cpu0 - probing
        factor = sampler.factor(before, after)
        records.append({"name": op.name, "rc": rc, "error": error,
                        "raw_seconds": seconds, "seconds": seconds * factor,
                        "cpu": cpu * factor})
        results.append(result)
        before = after
    sampler.stop()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    trace_path = None
    if tracer is not None:
        trace_path = args.out_dir / "spans.bin"
        tracer.write(trace_path)
    for op, rec, result in zip(ops, records, results):
        if result is not None:
            path = args.out_dir / f"{op.name}.json"
            path.write_text(json.dumps(_serialize(op, result)), encoding="utf-8")

    raw_wall = sum(rec["raw_seconds"] for rec in records)
    wall = sum(rec["seconds"] for rec in records)
    summary = {
        **setup,
        "wall_s": wall,
        "cpu_s": sum(rec["cpu"] for rec in records),
        "peak_rss_mb": peak_kb / 1024.0,
        "raw_wall_s": raw_wall,
        "speed": wall / raw_wall if raw_wall else 1.0,
        "ops": records,
        "trace": str(trace_path) if trace_path else None,
    }
    (args.out_dir / "round.json").write_text(json.dumps(summary), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
