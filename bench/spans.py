"""Span tracing of the program's public functions, from outside it.

:func:`install` replaces each traced function at every place where
callers look it up (the defining module and every module that imported
it by name), so a call records a span whichever path reaches it.  A span
is (name, start, end, parent).  Spans stay in memory in flat arrays and
are written out once, when the round ends; :func:`layer_metrics` turns a
written trace into the per-layer metrics.

A few facts are counted at the same boundaries instead of being derived
from spans: comparison kinds, mpmath fallbacks of ``value_sum``, rows
parsed, ``Verdict.checked``, items yielded by the enumerators and
matrix pairs compared.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from pathlib import Path

# Span names.
CLI_MAIN = "cli.main"
MATRIX = "core.ConfusionMatrix"
ENUM = "core.enumerate"
EVALUATE = "measures.evaluate"
EXTEND = "averaging.extend"
CMP = "values.value_cmp"
CHECK = "properties.check_property"
EXPECT_MATRICES = "baselines.expectation.matrices"
EXPECT_LABELINGS = "baselines.expectation.labelings"
ORDERS = "orders"
INCONSISTENCY = "inconsistency"
PARSE = "dataio.read_labels_csv"


class Tracer:
    """Span store: parallel arrays indexed by span number."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.kind = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.kind)
        self.kind.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, after=None):
        """``fn`` recording one span per call; ``name`` may be a callable
        choosing the span name from the call's arguments."""
        pick = name if callable(name) else None
        fixed = None if pick else self.name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            i = tracer.open(fixed if pick is None else tracer.name_id(pick(args, kwargs)))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, genfn, item_counter: str):
        """A generator function whose every ``next`` is one span."""
        nid = self.name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            it = genfn(*args, **kwargs)
            while True:
                i = tracer.open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(i)
                tracer.counts[item_counter] += 1
                yield item

        traced.__wrapped__ = genfn
        return traced

    def count_generator(self, genfn, item_counter: str):
        """A generator function counting its items, without spans."""
        tracer = self

        def counted(*args, **kwargs):
            for item in genfn(*args, **kwargs):
                tracer.counts[item_counter] += 1
                yield item

        counted.__wrapped__ = genfn
        return counted

    def write(self, path: Path) -> None:
        """Write the spans and counts: a JSON header line, then the arrays."""
        header = {
            "names": self.names,
            "spans": len(self.kind),
            "counts": dict(self.counts),
            "typecodes": [a.typecode for a in (self.kind, self.parent, self.start, self.end)],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.kind, self.parent, self.start, self.end):
                arr.tofile(fh)


def _patch(modules, attr: str, replacement) -> None:
    for mod in modules:
        if hasattr(mod, attr):
            setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the traced functions at every lookup site."""
    import clfmeasures
    from clfmeasures import (
        averaging, baselines, cli, core, dataio, inconsistency, measures,
        orders, properties, values,
    )

    counts = tracer.counts
    pkg = (clfmeasures,)

    orig_init = core.ConfusionMatrix.__init__
    core.ConfusionMatrix.__init__ = tracer.wrap(MATRIX, orig_init)

    for attr in ("enumerate_confusion_matrices", "enumerate_labelings"):
        traced = tracer.wrap_generator(ENUM, getattr(core, attr), "enum_states")
        _patch((core, baselines, inconsistency) + pkg, attr, traced)

    _patch(
        (measures, properties, baselines, orders, cli) + pkg,
        "evaluate",
        tracer.wrap(EVALUATE, measures.evaluate),
    )
    for attr in ("micro_extend", "macro_extend", "weighted_extend"):
        _patch((averaging,) + pkg, attr, tracer.wrap(EXTEND, getattr(averaging, attr)))

    is_exact = values.is_exact

    def count_cmp(args, kwargs, result):
        if is_exact(args[0]) and is_exact(args[1]):
            counts["cmp_exact"] += 1
        elif result:
            counts["cmp_float_decided"] += 1
        else:
            counts["cmp_float_tie"] += 1

    _patch(
        (values, properties, inconsistency, orders) + pkg,
        "value_cmp",
        tracer.wrap(CMP, values.value_cmp, count_cmp),
    )

    orig_sum = values.value_sum
    mpf = values.mpmath.mpf

    def value_sum(terms):
        result = orig_sum(terms)
        if isinstance(result, mpf):
            counts["sum_mpf"] += 1
        return result

    _patch((values, averaging, baselines, orders, properties), "value_sum", value_sum)

    def count_checked(args, kwargs, verdict):
        counts["checked"] += verdict.checked

    _patch(
        (properties, cli) + pkg,
        "check_property",
        tracer.wrap(CHECK, properties.check_property, count_checked),
    )

    def expectation_name(args, kwargs):
        method = kwargs.get("method", args[3] if len(args) > 3 else "matrices")
        return EXPECT_LABELINGS if method == "labelings" else EXPECT_MATRICES

    _patch(
        (baselines, properties, cli) + pkg,
        "exact_baseline_expectation",
        tracer.wrap(expectation_name, baselines.exact_baseline_expectation),
    )

    for attr in ("baseline_order", "check_gm_normalizer_conditions"):
        _patch((orders,) + pkg, attr, tracer.wrap(ORDERS, getattr(orders, attr)))

    _patch(
        (inconsistency,),
        "margin_matrix_pairs",
        tracer.count_generator(inconsistency.margin_matrix_pairs, "pairs_compared"),
    )

    def count_comparisons(args, kwargs, result):
        comparisons = kwargs.get("comparisons", args[1] if len(args) > 1 else ())
        counts["pairs_compared"] += len(comparisons)

    for attr, after in (
        ("indistinguishable_groups", None),
        ("pairwise_inconsistency", count_comparisons),
        ("rank_models", None),
    ):
        _patch(
            (inconsistency, cli) + pkg,
            attr,
            tracer.wrap(INCONSISTENCY, getattr(inconsistency, attr), after),
        )

    def count_rows(args, kwargs, pair):
        counts["rows_parsed"] += pair.n

    _patch(
        (dataio, cli) + pkg,
        "read_labels_csv",
        tracer.wrap(PARSE, dataio.read_labels_csv, count_rows),
    )


def read(path: Path):
    """Load a trace written by :meth:`Tracer.write`."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        arrays = []
        for code in header["typecodes"]:
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return header, arrays


#: Per-layer metrics of BENCHMARK.json, in order, with their units.
LAYER_METRICS = (
    ("core.matrices_built", "count"),
    ("core.matrix_build_s", "s"),
    ("core.enum_states", "count"),
    ("core.enum_s", "s"),
    ("measures.evaluate_calls", "count"),
    ("measures.evaluate_s", "s"),
    ("measures.evaluate_us", "us"),
    ("averaging.extend_calls", "count"),
    ("averaging.extend_s", "s"),
    ("values.cmp_calls", "count"),
    ("values.cmp_s", "s"),
    ("values.cmp_exact", "count"),
    ("values.cmp_float_decided", "count"),
    ("values.cmp_float_tie", "count"),
    ("values.sum_mpf", "count"),
    ("properties.checked", "count"),
    ("properties.check_s", "s"),
    ("properties.evals_per_check", "ratio"),
    ("baselines.expectations", "count"),
    ("baselines.matrices_route_s", "s"),
    ("baselines.labelings_route_s", "s"),
    ("orders.s", "s"),
    ("inconsistency.pairs_compared", "count"),
    ("inconsistency.s", "s"),
    ("inconsistency.evals_per_pair", "ratio"),
    ("dataio.parse_calls", "count"),
    ("dataio.parse_s", "s"),
    ("dataio.rows_per_s", "rows/s"),
    ("cli.self_s", "s"),
)


def layer_metrics(path: Path, speed: float = 1.0) -> dict:
    """Per-layer metrics of one written trace (without ``trace.overhead_s``).

    Times are multiplied by ``speed``, the round's factor from measured to
    reference host speed, like the end-to-end times.
    """
    header, (kind, parent, start, end) = read(path)
    names = header["names"]
    counts = header["counts"]
    ids = {name: i for i, name in enumerate(names)}
    n_names = len(names)
    n = len(kind)

    def nid(name):
        return ids.get(name, -1)

    check_id, incons_id, eval_id = nid(CHECK), nid(INCONSISTENCY), nid(EVALUATE)
    # Inherited flags: 1 = below check_property, 2 = below an inconsistency call.
    flags = bytearray(n)
    child = [0.0] * n
    calls = [0] * n_names
    total = [0.0] * n_names
    evals_below = [0, 0]
    for i in range(n):
        k = kind[i]
        p = parent[i]
        dur = end[i] - start[i]
        calls[k] += 1
        total[k] += dur
        f = 0
        if p >= 0:
            child[p] += dur
            f = flags[p]
        if k == eval_id:
            if f & 1:
                evals_below[0] += 1
            if f & 2:
                evals_below[1] += 1
        if k == check_id:
            f |= 1
        elif k == incons_id:
            f |= 2
        flags[i] = f
    self_time = [0.0] * n_names
    for i in range(n):
        self_time[kind[i]] += end[i] - start[i] - child[i]

    def c(name):
        k = nid(name)
        return calls[k] if k >= 0 else 0

    def t(name):
        k = nid(name)
        return total[k] if k >= 0 else 0.0

    def s(name):
        k = nid(name)
        return self_time[k] if k >= 0 else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    evaluate_calls = c(EVALUATE)
    checked = counts.get("checked", 0)
    pairs = counts.get("pairs_compared", 0)
    parse_s = t(PARSE)
    out = {
        "core.matrices_built": c(MATRIX),
        "core.matrix_build_s": t(MATRIX),
        "core.enum_states": counts.get("enum_states", 0),
        "core.enum_s": s(ENUM),
        "measures.evaluate_calls": evaluate_calls,
        "measures.evaluate_s": s(EVALUATE),
        "measures.evaluate_us": ratio(s(EVALUATE), evaluate_calls) * 1e6,
        "averaging.extend_calls": c(EXTEND),
        "averaging.extend_s": s(EXTEND),
        "values.cmp_calls": c(CMP),
        "values.cmp_s": t(CMP),
        "values.cmp_exact": counts.get("cmp_exact", 0),
        "values.cmp_float_decided": counts.get("cmp_float_decided", 0),
        "values.cmp_float_tie": counts.get("cmp_float_tie", 0),
        "values.sum_mpf": counts.get("sum_mpf", 0),
        "properties.checked": checked,
        "properties.check_s": s(CHECK),
        "properties.evals_per_check": ratio(evals_below[0], checked),
        "baselines.expectations": c(EXPECT_MATRICES) + c(EXPECT_LABELINGS),
        "baselines.matrices_route_s": t(EXPECT_MATRICES),
        "baselines.labelings_route_s": t(EXPECT_LABELINGS),
        "orders.s": t(ORDERS),
        "inconsistency.pairs_compared": pairs,
        "inconsistency.s": s(INCONSISTENCY),
        "inconsistency.evals_per_pair": ratio(evals_below[1], pairs),
        "dataio.parse_calls": c(PARSE),
        "dataio.parse_s": parse_s,
        "dataio.rows_per_s": ratio(counts.get("rows_parsed", 0), parse_s),
        "cli.self_s": s(CLI_MAIN),
    }
    for name, unit in LAYER_METRICS:
        if unit in ("s", "us"):
            out[name] *= speed
        elif unit == "rows/s":
            out[name] /= speed
    return out
