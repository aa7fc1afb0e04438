"""Checks of every operation's output against the benchmark's own
evaluator (``reference``) or against a property the method must have.

No check compares with a saved copy of an earlier output.  A check
raises :class:`CheckFailed` with the reason; :func:`check_op` turns that
into the reason string of a failed operation.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import reference as ref
import workloads
from workloads import Op, Sizes


class CheckFailed(Exception):
    """An output is not what the program should have produced."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# The program's documented defaults that the checks rely on.
CLI_BINARY_DEFAULT = ("acc", "ba", "f:beta=1", "kappa", "ce", "gm:r=1", "cc", "sba")
CLI_MULTICLASS_DEFAULT = ("acc", "ba", "kappa", "ce", "cc", "sba", "cd")
#: ``audit --preservation`` spaces per property, as (m, n_max) pairs.
PRESERVATION_DEFAULT_SPACES = {"smon": ((3, 5), (4, 5))}
PRESERVATION_OTHER_SPACES = ((3, 5), (4, 4))


def space_dict(m: int, n_max: int) -> dict:
    """A preservation space in the shape of ``Verdict.space``."""
    return {"m": m, "n_max": n_max, "mon_n_max": n_max, "dist_n_max": n_max,
            "cb_n": [2, n_max], "min_row": 1, "cb_min_col": 1}


# ---------------------------------------------------------------------------
# random points of an audit space


def _composition(rng: random.Random, n: int, m: int, min_part: int = 0):
    free = n - m * min_part
    cuts = sorted(rng.sample(range(free + m - 1), m - 1))
    parts, prev = [], -1
    for c in cuts + [free + m - 1]:
        parts.append(c - prev - 1 + min_part)
        prev = c
    return tuple(parts)


def _random_matrix(rng, m, n_lo, n_hi, min_row, shape=None):
    """A matrix of the space; ``shape`` 'diagonal' or 'zero_diagonal'
    draws from that subset."""
    while True:
        n = rng.randint(n_lo, n_hi)
        if n >= m * min_row:
            break
    a = _composition(rng, n, m, min_row)
    rows = []
    for i, ai in enumerate(a):
        if shape == "diagonal":
            rows.append(tuple(ai if j == i else 0 for j in range(m)))
        elif shape == "zero_diagonal":
            off = list(_composition(rng, ai, m - 1))
            off.insert(i, 0)
            rows.append(tuple(off))
        else:
            rows.append(_composition(rng, ai, m))
    return tuple(rows)


def _draw(accept, make, what: str, tries: int = 10_000):
    for _ in range(tries):
        C = make()
        if accept(C):
            return C
    raise CheckFailed(f"no {what} found in the audit space")


def _edit(C, decrement=None, increment=None):
    cells = [list(row) for row in C]
    if decrement is not None:
        cells[decrement[0]][decrement[1]] -= 1
    if increment is not None:
        cells[increment[0]][increment[1]] += 1
    return tuple(tuple(row) for row in cells)


def _off_diagonal_cells(C):
    m = len(C)
    return [(i, j) for i in range(m) for j in range(m) if i != j and C[i][j] >= 1]


def _margin_point(rng, space):
    m = space["m"]
    lo, hi = space["cb_n"]
    while True:
        n = rng.randint(lo, hi)
        if n < m * space["cb_min_col"]:
            continue
        a = _composition(rng, n, m)
        b = _composition(rng, n, m, space["cb_min_col"])
        if max(b) < n:
            return a, b


def _describe(C) -> str:
    return json.dumps([[str(x) for x in row] for row in C])


def check_points(mid: str, prop: str, space: dict, rng: random.Random, k: int) -> None:
    """The property holds at ``k`` seeded random points of the space."""
    m = space["m"]
    n_max, min_row = space["n_max"], space["min_row"]

    def ov(C):
        return ref.oriented_value(mid, C)

    for _ in range(k):
        if prop in ("max", "min"):
            shape = "diagonal" if prop == "max" else "zero_diagonal"
            flag = ref.is_diagonal if prop == "max" else ref.is_zero_diagonal
            E1 = _random_matrix(rng, m, 1, n_max, min_row, shape)
            E2 = _random_matrix(rng, m, 1, n_max, min_row, shape)
            C = _draw(lambda X: not flag(X),
                      lambda: _random_matrix(rng, m, 1, n_max, min_row), "matrix")
            require(ref.cmp(ov(E1), ov(E2)) == 0,
                    f"{mid}/{prop}: {_describe(E1)} and {_describe(E2)} differ")
            side = ref.cmp(ov(C), ov(E1))
            require(side < 0 if prop == "max" else side > 0,
                    f"{mid}/{prop}: {_describe(C)} reaches the extreme of {_describe(E1)}")
        elif prop == "sym":
            C = _random_matrix(rng, m, 1, n_max, min_row)
            require(ref.cmp(ov(C), ov(ref.transpose(C))) == 0,
                    f"{mid}/sym: transpose of {_describe(C)} differs")
        elif prop == "csym":
            C = _random_matrix(rng, m, 1, n_max, min_row)
            p = rng.choice(ref.non_identity_permutations(m))
            require(ref.cmp(ov(C), ov(ref.permute(C, p))) == 0,
                    f"{mid}/csym: permutation {p} of {_describe(C)} differs")
        elif prop == "dist":
            n = rng.randint(1, space["dist_n_max"])
            A, B, D = ([rng.randrange(m) for _ in range(n)] for _ in range(3))
            c_max = ov(ref.identity(m))
            vab = ov(ref.confusion(A, B, m))
            vbd = ov(ref.confusion(B, D, m))
            vad = ov(ref.confusion(A, D, m))
            require(ref.cmp(vab, ov(ref.confusion(B, A, m))) == 0,
                    f"{mid}/dist: d({A},{B}) is not symmetric")
            if A != B:
                require(ref.cmp(vab, c_max, ref.DIST_TOL) < 0,
                        f"{mid}/dist: distinct {A}, {B} at distance zero")
            lhs, rhs = ref.vsum([vab, vbd]), ref.vsum([vad, c_max])
            require(ref.cmp(lhs, rhs, ref.DIST_TOL) <= 0,
                    f"{mid}/dist: triangle fails on {A}, {B}, {D}")
        elif prop == "mon":
            edit_n = space["mon_n_max"]
            C = _draw(
                lambda X: not ref.has_unary_margin(X) and _off_diagonal_cells(X),
                lambda: _random_matrix(rng, m, 2, edit_n, 0),
                "non-constant matrix with a confusion",
            )
            i, j = rng.choice(_off_diagonal_cells(C))
            t = rng.choice((i, j))
            Ct = _edit(C, (i, j), (t, t))
            require(ref.cmp(ov(Ct), ov(C)) >= 0,
                    f"{mid}/mon: resolving ({i},{j}) into ({t},{t}) lowers {_describe(C)}")
        elif prop == "smon":
            edit_n = space["mon_n_max"]
            C = _draw(lambda X: not ref.has_unary_margin(X),
                      lambda: _random_matrix(rng, m, 1, edit_n, 0), "non-constant matrix")
            if not ref.is_diagonal(C):
                i = rng.randrange(m)
                Ct = _edit(C, increment=(i, i))
                require(ref.cmp(ov(Ct), ov(C)) > 0,
                        f"{mid}/smon: adding to ({i},{i}) does not raise {_describe(C)}")
            cells = _off_diagonal_cells(C)
            if not ref.is_zero_diagonal(C) and cells:
                i, j = rng.choice(cells)
                Ct = _edit(C, decrement=(i, j))
                require(ref.cmp(ov(Ct), ov(C)) > 0,
                        f"{mid}/smon: removing ({i},{j}) does not raise {_describe(C)}")
        elif prop in ("cb", "acb"):
            (a1, b1), (a2, b2) = _margin_point(rng, space), _margin_point(rng, space)
            if prop == "cb":
                v1, v2 = ref.expectation(mid, a1, b1), ref.expectation(mid, a2, b2)
            else:
                v1 = ref.value(mid, ref.expected_matrix(a1, b1))
                v2 = ref.value(mid, ref.expected_matrix(a2, b2))
            require(ref.cmp(v1, v2) == 0,
                    f"{mid}/{prop}: margins {a1},{b1} and {a2},{b2} give different values")
        else:
            raise CheckFailed(f"unknown property {prop!r}")


# ---------------------------------------------------------------------------
# witnesses


def _matrix(encoded, m: int):
    C = tuple(tuple(Fraction(x) for x in row) for row in encoded)
    require(len(C) == m and all(len(row) == m for row in C), f"witness matrix is not {m}x{m}")
    return tuple(tuple(int(x) if x.denominator == 1 else x for x in row) for row in C)


def _recorded_values(mid: str, w: dict, mats) -> list:
    vals = [ref.value(mid, C) for C in mats]
    require(len(w["values"]) == len(mats) == len(w["value_floats"]),
            f"{mid}: witness lists differ in length")
    for C, printed, fl, mine in zip(mats, w["values"], w["value_floats"], vals):
        require(ref.same_value(printed, mine),
                f"{mid}: witness value {printed} on {_describe(C)} is not the measure's value")
        require(ref.same_float(fl, mine),
                f"{mid}: witness float {fl} on {_describe(C)} is not the measure's value")
    return [ref.oriented(mid, v) for v in vals]


def replay_witness(mid: str, prop: str, w: dict, m: int) -> None:
    """The relation the witness's kind claims holds under the reference."""
    kind = w["kind"]
    if kind.startswith("prerequisite_"):
        inner_prop = kind[len("prerequisite_"):-len("_failed")]
        require(prop == "dist" and inner_prop in ("sym", "max"), f"{mid}: unexpected {kind}")
        return replay_witness(mid, inner_prop, w["inner"], m)
    if kind == "constant_depends_on_margins":
        require(prop in ("cb", "acb"), f"{mid}: {kind} for {prop}")
        found = []
        for side in (w["first"], w["second"]):
            a, b = tuple(side["a"]), tuple(side["b"])
            require(len(a) == len(b) == m and sum(a) == sum(b) == side["n"],
                    f"{mid}: bad margins {a}, {b}")
            v = ref.expectation(mid, a, b) if prop == "cb" else ref.value(
                mid, ref.expected_matrix(a, b))
            require(ref.same_value(side["value"], v),
                    f"{mid}/{prop}: recorded {side['value']} at {a},{b} is wrong")
            found.append(v)
        require(ref.cmp(found[0], found[1]) != 0, f"{mid}/{prop}: the two values are equal")
        return
    mats = [_matrix(x, m) for x in w["matrices"]]
    ov = _recorded_values(mid, w, mats)
    if kind in ("diagonal_values_differ", "zero_diagonal_values_differ"):
        flag = ref.is_diagonal if kind == "diagonal_values_differ" else ref.is_zero_diagonal
        require(prop in ("max", "min") and all(flag(C) for C in mats), f"{mid}: {kind} shape")
        require(ref.cmp(ov[0], ov[1]) != 0, f"{mid}/{prop}: {kind} values are equal")
    elif kind == "reaches_max_off_diagonal":
        require(not ref.is_diagonal(mats[0]) and ref.is_diagonal(mats[1]), f"{mid}: {kind} shape")
        require(ref.cmp(ov[0], ov[1]) >= 0, f"{mid}/max: off-diagonal value is lower")
    elif kind == "reaches_min_off_zero_diagonal":
        require(not ref.is_zero_diagonal(mats[0]) and ref.is_zero_diagonal(mats[1]),
                f"{mid}: {kind} shape")
        require(ref.cmp(ov[0], ov[1]) <= 0, f"{mid}/min: value is higher")
    elif kind == "transpose_differs":
        require(mats[1] == ref.transpose(mats[0]), f"{mid}: not a transpose")
        require(ref.cmp(ov[0], ov[1]) != 0, f"{mid}/sym: values are equal")
    elif kind == "class_permutation_differs":
        require(mats[1] == ref.permute(mats[0], w["permutation"]), f"{mid}: not a permutation")
        require(ref.cmp(ov[0], ov[1]) != 0, f"{mid}/csym: values are equal")
    elif kind in ("improvement_penalized", "extra_agreement_not_rewarded",
                  "removed_confusion_not_rewarded"):
        C, Ct = mats
        edit = w["edit"]
        dec, inc = edit.get("decrement"), edit.get("increment")
        require(not ref.has_unary_margin(C), f"{mid}: witness starts from a constant labeling")
        if dec is not None:
            require(dec[0] != dec[1] and C[dec[0]][dec[1]] >= 1, f"{mid}: bad decrement {dec}")
        require(Ct == _edit(C, dec, inc), f"{mid}: edited matrix does not follow the edit")
        if kind == "improvement_penalized":
            require(prop == "mon" and inc[0] == inc[1] and inc[0] in dec, f"{mid}: bad edit")
            require(ref.cmp(ov[1], ov[0]) < 0, f"{mid}/mon: the edit does not lower the value")
        elif kind == "extra_agreement_not_rewarded":
            require(prop == "smon" and dec is None and inc[0] == inc[1]
                    and not ref.is_diagonal(C), f"{mid}: bad edit")
            require(ref.cmp(ov[1], ov[0]) <= 0, f"{mid}/smon: the edit raises the value")
        else:
            require(prop == "smon" and inc is None and not ref.is_zero_diagonal(C),
                    f"{mid}: bad edit")
            require(ref.cmp(ov[1], ov[0]) <= 0, f"{mid}/smon: the edit raises the value")
    elif kind == "distinct_labelings_at_distance_zero":
        A, B = w["labelings"]
        require(A != B and mats[0] == ref.confusion(A, B, m), f"{mid}: bad labelings")
        c_max = ref.oriented_value(mid, ref.identity(m))
        require(ref.cmp(ov[0], c_max, ref.DIST_TOL) >= 0, f"{mid}/dist: distance is positive")
    elif kind == "triangle_violation":
        A, B, D = w["labelings"]
        require(mats == [ref.confusion(A, D, m), ref.confusion(A, B, m), ref.confusion(B, D, m)],
                f"{mid}: matrices do not match the labelings")
        c_max = ref.oriented_value(mid, ref.identity(m))
        lhs, rhs = ref.vsum([ov[1], ov[2]]), ref.vsum([ov[0], c_max])
        require(ref.cmp(lhs, rhs, ref.DIST_TOL) > 0, f"{mid}/dist: the triangle holds")
    else:
        raise CheckFailed(f"{mid}: unknown witness kind {kind!r}")


# ---------------------------------------------------------------------------
# audit reports


def check_verdict(g: dict, m: int, rng, k: int) -> None:
    status = g["status"]
    if status == "violated":
        require(g["witness"] is not None, f"{g['measure']}/{g['property']}: no witness")
        replay_witness(g["measure"], g["property"], g["witness"], m)
    elif status == "satisfied":
        require(g["space"]["m"] == m, f"{g['measure']}: space at m={g['space']['m']}")
        check_points(g["measure"], g["property"], g["space"], rng, k)
    else:
        raise CheckFailed(f"unknown status {status!r}")


def check_preservation(g: dict, spaces, rng, k: int) -> None:
    scheme, prop = g["scheme"], g["property"]
    bases = g["bases_checked"]
    require(bases, f"{scheme}/{prop}: no base measure checked")
    if g["status"] == "not_preserved":
        base = g["witness_measure"]
        inner = g["inner"]
        require(base in bases, f"{scheme}/{prop}: witness {base} was not checked")
        require(inner["measure"] == f"{base}:{scheme}" and inner["property"] == prop
                and inner["status"] == "violated", f"{scheme}/{prop}: inner verdict mismatch")
        replay_witness(inner["measure"], prop, inner["witness"], inner["space"]["m"])
    elif g["status"] == "preserved":
        for base in bases:
            for m, n_max in spaces:
                check_points(f"{base}:{scheme}", prop, space_dict(m, n_max), rng, k)
    else:
        raise CheckFailed(f"unknown status {g['status']!r}")


def _audit_cells(argv) -> tuple:
    args = dict(zip(argv[1::2], argv[2::2]))
    measures = args.get("--measures", "all")
    ids = workloads.CANONICAL_IDS if measures == "all" else tuple(measures.split(","))
    props = args.get("--properties", "all")
    props = workloads.ALL_PROPERTIES if props == "all" else tuple(props.split(","))
    return ids, props, int(args.get("--m", 2))


def check_audit(op: Op, report: dict, rng, k: int) -> None:
    argv = list(op.argv)
    if "--preservation" in argv:
        argv.remove("--preservation")
        _, props, _ = _audit_cells(argv)
        require(report["mode"] == "preservation", "not a preservation report")
        cells = [(g["scheme"], g["property"]) for g in report["grid"]]
        require(sorted(cells) == sorted((s, p) for s in workloads.SCHEMES for p in props),
                f"cells {cells} are not one per requested cell")
        for g in report["grid"]:
            spaces = PRESERVATION_DEFAULT_SPACES.get(g["property"], PRESERVATION_OTHER_SPACES)
            check_preservation(g, spaces, rng, k)
        return
    ids, props, m = _audit_cells(argv)
    require(report["mode"] == "properties" and report["m"] == m, "wrong audit mode")
    cells = [(g["measure"], g["property"]) for g in report["grid"]]
    require(sorted(cells) == sorted((i, p) for i in ids for p in props),
            "grid does not hold one verdict per requested cell")
    for g in report["grid"]:
        check_verdict(g, m, rng, k)


# ---------------------------------------------------------------------------
# baselines


def expected_constant(mid: str, a, b) -> Fraction:
    m, n = len(a), sum(a)
    if mid in workloads.ZERO_BASELINE_IDS[m]:
        return Fraction(0)
    if mid in workloads.INV_M_BASELINE_IDS:
        return Fraction(1, m)
    if mid == workloads.ACC_ID:
        return Fraction(sum(x * y for x, y in zip(a, b)), n * n)
    raise CheckFailed(f"no constant for {mid}")


def check_expectations(op: Op, out: dict, sizes: Sizes) -> None:
    """Every expectation equals its constant exactly; both routes are
    checked against the same constants, so they agree exactly."""
    m = op.params["m"]
    want = {
        (a, b, mid)
        for a, b in workloads.margin_pairs(m, *sizes.baseline_n)
        for mid in workloads.expectation_ids(m)
    }
    got = [(tuple(e["a"]), tuple(e["b"]), e["measure"]) for e in out["entries"]]
    require(len(got) == len(want) and set(got) == want,
            f"{op.name}: entries do not cover every margin pair once")
    for e in out["entries"]:
        a, b = tuple(e["a"]), tuple(e["b"])
        require(e["type"] in ("Fraction", "int"),
                f"{op.name}: {e['measure']} at {a},{b} is not exact ({e['type']})")
        require(Fraction(e["value"]) == expected_constant(e["measure"], a, b),
                f"{op.name}: {e['measure']} at {a},{b} is {e['value']}")


def check_order(op: Op, out: dict) -> None:
    mid, l_max = op.params["measure"], op.params["l_max"]
    want = {name: order for name, _, order in workloads.ORDER_CASES}[mid]
    require(out["measure"] == mid and out["baseline_constant"],
            f"{mid}: baseline is not constant")
    require(out["order"] == want, f"{mid}: order {out['order']}, expected {want}")
    probes = {p["order"]: p for p in out["derivatives"]}
    require(sorted(probes) == list(range(2, l_max + 1)), f"{mid}: probes {sorted(probes)}")
    for order, probe in probes.items():
        require(probe["vanishes"] == (order <= want),
                f"{mid}: derivative {order} vanishes={probe['vanishes']}")
    require(out["order_saturated"] == (want == l_max), f"{mid}: saturation flag")
    if mid == "cc":
        require(abs(out["baseline_value"]) < 1e-12, "cc: baseline value is not 0")


def check_normalizer(op: Op, out: dict) -> None:
    r = op.params["r"]
    require(out["r"] == r and out["all_ok"], f"r={r}: not all_ok")
    require(len(out["conditions"]) == 6 and all(c["holds"] for c in out["conditions"]),
            f"r={r}: a condition fails")
    require(out["partial_check"]["ok"], f"r={r}: partial derivative check fails")


# ---------------------------------------------------------------------------
# cli on labels files


class LabelsCache:
    """Label rows of the generated files, parsed once per run."""

    def __init__(self):
        self._rows: dict[str, list] = {}

    def rows(self, path: str) -> list:
        if path not in self._rows:
            lines = Path(path).read_text(encoding="utf-8").splitlines()
            self._rows[path] = [tuple(line.split(",")) for line in lines[1:] if line]
        return self._rows[path]

    def matrices(self, paths) -> tuple:
        labels = sorted({x for p in paths for row in self.rows(p) for x in row}, key=int)
        index = {name: i for i, name in enumerate(labels)}
        m = len(labels)
        out = []
        for p in paths:
            rows = self.rows(p)
            out.append(ref.confusion([index[t] for t, _ in rows], [index[q] for _, q in rows], m))
        return out, m, len(self.rows(paths[0]))


def _labels_args(argv):
    i = argv.index("--labels") + 1
    paths = []
    while i < len(argv) and not argv[i].startswith("--"):
        paths.append(argv[i])
        i += 1
    return paths


def check_eval(op: Op, report: dict, cache: LabelsCache) -> None:
    argv = list(op.argv)
    paths = _labels_args(argv)
    (C,), m, n = cache.matrices(paths)
    ids = (argv[argv.index("--measures") + 1].split(",") if "--measures" in argv
           else list(workloads.CANONICAL_IDS))
    require(report["input"]["n"] == n and report["input"]["m"] == m, "wrong n or m")
    require([r["measure"] for r in report["results"]] == ids, "wrong measure list")
    for r in report["results"]:
        mine = ref.value(r["measure"], C)
        require(ref.same_value(r["value"], mine), f"eval {r['measure']}: {r['value']} is wrong")
        require(ref.same_float(r["float"], mine), f"eval {r['measure']}: float is wrong")


def check_compare(op: Op, report: dict, cache: LabelsCache) -> None:
    paths = _labels_args(list(op.argv))
    mats, m, n = cache.matrices(paths)
    require(report["models"] == [Path(p).stem for p in paths], "wrong model names")
    require(report["n"] == n and report["m"] == m, "wrong n or m")
    ids = CLI_MULTICLASS_DEFAULT if m > 2 else CLI_BINARY_DEFAULT
    require(tuple(report["measures"]) == ids, "wrong default measures")
    pairs = list(combinations(range(len(mats)), 2))
    require(report["pairwise"]["comparisons"] == len(pairs), "wrong comparison count")
    vals = {mid: [ref.oriented_value(mid, C) for C in mats] for mid in ids}
    rel = {mid: [ref.cmp(vals[mid][i], vals[mid][j]) for i, j in pairs] for mid in ids}
    exact = {mid for mid in ids if ref.split_id(mid)[0] not in ref.DISSIMILARITIES}
    seen = set()
    for entry in report["pairwise"]["pairs"]:
        m1, m2 = entry["pair"]
        seen.add(frozenset((m1, m2)))
        if m1 in exact and m2 in exact:
            count = sum(x != y for x, y in zip(rel[m1], rel[m2]))
            require(entry["inconsistent"] == count,
                    f"compare {m1}/{m2}: {entry['inconsistent']} inconsistent, expected {count}")
    require(len(seen) == len(ids) * (len(ids) - 1) // 2, "compare misses measure pairs")


def check_rank(op: Op, report: dict, cache: LabelsCache) -> None:
    paths = _labels_args(list(op.argv))
    mats, m, _ = cache.matrices(paths)
    names = [Path(p).stem for p in paths]
    ids = CLI_MULTICLASS_DEFAULT if m > 2 else CLI_BINARY_DEFAULT
    require([r["measure"] for r in report["rankings"]] == list(ids), "wrong measure list")
    for ranking in report["rankings"]:
        mid = ranking["measure"]
        vals = [ref.oriented_value(mid, C) for C in mats]
        ranks = [1 + sum(ref.cmp(o, v) > 0 for o in vals) for v in vals]
        order = sorted(range(len(vals)), key=lambda i: (ranks[i], i))
        got = [(e["name"], e["rank"]) for e in ranking["ranking"]]
        require(got == [(names[i], ranks[i]) for i in order], f"rank {mid}: order {got}")
        for e, i in zip(ranking["ranking"], order):
            require(ref.same_value(e["value"], vals[i]), f"rank {mid}: value of {e['name']}")


def shared_margin_matrices(n: int):
    """Per true class sizes, the 2x2 matrices whose prediction uses both
    classes: every comparison a labeling triplet of size n can pose."""
    for a1 in range(1, n):
        a0 = n - a1
        yield [((a0 - fp, fp), (a1 - tp, tp))
               for tp in range(a1 + 1) for fp in range(a0 + 1) if 1 <= tp + fp <= n - 1]


def check_distinguish(op: Op, report: dict) -> None:
    argv = list(op.argv)
    lo, hi = (int(x) for x in argv[argv.index("--n") + 1].split(":"))
    ids = CLI_BINARY_DEFAULT
    require(report["measures"] == list(ids), "wrong measure list")
    require(sorted(report["groups"], key=int) == [str(n) for n in range(lo, hi + 1)],
            "wrong sample sizes")
    for n in range(lo, hi + 1):
        groups = report["groups"][str(n)]
        members = [mid for g in groups for mid in g]
        require(sorted(members) == sorted(ids), f"n={n}: groups are not a partition")
        signs = {mid: [] for mid in ids}
        for mats in shared_margin_matrices(n):
            for mid in ids:
                vals = [ref.oriented_value(mid, C) for C in mats]
                signs[mid].extend(ref.cmp(x, y) for x, y in combinations(vals, 2))
        group_of = {mid: k for k, g in enumerate(groups) for mid in g}
        for m1, m2 in combinations(ids, 2):
            together = group_of[m1] == group_of[m2]
            separated = signs[m1] != signs[m2]
            require(together != separated,
                    f"n={n}: {m1} and {m2} are {'grouped' if together else 'split'} "
                    f"but {'are' if separated else 'are not'} separated by a matrix pair")


def check_baseline_cli(op: Op, report: dict) -> None:
    argv = list(op.argv)
    a = tuple(int(x) for x in argv[argv.index("--a") + 1].split(","))
    b = tuple(int(x) for x in argv[argv.index("--b") + 1].split(","))
    m = len(a)
    ids = CLI_MULTICLASS_DEFAULT if m > 2 else workloads.CANONICAL_IDS
    require([r["measure"] for r in report["results"]] == list(ids), "wrong measure list")
    for r in report["results"]:
        mid = r["measure"]
        require(r["routes_agree"] is True, f"baseline {mid}: routes disagree")
        if mid in workloads.expectation_ids(m):
            require(ref.parse_printed(r["value"]) == expected_constant(mid, a, b),
                    f"baseline {mid}: {r['value']} is not its constant")
        else:
            require(ref.same_value(r["value"], ref.expectation(mid, a, b)),
                    f"baseline {mid}: {r['value']} is not the expectation")


def check_cli(op: Op, report: dict, cache: LabelsCache, rng, k: int) -> None:
    command = op.argv[0]
    require(report["command"] == command, f"report of {report['command']!r}")
    if command == "audit":
        check_audit(op, report, rng, k)
    elif command == "eval":
        check_eval(op, report, cache)
    elif command == "compare":
        check_compare(op, report, cache)
    elif command == "rank":
        check_rank(op, report, cache)
    elif command == "distinguish":
        check_distinguish(op, report)
    elif command == "baseline":
        check_baseline_cli(op, report)
    else:
        raise CheckFailed(f"no check for {command!r}")


# ---------------------------------------------------------------------------
# entry point


def check_op(op: Op, record: dict, out_dir: Path, sizes: Sizes, seed: int,
             cache: LabelsCache) -> str | None:
    """None when the operation succeeded, else the reason it failed."""
    rc = record["rc"]
    if record.get("error"):
        return "raised " + record["error"].strip().splitlines()[-1]
    if rc != op.expect_rc:
        return f"exit code {rc}, expected {op.expect_rc}"
    if op.expect_rc != 0:
        return None  # no report is written on a nonzero exit
    path = out_dir / f"{op.name}.json"
    if not path.is_file():
        return "no output written"
    rng = random.Random(f"{seed}:{op.name}")
    try:
        out = json.loads(path.read_text(encoding="utf-8"))
        if op.kind == "cli":
            check_cli(op, out, cache, rng, sizes.check_points)
        elif op.kind == "preservation":
            require((out["scheme"], out["property"]) ==
                    (op.params["scheme"], op.params["property"]), "wrong cell")
            check_preservation(out, (sizes.preservation_space,), rng, sizes.check_points)
        elif op.kind == "expectations":
            check_expectations(op, out, sizes)
        elif op.kind == "order":
            check_order(op, out)
        elif op.kind == "normalizer":
            check_normalizer(op, out)
        else:
            raise CheckFailed(f"no check for kind {op.kind!r}")
    except CheckFailed as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None
