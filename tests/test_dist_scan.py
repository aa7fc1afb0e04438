"""The ``dist`` audit against a written-out scan of every labeling triple.

``properties._check_dist`` visits one start pair (A, B) per confusion
matrix and screens every third labeling C from it.  The reference here
walks every (A, B, C) in ``itertools.product`` order with the same float
screen and confirms every hit exactly, as the definition reads; status,
witness and ``checked`` must agree.
"""

import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import clfmeasures
from clfmeasures import AuditSpace, check_property, parse_measure_id
from clfmeasures import properties
from clfmeasures.core import ConfusionMatrix, Labeling, build_confusion
from clfmeasures.measures import (
    AUDIT_ONLY_IDS,
    CANONICAL_IDS,
    SCHEMES,
    evaluate,
    oriented,
    with_scheme,
)
from clfmeasures.values import as_float, value_cmp, value_str, value_sum

TOL = properties.DIST_TOL


def _descriptors(m):
    bases = [parse_measure_id(mid) for mid in CANONICAL_IDS + AUDIT_ONLY_IDS]
    native = [d for d in bases if m == 2 or d.arity != "binary"]
    return native + [with_scheme(d, scheme) for d in bases for scheme in SCHEMES]


def _space(m, n):
    return AuditSpace(m=m, n_max=n, mon_n_max=n, dist_n_max=n, cb_n_max=n)


def _witness(desc, kind, mats, **extra):
    values = [evaluate(desc, C) for C in mats]
    return {
        "kind": kind,
        "matrices": [[[str(x) for x in row] for row in C.entries] for C in mats],
        "values": [value_str(v) for v in values],
        "value_floats": [as_float(v) for v in values],
        **extra,
    }


def reference_dist(desc, space, refuse=lambda mats: False):
    """``(status, witness, checked)`` of ``dist`` by the full triple scan.

    A float hit on the matrices ``mats`` of (A, C), (A, B) and (B, C) is
    confirmed exactly, through ``value_cmp``, unless ``refuse(mats)``.
    """
    checked = 0
    for prereq in ("sym", "max"):
        verdict = check_property(desc, prereq, space)
        checked += verdict.checked
        if not verdict.satisfied:
            witness = {"kind": f"prerequisite_{prereq}_failed", "inner": verdict.witness}
            return "violated", witness, checked

    memo = {}

    def value(C):
        if C.entries not in memo:
            memo[C.entries] = oriented(desc, evaluate(desc, C))
        return memo[C.entries]

    def confirm(c_max, ac, ab, bc):
        lhs = value_sum([value(ab), value(bc)])
        return value_cmp(lhs, value_sum([value(ac), c_max]), TOL) > 0

    m = space.m
    c_max = value(ConfusionMatrix(tuple(tuple(int(i == j) for j in range(m)) for i in range(m))))
    for n in range(1, space.dist_n_max + 1):
        labs = [Labeling(t, m) for t in itertools.product(range(m), repeat=n)]
        L = len(labs)
        C = [[build_confusion(a, b) for b in labs] for a in labs]
        D = [[as_float(c_max) - as_float(value(x)) for x in row] for row in C]
        checked += L * L
        for p, q in itertools.product(range(L), repeat=2):
            if p != q and D[p][q] <= TOL and value_cmp(value(C[p][q]), c_max, TOL) >= 0:
                pair = [list(labs[p].labels), list(labs[q].labels)]
                witness = _witness(
                    desc, "distinct_labelings_at_distance_zero", [C[p][q]], labelings=pair
                )
                return "violated", witness, checked
        for a in range(L):
            checked += L * L
            for b, c in itertools.product(range(L), repeat=2):
                if D[a][c] - (D[a][b] + D[b][c]) - TOL > 0:
                    mats = [C[a][c], C[a][b], C[b][c]]
                    if not refuse(mats) and confirm(c_max, *mats):
                        labelings = [list(labs[x].labels) for x in (a, b, c)]
                        witness = _witness(
                            desc, "triangle_violation", mats, labelings=labelings, n=n
                        )
                        return "violated", witness, checked
    return "satisfied", None, checked


def _assert_matches_reference(m, n):
    space = _space(m, n)
    for desc in _descriptors(m):
        got = check_property(desc, "dist", space)
        expected = reference_dist(desc, space)
        assert (got.status, got.witness, got.checked) == expected, desc.measure_id


@pytest.mark.parametrize("m, n", [(2, 5), (3, 3)])
def test_dist_matches_the_triple_scan(m, n):
    _assert_matches_reference(m, n)


@pytest.mark.slow
def test_dist_matches_the_triple_scan_m3_n4():
    _assert_matches_reference(3, 4)


@pytest.mark.parametrize("mid", ["kappa", "cc:macro"])
def test_every_float_hit_of_a_row_is_confirmed(monkeypatch, mid):
    # Reject the matrices of the first hit: the witness must be the next
    # confirmed hit of the same row A, not a hit of a later row.
    desc, space = parse_measure_id(mid), _space(3, 3)
    first = check_property(desc, "dist", space).witness
    assert first["kind"] == "triangle_violation"
    rejected = first["matrices"]

    def refuse(mats):
        return [[[str(x) for x in row] for row in C.entries] for C in mats] == rejected

    real = properties._confirm_triangle
    monkeypatch.setattr(
        properties,
        "_confirm_triangle",
        lambda ev, c_max, *mats: not refuse(mats) and real(ev, c_max, *mats),
    )
    got = check_property(desc, "dist", space)
    expected = reference_dist(desc, space, refuse)
    assert got.witness["labelings"][0] == first["labelings"][0]
    assert got.witness["matrices"] != rejected
    assert (got.status, got.witness, got.checked) == expected


def test_imports_and_audits_dist_with_mpmath_alone():
    # Every import beyond the standard library and mpmath is refused.
    code = "\n".join([
        "import sys",
        "allowed = set(sys.stdlib_module_names) | {'mpmath', 'clfmeasures'}",
        "class Refuse:",
        "    def find_spec(self, name, path=None, target=None):",
        "        if name.partition('.')[0] not in allowed:",
        "            raise ImportError(f'refused: {name}')",
        "sys.meta_path.insert(0, Refuse())",
        "import clfmeasures",
        "from clfmeasures.cli import main",
        "assert clfmeasures.check_property('acc', 'dist').satisfied",
        "sys.exit(main(['audit', '--m', '3', '--properties', 'dist', '--n-max', '4']))",
    ])
    src = str(Path(clfmeasures.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "dist" in proc.stdout


def two_map_hits(Da, Db, dab):
    """Each c whose slack ``Da[c] - (dab + Db[c])`` exceeds the tolerance,
    the screen as the definition reads, with no first screen."""
    return [c for c, (x, z) in enumerate(zip(Da, Db)) if x - (dab + z) - TOL > 0]


# Distances of three labelings (A, B, C) whose slack d(A, C) - (d(A, B) +
# d(B, C)) is less than an ulp of the distances above the tolerance in the
# two-map form, while the one-subtraction form, (d(A, C) - d(B, C)) -
# d(A, B), rounds to below it.
_Y = float.fromhex("0x1.7cbc6ca11d458p-3")  # d(A, B)
_Z = float.fromhex("0x1.fc2ea66e5019fp-1")  # d(B, C)
_X = float.fromhex("0x1.2daee0cf9738ap+0")  # d(A, C)


def test_screen_keeps_a_hit_the_one_subtraction_form_rounds_away():
    assert _X - (_Y + _Z) - TOL > 0
    assert (_X - _Z) - _Y < TOL
    D = [[0.0, _Y, _X], [_Y, 0.0, _Z], [_X, _Z, 0.0]]
    limit = properties._screen_limit([d for row in D for d in row])
    assert list(properties._triangle_hits(D[0], D[1], D[0][1], limit)) == [2]
    assert two_map_hits(D[0], D[1], D[0][1]) == [2]


def test_screen_skips_only_starts_without_a_hit():
    # Rows near the tolerance at several scales, with repeats, zeros,
    # infinities and nans in every position: the screen's hits are the
    # two-map hits of every start.
    rng = random.Random(5)
    specials = [0.0, math.inf, -math.inf, math.nan]
    for _ in range(3000):
        scale = 2.0 ** rng.randint(-40, 4)
        L = rng.randint(1, 6)
        y = rng.random() * scale
        Db = [rng.random() * scale for _ in range(L)]
        Da = [y + z + TOL * rng.choice((-1, 0, 1)) + rng.randint(-8, 8) * math.ulp(y + z)
              for z in Db]
        b = rng.randrange(L)
        Da[b] = y
        if rng.random() < 0.2:
            row = rng.choice((Da, Db))
            row[rng.randrange(L)] = rng.choice(specials)
        dist = Da + Db
        rng.shuffle(dist)
        limit = properties._screen_limit(dist)
        got = list(properties._triangle_hits(Da, Db, Da[b], limit))
        assert got == two_map_hits(Da, Db, Da[b]), (Da, Db, b)
