"""Release gate: one check per shipped acceptance criterion.

Run ``pytest tests/test_acceptance.py -v -s`` to see one CRITERION
line per check.  Two lines report FAIL by design: the reference
tables below mark ba/smon and weighted/mon as holding, and the audit
refutes both with replayable counterexamples.  Those tests stay green
because the refutation is the pinned, verified behavior; README has
the write-ups.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from clfmeasures import (
    ConfusionMatrix,
    audit_grid,
    check_averaging_preservation,
    corroborate_impossibility,
    evaluate,
    exact_baseline_expectation,
    expected_matrix,
    parse_measure_id,
    value_cmp,
    value_str,
    as_float,
)
from clfmeasures.baselines import is_unary
from clfmeasures.core import compositions
from clfmeasures.inconsistency import (
    INCONSISTENT,
    DISCRIMINATING_TRIPLET_INDEX,
    KNOWN_DISCRIMINATING_TRIPLETS,
    indistinguishable_at,
    indistinguishable_groups,
    relation_sign,
    triplet_from_labels,
    triplet_verdict,
)
from clfmeasures.measures import CONSISTENCY_IDS
from clfmeasures.orders import baseline_order, check_gm_normalizer_conditions
from reference_triplets import distinguishing_triplet_bruteforce
from test_inconsistency import EXPECTED_GROUPS

PROP_ORDER = ("max", "min", "sym", "csym", "dist", "mon", "smon", "cb", "acb")

# Reference binary verdict table.  ba/smon is the contested cell: the
# table says satisfied, the audit finds a tie step.
REFERENCE_BINARY = {
    "f:beta=1": "Y n Y n n Y n n n",
    "jaccard":  "Y n Y n Y Y n n n",
    "cc":       "Y Y Y Y n Y Y Y Y",
    "acc":      "Y Y Y Y Y Y Y n n",
    "ba":       "Y Y n Y n Y Y Y Y",
    "kappa":    "Y n Y Y n Y n Y Y",
    "ce":       "Y n Y Y n n n n n",
    "sba":      "Y Y Y Y n Y Y Y Y",
    "gm:r=1":   "Y Y Y Y n Y Y Y Y",
    "cd":       "Y Y Y Y Y Y Y n Y",
}

# Reference preservation table (P = preserved).  weighted/mon is the
# contested cell.
REFERENCE_AVERAGING = {
    "micro":    "P N P P P P N N N",
    "macro":    "P N P P P P N P P",
    "weighted": "P N N P N P N P P",
}


def _marks(row: str, yes: str = "Y") -> dict:
    flags = row.split()
    assert len(flags) == len(PROP_ORDER)
    return {p: f == yes for p, f in zip(PROP_ORDER, flags)}


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def _replay_matrices(desc, witness):
    for encoded, recorded, recorded_f in zip(
        witness["matrices"], witness["values"], witness["value_floats"]
    ):
        C = ConfusionMatrix(tuple(tuple(int(x) for x in row) for row in encoded))
        val = evaluate(desc, C)
        assert value_str(val) == recorded
        assert as_float(val) == pytest.approx(recorded_f, abs=1e-15)


def _replay_margins(desc, prop, witness):
    for side in (witness["first"], witness["second"]):
        if prop == "cb":
            val = exact_baseline_expectation(desc, side["a"], side["b"])
        else:
            val = evaluate(desc, expected_matrix(side["a"], side["b"]))
        assert value_str(val) == side["value"]


def _replay_witness(desc, prop, witness):
    if witness["kind"].startswith("prerequisite_"):
        witness = witness["inner"]
    if "matrices" in witness:
        _replay_matrices(desc, witness)
    else:
        _replay_margins(desc, prop, witness)


def test_criterion_01_binary_grid():
    start = time.monotonic()
    verdicts = audit_grid()
    elapsed = time.monotonic() - start
    grid = {(v.measure_id, v.property): v for v in verdicts}
    assert len(grid) == 90
    assert elapsed < 600.0

    expected = {mid: _marks(row) for mid, row in REFERENCE_BINARY.items()}
    diverging = sorted(
        (mid, prop)
        for mid, marks in expected.items()
        for prop, want in marks.items()
        if grid[(mid, prop)].satisfied is not want
    )
    assert diverging == [("ba", "smon")]
    w = grid[("ba", "smon")].witness
    assert w["kind"] == "extra_agreement_not_rewarded"
    assert w["values"] == ["3/4", "3/4"]
    _line(
        1,
        False,
        "binary grid: 89/90 cells match the reference table "
        f"({elapsed:.1f}s); ba/smon is refuted: inc(0,0) on "
        "[[1,0],[1,1]] leaves ba at 3/4, no strict gain",
    )


def test_criterion_02_multiclass_cc_witnesses():
    cells = audit_grid(measure_ids=["cc"], properties=("min", "mon", "smon"), m=3)
    desc = parse_measure_id("cc")
    assert len(cells) == 3
    for v in cells:
        assert v.status == "violated", v.property
        _replay_witness(desc, v.property, v.witness)

    z1 = evaluate(desc, ConfusionMatrix(((0, 1, 0), (0, 0, 1), (2, 0, 0))))
    z2 = evaluate(desc, ConfusionMatrix(((0, 1, 0), (1, 0, 1), (0, 1, 0))))
    assert z1 == Fraction(-1, 2)
    assert z2 == Fraction(-3, 5)
    # moving a confusion onto the diagonal lowers multiclass cc
    hi = evaluate(desc, ConfusionMatrix(((1, 0, 0), (7, 0, 0), (0, 0, 1))))
    lo = evaluate(desc, ConfusionMatrix(((1, 0, 0), (6, 1, 0), (0, 0, 1))))
    assert value_cmp(hi, lo) > 0
    _line(
        2,
        True,
        "cc at m=3: min/mon/smon all refuted with replayable witnesses; "
        "zero-diagonal fixtures evaluate to -0.5 and -0.6 exactly",
    )


def test_criterion_03_averaging_grid():
    start = time.monotonic()
    results = {
        (scheme, prop): check_averaging_preservation(scheme, prop)
        for scheme in REFERENCE_AVERAGING
        for prop in PROP_ORDER
    }
    elapsed = time.monotonic() - start
    expected = {s: _marks(row, yes="P") for s, row in REFERENCE_AVERAGING.items()}
    diverging = sorted(
        (scheme, prop)
        for scheme, marks in expected.items()
        for prop, want in marks.items()
        if (results[(scheme, prop)].status == "preserved") is not want
    )
    assert diverging == [("weighted", "mon")]

    pv = results[("weighted", "mon")]
    assert pv.witness_measure == "cc"
    w = pv.inner.witness
    assert w["matrices"] == [
        [["0", "0", "0"], ["1", "0", "0"], ["0", "3", "0"]],
        [["0", "0", "0"], ["1", "1", "0"], ["0", "2", "0"]],
    ]
    # the pooled net-agreement score TP+TN-FP-FN settles every smon row
    for scheme in REFERENCE_AVERAGING:
        assert results[(scheme, "smon")].witness_measure == "netagree"
    assert results[("micro", "cb")].witness_measure == "cc"
    _line(
        3,
        False,
        f"averaging grid: 26/27 cells match ({elapsed:.0f}s); weighted/mon "
        "is refuted: resolving a confusion drops weighted cc from -1/4 to "
        "-sqrt(3)/6; smon rows settled by the pooled net-agreement probe",
    )


def test_criterion_04_indistinguishable_groups():
    start = time.monotonic()
    groups = {n: indistinguishable_groups(n) for n in range(2, 11)}
    assert groups == EXPECTED_GROUPS
    # shared-margin reduction vs direct triplet enumeration
    for n in (3, 4, 5):
        for m1, m2 in combinations(CONSISTENCY_IDS, 2):
            fast = indistinguishable_at(m1, m2, n)
            slow = distinguishing_triplet_bruteforce(m1, m2, n) is None
            assert fast == slow, (m1, m2, n)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _line(
        4,
        True,
        "groups exact for n=2..7, reduction cross-checked against direct "
        "triplet enumeration at n<=5; transitions confirmed: cc+sba still "
        f"fused at n=8, singletons only at n=9,10 ({elapsed:.0f}s)",
    )


def test_criterion_05_discriminating_triplets():
    every_pair = {frozenset(p) for p in combinations(CONSISTENCY_IDS, 2)}
    assert set(DISCRIMINATING_TRIPLET_INDEX) == every_pair
    used = set()
    for pair, idx in DISCRIMINATING_TRIPLET_INDEX.items():
        m1, m2 = sorted(pair)
        t = KNOWN_DISCRIMINATING_TRIPLETS[idx]
        C1, C2 = t.matrices()
        assert C1.n == 10
        s1 = relation_sign(m1, C1, C2, eps=1e-12)
        s2 = relation_sign(m2, C1, C2, eps=1e-12)
        assert s1 * s2 == -1, (m1, m2)
        assert triplet_verdict(m1, m2, t, eps=1e-12) == INCONSISTENT
        used.add(idx)
    assert used == set(range(len(KNOWN_DISCRIMINATING_TRIPLETS)))
    _line(
        5,
        True,
        "six shipped n=10 triplets separate all 28 measure pairs with "
        "strictly opposite preferences (eps=1e-12)",
    )


def test_criterion_06_ce_triangle():
    ce = parse_measure_id("ce")
    anti = evaluate(ce, ConfusionMatrix(((0, 6), (6, 0))))
    assert abs(as_float(anti) - 1.0) < 1e-12

    A, B, C = (1, 1, 0), (1, 1, 1), (1, 0, 1)
    m_ab, m_ac = triplet_from_labels(A, B, C).matrices()
    m_bc = triplet_from_labels(B, C, A).matrices()[0]
    d_ab = as_float(evaluate(ce, m_ab))
    d_bc = as_float(evaluate(ce, m_bc))
    d_ac = as_float(evaluate(ce, m_ac))
    assert abs(d_ab - 0.387) < 1e-3
    assert abs(d_bc - 0.387) < 1e-3
    assert abs(d_ac - 1.0) < 1e-12
    assert d_ac > d_ab + d_bc
    _line(
        6,
        True,
        "ce([[0,6],[6,0]]) = 1 within 1e-12; triangle inequality fails on "
        f"labelings (1,1,0),(1,1,1),(1,0,1): 1 > {d_ab + d_bc:.3f}",
    )


def test_criterion_07_constant_baselines():
    start = time.monotonic()
    zero_ids = {
        2: ("cc", "kappa", "gm:r=-2", "gm:r=-1", "gm:r=1", "gm:r=2"),
        3: ("cc", "kappa"),  # gm is binary-only
    }
    chance_ids = ("ba", "sba")
    checked = 0
    for m in (2, 3):
        zero = [parse_measure_id(x) for x in zero_ids[m]]
        chance = [parse_measure_id(x) for x in chance_ids]
        want = Fraction(1, m)
        for n in range(2, 8):
            for a in compositions(n, m):
                for b in compositions(n, m):
                    if is_unary(b):
                        continue
                    checked += 1
                    for d in zero:
                        assert exact_baseline_expectation(d, a, b, "matrices") == 0
                        assert exact_baseline_expectation(d, a, b, "labelings") == 0
                    for d in chance:
                        assert exact_baseline_expectation(d, a, b, "matrices") == want
                        assert exact_baseline_expectation(d, a, b, "labelings") == want
    elapsed = time.monotonic() - start
    assert checked == 2667
    _line(
        7,
        True,
        "uniform-prediction expectation is exactly 0 for cc, kappa and "
        "gm at r in {-2,-1,1,2} (gm binary-only) and exactly 1/m for ba, "
        f"sba, over all {checked} margin pairs with non-unary b, n<=7, "
        f"m in {{2,3}}; matrix and labeling enumerations agree ({elapsed:.0f}s)",
    )


def test_criterion_08_gm_identities():
    gm_h = parse_measure_id("gm:r=-1")
    sba = parse_measure_id("sba")
    matched = 0
    resolved = 0
    for n in range(1, 9):
        for c11 in range(n + 1):
            for c10 in range(n - c11 + 1):
                for c01 in range(n - c11 - c10 + 1):
                    c00 = n - c11 - c10 - c01
                    C = ConfusionMatrix(((c00, c01), (c10, c11)))
                    g = evaluate(gm_h, C)
                    s = evaluate(sba, C)
                    if 0 in C.a and 0 in C.b:
                        # both labelings constant: gm resolves to the
                        # agreement value, sba to its chance level
                        assert g == (1 if C.is_diagonal() else -1)
                        assert 2 * s - 1 == 0
                        resolved += 1
                    else:
                        assert g == 2 * s - 1, C.entries
                        matched += 1
    assert matched == 462
    assert resolved == 32

    rng = random.Random(8128)
    gm_tiny = parse_measure_id("gm:r=1e-9")
    cc = parse_measure_id("cc")
    worst = 0.0
    for _ in range(1000):
        cells = [rng.randrange(13) for _ in range(4)]
        if sum(cells) == 0:
            cells[rng.randrange(4)] = 1 + rng.randrange(12)
        C = ConfusionMatrix((tuple(cells[:2]), tuple(cells[2:])))
        gap = abs(as_float(evaluate(gm_tiny, C)) - as_float(evaluate(cc, C)))
        worst = max(worst, gap)
    assert worst < 1e-6
    _line(
        8,
        True,
        f"gm(r=-1) == 2*sba - 1 exactly on all {matched} binary matrices "
        "n<=8 with a non-constant labeling (the 32 both-constant matrices "
        "resolve to max/min agreement on the gm side by design); "
        f"|gm(r=1e-9) - cc| <= {worst:.1e} on 1000 random matrices",
    )


def test_criterion_09_second_order_baseline():
    rep = baseline_order("cd", l_max=3)
    assert rep.order == 2
    probes = {p.order: p for p in rep.probes}
    assert probes[2].vanishes
    assert probes[2].max_abs < 1e-6
    assert not probes[3].vanishes

    rep_prime = baseline_order("cdprime", l_max=2)
    assert rep_prime.order == 1
    spike = {p.order: p for p in rep_prime.probes}[2]
    assert spike.max_abs > 1e-2
    _line(
        9,
        True,
        f"cd: centered second difference <= {probes[2].max_abs:.1e} < 1e-6 "
        f"at every interior grid point ({rep.grid_points} points); "
        f"cdprime: second difference reaches {spike.max_abs:.1f} > 1e-2",
    )


def test_criterion_10_normalizer_conditions():
    worst_margin = None
    for r in (-2, -1, 1, 2):
        rep = check_gm_normalizer_conditions(r, steps=20)
        assert rep["all_ok"], r
        assert rep["grid_steps"] == 20
        assert rep["partial_check"]["ok"]
        for cond in rep["conditions"]:
            margin = cond.min_strict_margin
            if margin is not None and (worst_margin is None or margin < worst_margin):
                worst_margin = margin
    assert worst_margin is not None
    assert worst_margin > 1e-9
    _line(
        10,
        True,
        "all six normalizer bounds hold for gm at r in {-2,-1,1,2} on the "
        f"19x19 interior grid; smallest strict margin {worst_margin:.2g} "
        "> 1e-9; closed-form partial matches finite differences",
    )


def test_criterion_11_impossibility():
    report = corroborate_impossibility()
    assert report["no_measure_has_all_three"] is True
    two_of_three = []
    for mid, entry in sorted(report["measures"].items()):
        assert entry["violates"], mid
        desc = parse_measure_id(mid)
        for prop in entry["violates"]:
            _replay_witness(desc, prop, entry["witnesses"][prop])
        if len(entry["violates"]) == 1:
            two_of_three.append((mid, entry["violates"][0]))
    for expected in (("acc", "cb"), ("cd", "cb"), ("cc", "dist"), ("ba", "dist")):
        assert expected in two_of_three
    _line(
        11,
        True,
        "no registry measure attains mon+dist+cb together; "
        f"{len(two_of_three)} two-of-three measures each ship a replayable "
        "witness for the missing property",
    )


def test_transform_consistency_supplement():
    # Monotone transforms must never disagree with their base measure:
    # jaccard with f:beta=1, cd with cc.
    for n in range(2, 9):
        assert indistinguishable_at("jaccard", "f:beta=1", n)
        assert indistinguishable_at("cd", "cc", n)
    print(
        "SUPPLEMENT : PASS - jaccard/f:beta=1 and cd/cc are order-identical "
        "on every shared-margin comparison up to n=8",
        flush=True,
    )
