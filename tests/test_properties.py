"""Audit-engine tests: pinned verdict grids, witnesses, preservation.

The binary and multiclass grids here are reference behavior for this
implementation; every violated cell must carry a witness that replays
to the recorded values, so any drift in measure code or audit policy
shows up as a concrete matrix pair, not a silent mark flip.
"""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clfmeasures import (
    AuditSpace,
    Budget,
    ConfusionMatrix,
    EnumerationBudgetExceeded,
    audit_grid,
    check_averaging_preservation,
    check_property,
    corroborate_impossibility,
    evaluate,
    exact_baseline_expectation,
    expected_matrix,
    parse_measure_id,
    value_cmp,
    value_str,
    as_float,
)
from clfmeasures.measures import oriented
from clfmeasures.properties import ALL_PROPERTIES, audit_space_policy, preservation_spaces

PROP_ORDER = ("max", "min", "sym", "csym", "dist", "mon", "smon", "cb", "acb")


def _marks(row: str) -> dict:
    flags = row.split()
    assert len(flags) == len(PROP_ORDER)
    return {p: f == "Y" for p, f in zip(PROP_ORDER, flags)}


# Reference verdicts over the default binary audit spaces.  BA fails
# strong monotonicity: adding a correct prediction to a class already
# classified perfectly leaves every recall term unchanged (3/4 -> 3/4
# below), and the definition demands a strict improvement.
BINARY_REFERENCE = {
    "f:beta=1": _marks("Y n Y n n Y n n n"),
    "jaccard":  _marks("Y n Y n Y Y n n n"),
    "cc":       _marks("Y Y Y Y n Y Y Y Y"),
    "acc":      _marks("Y Y Y Y Y Y Y n n"),
    "ba":       _marks("Y Y n Y n Y n Y Y"),
    "kappa":    _marks("Y n Y Y n Y n Y Y"),
    "ce":       _marks("Y n Y Y n n n n n"),
    "sba":      _marks("Y Y Y Y n Y Y Y Y"),
    "gm:r=1":   _marks("Y Y Y Y n Y Y Y Y"),
    "cd":       _marks("Y Y Y Y Y Y Y n Y"),
}

# Multiclass verdicts at m=3.  n <= 5 reaches every witness the default
# space finds (verified against the wider space; the acceptance suite
# re-runs the default-space cells that matter for reported results).
MULTICLASS_SPACE = AuditSpace(
    m=3, n_max=5, mon_n_max=5, dist_n_max=5, cb_n_max=5
)
MULTICLASS_REFERENCE = {
    "cc":    _marks("Y n Y Y n n n Y Y"),
    "acc":   _marks("Y Y Y Y Y Y Y n n"),
    "ba":    _marks("Y Y n Y n Y n Y Y"),
    "kappa": _marks("Y n Y Y n n n Y Y"),
    "ce":    _marks("Y n Y Y n n n n n"),
    "sba":   _marks("Y n Y Y n Y n Y Y"),
    "cd":    _marks("Y n Y Y Y n n n Y"),
}


@pytest.fixture(scope="module")
def binary_grid():
    verdicts = audit_grid()
    return {(v.measure_id, v.property): v for v in verdicts}


@pytest.fixture(scope="module")
def multiclass_grid():
    # The m = 3 policy at n <= 5 is MULTICLASS_SPACE for every cell here.
    for mid in MULTICLASS_REFERENCE:
        for prop in ALL_PROPERTIES:
            space = audit_space_policy(parse_measure_id(mid), prop, 3, 5)
            assert space.describe() == MULTICLASS_SPACE.describe(), (mid, prop)
    verdicts = audit_grid(measure_ids=list(MULTICLASS_REFERENCE), m=3, n_max=5)
    return {(v.measure_id, v.property): v for v in verdicts}


class TestBinaryGrid:
    def test_grid_shape(self, binary_grid):
        assert len(binary_grid) == 10 * 9

    @pytest.mark.parametrize("mid", sorted(BINARY_REFERENCE))
    def test_row_matches_reference(self, binary_grid, mid):
        got = {p: binary_grid[(mid, p)].satisfied for p in PROP_ORDER}
        assert got == BINARY_REFERENCE[mid]

    def test_violations_carry_witnesses(self, binary_grid):
        for v in binary_grid.values():
            if v.satisfied:
                assert v.witness is None
            else:
                assert v.witness is not None
                w = v.witness
                if w["kind"].startswith("prerequisite_"):
                    w = w["inner"]
                # matrix-pair witnesses or margin-pair baseline witnesses
                assert "matrices" in w or "first" in w

    def test_ba_strong_monotonicity_tie_witness(self, binary_grid):
        v = binary_grid[("ba", "smon")]
        assert v.status == "violated"
        w = v.witness
        assert w["kind"] == "extra_agreement_not_rewarded"
        assert w["matrices"] == [
            [["1", "0"], ["1", "1"]],
            [["2", "0"], ["1", "1"]],
        ]
        assert w["values"] == ["3/4", "3/4"]

    def test_mon_tolerates_flat_steps(self, binary_grid):
        # F and Jaccard ignore c_00, so moving the last disagreement of
        # an all-wrong matrix onto the diagonal of the negative class
        # leaves them at 0.  That step must not count against mon.
        before = ConfusionMatrix(((0, 1), (1, 0)))
        after = ConfusionMatrix(((1, 0), (1, 0)))
        for mid in ("f:beta=1", "jaccard"):
            desc = parse_measure_id(mid)
            assert evaluate(desc, before) == 0
            assert evaluate(desc, after) == 0
            assert binary_grid[(mid, "mon")].satisfied
            assert not binary_grid[(mid, "smon")].satisfied

    def test_ce_mon_violation_is_strict(self, binary_grid):
        v = binary_grid[("ce", "mon")]
        assert v.status == "violated"
        lo, hi = v.witness["value_floats"]
        # dissimilarity: the edited matrix scores strictly worse
        assert hi > lo + 1e-9


class TestMulticlassGrid:
    @pytest.mark.parametrize("mid", sorted(MULTICLASS_REFERENCE))
    def test_row_matches_reference(self, multiclass_grid, mid):
        got = {p: multiclass_grid[(mid, p)].satisfied for p in PROP_ORDER}
        assert got == MULTICLASS_REFERENCE[mid]

    def test_kappa_mon_witness_values(self):
        # Resolving one of the pooled class's mistakes drags kappa down:
        # the edit shifts expected agreement faster than observed.
        c1 = ConfusionMatrix(((0, 0, 0), (0, 0, 1), (1, 2, 0)))
        c2 = ConfusionMatrix(((0, 0, 0), (0, 0, 1), (0, 2, 1)))
        kappa = parse_measure_id("kappa")
        assert evaluate(kappa, c1) == Fraction(-5, 11)
        assert evaluate(kappa, c2) == Fraction(-1, 2)

    def test_cc_mon_witness_values(self):
        c1 = ConfusionMatrix(((0, 0, 0), (0, 1, 0), (4, 0, 0)))
        c2 = ConfusionMatrix(((0, 0, 0), (0, 1, 0), (3, 0, 1)))
        cc = parse_measure_id("cc")
        assert evaluate(cc, c1) == Fraction(1, 2)
        v2 = evaluate(cc, c2)
        assert value_cmp(v2, Fraction(1, 2)) < 0
        assert abs(as_float(v2) - 5 / 112**0.5) < 1e-12

    def test_ba_smon_strictly_decreases_through_resolution(self):
        # An extra correct item dilutes the b_i/n resolution applied to
        # the empty class, so the average drops: 1/2 -> 4/9.
        ba = parse_measure_id("ba")
        c1 = ConfusionMatrix(((0, 0, 0), (0, 1, 0), (1, 0, 0)))
        c2 = ConfusionMatrix(((0, 0, 0), (0, 2, 0), (1, 0, 0)))
        assert evaluate(ba, c1) == Fraction(1, 2)
        assert evaluate(ba, c2) == Fraction(4, 9)

    def test_sba_min_gap_from_empty_column_resolution(self):
        # A zero-diagonal matrix with an empty predicted class scores
        # 1/18, not 0: the a_i/n resolution for b_i = 0 contributes.
        sba = parse_measure_id("sba")
        c1 = ConfusionMatrix(((0, 0, 1), (0, 0, 1), (0, 1, 0)))
        c2 = ConfusionMatrix(((0, 0, 1), (1, 0, 0), (0, 1, 0)))
        assert evaluate(sba, c1) == Fraction(1, 18)
        assert evaluate(sba, c2) == 0

    def test_binary_only_measures_rejected_at_m3(self):
        for mid in ("f:beta=1", "jaccard", "gm:r=1"):
            with pytest.raises(ValueError):
                check_property(mid, "max", space=MULTICLASS_SPACE)


class TestWitnessReplay:
    def _replay_matrices(self, desc, witness):
        for encoded, recorded, recorded_f in zip(
            witness["matrices"],
            witness["values"],
            witness["value_floats"],
        ):
            C = ConfusionMatrix(
                tuple(tuple(int(x) for x in row) for row in encoded)
            )
            val = evaluate(desc, C)
            assert value_str(val) == recorded
            assert as_float(val) == pytest.approx(recorded_f, abs=1e-15)

    def _replay_margins(self, desc, prop, witness):
        for side in (witness["first"], witness["second"]):
            if prop == "cb":
                val = exact_baseline_expectation(desc, side["a"], side["b"])
            else:
                val = evaluate(desc, expected_matrix(side["a"], side["b"]))
            assert value_str(val) == side["value"]

    def _replay(self, grid):
        for v in grid.values():
            w = v.witness
            if w is None:
                continue
            desc = parse_measure_id(v.measure_id)
            if w["kind"].startswith("prerequisite_"):
                w = w["inner"]
            if "matrices" in w:
                self._replay_matrices(desc, w)
            else:
                self._replay_margins(desc, v.property, w)

    def test_binary_witnesses_replay(self, binary_grid):
        self._replay(binary_grid)

    def test_multiclass_witnesses_replay(self, multiclass_grid):
        self._replay(multiclass_grid)


class TestProbes:
    def test_net_agreement_binary_profile(self):
        assert check_property("netagree", "smon").satisfied
        assert check_property("netagree", "mon").satisfied

    def test_any_agreement_binary_min(self):
        assert check_property("anyagree", "min").satisfied


class TestPreservation:
    def test_spaces_require_every_predicted_class(self):
        for prop in ALL_PROPERTIES:
            spaces = preservation_spaces(prop)
            assert [s.m for s in spaces] == [3, 4]
            for s in spaces:
                assert s.cb_min_col == 1
                assert s.describe()["cb_min_col"] == 1

    # Status and settling witness for each scheme/property cell, over
    # the shipped preservation spaces.  None means preserved.
    CELLS = {
        ("micro", "max"): None,
        ("micro", "min"): "anyagree",
        ("micro", "sym"): None,
        ("micro", "csym"): None,
        ("micro", "dist"): None,
        ("micro", "smon"): "netagree",
        ("micro", "cb"): "cc",
        ("micro", "acb"): "cc",
        ("macro", "min"): "anyagree",
        ("macro", "smon"): "netagree",
        ("macro", "cb"): None,
        ("macro", "acb"): None,
        ("weighted", "min"): "anyagree",
        ("weighted", "sym"): "f:beta=1",
        ("weighted", "dist"): "jaccard",
        ("weighted", "smon"): "netagree",
        ("weighted", "cb"): None,
        ("weighted", "acb"): None,
    }

    @pytest.mark.parametrize("scheme,prop", sorted(CELLS))
    def test_cell(self, scheme, prop):
        pv = check_averaging_preservation(scheme, prop)
        expected = self.CELLS[(scheme, prop)]
        if expected is None:
            assert pv.status == "preserved"
            assert pv.witness_measure is None
        else:
            assert pv.status == "not_preserved"
            assert pv.witness_measure == expected
            assert pv.inner is not None and pv.inner.witness is not None

    def test_weighted_mon_not_preserved(self):
        # Weighting by true class size breaks monotonicity: the edit
        # below moves weight from a zero-scored class onto one with a
        # negative per-class correlation, so the average strictly drops
        # even though a disagreement was resolved.
        pv = check_averaging_preservation("weighted", "mon")
        assert pv.status == "not_preserved"
        assert pv.witness_measure == "cc"
        w = pv.inner.witness
        assert w["kind"] == "improvement_penalized"
        assert w["matrices"] == [
            [["0", "0", "0"], ["1", "0", "0"], ["0", "3", "0"]],
            [["0", "0", "0"], ["1", "1", "0"], ["0", "2", "0"]],
        ]
        desc = parse_measure_id("cc:weighted")
        c1 = ConfusionMatrix(((0, 0, 0), (1, 0, 0), (0, 3, 0)))
        c2 = ConfusionMatrix(((0, 0, 0), (1, 1, 0), (0, 2, 0)))
        v1, v2 = evaluate(desc, c1), evaluate(desc, c2)
        assert as_float(v1) == pytest.approx(-0.25)
        assert as_float(v2) == pytest.approx(-(3**0.5) / 6)
        assert value_cmp(v2, v1) < 0

    @pytest.mark.parametrize("scheme", ["micro", "macro"])
    def test_mon_preserved_in_reduced_spaces(self, scheme):
        # The default spaces take ~10s per cell; a trimmed sweep keeps
        # the regression cheap.  Full-space runs back the shipped grid
        # in the acceptance suite.
        spaces = tuple(
            replace(s, n_max=4, mon_n_max=4)
            if s.m == 3
            else replace(s, n_max=3, mon_n_max=3)
            for s in preservation_spaces("mon")
        )
        pv = check_averaging_preservation(scheme, "mon", spaces=spaces)
        assert pv.status == "preserved"

    def test_baseline_leak_behind_min_col_bound(self):
        # With a class absent from both labelings, the one-vs-rest
        # sub-problem has two constant labelings and resolves to +/-1,
        # dragging the macro average off its constant.  The margin
        # grids exclude such columns (cb_min_col=1); the raw
        # expectations show what would leak in.
        desc = parse_measure_id("cc:macro")
        both_absent = exact_baseline_expectation(desc, (0, 0, 2), (0, 1, 1))
        one_absent = exact_baseline_expectation(desc, (0, 0, 2), (1, 1, 0))
        assert both_absent == Fraction(1, 3)
        assert one_absent == Fraction(-1, 3)


class TestImpossibility:
    def test_no_measure_has_all_three(self):
        report = corroborate_impossibility()
        assert report["no_measure_has_all_three"] is True
        for mid, entry in report["measures"].items():
            assert entry["violates"], mid
            for prop in entry["violates"]:
                assert prop in entry["witnesses"], (mid, prop)

    def test_two_of_three_examples(self):
        report = corroborate_impossibility()
        measures = report["measures"]
        # distance + monotone, not constant-baseline
        assert measures["cd"]["violates"] == ["cb"]
        assert measures["acc"]["violates"] == ["cb"]
        # monotone + constant-baseline, not a distance
        assert measures["cc"]["violates"] == ["dist"]
        assert measures["ba"]["violates"] == ["dist"]


class TestBudget:
    def test_cb_budget_exhaustion(self):
        with pytest.raises(EnumerationBudgetExceeded):
            check_property("cc", "cb", budget=Budget(3))

    def test_grid_shares_one_budget(self):
        budget = Budget(10**6)
        audit_grid(["acc"], ["sym", "csym"], budget=budget)
        sym = check_property("acc", "sym").checked
        assert budget.used == 2 * sym  # one charge per matrix, per cell


class TestAuditGridEps:
    def test_eps_reaches_the_cells(self):
        # Each call audits on a fresh row evaluator, so a loose eps is not
        # answered from the values or verdicts of an earlier default call.
        audit_grid(["cd"], ["max"])
        loose = audit_grid(["cd"], ["max"], eps=0.5)
        assert loose == [check_property("cd", "max", eps=0.5)]
        assert not loose[0].satisfied


def _random_matrix(draw, m, n_max):
    n = draw(st.integers(min_value=2, max_value=n_max))
    cells = draw(
        st.lists(
            st.integers(min_value=0, max_value=n),
            min_size=m * m,
            max_size=m * m,
        )
    )
    total = sum(cells)
    assume(total >= 2)
    rows = tuple(
        tuple(cells[i * m + j] for j in range(m)) for i in range(m)
    )
    return ConfusionMatrix(rows)


MON_SATISFIED_BINARY = [
    mid for mid, row in BINARY_REFERENCE.items() if row["mon"]
]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mon_edit_never_strictly_worsens(data):
    # Samples beyond the enumerated audit bound: resolving one
    # disagreement onto either involved class never strictly lowers
    # any monotone measure's oriented value.
    C = _random_matrix(data.draw, 2, 20)
    assume(not any(s in (0, C.n) for s in C.a))
    assume(not any(s in (0, C.n) for s in C.b))
    offdiag = [
        (i, j)
        for i in range(2)
        for j in range(2)
        if i != j and C[i, j] >= 1
    ]
    assume(offdiag)
    i, j = data.draw(st.sampled_from(offdiag))
    t = data.draw(st.sampled_from((i, j)))
    rows = [list(r) for r in C.entries]
    rows[i][j] -= 1
    rows[t][t] += 1
    edited = ConfusionMatrix(tuple(tuple(r) for r in rows))
    for mid in MON_SATISFIED_BINARY:
        desc = parse_measure_id(mid)
        before = oriented(desc, evaluate(desc, C))
        after = oriented(desc, evaluate(desc, edited))
        assert value_cmp(after, before) >= 0, mid
