"""The audit's budget rule: a scan charges a whole sample size (level) of
its space when it reaches it, before the level is built.

The charges of every cell of the default binary grid and of the m = 3,
n <= 5 grid are pinned to those of the earlier per-matrix rule wherever
the two rules agree: every satisfied cell, and every cell whose scan
reads its whole space (max, min, cb, acb, dist past its prerequisites).
A sym, csym, mon or smon scan that stops on a violation is charged every
level up to and including its witness's.  smon's moves add a unit, so
it is also charged the level above the last one it scans.  The order
and amount of every charge of those cells is pinned by one digest per
grid.
"""

import hashlib
from collections import Counter, OrderedDict

import pytest

from clfmeasures import baselines, properties
from clfmeasures.cli import main
from clfmeasures.core import Budget, EnumerationBudgetExceeded
from clfmeasures.properties import (
    ALL_PROPERTIES,
    AuditSpace,
    _Eval,
    _Level,
    _level,
    _Walk,
    audit_grid,
    check_property,
)

#: ``budget.used`` per cell under the per-matrix rule, in ALL_PROPERTIES
#: order (max min sym csym dist mon smon cb acb).
USED_BINARY = {
    "f:beta=1": (406, 406, 406, 1, 818, 490, 9, 5, 2),
    "jaccard": (406, 406, 406, 1, 938, 490, 9, 7, 2),
    "cc": (406, 406, 406, 406, 826, 490, 494, 602, 196),
    "acc": (406, 406, 406, 406, 938, 490, 494, 9, 4),
    "ba": (406, 406, 19, 406, 19, 490, 23, 602, 196),
    "kappa": (406, 406, 406, 406, 826, 490, 42, 602, 196),
    "ce": (406, 1639, 406, 406, 814, 17, 9, 5, 2),
    "sba": (406, 406, 406, 406, 826, 490, 494, 602, 196),
    "gm:r=1": (406, 406, 406, 406, 826, 490, 494, 602, 196),
    "cd": (406, 406, 406, 406, 938, 490, 494, 14, 196),
}
USED_M3_N5 = {
    "acc": (783, 783, 783, 783, 1929, 1992, 2001, 6, 3),
    "ba": (783, 783, 2, 783, 2, 1992, 21, 2482, 646),
    "kappa": (783, 783, 783, 783, 1605, 232, 75, 2482, 646),
    "cc": (783, 783, 783, 783, 1578, 756, 21, 2482, 646),
}

#: sha256 of ``repr`` of each grid's ``(measure, property, charges)`` list,
#: every ``Budget.charge`` amount of each cell in order, the grid run from
#: an empty store of expectation tables (a kept table replays its states
#: in one charge).
CHARGE_ORDER_DIGESTS = {
    2: "34ea4f6e14ba07a764af11b0d7281082e1998afb13489983cbd69d9b67b0027d",
    3: "cdc2d459e2dceb38b9a1ede24b5eb074014407523d7f540a6b3559cc94bd805f",
}


class _RecordingBudget(Budget):
    """A budget that also records the amount of every charge."""

    def __init__(self, limit: int):
        super().__init__(limit)
        self.charges = []

    def charge(self, amount: int = 1) -> None:
        self.charges.append(amount)
        super().charge(amount)


#: (first level, min_row) of the neighbour scans.
LEVELS = {"sym": (1, 1), "csym": (1, 1), "mon": (2, 0), "smon": (1, 0)}


def _witness_level(witness: dict) -> int:
    """The sample size of the witness's start matrix."""
    return sum(int(x) for row in witness["matrices"][0] for x in row)


def _charged_to_witness(m: int, prop: str, witness: dict) -> int:
    """Every level of the scan of ``prop`` up to the witness's start matrix."""
    n_lo, min_row = LEVELS[prop]
    return sum(_level(m, k, min_row).size for k in range(n_lo, _witness_level(witness) + 1))


@pytest.mark.parametrize(
    "m, n_max, pinned", [(2, None, USED_BINARY), (3, 5, USED_M3_N5)], ids=["binary", "m3-n5"]
)
def test_charges_pinned(monkeypatch, m, n_max, pinned):
    monkeypatch.setattr(baselines, "_tables", OrderedDict())
    monkeypatch.setattr(baselines, "_held", 0)
    cells = []
    for mid, used in pinned.items():
        for prop, charged in zip(ALL_PROPERTIES, used):
            budget = _RecordingBudget(10**12)
            (verdict,) = audit_grid([mid], [prop], m=m, n_max=n_max, budget=budget)
            cells.append((mid, prop, tuple(budget.charges)))
            witness = verdict.witness
            if prop == "dist" and witness and witness["kind"] == "prerequisite_sym_failed":
                prop, witness = "sym", witness["inner"]
            if verdict.satisfied or prop not in LEVELS:
                expected, last = charged, verdict.space["mon_n_max"]
            else:
                expected, last = _charged_to_witness(m, prop, witness), _witness_level(witness)
                assert expected >= charged, (mid, prop)
            if prop == "smon":
                expected += _level(m, last + 1, 0).size
            assert budget.used == expected, (mid, prop)
    assert hashlib.sha256(repr(cells).encode()).hexdigest() == CHARGE_ORDER_DIGESTS[m]


@pytest.mark.parametrize("m, n_max", [(1, 7), (2, 7), (3, 7), (4, 5)])
def test_level_size_counts_the_level(m, n_max):
    for min_row in (0, 1):
        for n in range(n_max + 1):
            level = _Level(m, n, min_row)
            assert level.size == len(level.matrices)


def _hook_fields(monkeypatch, hook, fields=("matrices",)):
    """Call ``hook(level)`` on every read of the given fields of any level,
    before the field is built or read from the level."""
    for name in fields:
        field = getattr(_Level, name)

        def read(level, field=field):
            hook(level)
            return field.__get__(level, _Level)

        monkeypatch.setattr(_Level, name, property(read))


def _refuse_level(monkeypatch, key):
    def refuse(level):
        assert (level.m, level.n, level.min_row) != key, f"built level {key}"

    _hook_fields(monkeypatch, refuse, ("matrices", "orbits", "pairs"))


def test_budget_stops_before_the_level_is_built(monkeypatch):
    _refuse_level(monkeypatch, (7, 7, 1))
    space = AuditSpace(m=7, n_max=7, mon_n_max=7, dist_n_max=4, cb_n_max=4)
    with pytest.raises(EnumerationBudgetExceeded):
        check_property("acc", "max", space, budget=Budget(10))


def test_cli_budget_stops_before_the_level_is_built(monkeypatch, capsys):
    _refuse_level(monkeypatch, (7, 7, 1))
    argv = ["audit", "--m", "7", "--measures", "acc", "--properties", "max", "--budget", "10"]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 3, err
    assert "budget" in err


@pytest.mark.parametrize(
    "argv",
    [("audit", "--m", "990"), ("audit", "--m", "1200", "--measures", "acc", "--properties", "max")],
    ids=" ".join,
)
def test_cli_many_classes_stop_on_the_budget(capsys, argv):
    # Sizing a level of that many classes nests no call per class.
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 3, err
    assert "budget" in err


SMALL_M3 = AuditSpace(m=3, n_max=3, mon_n_max=3)


def test_smon_charges_the_level_its_moves_reach():
    budget = Budget(10**9)
    assert check_property("acc", "smon", SMALL_M3, budget=budget).satisfied
    # The 9 + 45 + 165 matrices of n <= 3, and the 495 of n = 4 that
    # adding a unit reaches.
    assert budget.used == 9 + 45 + 165 + 495
    with pytest.raises(EnumerationBudgetExceeded):
        check_property("acc", "smon", SMALL_M3, budget=Budget(9 + 45 + 165))


@pytest.mark.parametrize("prop", ["max", "min", "sym", "csym", "mon", "smon"])
def test_no_level_is_built_before_it_is_charged(monkeypatch, prop):
    _level.cache_clear()
    properties._block.cache_clear()
    budget = Budget(10**9)
    built = []
    _hook_fields(monkeypatch, lambda level: built.append((level.n, level.min_row, budget.used)))
    check_property("acc", prop, SMALL_M3, budget=budget)
    n_lo = LEVELS.get(prop, (1, 1))[0]
    assert built
    for n, min_row, used in built:
        levels = range(n_lo, n + 1)
        assert used >= sum(_level(3, k, min_row).size for k in levels), (n, min_row)


def test_no_dist_pairs_are_built_before_they_are_charged(monkeypatch):
    # dist charges its sym and max prerequisites, then m**n per level.
    space = AuditSpace(m=3, n_max=3, mon_n_max=3, dist_n_max=4)
    prerequisites = Budget(10**9)
    for prop in ("sym", "max"):
        check_property("acc", prop, space, budget=prerequisites)
    limit = prerequisites.used + 3 + 9 + 27
    _refuse_level(monkeypatch, (3, 4, 0))
    with pytest.raises(EnumerationBudgetExceeded):
        check_property("acc", "dist", space, budget=Budget(limit))
    # With level 4 paid for, its pairs are built: the refusal is live.
    with pytest.raises(AssertionError, match="built level"):
        check_property("acc", "dist", space, budget=Budget(limit + 81))


@pytest.mark.parametrize("prop", ["csym", "mon", "smon"])
def test_no_plan_reads_a_level_the_door_did_not_charge(monkeypatch, prop):
    """A walk's plan reads its targets only from levels the door has
    charged, and with the level its moves reach unpaid it is not built."""
    _level.cache_clear()
    properties._block.cache_clear()
    charged = set()
    door = _Eval.level

    def level(ev, m, n, min_row, states=None):
        got = door(ev, m, n, min_row, states)
        charged.add((m, n, min_row))
        return got

    def refuse(level):
        key = level.m, level.n, level.min_row
        assert key in charged, f"read level {key} before it was charged"

    monkeypatch.setattr(_Eval, "level", level)
    _hook_fields(monkeypatch, refuse, ("matrices", "orbits", "pairs"))
    assert check_property("acc", prop, SMALL_M3, budget=Budget(10**9)).satisfied
    min_row = LEVELS[prop][1]
    assert all(_level(3, n, min_row).plans for n in range(LEVELS[prop][0], 4))
    if prop == "smon":
        # Level 3's plan reaches level 4, which this budget cannot pay.
        _level.cache_clear()
        charged.clear()
        with pytest.raises(EnumerationBudgetExceeded):
            check_property("acc", prop, SMALL_M3, budget=Budget(9 + 45 + 165))
        assert not _level(3, 3, 0).plans


def test_two_rows_share_each_levels_neighbours(monkeypatch):
    """A two-row grid looks up the neighbours of each level's
    representatives once, for the first row's plans, which the second row
    reads; only the rescan of a violated level looks them up again."""
    _level.cache_clear()
    planning, calls = [], Counter()
    plan, targets = _Level.plan, _Walk.targets

    def counted_plan(level, walk, levels):
        planning.append(level)
        try:
            return plan(level, walk, levels)
        finally:
            planning.pop()

    def counted_targets(walk, C, levels):
        calls[walk.prop, C.entries, bool(planning)] += 1
        return targets(walk, C, levels)

    monkeypatch.setattr(_Level, "plan", counted_plan)
    monkeypatch.setattr(_Walk, "targets", counted_targets)
    verdicts = audit_grid(["acc", "ba"], ["mon", "smon", "csym"], m=3, n_max=5)
    assert [(v.measure_id, v.property) for v in verdicts if not v.satisfied] == [("ba", "smon")]
    planned = {key: count for key, count in calls.items() if key[2]}
    assert set(planned.values()) == {1}
    plans = [
        level.plans[walk][1]
        for walk in properties._WALKS.values()
        for level in (_level(3, n, walk.min_row) for n in range(1, 6))
        if walk in level.plans
    ]
    assert len(planned) == sum(map(len, plans)) > 300
    # ba's smon scan stops on a violation, rescanned matrix by matrix.
    assert {prop for prop, _, in_plan in calls if not in_plan} == {"smon"}
