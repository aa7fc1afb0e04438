"""Orbit-reduced csym/mon/smon scans against the full scans.

The full scan is the same loop run with every matrix its own orbit, got
here by giving every level singleton orbits.  Both must give byte-equal
verdicts, ``checked`` and witnesses included, and charge a budget the
same.
"""

import itertools
from fractions import Fraction

import pytest

from clfmeasures import averaging, properties
from clfmeasures.core import Budget, EnumerationBudgetExceeded
from clfmeasures.measures import (
    AUDIT_ONLY_IDS,
    CANONICAL_IDS,
    SCHEMES,
    Evaluator,
    parse_measure_id,
    with_scheme,
)
from clfmeasures.properties import (
    AuditSpace, _Eval, _Level, _level, _run, audit_space_policy, preservation_spaces,
)
from clfmeasures.values import DEFAULT_EPS, value_identical

NEIGHBOUR_PROPERTIES = ("csym", "mon", "smon")
AVERAGED = [
    with_scheme(parse_measure_id(base), scheme)
    for scheme in SCHEMES
    for base in AUDIT_ONLY_IDS + CANONICAL_IDS
]


#: ``_Level.orbits`` with every matrix its own orbit.  A property is a data
#: descriptor, so it also hides orbits a level has already kept.
_singleton_orbits = property(lambda level: tuple((C,) for C in level.matrices))


def _space(m, n_max):
    return AuditSpace(m=m, n_max=n_max, mon_n_max=n_max, dist_n_max=n_max, cb_n_max=n_max)


def _row(ev, props, spaces):
    return [_run(ev, prop, space).to_dict() for space in spaces for prop in props]


def _both(monkeypatch, make_ev, props, spaces):
    """(orbit-reduced, full) verdict dicts of one row, and the reduced row."""
    ev = make_ev()
    reduced = _row(ev, props, spaces)
    with monkeypatch.context() as patch:
        patch.setattr(_Level, "orbits", _singleton_orbits)
        full = _row(make_ev(), props, spaces)
    return reduced, full, ev


@pytest.mark.parametrize("desc", AVERAGED, ids=lambda d: d.measure_id)
def test_averaged_rows_match_full_scan(monkeypatch, desc):
    spaces = (_space(3, 4), _space(4, 3))
    reduced, full, ev = _both(
        monkeypatch, lambda: _Eval(desc, DEFAULT_EPS, None), NEIGHBOUR_PROPERTIES, spaces
    )
    assert reduced == full
    # Every averaged row is class-symmetric value by value, so the
    # reduced scans did run: the comparison above is not vacuous.
    _assert_orbits_identical(desc, [(3, n) for n in range(1, 6)] + [(4, n) for n in range(1, 5)])


def _assert_orbits_identical(desc, levels):
    """Evaluate every member of every orbit of the ``(m, n)`` levels and
    check that each orbit carries one identical value.  The levels of
    row floor 0 hold those of floor 1, orbits included."""
    ev = Evaluator(desc)
    for m, n in levels:
        for orbit in _level(m, n, 0).orbits:
            first, *rest = map(ev.value, orbit)
            assert all(value_identical(v, first) for v in rest), orbit[0].entries


@pytest.mark.slow
@pytest.mark.parametrize("desc", AVERAGED, ids=lambda d: d.measure_id)
def test_averaged_orbits_identical_at_m4_n5(desc):
    # The top level of the m = 4 smon preservation space.
    _assert_orbits_identical(desc, [(4, 5)])


@pytest.mark.parametrize("scheme", SCHEMES)
def test_averaged_rows_are_identical_without_evaluating(monkeypatch, scheme):
    calls = []
    for name in ("micro_extend", "macro_extend", "weighted_extend"):
        extend = getattr(averaging, name)
        monkeypatch.setattr(
            averaging, name, lambda *args, _extend=extend: calls.append(1) or _extend(*args)
        )
    ev = _Eval(parse_measure_id(f"cc:{scheme}"), DEFAULT_EPS, None)
    assert all(ev.orbits_identical(_level(m, n, 0)) for m, n in ((3, 4), (4, 3)))
    assert calls == []
    ev.value(_level(3, 4, 0).matrices[-1])
    assert calls == [1]  # the wrapper does count the extender's calls


@pytest.mark.parametrize("mid", CANONICAL_IDS)
def test_binary_grid_matches_full_scan(monkeypatch, mid):
    desc = parse_measure_id(mid)
    spaces = {prop: audit_space_policy(desc, prop, m=2) for prop in NEIGHBOUR_PROPERTIES}

    def row(ev):
        return [_run(ev, prop, space).to_dict() for prop, space in spaces.items()]

    reduced = row(_Eval(desc, DEFAULT_EPS, None))
    with monkeypatch.context() as patch:
        patch.setattr(_Level, "orbits", _singleton_orbits)
        full = row(_Eval(desc, DEFAULT_EPS, None))
    assert reduced == full


class _ClassZeroBonus(_Eval):
    """acc plus a small reward for class 0: monotone, not class-symmetric."""

    def __init__(self):
        super().__init__(parse_measure_id("acc"), DEFAULT_EPS, None)

    def value(self, C):
        return super().value(C) + Fraction(C.entries[0][0], 1000 * C.n)


@pytest.mark.parametrize(
    "make_ev, space",
    [
        (lambda: _Eval(parse_measure_id("f:beta=1"), DEFAULT_EPS, None), _space(2, 8)),
        (_ClassZeroBonus, _space(3, 4)),
    ],
    ids=["f1", "class0-bonus"],
)
def test_unidentical_orbits_fall_back_to_full_scan(monkeypatch, make_ev, space):
    reduced, full, ev = _both(monkeypatch, make_ev, NEIGHBOUR_PROPERTIES, (space,))
    assert reduced == full
    assert not ev.orbits_identical(_level(space.m, 2, 0))
    csym, mon, _ = reduced
    assert csym["status"] == "violated"
    assert csym["witness"]["kind"] == "class_permutation_differs"
    assert mon["status"] == "satisfied" and mon["checked"] > 0


class _AsymmetricAtFour(_Eval):
    """acc, but at n = 4 a matrix with two or more in cell (0, 0) loses 1."""

    def __init__(self):
        super().__init__(parse_measure_id("acc"), DEFAULT_EPS, None)

    def value(self, C):
        v = super().value(C)
        return v - 1 if C.n == 4 and C.entries[0][0] >= 2 else v


def test_smon_level_falls_back_on_the_level_it_reaches(monkeypatch):
    # The starts stop at n = 3, whose orbits are identical; the extra
    # agreements reach n = 4, whose orbits are not.
    reduced, full, ev = _both(monkeypatch, _AsymmetricAtFour, ("smon",), (_space(3, 3),))
    assert reduced == full
    assert reduced[0]["status"] == "violated"
    assert ev.orbits_identical(_level(3, 3, 0)) and not ev.orbits_identical(_level(3, 4, 0))


@pytest.mark.parametrize("limit", [1, 40, 700, 5_000, 10**6])
@pytest.mark.parametrize(
    "m, ids",
    # Binary f is refused at m = 3; at m = 2 it is the row that falls back.
    [(3, ("kappa", "cc:macro", "f:beta=1:macro")), (2, ("kappa", "cc", "f:beta=1"))],
    ids=["m3", "m2"],
)
def test_budget_charged_as_full_scan(monkeypatch, limit, m, ids):
    def grid():
        budget = Budget(limit)
        try:
            verdicts = properties.audit_grid(
                ids, NEIGHBOUR_PROPERTIES, m=m, n_max=4, budget=budget
            )
        except EnumerationBudgetExceeded:
            return None
        return [v.to_dict() for v in verdicts], budget.used

    reduced = grid()
    with monkeypatch.context() as patch:
        patch.setattr(_Level, "orbits", _singleton_orbits)
        full = grid()
    assert reduced == full
    if limit == 10**6:
        assert reduced is not None


def test_orbit_index_partitions_the_level():
    for m, n, min_row in ((2, 5, 0), (3, 4, 1), (4, 3, 0)):
        level = _level(m, n, min_row).matrices
        orbits = _level(m, n, min_row).orbits
        members = [C for orbit in orbits for C in orbit]
        # The members are the level's own matrices, each once.
        assert {id(C) for C in members} == {id(C) for C in level}
        assert len(members) == len(level)
        position = {id(C): k for k, C in enumerate(level)}
        firsts = [position[id(orbit[0])] for orbit in orbits]
        assert firsts == sorted(firsts)
        for orbit in orbits:
            assert [position[id(C)] for C in orbit] == sorted(position[id(C)] for C in orbit)
            e = orbit[0].entries
            images = {
                tuple(tuple(e[i][j] for j in p) for i in p)
                for p in itertools.permutations(range(m))
            }
            assert images == {C.entries for C in orbit}


@pytest.mark.slow
@pytest.mark.parametrize("desc", AVERAGED, ids=lambda d: d.measure_id)
@pytest.mark.parametrize("prop", NEIGHBOUR_PROPERTIES)
def test_preservation_spaces_match_full_scan(monkeypatch, desc, prop):
    reduced, full, _ = _both(
        monkeypatch, lambda: _Eval(desc, DEFAULT_EPS, None), (prop,), preservation_spaces(prop)
    )
    assert reduced == full


def test_ce_is_identical_on_its_orbits():
    """ce sums its terms exactly, so relabeling the classes gives an
    identical value and its rows take the reduced scans."""
    ev = _Eval(parse_measure_id("ce"), DEFAULT_EPS, None)
    assert all(ev.orbits_identical(_level(2, n, 1)) for n in range(1, 13))
    assert all(ev.orbits_identical(_level(3, n, 1)) for n in range(1, 7))
