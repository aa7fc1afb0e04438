"""Orbit-reduced csym/mon/smon scans against the full scans.

The full scan is the same loop run with every matrix its own orbit, got
here by replacing the orbit index with singleton orbits.  Both must give
byte-equal verdicts, ``checked`` and witnesses included, and charge a
budget the same.
"""

import itertools
from fractions import Fraction

import pytest

from clfmeasures import properties
from clfmeasures.core import Budget, EnumerationBudgetExceeded
from clfmeasures.measures import (
    AUDIT_ONLY_IDS,
    CANONICAL_IDS,
    SCHEMES,
    parse_measure_id,
    with_scheme,
)
from clfmeasures.properties import AuditSpace, _Eval, _run, audit_space_policy, preservation_spaces
from clfmeasures.values import DEFAULT_EPS

NEIGHBOUR_PROPERTIES = ("csym", "mon", "smon")
AVERAGED = [
    with_scheme(parse_measure_id(base), scheme)
    for scheme in SCHEMES
    for base in AUDIT_ONLY_IDS + CANONICAL_IDS
]


def _singleton_orbits(m, n, min_row):
    return tuple((e,) for e in properties._space_entries(m, n, min_row))


def _space(m, n_max):
    return AuditSpace(m=m, n_max=n_max, mon_n_max=n_max, dist_n_max=n_max, cb_n_max=n_max)


def _row(ev, props, spaces):
    return [_run(ev, prop, space).to_dict() for space in spaces for prop in props]


def _both(monkeypatch, make_ev, props, spaces):
    """(orbit-reduced, full) verdict dicts of one row, and the reduced row."""
    ev = make_ev()
    reduced = _row(ev, props, spaces)
    with monkeypatch.context() as patch:
        patch.setattr(properties, "_orbit_index", _singleton_orbits)
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
    assert all(ev.orbits_identical(3, n, 0) for n in range(1, 5))


@pytest.mark.parametrize("mid", CANONICAL_IDS)
def test_binary_grid_matches_full_scan(monkeypatch, mid):
    desc = parse_measure_id(mid)
    spaces = {prop: audit_space_policy(desc, prop, m=2) for prop in NEIGHBOUR_PROPERTIES}

    def row(ev):
        return [_run(ev, prop, space).to_dict() for prop, space in spaces.items()]

    reduced = row(_Eval(desc, DEFAULT_EPS, None))
    with monkeypatch.context() as patch:
        patch.setattr(properties, "_orbit_index", _singleton_orbits)
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
    assert not ev.orbits_identical(space.m, 2, 0)
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
    assert ev.orbits_identical(3, 3, 0) and not ev.orbits_identical(3, 4, 0)


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
        patch.setattr(properties, "_orbit_index", _singleton_orbits)
        full = grid()
    assert reduced == full
    if limit == 10**6:
        assert reduced is not None


def test_orbit_index_partitions_the_level():
    for m, n, min_row in ((2, 5, 0), (3, 4, 1), (4, 3, 0)):
        level = properties._space_entries(m, n, min_row)
        orbits = properties._orbit_index(m, n, min_row)
        members = [e for orbit in orbits for e in orbit]
        assert sorted(members) == sorted(level) and len(set(members)) == len(level)
        position = {e: k for k, e in enumerate(level)}
        firsts = [position[orbit[0]] for orbit in orbits]
        assert firsts == sorted(firsts)
        for orbit in orbits:
            assert [position[e] for e in orbit] == sorted(position[e] for e in orbit)
            images = {
                tuple(tuple(orbit[0][i][j] for j in p) for i in p)
                for p in itertools.permutations(range(m))
            }
            assert images == set(orbit)


@pytest.mark.slow
@pytest.mark.parametrize("desc", AVERAGED, ids=lambda d: d.measure_id)
@pytest.mark.parametrize("prop", NEIGHBOUR_PROPERTIES)
def test_preservation_spaces_match_full_scan(monkeypatch, desc, prop):
    reduced, full, _ = _both(
        monkeypatch, lambda: _Eval(desc, DEFAULT_EPS, None), (prop,), preservation_spaces(prop)
    )
    assert reduced == full
