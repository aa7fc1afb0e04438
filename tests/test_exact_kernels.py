"""The integer fast paths against the general code they shortcut.

* measures on all-int matrices against the same entries as Fractions,
  which take the Fraction branch of every measure;
* ``value_cmp``/``exact_cmp`` against the comparison by Fraction powers
  they replaced, kept here as a reference;
* matrices built without validation (edits, enumerations, transposes,
  class permutations and labeling counts) against validated ones.
"""

import itertools
from fractions import Fraction
from math import lcm

from hypothesis import example, given, settings
from hypothesis import strategies as st

from clfmeasures import properties
from clfmeasures.core import (
    ConfusionMatrix,
    Labeling,
    build_confusion,
    enumerate_confusion_matrices,
    enumerate_labelings,
    permute_classes,
    transpose,
)
from clfmeasures.measures import AUDIT_ONLY_IDS, SCHEMES, evaluate, parse_measure_id
from clfmeasures.properties import AuditSpace, check_property
from clfmeasures.values import Root, exact_cmp, root_value, value_cmp, value_str

MULTICLASS_NATIVE = ("acc", "ba", "sba", "kappa", "cc", "ce", "cd", "cdprime")
BINARY_ONLY = (
    "f:beta=1", "f:beta=2", "f:beta=1/3", "jaccard",
    "gm:r=1", "gm:r=2", "gm:r=3", "gm:r=-1", "gm:r=-2", "gm:r=1/2",
) + AUDIT_ONLY_IDS
AVERAGED = tuple(
    f"{mid}:{scheme}"
    for mid in ("f:beta=1", "f:beta=2", "jaccard", "gm:r=1", "gm:r=-2", "cc", "kappa")
    + AUDIT_ONLY_IDS
    for scheme in SCHEMES
)


def registry_ids(m: int) -> tuple:
    return MULTICLASS_NATIVE + AVERAGED + (BINARY_ONLY if m == 2 else ())


@st.composite
def int_matrices(draw, m_max=5, n_max=50):
    m = draw(st.integers(2, m_max))
    budget = draw(st.integers(1, n_max))
    cap = max(1, 2 * budget // (m * m))
    cells = []
    for _ in range(m * m):
        x = draw(st.integers(0, min(cap, budget)))
        budget -= x
        cells.append(x)
    if sum(cells) == 0:
        cells[draw(st.integers(0, m * m - 1))] = 1
    return tuple(tuple(cells[i * m:(i + 1) * m]) for i in range(m))


@given(int_matrices())
@example(((3, 0), (0, 0)))  # both labelings constant and equal
@example(((0, 3), (0, 0)))  # both constant, unequal
@example(((2, 0), (0, 2)))  # perfect-square radicand
@example(((0, 2), (2, 0)))
@example(((1, 0, 0), (0, 0, 0), (0, 0, 4)))  # empty class
@example(((0, 0, 0), (0, 2, 1), (0, 0, 0)))  # constant truth
@settings(max_examples=100, deadline=None)
def test_int_matrices_evaluate_like_fraction_matrices(entries):
    C_int = ConfusionMatrix(entries)
    C_frac = ConfusionMatrix(tuple(tuple(Fraction(x) for x in row) for row in entries))
    assert type(C_int.n) is int and type(C_frac.n) is Fraction
    for mid in registry_ids(len(entries)):
        desc = parse_measure_id(mid)
        fast, oracle = evaluate(desc, C_int), evaluate(desc, C_frac)
        assert type(fast) is type(oracle), mid
        assert value_str(fast) == value_str(oracle), mid
        assert repr(fast) == repr(oracle), mid


def reference_cmp(a, b) -> int:
    """The comparison by Fraction powers that ``exact_cmp`` replaced."""

    def parts(v):
        if isinstance(v, Root):
            return v.coeff, v.radicand, v.index
        return Fraction(v), Fraction(1), 1

    ca, ra, ka = parts(a)
    cb, rb, kb = parts(b)
    sa, sb = (ca > 0) - (ca < 0), (cb > 0) - (cb < 0)
    if sa != sb:
        return -1 if sa < sb else 1
    if sa == 0:
        return 0
    big = lcm(ka, kb)
    pa = abs(ca) ** big * ra ** (big // ka)
    pb = abs(cb) ** big * rb ** (big // kb)
    if pa == pb:
        return 0
    return sa if pa > pb else -sa


rationals = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-5, max_value=5, max_denominator=40),
)
radicands = st.fractions(min_value=Fraction(1, 40), max_value=40, max_denominator=40)
roots = st.one_of(
    st.builds(root_value, rationals, radicands, st.integers(2, 4)),
    st.builds(Root, st.fractions(-5, 5, max_denominator=20), radicands, st.integers(2, 4)),
)
exact_values = st.one_of(rationals, roots)


@st.composite
def same_value(draw):
    """A value and the same value written with a higher root index."""
    v = draw(exact_values)
    j = draw(st.integers(2, 3))
    if isinstance(v, Root):
        return v, Root(v.coeff, v.radicand**j, v.index * j)
    return v, Root(Fraction(v), Fraction(1), j)


@given(st.one_of(st.tuples(exact_values, exact_values), same_value()))
@settings(max_examples=400)
def test_cmp_agrees_with_fraction_powers(pair):
    a, b = pair
    expected = reference_cmp(a, b)
    assert exact_cmp(a, b) == expected
    assert value_cmp(a, b) == expected
    assert value_cmp(b, a) == -expected


def _margins(entries):
    return (
        sum(map(sum, entries)),
        tuple(map(sum, entries)),
        tuple(map(sum, zip(*entries))),
        sum(entries[i][i] for i in range(len(entries))),
    )


def assert_like_validated(C):
    V = ConfusionMatrix(C.entries)  # raises if an invariant fails
    assert C == V and hash(C) == hash(V)
    assert all(type(x) is int for row in C.entries for x in row)
    assert (C.n, C.a, C.b, C.diagonal_sum) == _margins(C.entries)


def test_edited_matrices_are_valid(monkeypatch):
    made = []
    edit = properties._edit

    def recording(C, decrement=None, increment=None):
        made.append(edit(C, decrement, increment))
        return made[-1]

    monkeypatch.setattr(properties, "_edit", recording)
    space = AuditSpace(m=3, n_max=5, mon_n_max=5)
    for prop in ("mon", "smon"):
        # acc has both properties, so each walk makes every edit.
        assert check_property("acc", prop, space).satisfied
    assert len({C.entries for C in made}) > 500
    for C in made:
        assert_like_validated(C)


def test_enumerated_and_transformed_matrices_are_valid():
    ev = properties._Eval(parse_measure_id("acc"), 0.0, None)
    perms = list(itertools.permutations(range(3)))
    for C in properties._iter_matrices(ev, 3, 1, 4, min_row=0):
        assert_like_validated(C)
        e = C.entries
        Ct = transpose(C)
        assert_like_validated(Ct)
        assert Ct.entries == tuple(tuple(e[j][i] for j in range(3)) for i in range(3))
        for p in perms:
            Cp = permute_classes(C, p)
            assert_like_validated(Cp)
            assert Cp.entries == tuple(tuple(e[p[i]][p[j]] for j in range(3)) for i in range(3))
    for C, _ in enumerate_confusion_matrices((2, 0, 3), (1, 3, 1)):
        assert_like_validated(C)


def test_counted_labelings_are_valid():
    for truth in (Labeling((0, 0, 1, 2, 2), 3), Labeling((1,) * 5, 3)):
        for pred in enumerate_labelings(5, 3):
            assert_like_validated(build_confusion(truth, pred))
