"""Order keys: ``cd`` and ``cdprime`` compare on their ``cc`` key.

``Evaluator.compare`` is held to the comparison it replaces, written out
here: ``value_cmp`` of the two oriented values at the row's ``eps``.  It
must agree on every pair of a level, on every move the audit makes
(transposes, relabelings, mon/smon edits), on the pairs ``distinguish``
walks, on random matrices, and at every tolerance, including those where
the keys leave most pairs to the values.  ``rank_models`` and
``pairwise_inconsistency`` are held to rankings and counts written out
from ``value_cmp``.  Key-decided orbit identity is held to
member-by-member value identity.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clfmeasures.core import ConfusionMatrix, permute_classes, transpose
from clfmeasures.inconsistency import (
    margin_matrices,
    margin_matrix_pairs,
    pairwise_inconsistency,
    rank_models,
)
from clfmeasures.measures import Evaluator, evaluate, oriented, parse_measure_id
from clfmeasures.properties import _edited, _Eval, _level
from clfmeasures.values import DEFAULT_EPS, is_exact, value_cmp, value_identical

KEYED = ("cd", "cdprime")
#: An averaged angle: the same values summed per class, and no key.
UNKEYED = "cd:macro"
EPSILONS = (0.0, 1e-12, 1e-6, 0.05, 1.0)


def _rows(mid):
    return [_Eval(parse_measure_id(mid), eps, None) for eps in EPSILONS]


def _reference(ev, C1, C2) -> int:
    return value_cmp(ev.oriented(C1), ev.oriented(C2), ev.eps)


def _assert_like_reference(rows, pairs):
    for C1, C2 in pairs:
        for ev in rows:
            assert ev.compare(C1, C2, ev.eps) == _reference(ev, C1, C2), (
                ev.eps, C1.entries, C2.entries)


def _edit(C, decrement=None, increment=None):
    """The matrix of C edited, found by position in its level."""
    a, rows = _edited(C, decrement, increment)
    level = _level(C.m, sum(a), 0)
    return level.matrices[level.position(a, rows)]


def _moves(C):
    """C's transpose, relabelings and mon/smon edits."""
    m = C.m
    yield transpose(C)
    for p in itertools.permutations(range(m)):
        yield permute_classes(C, p)
    for i, j in itertools.product(range(m), repeat=2):
        if i == j:
            yield _edit(C, increment=(i, i))
        elif C.entries[i][j]:
            yield _edit(C, (i, j), (i, i))
            yield _edit(C, (i, j), (j, j))
            if C.n > 1:
                yield _edit(C, decrement=(i, j))


#: The levels whose pairs are compared; m = 3, n = 4 takes about 40 s a row.
LEVELS = [(2, n) for n in range(1, 8)] + [(3, n) for n in range(1, 4)] + [
    pytest.param(3, 4, marks=pytest.mark.slow)
]


@pytest.mark.parametrize("mid", KEYED + (UNKEYED,))
@pytest.mark.parametrize("m, n", LEVELS)
def test_level_pairs_and_moves(mid, m, n):
    """Each unordered pair once (the random pairs take both orders), and
    every move from each matrix."""
    rows = _rows(mid)
    matrices = _level(m, n, 0).matrices
    _assert_like_reference(rows, itertools.combinations_with_replacement(matrices, 2))
    _assert_like_reference(rows, ((C, Ct) for C in matrices for Ct in _moves(C)))


@st.composite
def _int_matrix(draw, m):
    n = draw(st.integers(1, 50))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=m * m - 1, max_size=m * m - 1)))
    cells = [hi - lo for lo, hi in zip([0] + cuts, cuts + [n])]
    return ConfusionMatrix(tuple(tuple(cells[i * m:(i + 1) * m]) for i in range(m)))


@st.composite
def _matrix_pair(draw):
    m = draw(st.integers(1, 4))
    return draw(_int_matrix(m)), draw(_int_matrix(m))


@settings(max_examples=300, deadline=None)
@given(_matrix_pair())
def test_random_pairs(pair):
    C1, C2 = pair
    for mid in KEYED + (UNKEYED,):
        _assert_like_reference(_rows(mid), [(C1, C2), (C2, C1), (C1, C1)])


@pytest.mark.parametrize("mid", KEYED + (UNKEYED,))
def test_distinguish_pairs(mid):
    """The shared-margin pairs ``distinguish`` walks, in both orders."""
    rows = _rows(mid)
    for n in range(2, 11):
        pairs = list(margin_matrix_pairs(n))
        _assert_like_reference(rows, pairs + [(C2, C1) for C1, C2 in pairs])


def _scaled(C, k):
    return ConfusionMatrix(tuple(tuple(x * k for x in row) for row in C.entries))


#: One cc value in unlike forms, C and a multiple of it, as labels files
#: of different lengths give them.
UNLIKE = [_scaled(ConfusionMatrix(((1, 1), (2, 5))), k) for k in (1, 5)] + [
    _scaled(ConfusionMatrix(((1, 1), (2, 6))), k) for k in (1, 3)
]
RANKED_IDS = KEYED + (UNKEYED, "cc")
_M3 = list(_level(3, 3, 1).matrices)


@pytest.mark.parametrize("eps", EPSILONS)
@pytest.mark.parametrize(
    "matrices",
    [UNLIKE + margin_matrices(7, 3), _M3 + [_scaled(C, 2) for C in _M3[:5]]],
    ids=["binary", "m3"],
)
def test_rank_and_inconsistency_like_reference(matrices, eps):
    """Competition ranks and inconsistency counts from ``value_cmp`` of
    the oriented values, one value per matrix and measure."""
    by_id = {}
    for mid in RANKED_IDS:
        desc = parse_measure_id(mid)
        by_id[mid] = [oriented(desc, evaluate(desc, C)) for C in matrices]
    for ranking in rank_models(RANKED_IDS, matrices, eps=eps):
        v = by_id[ranking.measure_id]
        ranks = [1 + sum(value_cmp(u, w, eps) > 0 for u in v) for w in v]
        assert [(e.name, e.rank) for e in ranking.entries] == [
            (f"model_{i + 1}", ranks[i]) for i in sorted(range(len(v)), key=lambda i: (ranks[i], i))
        ]
    pairs = list(itertools.combinations(range(len(matrices)), 2))
    levels = (eps / 10, eps, eps * 10)
    relations = {
        mid: [[value_cmp(v[i], v[j], e) for e in levels] for i, j in pairs]
        for mid, v in by_id.items()
    }
    report = pairwise_inconsistency(RANKED_IDS, [(matrices[i], matrices[j]) for i, j in pairs], eps)
    for p, q in itertools.combinations(RANKED_IDS, 2):
        differ = [[a != b for a, b in zip(rp, rq)] for rp, rq in zip(relations[p], relations[q])]
        assert report.inconsistent[p, q] == sum(d[1] for d in differ), (p, q)
        assert report.eps_sensitive[p, q] == sum(d[0] != d[2] for d in differ), (p, q)


@pytest.mark.parametrize("mid", KEYED)
def test_keys_decide_and_values_settle_the_rest(monkeypatch, mid):
    """At the default eps the keys decide nearly every pair of a level; at
    eps = 0.05 many pairs fall inside the window and are settled on the
    angles, which the counts of float comparisons show."""
    float_cmps = []

    def counting(a, b, eps=DEFAULT_EPS):
        if not (is_exact(a) and is_exact(b)):
            float_cmps.append(eps)
        return value_cmp(a, b, eps)

    monkeypatch.setattr("clfmeasures.values.value_cmp", counting)
    matrices = _level(2, 7, 0).matrices
    pairs = list(itertools.product(matrices, repeat=2))
    for eps in (1e-12, 0.05):
        ev = _Eval(parse_measure_id(mid), eps, None)
        float_cmps.clear()
        _assert_like_reference([ev], pairs)
        fallbacks = len(float_cmps)
        if eps == 0.05:
            assert fallbacks > len(matrices)
        else:
            # Equal keys are exact ties: no pair reaches the angles.
            assert fallbacks == 0
    # The angle is computed only where a value is read.
    ev = _Eval(parse_measure_id(mid), 1e-12, None)
    for C1, C2 in pairs:
        ev.compare(C1, C2, ev.eps)
    assert ev._memo == {}


@pytest.mark.parametrize("mid", KEYED)
@pytest.mark.parametrize("min_row", [0, 1])
def test_key_identity_is_value_identity_on_orbits(mid, min_row):
    desc = parse_measure_id(mid)
    values = Evaluator(desc)
    for m, n in [(3, n) for n in range(1, 6)] + [(4, n) for n in range(1, 5)]:
        level = _level(m, n, min_row)
        ev = _Eval(desc, 1e-12, None)
        by_value = True
        for orbit in level.orbits:
            first, *rest = map(values.value, orbit)
            by_value &= all(value_identical(v, first) for v in rest)
        assert ev.orbits_identical(level) == by_value
        assert ev._memo == {}  # decided on the keys alone


@pytest.mark.parametrize(
    "mid, entries, scale", [("cd", ((1, 1), (2, 6)), 3), ("cdprime", ((1, 1), (2, 5)), 5)]
)
def test_equal_keys_in_unlike_forms(mid, entries, scale):
    """C and a multiple of it share one cc value in two forms, and their
    angles lie a rounding apart, as the acb lattices of two sample sizes
    can.  Read as they are (acb reads them so), the values do not tie at
    eps = 0, so below KEY_SLACK the keys must leave them to the values."""
    C = ConfusionMatrix(entries)
    D = ConfusionMatrix(tuple(tuple(x * scale for x in row) for row in entries))
    for ev in _rows(mid):
        # A dissimilarity: the oriented order is D's value against C's.
        want = value_cmp(ev.value(D), ev.value(C), ev.eps)
        assert ev.compare(C, D, ev.eps, ev.value) == want
        assert (want != 0) == (ev.eps == 0)
        _assert_like_reference([ev], [(C, D), (D, C)])


def test_negative_eps_is_compared_on_values():
    ev = _Eval(parse_measure_id("cd"), -1.0, None)
    C = _level(2, 3, 0).matrices
    assert ev.compare(C[1], C[1], ev.eps) == _reference(ev, C[1], C[1])
