"""The kernels and fast paths against written-out references.

* every measure id on int matrices, on the same entries as Fractions and
  on rational matrices (expected matrices, int matrices scaled by
  non-integer rationals, mixed int and Fraction entries), against the
  reference kernels below.  They state each rational measure term by
  term in Fraction arithmetic, where a kernel forms one numerator and
  denominator in the entries' own type; the values must agree in type
  and representation.  The averaging schemes are written out too, as
  ``value_sum``/``scale`` over every one-vs-all matrix in canonical
  class order;
* one memoized ``Evaluator`` per averaged id over the audit spaces, whose
  class-value memo hits across matrices, against the same references;
* ``value_cmp``/``exact_cmp`` against the comparison by Fraction powers
  they replaced, kept here as a reference;
* ``power_mean_ratio`` against the form that reduced its radicand as one
  Fraction of two powers, on random inputs and on the abscissae of the
  normalizer checks;
* matrices built without validation (edits, enumerations, transposes,
  class permutations and labeling counts) against validated ones.
"""

import itertools
import random
from fractions import Fraction
from functools import partial
from math import lcm

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clfmeasures import properties
from clfmeasures.averaging import micro_counts
from clfmeasures.core import (
    ConfusionMatrix,
    Labeling,
    build_confusion,
    compositions,
    confusion_matrix,
    enumerate_confusion_matrices,
    enumerate_entries,
    enumerate_labelings,
    expected_matrix,
    one_vs_all,
    permute_classes,
    transpose,
)
from clfmeasures.measures import (
    AUDIT_ONLY_IDS,
    SCHEMES,
    Evaluator,
    _constant_class,
    _normalize_r,
    any_agreement,
    confusion_entropy,
    evaluate,
    parse_measure_id,
    power_mean_ratio,
)
from clfmeasures.values import (
    Root,
    exact_cmp,
    root_value,
    scale,
    to_mpf,
    value_cmp,
    value_identical,
    value_str,
    value_sum,
    working_precision,
)

MULTICLASS_NATIVE = ("acc", "ba", "sba", "kappa", "cc", "ce", "cd", "cdprime")
BINARY_ONLY = (
    "f:beta=1", "f:beta=2", "f:beta=1/3", "jaccard",
    "gm:r=1", "gm:r=2", "gm:r=3", "gm:r=-1", "gm:r=-2", "gm:r=1/2",
) + AUDIT_ONLY_IDS
AVERAGED = tuple(
    f"{mid}:{scheme}"
    for mid in (
        "f:beta=1", "f:beta=2", "jaccard", "gm:r=1", "gm:r=-2", "cc", "kappa",
        "ce", "cd", "cdprime", "acc", "ba", "sba",
    )
    + AUDIT_ONLY_IDS
    for scheme in SCHEMES
)


def registry_ids(m: int) -> tuple:
    return MULTICLASS_NATIVE + AVERAGED + (BINARY_ONLY if m == 2 else ())


# ---------------------------------------------------------------------------
# reference kernels: each rational measure in Fraction arithmetic


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def ref_accuracy(C):
    return _frac(C.diagonal_sum) / _frac(C.n)


def ref_balanced_accuracy(C):
    total = Fraction(0)
    for i in range(C.m):
        if C.a[i]:
            total += _frac(C[i, i]) / _frac(C.a[i])
        else:
            total += _frac(C.b[i]) / _frac(C.n)
    return total / C.m


def ref_symmetric_balanced_accuracy(C):
    total = Fraction(0)
    for i in range(C.m):
        if C.a[i]:
            total += _frac(C[i, i]) / _frac(C.a[i])
        else:
            total += _frac(C.b[i]) / _frac(C.n)
        if C.b[i]:
            total += _frac(C[i, i]) / _frac(C.b[i])
        else:
            total += _frac(C.a[i]) / _frac(C.n)
    return total / (2 * C.m)


def ref_cohens_kappa(C):
    n = _frac(C.n)
    chance = sum(_frac(ai) * _frac(bi) for ai, bi in zip(C.a, C.b))
    den = n * n - chance
    if den == 0:
        # Happens only when both labelings are the same constant.
        return Fraction(1)
    return (n * _frac(C.diagonal_sum) - chance) / den


def ref_matthews_cc(C):
    n = C.n
    ca = _constant_class(C.a, n)
    cb = _constant_class(C.b, n)
    if ca is not None and cb is not None:
        return Fraction(1) if ca == cb else Fraction(-1)
    if ca is not None or cb is not None:
        return Fraction(0)
    num = _frac(n) * _frac(C.diagonal_sum) - sum(
        _frac(ai) * _frac(bi) for ai, bi in zip(C.a, C.b)
    )
    rad = (_frac(n) ** 2 - sum(_frac(bi) ** 2 for bi in C.b)) * (
        _frac(n) ** 2 - sum(_frac(ai) ** 2 for ai in C.a)
    )
    return root_value(num / rad, rad, 2)


def _ref_cc_as_mpf(C):
    x = to_mpf(ref_matthews_cc(C))
    return max(mpmath.mpf(-1), min(mpmath.mpf(1), x))


def ref_correlation_distance(C):
    with working_precision():
        return mpmath.acos(_ref_cc_as_mpf(C)) / mpmath.pi


def ref_chordal_distance(C):
    with working_precision():
        return mpmath.sqrt(2 * (1 - _ref_cc_as_mpf(C)))


def ref_f_beta(C, beta=Fraction(1)):
    beta = _frac(beta)
    (_, c01), (c10, c11) = C.entries
    w = 1 + beta * beta
    num = w * _frac(c11)
    den = num + beta * beta * _frac(c10) + _frac(c01)
    if den == 0:
        # No positives anywhere: perfect agreement on an all-negative set.
        return Fraction(1)
    return num / den


def ref_jaccard(C):
    (_, c01), (c10, c11) = C.entries
    den = _frac(c11) + _frac(c10) + _frac(c01)
    if den == 0:
        return Fraction(1)
    return _frac(c11) / den


def ref_generalized_means(C, r):
    r = _normalize_r(r)
    (c00, _), (_, c11) = C.entries
    (a0, a1), (b0, b1) = C.a, C.b
    n = _frac(C.n)
    x = _frac(a1) * _frac(a0)
    y = _frac(b1) * _frac(b0)
    if x == 0 and y == 0:
        # Both labelings constant: sign of the (dis)agreement.
        return Fraction(1) if (c11 == C.n or c00 == C.n) else Fraction(-1)
    if x == 0 or y == 0:
        return Fraction(0)
    num = n * _frac(c11) - _frac(a1) * _frac(b1)
    if not isinstance(r, int):
        with working_precision():
            # The power mean exp(log1p(mean of expm1(r ln v)) / r): no
            # v**r - 1 cancels, so a tiny r keeps every digit and the
            # r -> 0 limit is the geometric mean.
            rr = to_mpf(r)
            xr_m1 = mpmath.expm1(rr * mpmath.log(to_mpf(x)))
            yr_m1 = mpmath.expm1(rr * mpmath.log(to_mpf(y)))
            mean = mpmath.exp(mpmath.log1p((xr_m1 + yr_m1) / 2) / rr)
            return to_mpf(num) / mean
    if r > 0:
        u = (x**r + y**r) / 2
        if r == 1:
            return num / u
        return root_value(num / u, u ** (r - 1), r)
    # Negative r: the power mean is v**(1/s) with v the "harmonic" combination.
    s = -r
    v = 2 * x**s * y**s / (x**s + y**s)
    if s == 1:
        return num / v
    return root_value(num / v, v ** (s - 1), s)


def ref_net_agreement(C):
    (c00, c01), (c10, c11) = C.entries
    return _frac(c11) + _frac(c00) - _frac(c10) - _frac(c01)


#: ``ce`` and ``anyagree`` never had a second formula; they are their own
#: reference.
REFERENCE_KERNELS = {
    "acc": ref_accuracy,
    "ba": ref_balanced_accuracy,
    "sba": ref_symmetric_balanced_accuracy,
    "kappa": ref_cohens_kappa,
    "cc": ref_matthews_cc,
    "ce": confusion_entropy,
    "cd": ref_correlation_distance,
    "cdprime": ref_chordal_distance,
    "f": ref_f_beta,
    "jaccard": ref_jaccard,
    "gm": ref_generalized_means,
    "netagree": ref_net_agreement,
    "anyagree": any_agreement,
}


def reference_value(desc, C):
    kernel = REFERENCE_KERNELS[desc.base]
    if desc.base == "f":
        kernel = partial(kernel, beta=desc.beta)
    elif desc.base == "gm":
        kernel = partial(kernel, r=desc.r)
    if desc.scheme is None:
        return kernel(C)
    if desc.scheme == "micro":
        return kernel(micro_counts(C))
    # ``value_sum`` is exact only while like radicals meet before an
    # unlike one, so the classes are added in the canonical order that
    # ``averaging`` documents: by (a_i, b_i, c_ii, i).
    classes = sorted(range(C.m), key=lambda i: (C.a[i], C.b[i], C[i, i], i))
    if desc.scheme == "macro":
        return scale(value_sum([kernel(one_vs_all(C, i)) for i in classes]), Fraction(1, C.m))
    return value_sum(
        [scale(kernel(one_vs_all(C, i)), Fraction(C.a[i], C.n)) for i in classes if C.a[i]]
    )


def assert_like_reference(C):
    """Every registry id gives on ``C`` the reference's value, in the
    same type and representation."""
    for mid in registry_ids(C.m):
        desc = parse_measure_id(mid)
        assert_same_value(evaluate(desc, C), reference_value(desc, C), (mid, C.entries))


def assert_same_value(got, want, context):
    assert type(got) is type(want), context
    assert repr(got) == repr(want), context
    assert value_str(got) == value_str(want), context


def as_fractions(entries):
    return tuple(tuple(Fraction(x) for x in row) for row in entries)


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
    C_frac = ConfusionMatrix(as_fractions(entries))
    assert type(C_int.n) is int and type(C_frac.n) is Fraction
    assert_like_reference(C_int)
    assert_like_reference(C_frac)


@st.composite
def margins(draw, m: int, n: int) -> tuple:
    """A composition of n into m non-negative parts."""
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=m - 1, max_size=m - 1)))
    return tuple(hi - lo for lo, hi in zip([0] + cuts, cuts + [n]))


@st.composite
def expected_matrices(draw, m_max=5, n_max=30):
    m = draw(st.integers(2, m_max))
    n = draw(st.integers(1, n_max))
    return expected_matrix(draw(margins(m, n)), draw(margins(m, n)))


@st.composite
def scaled_matrices(draw):
    """An int matrix times a non-integer rational."""
    q = draw(
        st.fractions(min_value=Fraction(1, 60), max_value=60, max_denominator=60).filter(
            lambda q: q.denominator > 1
        )
    )
    return ConfusionMatrix(tuple(tuple(x * q for x in row) for row in draw(int_matrices())))


@st.composite
def mixed_matrices(draw):
    """An int matrix with some entries replaced by Fractions (int-valued or not)."""
    return ConfusionMatrix(
        tuple(
            tuple(
                x if draw(st.booleans()) else Fraction(x, draw(st.integers(1, 4)))
                for x in row
            )
            for row in draw(int_matrices())
        )
    )


@given(st.one_of(expected_matrices(), scaled_matrices(), mixed_matrices()))
@example(expected_matrix((2, 1), (1, 2)))
@example(expected_matrix((3, 0), (3, 0)))  # both labelings constant and equal
@example(expected_matrix((0, 3, 1), (2, 0, 2)))  # empty classes
@example(confusion_matrix([[1, "7/3", 0], ["1/5", 2, 1], [0, 1, "9/4"]]))
@example(confusion_matrix([["1/2", "3/4"], ["2/3", "5"]]))
# Like radicals that cancel only when summed before an unlike one.
@example(confusion_matrix([["1/20", "1/20", "1/30"], ["1/30", 0, 0], ["1/60", 0, "1/60"]]))
@settings(max_examples=150, deadline=None)
def test_rational_matrices_evaluate_like_reference(C):
    assert_like_reference(C)


@pytest.mark.slow
@pytest.mark.parametrize("m, n_max", [(2, 10), (3, 5)])
def test_every_small_matrix_evaluates_like_reference(m, n_max):
    """Every matrix of the size, as ints and as Fractions, and every
    expected matrix of its margins."""
    for n in range(1, n_max + 1):
        grid = list(compositions(n, m))
        for a in grid:
            for entries, _ in enumerate_entries(a):
                assert_like_reference(ConfusionMatrix(entries))
                assert_like_reference(ConfusionMatrix(as_fractions(entries)))
            for b in grid:
                assert_like_reference(expected_matrix(a, b))


@pytest.mark.parametrize(
    "n_max",
    [pytest.param({3: 4, 4: 3}, id="small"),
     pytest.param({3: 5, 4: 4}, id="full", marks=pytest.mark.slow)],
)
@pytest.mark.parametrize("mid", AVERAGED)
def test_memoized_averaged_values_match_reference(mid, n_max):
    """One evaluator per averaged id over the audit spaces (``full``: the
    default preservation spaces), in space order, so that its class-value
    memo hits across matrices."""
    desc = parse_measure_id(mid)
    ev = Evaluator(desc)
    for m in (3, 4):
        for C in itertools.chain.from_iterable(
            properties._level(m, n, 0).matrices for n in range(1, n_max[m] + 1)
        ):
            assert_same_value(ev.value(C), reference_value(desc, C), (mid, C.entries))


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


def reference_power_mean_ratio(num, x, y, r: int):
    """``power_mean_ratio`` with the radicand ``u**(s-1)`` reduced as
    ``top**(s-1) / bottom**(s-1)``, one Fraction of two large powers."""
    s = abs(r)
    xs, ys = x**s, y**s
    top, bottom = (xs + ys, 2) if r > 0 else (2 * xs * ys, xs + ys)
    coeff = Fraction(num * bottom, top)
    if s == 1:
        return coeff
    return root_value(coeff, Fraction(top ** (s - 1), bottom ** (s - 1)), s)


def _fields(v) -> tuple:
    # Not repr: a large-|r| radicand exceeds the int-to-str limit.
    if isinstance(v, Root):
        return Root, v.coeff, v.radicand, v.index
    return type(v), v


def test_power_mean_ratio_matches_reference():
    rng = random.Random(20)

    def variance():
        # An int, as generalized_means passes, or a Fraction, as gm_normalizer does.
        k = rng.randint(1, 300)
        return k if rng.random() < 0.5 else Fraction(k, rng.randint(1, 300))

    for _ in range(500):
        r = rng.choice([-1, 1]) * rng.randint(1, 64)
        num = rng.randint(-100, 100)
        x, y = variance(), variance()
        got = power_mean_ratio(num, x, y, r)
        assert _fields(got) == _fields(reference_power_mean_ratio(num, x, y, r)), (num, x, y, r)


def _normalizer_abscissae(N: int) -> list:
    """The margin variances ``gm_normalizer`` takes at ``steps=N``: those of
    k/N and of the finite-difference abscissae k/N +- 10**-7."""
    delta = Fraction(1, 10**7)
    margins = [Fraction(k, N) + d for k in range(1, N) for d in (-delta, 0, delta)]
    return [p * (1 - p) for p in margins]


@pytest.mark.parametrize("N", [4, 20])
@pytest.mark.parametrize("r", [1, -1, 2, -2, 3, -3, 16, -16])
def test_power_mean_ratio_at_normalizer_abscissae(r, N):
    # Fractions as gm_normalizer passes them, the ints k(N-k) that
    # generalized_means passes, and the two mixed.
    xs = _normalizer_abscissae(N)
    ys = [Fraction(l * (N - l), N * N) for l in range(1, N)]
    ints = [k * (N - k) for k in range(1, N)]
    pairs = [(1, x, y) for x in xs for y in ys]
    pairs += [(x - 2 * y, x, y) for x in ints for y in ints]
    pairs += [(N, x, y) for x in ints for y in ys[::3]] + [(-N, y, x) for x in ints for y in ys[::3]]
    for num, x, y in pairs:
        got = power_mean_ratio(num, x, y, r)
        assert value_identical(got, reference_power_mean_ratio(num, x, y, r)), (num, x, y, r)


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


def _written_out_moves(prop, C):
    """The entries of each of C's moves under ``prop``, in scan order, from
    the definitions: csym relabels the classes (all but the identity); mon
    moves a unit of a positive off-diagonal cell to the diagonal cell of its
    row, then of its column; smon adds a diagonal unit unless C is diagonal,
    then removes a positive off-diagonal one unless C is zero-diagonal."""
    m, e = C.m, C.entries
    cells = range(m)

    def edited(*changes):
        rows = [list(row) for row in e]
        for i, j, unit in changes:
            rows[i][j] += unit
        return tuple(map(tuple, rows))

    off = [(i, j) for i in cells for j in cells if i != j and e[i][j] > 0]
    if prop == "csym":
        # Row i of the relabeling by p is row p[i] of C, its columns in order p.
        perms = [p for p in itertools.permutations(cells) if list(p) != sorted(p)]
        return [tuple(tuple(map(e[pi].__getitem__, p)) for pi in p) for p in perms]
    if prop == "mon":
        return [edited((i, j, -1), (t, t, 1)) for i, j in off for t in (i, j)]
    adds = [] if not off else [edited((i, i, 1)) for i in cells]
    diagonal_sum = sum(e[i][i] for i in cells)
    return adds + ([] if diagonal_sum == 0 else [edited((i, j, -1)) for i, j in off])


def test_edited_matrices_are_valid():
    """Every mon and smon edit and every class permutation of every matrix
    of both row floors, for m = 2 with n <= 9, m = 3 with n <= 6 and m = 4
    with n <= 5, as the walks find it by position, equals a validated
    matrix of the written-out entries and is the target level's own
    object.  Permutations stay in their start's floor; edits are found at
    floor 0, which holds every floor-1 matrix and the edits that empty a
    row."""
    own, indexed = {}, set()  # {entries: the object of its level}, per (m, floor)
    validated = set()
    for m, n_max in ((2, 9), (3, 6), (4, 5)):
        for min_row in (0, 1):
            for n in range(1, n_max + 1):
                for prop, walk in properties._WALKS.items():
                    floor = min_row if prop == "csym" else 0
                    levels = {k: properties._level(m, k, floor) for k in (n - 1, n, n + 1)}
                    index = own.setdefault((m, floor), {})
                    for k, level in levels.items():
                        if (m, k, floor) not in indexed:
                            indexed.add((m, k, floor))
                            index.update((D.entries, D) for D in level.matrices)
                    for C in properties._level(m, n, min_row).matrices:
                        targets = walk.targets(C, levels)
                        written = _written_out_moves(prop, C)
                        assert len(targets) == len(written), (prop, C.entries)
                        for Ct, entries in zip(targets, written):
                            assert Ct is index[entries], (prop, C.entries, entries)
                            if id(Ct) not in validated:
                                validated.add(id(Ct))
                                assert_like_validated(Ct)
    assert len(validated) > 500


def test_enumerated_and_transformed_matrices_are_valid():
    perms = list(itertools.permutations(range(3)))
    levels = (properties._level(3, n, 0).matrices for n in range(1, 5))
    for C in itertools.chain.from_iterable(levels):
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
