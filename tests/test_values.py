"""Exact-arithmetic layer: Root values, comparisons, sums."""

import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from mpmath import mp

from clfmeasures import values
from clfmeasures.values import (
    DEFAULT_EPS,
    Root,
    _int_kth_root,
    _residue_screen,
    as_float,
    exact_cmp,
    is_exact,
    root_value,
    scale,
    to_mpf,
    value_cmp,
    value_identical,
    value_key,
    value_str,
    value_sum,
    values_equal,
    working_precision,
)


class TestRootValue:
    def test_perfect_square_collapses(self):
        assert root_value(1, 4, 2) == Fraction(2)
        assert root_value(Fraction(1, 2), Fraction(9, 16), 2) == Fraction(3, 8)

    def test_perfect_cube_collapses(self):
        assert root_value(2, 27, 3) == Fraction(6)

    def test_non_perfect_power_stays_root(self):
        v = root_value(Fraction(1, 3), 2, 2)
        assert isinstance(v, Root)
        assert v.coeff == Fraction(1, 3)
        assert v.radicand == Fraction(2)
        assert v.index == 2

    def test_denominator_root_only_after_a_numerator_root(self, monkeypatch):
        rooted = []

        def kth_root(x, k):
            rooted.append(x)
            return _int_kth_root(x, k)

        monkeypatch.setattr(values, "_int_kth_root", kth_root)
        v = root_value(1, Fraction(2, 9), 2)
        assert type(v) is Root and v.radicand == Fraction(2, 9) and rooted == [2]
        assert root_value(1, Fraction(4, 7), 2).radicand == Fraction(4, 7)
        assert root_value(1, Fraction(4, 9), 2) == Fraction(2, 3)
        assert rooted == [2, 4, 7, 4, 9]

    def test_zero_coeff_collapses(self):
        assert root_value(0, 5, 2) == Fraction(0)
        assert root_value(3, 0, 2) == Fraction(0)

    def test_index_one_multiplies_out(self):
        assert root_value(Fraction(2, 3), Fraction(5, 7), 1) == Fraction(10, 21)

    def test_negative_radicand_rejected(self):
        with pytest.raises(ValueError):
            root_value(1, -2, 2)

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            root_value(1, 2, 0)


class TestExactCmp:
    def test_sqrt2_vs_rational(self):
        r = root_value(1, 2, 2)
        assert exact_cmp(r, Fraction(7, 5)) > 0     # sqrt(2) > 1.4
        assert exact_cmp(r, Fraction(3, 2)) < 0     # sqrt(2) < 1.5
        assert exact_cmp(r, r) == 0

    def test_equal_across_representations(self):
        # (1/120)*sqrt(2400) == (1/6)*sqrt(6) == sqrt(1/6)
        a = root_value(Fraction(1, 120), 2400, 2)
        b = root_value(Fraction(1, 6), 6, 2)
        c = root_value(1, Fraction(1, 6), 2)
        assert exact_cmp(a, b) == 0
        assert exact_cmp(b, c) == 0

    def test_mixed_indices(self):
        # 2**(1/2) vs 2**(1/3): compare through lcm of indices
        sq = root_value(1, 2, 2)
        cb = root_value(1, 2, 3)
        assert exact_cmp(sq, cb) > 0

    def test_signs(self):
        neg = root_value(-1, 2, 2)
        pos = root_value(1, 2, 2)
        assert exact_cmp(neg, pos) < 0
        assert exact_cmp(neg, Fraction(0)) < 0
        assert exact_cmp(Fraction(0), pos) < 0

    @given(
        st.fractions(min_value=-3, max_value=3),
        st.fractions(min_value=-3, max_value=3),
    )
    def test_agrees_with_float_on_rationals(self, p, q):
        c = exact_cmp(p, q)
        f = (float(p) > float(q)) - (float(p) < float(q))
        # float comparison can only disagree by mapping to 0 on ties it
        # cannot resolve; these magnitudes are all exactly representable
        assert c == f


class TestValueCmp:
    def test_exact_path_ignores_eps(self):
        a = Fraction(1, 10**30)
        assert value_cmp(a, Fraction(0), eps=1.0) > 0

    def test_float_path_uses_eps(self):
        assert value_cmp(0.5, 0.5 + 1e-15) == 0
        assert value_cmp(0.5, 0.5 + 1e-9) < 0

    def test_root_vs_mpf(self):
        r = root_value(1, 2, 2)
        with mp.workdps(30):
            x = mpmath.sqrt(2)
        assert value_cmp(r, x) == 0

    def test_values_equal_default_eps(self):
        assert values_equal(Fraction(1, 3), Fraction(1, 3))
        assert not values_equal(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**13))
        assert values_equal(1 / 3, Fraction(1, 3), eps=1e-9)


class TestValueSum:
    def test_rationals_sum_exactly(self):
        terms = [Fraction(1, 3), Fraction(1, 6), 1]
        assert value_sum(terms) == Fraction(3, 2)

    def test_like_radicals_combine(self):
        a = root_value(Fraction(1, 2), 5, 2)
        b = root_value(Fraction(1, 3), 5, 2)
        s = value_sum([a, b])
        assert isinstance(s, Root)
        assert s.coeff == Fraction(5, 6)
        assert s.radicand == Fraction(5)

    def test_cancelling_roots_leave_rational(self):
        a = root_value(1, 7, 2)
        b = root_value(-1, 7, 2)
        s = value_sum([a, b, Fraction(2, 3)])
        assert s == Fraction(2, 3)

    def test_unlike_radicals_fall_back_to_float(self):
        s = value_sum([root_value(1, 2, 2), root_value(1, 3, 2)])
        assert not is_exact(s)
        with mp.workdps(30):
            expect = mpmath.sqrt(2) + mpmath.sqrt(3)
        assert values_equal(s, expect, eps=1e-25)

    def test_root_plus_rational_falls_back(self):
        s = value_sum([root_value(1, 2, 2), Fraction(1)])
        assert not is_exact(s)
        assert values_equal(s, 1 + 2**0.5, eps=1e-12)

    def test_empty_sum(self):
        assert value_sum([]) == Fraction(0)


class TestScale:
    def test_fraction(self):
        assert scale(Fraction(3, 4), Fraction(2, 3)) == Fraction(1, 2)

    def test_root(self):
        v = scale(root_value(1, 2, 2), Fraction(-1, 2))
        assert isinstance(v, Root)
        assert v.coeff == Fraction(-1, 2)

    def test_float(self):
        assert values_equal(scale(0.5, 2), 1.0)


class TestRenderings:
    def test_value_str_fraction(self):
        assert value_str(Fraction(7, 10)) == "7/10"
        assert value_str(Fraction(3)) == "3"

    def test_value_str_root(self):
        assert value_str(root_value(Fraction(1, 6), 6, 2)) == "(1/6)*sqrt(6)"
        assert "^(1/3)" in value_str(root_value(1, 2, 3))

    def test_value_str_past_int_str_limit(self, int_str_limit):
        # More digits than the interpreter's limit lets str() convert.
        big = 7 * 10**5000 + 123
        values = [
            big,
            -big,
            Fraction(big, 3),
            Fraction(1, big),
            root_value(Fraction(2, 3), Fraction(big, 5), 7),
            -root_value(Fraction(1), Fraction(big + 1), 2),
        ]
        rendered = [value_str(v) for v in values]
        int_str_limit(0)
        assert rendered == [str(v) for v in values]

    def test_as_float_avoids_intermediate_overflow(self):
        big = Fraction(10**400, 2 * 10**400)
        assert as_float(big) == 0.5

    def test_as_float_rational_beyond_float_range_is_infinite(self):
        assert as_float(Fraction(10**400, 3)) == float("inf")
        assert as_float(Fraction(-(10**400), 3)) == float("-inf")
        assert as_float(Fraction(1, 10**400)) == 0.0

    def test_as_float_root_with_radicand_beyond_float_range(self):
        # gm at r=16 on a 10-count matrix has a radicand near 10**334.
        v = root_value(Fraction(1, 10**20), Fraction(10**400 + 1), 16)
        assert as_float(v) == pytest.approx(10**5, rel=1e-12)

    def test_to_mpf_root(self):
        with mp.workdps(40):
            x = to_mpf(root_value(Fraction(1, 6), 6, 2))
            assert abs(x - 1 / mpmath.sqrt(6)) < mpmath.mpf(10) ** -38


class TestRootMemo:
    """``to_mpf`` of a :class:`Root` against the conversion written out
    with mpmath alone, ``(mpf(p)/q) * root(mpf(u)/w, k)``, at the
    precision in force."""

    #: (p, q, u, w, k) of (p/q) * (u/w)**(1/k): indices 2 to 5, negative
    #: coefficients, and a radicand of about 10^4 bits.
    PARTS = [
        (1, 6, 6, 1, 2),
        (-3, 7, 5, 11, 2),
        (2, 1, 10, 3, 3),
        (-1, 2, 7, 2, 4),
        (5, 9, 3, 4, 5),
        (-7, 3, 2**10007 + 1, 3**3001, 16),
    ]

    @staticmethod
    def reference(p, q, u, w, k):
        return (mpmath.mpf(p) / q) * mpmath.root(mpmath.mpf(u) / w, k)

    @pytest.mark.parametrize("parts", PARTS)
    def test_alternating_precisions_on_one_root(self, parts):
        p, q, u, w, k = parts
        v = root_value(Fraction(p, q), Fraction(u, w), k)
        assert isinstance(v, Root)
        prec = mp.prec
        # Each precision twice, alternating: a memo that ignored the
        # precision would hand back the root rounded at the last one.
        for dps in (15, 30, 40, 60) * 2:
            with mp.workdps(dps):
                inner = mp.prec
                got = to_mpf(v)
                assert mp.prec == inner
                want = self.reference(p, q, u, w, k)
                assert type(got) is mpmath.mpf
                assert got == want, (dps, got, want)
        assert mp.prec == prec

    def test_one_root_per_radical_and_precision(self, monkeypatch):
        calls = []
        original = mpmath.root

        def counting_root(x, k):
            calls.append(k)
            return original(x, k)

        radicand = Fraction(5, 11)
        with mp.workdps(40):
            want = [self.reference(c, 3, 5, 11, 2) for c in range(1, 8)]
            values._root_mpf.cache_clear()
            monkeypatch.setattr(values.mpmath, "root", counting_root)
            got = [to_mpf(Root(Fraction(c, 3), radicand, 2)) for c in range(1, 8)]
        assert got == want
        assert len(calls) == 1
        with mp.workdps(30):
            to_mpf(Root(Fraction(1), radicand, 2))
            to_mpf(Root(Fraction(1), radicand, 3))
        assert len(calls) == 3


@st.composite
def _small_values(draw):
    """An int, a Fraction, a :class:`Root` or an mpf quotient, from pools
    small enough that identical and merely equal values both recur: the
    Roots 2*sqrt(2) and sqrt(8) are equal with different radicands, and an
    mpf quotient is drawn at 30 or 40 digits."""
    kind = draw(st.sampled_from(("int", "fraction", "root", "mpf")))
    p, q = draw(st.integers(-3, 3)), draw(st.integers(1, 3))
    if kind == "int":
        return p
    if kind == "fraction":
        return Fraction(p, q)
    if kind == "root":
        coeff, radicand = draw(st.sampled_from(((2, 2), (1, 8), (1, 2), (3, 2), (1, 3))))
        return Root(Fraction(coeff, q), Fraction(radicand), 2)
    with mp.workdps(draw(st.sampled_from((30, 40)))):
        return mpmath.mpf(p) / q


class TestValueKey:
    @given(_small_values(), _small_values())
    @example(1, Fraction(1))
    @example(Root(Fraction(2), Fraction(2), 2), Root(Fraction(1), Fraction(8), 2))
    @example(
        Root(Fraction(1), Fraction(2), 2), Root(Fraction(2), Fraction(1, 2), 2)
    )
    def test_equal_exactly_when_identical(self, a, b):
        assert (value_key(a) == value_key(b)) == value_identical(a, b)
        if value_identical(a, b):
            assert hash(value_key(a)) == hash(value_key(b))

    def test_one_quotient_at_two_precisions(self):
        with mp.workdps(30):
            a = mpmath.mpf(1) / 3
        with mp.workdps(40):
            b = mpmath.mpf(1) / 3
            c = mpmath.mpf(1) / 3
        assert value_key(a) != value_key(b) and not value_identical(a, b)
        assert value_key(b) == value_key(c) and value_identical(b, c)

    def test_nan_is_the_exception(self):
        a, b = mpmath.mpf("nan"), mpmath.mpf("nan")
        assert value_key(a) == value_key(b) and not value_identical(a, b)


class TestWorkingPrecision:
    def test_raises_low_ambient(self):
        with mp.workdps(10):
            with working_precision():
                assert mp.dps == 30

    def test_keeps_high_ambient(self):
        with mp.workdps(50):
            with working_precision():
                assert mp.dps == 50

    def test_default_gives_working_dps_and_restores(self):
        prec = mp.prec
        with working_precision():
            assert mp.dps == 30
        assert mp.prec == prec

    def test_restores_on_exception(self):
        prec = mp.prec
        with pytest.raises(RuntimeError):
            with working_precision():
                assert mp.dps == 30
                raise RuntimeError
        assert mp.prec == prec

    def test_keeps_prec_inside_workdps_40(self):
        with mp.workdps(40):
            prec = mp.prec
            with working_precision():
                assert mp.prec == prec
            assert mp.prec == prec

    def test_keeps_prec_set_in_bits(self):
        # 200 bits is not the precision of any whole number of digits:
        # re-entering at mp.dps would give 199.
        saved = mp.prec
        try:
            mp.prec = 200
            with working_precision():
                assert mp.prec == 200
            assert mp.prec == 200
        finally:
            mp.prec = saved


def _like_term_cases():
    """(root, rational factor) pairs at indices 2 to 5: factors that keep
    the coefficient's sign, flip it, or make it 0."""
    cases = []
    for index in (2, 3, 4, 5):
        for radicand in (Fraction(2), Fraction(7, 3), Fraction(1, 6), Fraction(10**30 + 1, 9)):
            root = root_value(Fraction(3, 4), radicand, index)
            assert isinstance(root, Root)
            cases += [(root, k) for k in (Fraction(2, 3), Fraction(-5, 2), -1, 0, 1, 7)]
    return cases


LIKE_TERM_CASES = _like_term_cases()


class TestLikeTerms:
    """Products with a rational and sums of one radical build the Root
    directly; each must be the value ``root_value`` makes, in type and
    ``repr``."""

    @pytest.mark.parametrize("root, k", LIKE_TERM_CASES)
    def test_product(self, root, k):
        want = root_value(root.coeff * k, root.radicand, root.index)
        for got in (root * k, k * root, scale(root, k)):
            assert type(got) is type(want) and repr(got) == repr(want)

    @pytest.mark.parametrize("root, k", [(root, k) for root, k in LIKE_TERM_CASES if k])
    def test_sum(self, root, k):
        # root + (-k * root) = (1 - k) * root: 0 at k = 1, a sign flip at k = 7.
        like = root_value(-k * root.coeff, root.radicand, root.index)
        want = root_value(root.coeff + like.coeff, root.radicand, root.index)
        for got in (root + like, like + root, value_sum([root, like])):
            assert type(got) is type(want) and repr(got) == repr(want)

    def test_sum_cancels_to_rational_zero(self):
        root = root_value(Fraction(2, 5), 3, 3)
        for got in (root + (-root), value_sum([root, -root]), root * 0):
            assert type(got) is Fraction and got == 0

    def test_sum_of_many_like_terms(self):
        terms = [root_value(Fraction(k, 7), 5, 4) for k in (3, -1, 4, -6, 2)]
        got = value_sum(terms)
        want = root_value(Fraction(2, 7), 5, 4)
        assert type(got) is Root and repr(got) == repr(want)
        assert value_sum(terms[:4]) == 0 and type(value_sum(terms[:4])) is Fraction


def _kth_root_by_bisection(x: int, k: int):
    """Exact k-th root of x >= 0 by bisection, or None.  The root lies in
    [0, 2**(bits/k + 1)] for x of ``bits`` bits."""
    lo, hi = 0, 1 << (x.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**k <= x:
            lo = mid
        else:
            hi = mid - 1
    return lo if lo**k == x else None


class TestIntKthRoot:
    @pytest.mark.parametrize("k", range(2, 21))
    def test_perfect_powers_and_neighbours(self, k):
        rng = random.Random(k)
        bases = [0, 1, 2, 3, 10, 2**20 - 1, 3**40]
        bases += [rng.getrandbits(rng.randint(1, 10_000 // k)) for _ in range(6)]
        # A multiple of every prime of the residue screen passes it, so
        # these non-powers reach the root itself.
        screened = 1
        if k > 2:
            for q, _ in _residue_screen(k):
                screened *= q
        for base in bases:
            p = base**k
            for x in (p - 1, p, p + 1, p * screened, (p + 1) * screened):
                if x >= 0:
                    assert _int_kth_root(x, k) == _kth_root_by_bisection(x, k), (k, x)

    @pytest.mark.parametrize("k", range(2, 21))
    def test_random_ints_up_to_10k_bits(self, k):
        rng = random.Random(100 + k)
        for bits in (1, 5, 53, 64, 200, 959, 960, 961, 1500, 4000, 10_000):
            x = rng.getrandbits(bits) | (1 << (bits - 1))
            assert _int_kth_root(x, k) == _kth_root_by_bisection(x, k), (k, bits)

    def test_index_one_and_negative(self):
        assert _int_kth_root(12345, 1) == 12345
        assert _int_kth_root(-8, 3) is None


@given(
    st.fractions(min_value=-2, max_value=2),
    st.integers(min_value=0, max_value=50),
    st.sampled_from([2, 3]),
)
def test_root_value_float_consistency(coeff, radicand, index):
    v = root_value(coeff, radicand, index)
    expect = float(coeff) * float(radicand) ** (1.0 / index)
    assert as_float(v) == pytest.approx(expect, abs=1e-12)
