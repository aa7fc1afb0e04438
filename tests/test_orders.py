"""Baseline flatness orders and the power-mean normalizer conditions."""

import random
import re
from fractions import Fraction
from math import lcm

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from clfmeasures import confusion_matrix, evaluate, orders, parse_measure_id
from clfmeasures.core import ConfusionMatrix
from clfmeasures.measures import AUDIT_ONLY_IDS, SCHEMES
from clfmeasures.orders import (
    _COARSE,
    _FINE,
    _STENCILS,
    _WEIGHTS,
    ORDER_DPS,
    ConditionReport,
    _bands,
    _derivative_estimates,
    _weighted,
    baseline_order,
    check_gm_normalizer_conditions,
    default_rate_grid,
    feasible_joint_interval,
    gm_normalizer,
    lattice_matrix,
    rate_matrix,
)
from clfmeasures.values import (
    Root, as_float, root_value, scale, to_mpf, value_cmp, value_identical, value_sum,
)

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


class TestRatePlumbing:
    def test_independent_halves(self):
        C = rate_matrix(QUARTER, HALF, HALF)
        assert C.entries == ((QUARTER, QUARTER), (QUARTER, QUARTER))
        assert C.n == 1

    def test_margins_recovered(self):
        C = rate_matrix(Fraction(1, 10), Fraction(3, 10), Fraction(2, 5))
        assert C.a == (Fraction(7, 10), Fraction(3, 10))
        assert C.b == (Fraction(3, 5), Fraction(2, 5))

    def test_frechet_bounds(self):
        assert feasible_joint_interval(Fraction(3, 4), Fraction(3, 4)) == (
            HALF,
            Fraction(3, 4),
        )
        with pytest.raises(ValueError):
            rate_matrix(Fraction(1, 10), HALF, Fraction(3, 4))
        with pytest.raises(ValueError):
            rate_matrix(QUARTER, Fraction(6, 5), HALF)

    def test_rate_triple_validation(self):
        C = rate_matrix(Fraction(3, 10), HALF, Fraction(2, 5))
        assert C.entries == (
            (Fraction(2, 5), Fraction(1, 10)),
            (Fraction(1, 5), Fraction(3, 10)),
        )
        with pytest.raises(ValueError):
            rate_matrix(Fraction(9, 10), HALF, Fraction(2, 5))
        with pytest.raises(ValueError):
            rate_matrix(0, Fraction(-1, 10), HALF)

    def test_rate_triple_coerces(self):
        # Int rates are read as the Fractions they stand for.
        C = rate_matrix(0, 1, 0)
        assert C.entries == ((0, 0), (1, 0)) and type(C[1, 0]) is Fraction
        assert all(type(x) is Fraction for row in rate_matrix(0, HALF, HALF).entries for x in row)

    def test_default_grid_interior(self):
        grid = default_rate_grid(20)
        assert len(grid) == 19 * 19
        assert all(0 < pa < 1 and 0 < pb < 1 for pa, pb in grid)
        with pytest.raises(ValueError):
            default_rate_grid(1)

    def test_measures_scale_free_on_rates(self):
        # Rates are counts divided by n, so rate evaluation must agree
        # with count evaluation measure by measure.
        C = confusion_matrix([[4, 1], [2, 3]])
        n = C.n
        p_ab = Fraction(C[1, 1], n)
        p_a = Fraction(C.a[1], n)
        p_b = Fraction(C.b[1], n)
        for mid in ("cc", "acc", "kappa", "f:beta=1", "gm:r=1", "gm:r=-2"):
            desc = parse_measure_id(mid)
            on_rates = evaluate(desc, rate_matrix(p_ab, p_a, p_b))
            on_counts = evaluate(desc, C)
            assert value_cmp(on_rates, on_counts) == 0, mid

    def test_cc_zero_at_independence(self):
        p_a, p_b = Fraction(3, 20), Fraction(2, 5)
        assert evaluate(parse_measure_id("cc"), rate_matrix(p_a * p_b, p_a, p_b)) == 0


class TestBaselineOrder:
    def test_correlation_distance_is_order_two(self):
        rep = baseline_order("cd", l_max=3)
        assert rep.baseline_constant
        assert rep.baseline_value == pytest.approx(0.5, abs=1e-12)
        assert rep.order == 2
        assert not rep.order_saturated
        by_order = {p.order: p for p in rep.probes}
        assert by_order[2].vanishes and by_order[2].max_abs < 1e-6
        assert not by_order[3].vanishes

    def test_chordal_distance_is_order_one(self):
        rep = baseline_order("cdprime", l_max=2)
        assert rep.baseline_constant
        assert rep.baseline_value == pytest.approx(2**0.5, abs=1e-12)
        assert rep.order == 1
        (probe,) = rep.probes
        assert probe.max_abs > 1e-2

    def test_cc_flat_to_every_probed_order(self):
        # cc is linear in the joint rate, so the exact arithmetic path
        # returns literal zeros, not small floats.
        rep = baseline_order("cc", l_max=4)
        assert rep.order == 4
        assert rep.order_saturated
        assert all(p.max_abs == 0.0 for p in rep.probes)

    def test_kappa_flat_to_every_probed_order(self):
        rep = baseline_order("kappa", l_max=4)
        assert rep.order == 4
        assert rep.order_saturated
        assert all(p.max_abs == 0.0 for p in rep.probes)

    def test_accuracy_baseline_not_constant(self):
        rep = baseline_order("acc", l_max=2)
        assert not rep.baseline_constant
        assert rep.order == 0

    def test_l_max_validation(self):
        with pytest.raises(ValueError):
            baseline_order("cc", l_max=0)
        with pytest.raises(ValueError):
            baseline_order("cc", l_max=5)

    @pytest.mark.parametrize("l_max", [True, False, 2.0, "2", None, Fraction(2)])
    def test_l_max_must_be_an_int(self, l_max):
        with pytest.raises(ValueError, match=re.escape(f"l_max must be an int, got {l_max!r}")):
            baseline_order("cc", l_max=l_max, grid=default_rate_grid(4))

    def test_boundary_grid_rejected(self):
        with pytest.raises(ValueError):
            baseline_order("cc", grid=[(Fraction(0), HALF)])

    def test_report_serializes(self):
        rep = baseline_order("cd", l_max=2, grid=default_rate_grid(6))
        d = rep.to_dict()
        assert d["measure"] == "cd"
        assert d["order"] == 2
        assert len(d["derivatives"]) == 1


def _lattice_ids() -> tuple:
    """Every registry and probe id with a value on rates: all but the
    audit-only ones, plus ``gm`` at more exponents."""
    native = ("acc", "ba", "sba", "kappa", "cc", "ce", "cd", "cdprime")
    binary = ("f:beta=1", "f:beta=2", "f:beta=1/3", "jaccard")
    gm = tuple(f"gm:r={r}" for r in ("1", "-1", "2", "-2", "3", "1/2"))
    averaged = tuple(
        f"{mid}:{scheme}"
        for mid in ("f:beta=1", "f:beta=2", "jaccard", "gm:r=1", "gm:r=-2")
        + ("cc", "kappa")
        for scheme in SCHEMES
    )
    return native + binary + gm + averaged


@st.composite
def interior_rates(draw):
    """``(p_ab, p_a, p_b, n)``: a feasible rate triple with interior
    margins, and a multiple ``n`` of its least common denominator."""
    den = draw(st.integers(2, 60))
    p_a = Fraction(draw(st.integers(1, den - 1)), den)
    p_b = Fraction(draw(st.integers(1, den - 1)), draw(st.sampled_from((den, 7, 12))))
    assume(0 < p_b < 1)
    lo, hi = feasible_joint_interval(p_a, p_b)
    p_ab = lo + (hi - lo) * Fraction(draw(st.integers(0, 20)), 20)
    base = lcm(p_a.denominator, p_b.denominator, p_ab.denominator)
    return p_ab, p_a, p_b, base * draw(st.integers(1, 3))


class TestLatticePath:
    """The int matrices of the flatness probe against the rate matrices."""

    @given(interior_rates())
    @example((Fraction(3, 8) * Fraction(5, 8), Fraction(3, 8), Fraction(5, 8), 64))
    @example((Fraction(0), Fraction(1, 2), Fraction(1, 2), 2))  # empty diagonal cell
    @settings(max_examples=40, deadline=None)
    def test_values_equal_rate_oracle(self, rates):
        p_ab, p_a, p_b, n = rates
        C = lattice_matrix(p_ab, p_a, p_b, n)
        assert type(C.n) is int and C.n == n
        R = rate_matrix(p_ab, p_a, p_b)
        assert C.entries == tuple(tuple(n * x for x in row) for row in R.entries)
        for mid in _lattice_ids():
            desc = parse_measure_id(mid)
            on_rates = evaluate(desc, R)
            assert value_cmp(evaluate(desc, C), on_rates) == 0, mid

    def test_margins_match_recomputed(self):
        C = lattice_matrix(Fraction(1, 12), Fraction(1, 3), Fraction(1, 4), 24)
        fresh = ConfusionMatrix(C.entries)
        assert (C.a, C.b, C.n, C.diagonal_sum) == (
            fresh.a, fresh.b, fresh.n, fresh.diagonal_sum
        )


class TestStencilWeights:
    """``_derivative_estimates``, which sums exact stencils on ints and
    converts the weights of the others to mpf once, against the estimate
    written out with ``scale`` and ``value_sum`` on every product, on
    synthetic stencils of each value kind."""

    @staticmethod
    def reference(h, at, orders):
        half = h / 2
        out = {}
        for l in orders:
            coarse = value_sum([scale(at(2 * off), w) for off, w in _STENCILS[l]])
            fine = value_sum([scale(at(off), w) for off, w in _STENCILS[l]])
            coarse = scale(coarse, Fraction(1) / h**l)
            fine = scale(fine, Fraction(1) / half**l)
            rich = value_sum([scale(fine, Fraction(4, 3)), scale(coarse, Fraction(-1, 3))])
            out[l] = abs(as_float(rich))
        return out

    #: Stencil value kinds: each maps (rng, j, h) to a value at j*h/2.
    KINDS = {
        "fraction": lambda rng, j, h: Fraction(1, 3) + j * h / 2 + (j * h) ** 2 * rng.randint(1, 9),
        "shared_root": lambda rng, j, h: Root(Fraction(2, 7) + j * h, Fraction(5, 11), 2),
        "unlike_roots": lambda rng, j, h: root_value(
            Fraction(2, 7) + j * h, Fraction(rng.randint(2, 10**6), rng.randint(1, 10**6)),
            rng.choice((2, 3, 4)),
        ),
        "mpf": lambda rng, j, h: mpmath.acos(to_mpf(Fraction(1, 3) + j * h / 2)) / mpmath.pi
        + mpmath.mpf(rng.randint(-9, 9)) * mpmath.mpf(10) ** -35,
        # Affine in j: every estimate is the rounding noise of the sums, as
        # in cd's second derivative, so its bits show the order of operations.
        "mpf_affine": lambda rng, j, h: mpmath.mpf(1) / 3 + mpmath.mpf(j) * to_mpf(h) / 7,
        "float": lambda rng, j, h: 0.25 + j * float(h) + rng.random() * 1e-12,
        # Shaped like cc on the lattice: one radical, and exactly 0 at the
        # product point.
        "cc_shaped": lambda rng, j, h: Fraction(0) if j == 0 else Root(
            j * h * Fraction(3, 14) + (j * h) ** 2 * rng.randint(1, 9), Fraction(6, 35), 2
        ),
        # A perfect-square radicand: root_value collapses it to a Fraction.
        "collapsed": lambda rng, j, h: root_value(
            Fraction(2, 7) + j * h + (j * h) ** 2 * rng.randint(1, 9),
            Fraction(rng.randint(1, 99) ** 2, rng.randint(1, 99) ** 2), 2,
        ),
    }
    MIXES = [
        ("fraction",), ("shared_root",), ("unlike_roots",), ("mpf",), ("mpf_affine",),
        ("fraction", "shared_root"), ("fraction", "mpf"), ("shared_root", "mpf"),
        ("fraction", "mpf_affine"), ("unlike_roots", "mpf", "float"), tuple(KINDS),
        ("cc_shaped",), ("collapsed",), ("fraction", "collapsed"), ("cc_shaped", "fraction"),
        ("cc_shaped", "shared_root"), ("cc_shaped", "mpf"),
    ]
    #: Mixes whose stencils are exact with at most one radical, and whose
    #: rational values are 0 beside a radical: summed on ints, they never
    #: reach ``value_sum``.
    FOLDED = {("fraction",), ("shared_root",), ("cc_shaped",), ("collapsed",), ("fraction", "collapsed")}

    @pytest.mark.parametrize("kinds", MIXES, ids="+".join)
    @pytest.mark.parametrize("seed", range(3))
    def test_estimates_are_bit_identical(self, kinds, seed, monkeypatch):
        rng = random.Random(seed)
        h = Fraction(rng.randint(1, 99), 10**rng.randint(4, 7))
        if kinds in self.FOLDED:

            def refuse(terms):
                raise AssertionError("an exact stencil reached value_sum")

            monkeypatch.setattr("clfmeasures.orders.value_sum", refuse)
        with mp.workdps(ORDER_DPS):
            stencil = {j: self.KINDS[rng.choice(kinds)](rng, j, h) for j in range(-4, 5)}
            if kinds == ("collapsed",):
                assert all(type(v) is Fraction for v in stencil.values())
            got = _derivative_estimates(h, stencil.__getitem__, (2, 3, 4))
            want = self.reference(h, stencil.__getitem__, (2, 3, 4))
        assert {l: v.hex() for l, v in got.items()} == {l: v.hex() for l, v in want.items()}

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_weighted_is_scale(self, kind):
        rng = random.Random(kind)
        pairs = [(w, wm) for l in _WEIGHTS for _, w, wm in _WEIGHTS[l]] + [_FINE, _COARSE]
        with mp.workdps(ORDER_DPS):
            for j in range(-4, 5):
                v = self.KINDS[kind](rng, j, Fraction(1, 10**4))
                for w, wm in pairs:
                    assert value_identical(_weighted(v, w, wm), scale(v, w))


class TestStencilMemo:
    """``baseline_order``, which estimates each distinct stencil once per
    call, against the grid loop written out with one estimate per point,
    on grids that list a pair twice and both ``(p, q)`` and ``(q, p)``."""

    @staticmethod
    def reference(mid, l_max, grid):
        desc = parse_measure_id(mid)
        probed = range(2, l_max + 1)
        worst = {l: (-1.0, grid[0]) for l in probed}
        first, spread = None, 0.0
        with mp.workdps(ORDER_DPS):
            for p_a, p_b in grid:
                h, at = orders._stencil(desc, p_a, p_b)
                v0 = as_float(at(0))
                first = v0 if first is None else first
                spread = max(spread, abs(v0 - first))
                for l, est in _derivative_estimates(h, at, probed).items():
                    if est > worst[l][0]:
                        worst[l] = (est, (p_a, p_b))
        derivatives = [
            {
                "order": l,
                "max_abs": worst[l][0],
                "argmax": [str(worst[l][1][0]), str(worst[l][1][1])],
                "vanishes": worst[l][0] < 1e-6,
            }
            for l in probed
        ]
        order, saturated = 0, False
        if spread < 1e-6:
            order = 1
            for d in derivatives:
                if not d["vanishes"]:
                    break
                order = d["order"]
            else:
                saturated = l_max > 1
        return {
            "measure": desc.measure_id,
            "grid_points": len(grid),
            "baseline_constant": spread < 1e-6,
            "baseline_value": first,
            "baseline_spread": spread,
            "order": order,
            "order_saturated": saturated,
            "derivatives": derivatives,
        }

    IDS = (
        "acc", "ba", "sba", "kappa", "cc", "ce", "cd", "cdprime",
        "f:beta=1", "jaccard", "gm:r=1", "cc:macro", "kappa:weighted",
    )
    GRIDS = {
        # (1/3, 1/5) twice, its swap, and the complements of both.
        "repeats": [
            (Fraction(1, 3), Fraction(1, 5)), (Fraction(1, 5), Fraction(1, 3)),
            (Fraction(2, 3), Fraction(4, 5)), (Fraction(1, 3), Fraction(1, 5)),
            (Fraction(4, 5), Fraction(2, 3)), (HALF, QUARTER),
        ],
        # Every pair of quarters and its swap, then the grid again.
        "quarters": list(default_rate_grid(4)) * 2,
    }

    @pytest.mark.parametrize("grid", list(GRIDS))
    @pytest.mark.parametrize("mid", IDS)
    def test_reports_match_unmemoized_loop(self, mid, grid, monkeypatch):
        points = self.GRIDS[grid]
        calls = []
        estimate = orders._derivative_estimates
        monkeypatch.setattr(
            orders, "_derivative_estimates", lambda *a: calls.append(a) or estimate(*a)
        )
        for l_max in range(1, 5):
            calls.clear()
            got = baseline_order(mid, l_max=l_max, grid=points).to_dict()
            assert got == self.reference(mid, l_max, points), (mid, l_max)
            assert len(calls) < len(points)

    @pytest.mark.parametrize("bumped", range(-4, 5))
    def test_every_abscissa_read_is_keyed(self, bumped, monkeypatch):
        # Two points with one step whose synthetic stencils differ at one
        # abscissa only: a key that left it out would serve the second
        # point the first one's estimates.
        second = (QUARTER, HALF)

        def stencil(desc, p_a, p_b):
            def at(j):
                bump = j == bumped and (p_a, p_b) == second
                return Fraction(j * j, 7) + Fraction(j, 3) + bump

            return Fraction(1, 10**4), at

        monkeypatch.setattr(orders, "_stencil", stencil)
        points = [(HALF, QUARTER), second]
        for l_max in range(1, 5):
            got = baseline_order("cc", l_max=l_max, grid=points).to_dict()
            assert got == self.reference("cc", l_max, points), (bumped, l_max)

    def test_same_reports_after_a_probe_at_raised_precision(self):
        # The process-wide memos must not serve the default grid's reports
        # values made under a raised ambient precision.
        probes = (("cd", 3), ("cdprime", 2), ("cc", 3))
        before = [baseline_order(mid, l_max=l).to_dict() for mid, l in probes]
        with mp.workdps(60):
            baseline_order("cd", l_max=3)
        assert [baseline_order(mid, l_max=l).to_dict() for mid, l in probes] == before


@st.composite
def _grid_points(draw):
    """``(N, k, l)``: the margin pair (k/N, l/N) of an interior grid."""
    N = draw(st.integers(2, 40))
    return N, draw(st.integers(1, N - 1)), draw(st.integers(1, N - 1))


class TestIntegerBands:
    """Conditions 5 and 6 on integer numerators against their Fraction
    formulas."""

    @staticmethod
    def fraction_bands(p_a, p_b, w_x, w_y):
        """``(g, lo, hi)`` of conditions 5 and 6 in Fraction arithmetic."""

        def edge5(p):
            return (2 * p - 1) / (1 - p)

        def edge6(p):
            return 2 - 1 / p

        def odds(p):
            return p / (1 - p)

        band5 = (
            w_x * edge5(p_a) + w_y * edge5(p_b),
            min(Fraction(-2), -1 - odds(p_a) * odds(p_b)),
            max(edge5(p_a), edge5(p_b)),
        )
        band6 = (
            w_x * edge6(p_a) + w_y * edge6(1 - p_b),
            min(edge6(p_a), edge6(1 - p_b)),
            max(1 + odds(p_b) / odds(p_a), Fraction(2)),
        )
        return band5, band6

    def reference_reports(self, r, steps):
        """Conditions 5 and 6 over the grid, decided on Fractions."""
        c5 = ConditionReport(5, "")
        c6 = ConditionReport(6, "")
        for p_a, p_b in default_rate_grid(steps):
            xr, yr = (p_a * (1 - p_a)) ** r, (p_b * (1 - p_b)) ** r
            bands = self.fraction_bands(p_a, p_b, xr / (xr + yr), yr / (xr + yr))
            for cond, touches, (g, lo, hi), where in (
                (c5, p_a == p_b, bands[0], "equal"),
                (c6, p_b == 1 - p_a, bands[1], "complementary"),
            ):
                if touches:
                    cond.equality_point(lo <= g <= hi, p_a, p_b, f"band violated on {where} margins")
                else:
                    slack = min(g - lo, hi - g)
                    cond.strict(slack > 0, float(slack), p_a, p_b, f"band not strict off {where} margins")
        return c5, c6

    @pytest.mark.parametrize("steps", [2, 3, 7, 20])
    @pytest.mark.parametrize("r", [1, -1, 2, -2, 3, -3, 16, -16])
    def test_reports_match_fraction_formulas(self, r, steps):
        rep = check_gm_normalizer_conditions(r, steps=steps)
        for got, want in zip(rep["conditions"][4:], self.reference_reports(r, steps)):
            assert got.checked == want.checked
            assert got.equality_points == want.equality_points
            assert got.min_strict_margin == want.min_strict_margin
            assert got.failures == want.failures

    @given(point=_grid_points(), w_x=st.integers(0, 10**40), w_y=st.integers(0, 10**40))
    @example(point=(7, 5, 2), w_x=1, w_y=0)  # a zero slack off equal margins
    def test_bands_equal_fraction_formulas(self, point, w_x, w_y):
        assume(w_x + w_y > 0)
        N, k, l = point
        t = w_x + w_y
        want = self.fraction_bands(Fraction(k, N), Fraction(l, N), Fraction(w_x, t), Fraction(w_y, t))
        for (g, lo, hi, den), (fg, flo, fhi) in zip(_bands(N, k, l, w_x, w_y), want):
            assert den > 0
            assert (Fraction(g, den), Fraction(lo, den), Fraction(hi, den)) == (fg, flo, fhi)
            slack, fslack = min(g - lo, hi - g), min(fg - flo, fhi - fg)
            assert (slack > 0) == (fslack > 0)
            assert (slack / den).hex() == float(fslack).hex()


class TestBaselineOrderInputs:
    @pytest.mark.parametrize("mid", AUDIT_ONLY_IDS)
    def test_audit_only_refused(self, mid):
        with pytest.raises(ValueError, match="audit-only"):
            baseline_order(mid, l_max=2, grid=default_rate_grid(4))

    @pytest.mark.parametrize(
        "grid, named",
        [
            ([(0.5, Fraction(1, 10))], "0.5"),
            ([(HALF, 0.1)], "0.1"),
            ([(QUARTER, HALF), (Fraction(3, 10), 0.1)], "0.1"),
            ([(HALF, "1/10")], "'1/10'"),
        ],
    )
    def test_float_margins_refused(self, grid, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            baseline_order("cc", l_max=3, grid=grid)

    @pytest.mark.parametrize("l_max", [1, 3])
    @pytest.mark.parametrize("grid", [[], (), "iterator"])
    def test_empty_grid_refused(self, grid, l_max):
        # An empty iterator is only seen to be empty once it is read.
        grid = iter([]) if grid == "iterator" else grid
        with pytest.raises(ValueError, match="empty rate grid"):
            baseline_order("cc", l_max=l_max, grid=grid)

    def test_grid_iterator_read_once(self):
        grid = [(HALF, QUARTER), (QUARTER, Fraction(1, 3))]
        assert (
            baseline_order("cd", l_max=2, grid=iter(grid)).to_dict()
            == baseline_order("cd", l_max=2, grid=grid).to_dict()
        )

    @pytest.mark.parametrize(
        "entry", [(HALF,), HALF, (HALF, QUARTER, HALF), None], ids=repr
    )
    def test_entry_not_a_pair_refused(self, entry):
        grid = [(QUARTER, HALF), entry]
        with pytest.raises(ValueError, match=re.escape(repr(entry))):
            baseline_order("cc", l_max=3, grid=grid)

    @pytest.mark.parametrize(
        "mid, p_a, p_b",
        [("cc", HALF, Fraction(1, 10)), ("kappa", Fraction(3, 10), Fraction(1, 10))],
    )
    def test_affine_measures_reach_order_three(self, mid, p_a, p_b):
        # cc and kappa are affine in p_ab at fixed margins; the float
        # margins 0.5/0.3 and 0.1 once read as order 2 at these points.
        rep = baseline_order(mid, l_max=3, grid=[(p_a, p_b)])
        assert rep.order == 3
        assert all(p.max_abs == 0.0 for p in rep.probes)


class TestGmNormalizer:
    def test_equal_margins_value(self):
        # At p_a = p_b the power mean degenerates to the common margin
        # variance, so every r gives the same normalizer.
        for r in (-2, -1, 1, 2):
            s = gm_normalizer(r)
            assert value_cmp(s(QUARTER, QUARTER), Fraction(16, 3)) == 0

    def test_r2_mixed_margins(self):
        s = gm_normalizer(2)
        val = s(QUARTER, HALF)
        assert as_float(val) == pytest.approx(16 * 2**0.5 / 5, rel=1e-12)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            gm_normalizer(0)
        s = gm_normalizer(1)
        with pytest.raises(ValueError):
            s(Fraction(0), HALF)

    @pytest.mark.parametrize("r", [-2, -1, 1, 2])
    def test_conditions_hold_on_default_grid(self, r):
        rep = check_gm_normalizer_conditions(r, steps=20)
        assert rep["all_ok"]
        assert rep["all_hold"]
        assert len(rep["conditions"]) == 6
        for cond in rep["conditions"]:
            assert cond.holds
            assert not cond.failures
            if cond.min_strict_margin is not None:
                assert cond.min_strict_margin > 1e-9
        assert rep["partial_check"]["ok"]

    def test_conditions_reject_r_zero(self):
        with pytest.raises(ValueError):
            check_gm_normalizer_conditions(0)

    @pytest.mark.parametrize("r", [1.5, Fraction(1, 2), -0.25, float("inf"), "2"])
    def test_non_integer_r_refused(self, r):
        with pytest.raises(ValueError, match="integer"):
            gm_normalizer(r)
        with pytest.raises(ValueError, match="integer"):
            check_gm_normalizer_conditions(r, steps=4)

    @pytest.mark.parametrize("r", [True, False])
    def test_bool_r_refused(self, r):
        with pytest.raises(ValueError, match="r must be an integer"):
            gm_normalizer(r)
        with pytest.raises(ValueError, match="r must be an integer"):
            check_gm_normalizer_conditions(r, steps=4)

    @pytest.mark.parametrize("steps", [2.5, 4.0, "4", Fraction(4), True, None])
    def test_non_int_steps_refused(self, steps):
        with pytest.raises(ValueError, match="steps must be an int"):
            check_gm_normalizer_conditions(1, steps=steps)
        with pytest.raises(ValueError, match="steps must be an int"):
            default_rate_grid(steps)

    def test_integral_r_of_other_types_accepted(self):
        assert check_gm_normalizer_conditions(2.0, steps=4)["r"] == 2
        rep = check_gm_normalizer_conditions(Fraction(-2), steps=4)
        assert rep["r"] == -2

    @pytest.mark.slow
    def test_tiny_positive_margins_hold_at_r16(self):
        # Conditions 5 and 6 hold strictly on the whole grid, down to a
        # margin of 2.6e-12 at (1/20, 1/5); a float threshold of 1e-9
        # would fail them.
        rep = check_gm_normalizer_conditions(16)
        assert rep["all_ok"]
        assert 0 < rep["conditions"][4].min_strict_margin < 1e-11

    def test_strict_conditions_are_decided_exactly(self):
        cond = ConditionReport(5, "a strict inequality")
        cond.strict(True, 2.6e-12, HALF, QUARTER, "not strict")
        assert cond.holds and cond.min_strict_margin == 2.6e-12
        cond.strict(False, 0.5, QUARTER, HALF, "not strict")
        assert not cond.holds
        assert cond.failures == [
            {"p_a": "1/4", "p_b": "1/2", "detail": "not strict", "margin": 0.5}
        ]
        assert "strict_margin" not in check_gm_normalizer_conditions(1, steps=4)

    def test_condition_reports_serialize(self):
        rep = check_gm_normalizer_conditions(1, steps=6)
        assert set(rep["partial_check"]) == {"max_rel_error", "tolerance", "ok"}
        d = rep["conditions"][0].to_dict()
        assert d["condition"] == 1
        assert d["holds"] is True
