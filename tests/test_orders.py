"""Baseline flatness orders and the power-mean normalizer conditions."""

from fractions import Fraction

import pytest

from clfmeasures import confusion_matrix, evaluate, parse_measure_id
from clfmeasures.orders import (
    RateTriple,
    baseline_order,
    check_gm_normalizer_conditions,
    default_rate_grid,
    feasible_joint_interval,
    gm_normalizer,
    normalizer_partial_pa,
    rate_evaluator,
    rate_matrix,
)
from clfmeasures.values import as_float, value_cmp

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
        t = RateTriple(Fraction(3, 10), HALF, Fraction(2, 5))
        assert t.matrix() == rate_matrix(Fraction(3, 10), HALF, Fraction(2, 5))
        with pytest.raises(ValueError):
            RateTriple(Fraction(9, 10), HALF, Fraction(2, 5))
        with pytest.raises(ValueError):
            RateTriple(0, Fraction(-1, 10), HALF)

    def test_rate_triple_coerces(self):
        t = RateTriple(0, HALF, HALF)
        assert isinstance(t.p_ab, Fraction)

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
            on_rates = rate_evaluator(desc)(p_ab, p_a, p_b)
            on_counts = evaluate(desc, C)
            assert value_cmp(on_rates, on_counts) == 0, mid

    def test_cc_zero_at_independence(self):
        f = rate_evaluator("cc")
        assert f(Fraction(3, 20) * Fraction(2, 5), Fraction(3, 20), Fraction(2, 5)) == 0


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

    def test_boundary_grid_rejected(self):
        with pytest.raises(ValueError):
            baseline_order("cc", grid=[(Fraction(0), HALF)])

    def test_report_serializes(self):
        rep = baseline_order("cd", l_max=2, grid=default_rate_grid(6))
        d = rep.to_dict()
        assert d["measure"] == "cd"
        assert d["order"] == 2
        assert len(d["derivatives"]) == 1


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

    def test_partial_matches_finite_difference(self):
        s = gm_normalizer(-2)
        p_a, p_b = Fraction(3, 10), Fraction(3, 5)
        closed = as_float(normalizer_partial_pa(p_a, p_b, -2, s(p_a, p_b)))
        h = Fraction(1, 10**6)
        fd = (as_float(s(p_a + h, p_b)) - as_float(s(p_a - h, p_b))) / (2e-6)
        assert closed == pytest.approx(fd, rel=1e-6)

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

    def test_condition_reports_serialize(self):
        rep = check_gm_normalizer_conditions(1, steps=6, fd_check=False)
        assert rep["partial_check"] is None
        d = rep["conditions"][0].to_dict()
        assert d["condition"] == 1
        assert d["holds"] is True
