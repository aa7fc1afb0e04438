"""Expectations under margin-preserving randomization, two routes."""

import itertools
from collections import Counter
from fractions import Fraction

import pytest

from clfmeasures import baselines
from clfmeasures.baselines import (
    canonical_labeling,
    exact_baseline_expectation,
    is_unary,
)
from clfmeasures.core import (
    Budget,
    EnumerationBudgetExceeded,
    build_confusion,
    compositions,
    enumerate_entries,
    enumerate_labelings,
    multinomial,
)
from clfmeasures.measures import MeasureArityError, evaluate, parse_measure_id
from clfmeasures.properties import audit_grid
from clfmeasures.values import is_exact, scale, value_sum, values_equal

CONSTANT_ZERO = ("cc", "kappa", "gm:r=-2", "gm:r=-1", "gm:r=1", "gm:r=2")
CONSTANT_INV_M = ("ba", "sba")


def expect(measure_id, a, b, method="matrices"):
    return exact_baseline_expectation(parse_measure_id(measure_id), a, b, method)


def binary_margin_pairs(n_max):
    for n in range(2, n_max + 1):
        for a1 in range(0, n + 1):
            for b1 in range(1, n):  # non-unary predictions
                yield (n - a1, a1), (n - b1, b1)


class TestDegenerateInputs:
    def test_both_unary_rejected(self):
        with pytest.raises(ValueError):
            expect("acc", (3, 0), (3, 0))

    def test_mismatched_totals_rejected(self):
        with pytest.raises(ValueError):
            expect("acc", (2, 1), (2, 2))

    def test_unary_truth_allowed(self):
        # the truth may be constant as long as predictions vary
        v = expect("cc", (3, 0), (2, 1))
        assert v == 0

    def test_is_unary(self):
        assert is_unary((3, 0))
        assert is_unary((0, 4))
        assert not is_unary((2, 1))

    def test_canonical_labeling(self):
        lab = canonical_labeling((2, 1))
        assert lab.labels == (0, 0, 1)


class TestKnownExpectations:
    def test_accuracy_depends_on_margins(self):
        # E[acc] = sum a_i b_i / n^2
        assert expect("acc", (2, 1), (2, 1)) == Fraction(5, 9)
        assert expect("acc", (2, 1), (1, 2)) == Fraction(4, 9)

    def test_correlation_distance_not_constant(self):
        # E[CD] at a=b=(2,1): predictions hit CC=1 once, CC=-1/2 twice
        v = expect("cd", (2, 1), (2, 1))
        assert values_equal(v, Fraction(4, 9), eps=1e-15)

    @pytest.mark.parametrize("mid", CONSTANT_ZERO)
    def test_zero_constants_binary(self, mid):
        for a, b in binary_margin_pairs(6):
            v = expect(mid, a, b)
            assert is_exact(v)
            assert v == 0, (mid, a, b)

    @pytest.mark.parametrize("mid", CONSTANT_INV_M)
    def test_half_constants_binary(self, mid):
        for a, b in binary_margin_pairs(6):
            v = expect(mid, a, b)
            assert v == Fraction(1, 2), (mid, a, b)

    @pytest.mark.parametrize("mid", ("cc", "kappa"))
    def test_zero_constants_three_class(self, mid):
        for a in compositions(5, 3):
            if sum(a) == 0:
                continue
            for b in compositions(5, 3):
                if is_unary(b) or (is_unary(a) and is_unary(b)):
                    continue
                assert expect(mid, a, b) == 0, (mid, a, b)

    @pytest.mark.parametrize("mid", CONSTANT_INV_M)
    def test_third_constants_three_class(self, mid):
        for a in compositions(5, 3):
            for b in compositions(5, 3):
                if is_unary(b):
                    continue
                assert expect(mid, a, b) == Fraction(1, 3), (mid, a, b)


class TestRouteAgreement:
    @pytest.mark.parametrize(
        "mid", ("acc", "ba", "f:beta=1", "jaccard", "kappa", "cc", "sba", "gm:r=2")
    )
    def test_binary_routes_agree(self, mid):
        for a, b in binary_margin_pairs(5):
            v1 = expect(mid, a, b, "matrices")
            v2 = expect(mid, a, b, "labelings")
            assert values_equal(v1, v2, eps=1e-20), (mid, a, b)

    @pytest.mark.parametrize("mid", ("acc", "ba", "kappa", "cc", "sba"))
    def test_three_class_routes_agree(self, mid):
        for a in compositions(4, 3):
            for b in compositions(4, 3):
                if is_unary(a) and is_unary(b):
                    continue
                v1 = expect(mid, a, b, "matrices")
                v2 = expect(mid, a, b, "labelings")
                assert values_equal(v1, v2, eps=1e-20), (mid, a, b)

    def test_transcendental_routes_agree(self):
        v1 = expect("ce", (3, 3), (3, 3), "matrices")
        v2 = expect("ce", (3, 3), (3, 3), "labelings")
        assert values_equal(v1, v2, eps=1e-20)


class TestExactness:
    def test_rational_measures_stay_rational(self):
        v = expect("kappa", (4, 3), (5, 2))
        assert isinstance(v, Fraction)

    def test_cc_expectation_exact_zero_not_float(self):
        # the like-radical sums must cancel symbolically, not numerically
        v = expect("cc", (4, 3), (5, 2))
        assert is_exact(v)
        assert v == 0


def _drop_tables():
    baselines._tables.clear()
    baselines._held = 0


@pytest.fixture
def no_tables():
    """Start and end with no kept tables."""
    _drop_tables()
    yield
    _drop_tables()


MARGINS = [((3, 2), (1, 4)), ((2, 2, 1), (1, 2, 2)), ((4, 0, 1), (2, 2, 1))]


class TestSharedTables:
    @pytest.mark.parametrize("a, b", MARGINS)
    @pytest.mark.parametrize("method", ("matrices", "labelings"))
    def test_budget_same_on_miss_and_hit(self, no_tables, a, b, method):
        states = (
            sum(1 for _ in enumerate_entries(a, b))
            if method == "matrices"
            else multinomial(sum(a), b)
        )
        used = []
        for mid in ("cc", "cc", "ba"):  # miss, hit, hit by another measure
            budget = Budget(10**6)
            exact_baseline_expectation(parse_measure_id(mid), a, b, method, budget)
            used.append(budget.used)
            assert (a, b, method) in baselines._tables
        assert used == [states] * 3

    @pytest.mark.parametrize("method", ("matrices", "labelings"))
    def test_exceeded_budget_on_miss_and_hit(self, no_tables, method):
        a, b = (3, 3), (3, 3)
        desc = parse_measure_id("kappa")
        with pytest.raises(EnumerationBudgetExceeded):
            exact_baseline_expectation(desc, a, b, method, Budget(2))
        assert not baselines._tables  # an interrupted build keeps nothing
        exact_baseline_expectation(desc, a, b, method)
        with pytest.raises(EnumerationBudgetExceeded):
            exact_baseline_expectation(desc, a, b, method, Budget(2))

    @pytest.mark.parametrize("method", ("matrices", "labelings"))
    def test_binary_only_refused_before_enumerating(self, no_tables, method):
        budget = Budget(10**9)
        with pytest.raises(MeasureArityError):
            exact_baseline_expectation(
                parse_measure_id("f:beta=1"), (30, 30, 30), (30, 30, 30), method, budget
            )
        assert budget.used == 0 and not baselines._tables

    def test_routes_keep_separate_tables(self, no_tables):
        desc = parse_measure_id("acc")
        for method in ("matrices", "labelings"):
            exact_baseline_expectation(desc, (2, 1), (1, 2), method)
        assert set(baselines._tables) == {
            ((2, 1), (1, 2), "matrices"),
            ((2, 1), (1, 2), "labelings"),
        }

    def test_labelings_table_counts_labelings(self, no_tables):
        a, b = (2, 2, 1), (1, 2, 2)
        exact_baseline_expectation(parse_measure_id("acc"), a, b, "labelings")
        table, states = baselines._tables[a, b, "labelings"]
        assert states == sum(k for _, k in table) == multinomial(5, b)
        assert {C.entries: k for C, k in table} == dict(enumerate_entries(a, b))

    def test_bounded(self, no_tables, monkeypatch):
        monkeypatch.setattr(baselines, "TABLE_MATRICES", 20)
        desc = parse_measure_id("cc")
        for a in compositions(6, 2):
            for b in compositions(6, 2):
                if not is_unary(b):
                    v = exact_baseline_expectation(desc, a, b)
                    assert v == 0
                    held = sum(len(t) for t, _ in baselines._tables.values())
                    assert held == baselines._held <= 20
        assert baselines._tables  # the most recent tables are kept

    def test_measure_major_audit_builds_each_table_once(self, no_tables, monkeypatch):
        # The m = 3 cb grid at n <= 5 holds 1,836 matrices: with every table
        # kept, the second and third measures read the first one's tables.
        built = Counter()
        build = baselines._build_table

        def counting_build(a_sizes, b_sizes, method, budget):
            built[a_sizes, b_sizes, method] += 1
            return build(a_sizes, b_sizes, method, budget)

        monkeypatch.setattr(baselines, "_build_table", counting_build)
        verdicts = audit_grid(("ba", "kappa", "cc"), ("cb",), m=3, n_max=5)
        assert [v.status for v in verdicts] == ["satisfied"] * 3
        assert len(built) == 646  # every non-unary margin pair at n <= 5
        assert set(built.values()) == {1}

    def test_kept_values_match_fresh(self, no_tables):
        # Every measure of one margin pair reads the same table; each
        # must equal its value from a freshly built table.
        ids = ("acc", "ce", "cd", "cdprime", "gm:r=1/2", "f:beta=1:weighted")
        ids += ("cc:macro",)
        a, b = (4, 2), (3, 3)
        for method in ("matrices", "labelings"):
            warm = [expect(mid, a, b, method) for mid in ids]
            cold = []
            for mid in ids:
                _drop_tables()
                cold.append(expect(mid, a, b, method))
            assert [repr(v) for v in warm] == [repr(v) for v in cold]

    def test_rounded_labelings_sum_has_one_term_per_labeling(self, no_tables):
        # Scaling each distinct value by its count would round differently.
        a, b = (5, 2), (3, 4)
        desc = parse_measure_id("gm:r=1/2")
        got = exact_baseline_expectation(desc, a, b, "labelings")
        truth = canonical_labeling(a)
        terms = [
            evaluate(desc, build_confusion(truth, pred))
            for pred in enumerate_labelings(7, 2, class_sizes=b)
        ]
        want = scale(value_sum(terms), Fraction(1, multinomial(7, b)))
        assert repr(got) == repr(want)
