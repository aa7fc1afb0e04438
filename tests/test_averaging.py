"""Micro / macro / weighted extensions."""

import itertools
from fractions import Fraction

import pytest

from clfmeasures.core import confusion_matrix, one_vs_all, permute_classes
from clfmeasures.averaging import macro_extend, micro_counts, weighted_extend
from clfmeasures.measures import evaluate, parse_measure_id
from clfmeasures.values import Root, root_value, value_identical, value_sum, values_equal

THREE = confusion_matrix([[2, 0, 0], [1, 1, 0], [0, 1, 1]])
# n=6, S=4, a=(2,2,2), b=(3,2,1)


def ev(measure_id, C):
    return evaluate(parse_measure_id(measure_id), C)


class TestMicroCounts:
    def test_pooled_counts(self):
        B = micro_counts(THREE)
        assert B == confusion_matrix([[10, 2], [2, 4]])
        assert B.n == 18  # m*n: each element counted once per class

    def test_binary_micro_is_identity_on_counts(self):
        C = confusion_matrix([[4, 1], [2, 3]])
        assert micro_counts(C) == confusion_matrix([[7, 3], [3, 7]])


class TestMicroValues:
    def test_micro_f1_is_accuracy_like(self):
        # micro-F1 = S/n always
        assert ev("f:beta=1:micro", THREE) == Fraction(4, 6)

    def test_micro_jaccard(self):
        # S / (2n - S)
        assert ev("jaccard:micro", THREE) == Fraction(4, 8)

    def test_micro_acc_closed_form(self):
        # ((m-2)n + 2S) / (mn)
        assert ev("acc:micro", THREE) == Fraction(6 + 8, 18)

    def test_micro_cc_closed_form(self):
        # (mS - n) / ((m-1) n)
        assert ev("cc:micro", THREE) == Fraction(3 * 4 - 6, 2 * 6)

    def test_micro_ba_closed_form(self):
        # (1/2)(S/n + ((m-2)n + S)/((m-1)n))
        expect = Fraction(1, 2) * (Fraction(4, 6) + Fraction(6 + 4, 12))
        assert ev("ba:micro", THREE) == expect


class TestMacro:
    def test_macro_f1_by_hand(self):
        # one-vs-all F1 per class: 2tp / (2tp + fn + fp)
        per_class = []
        for i in range(3):
            B = one_vs_all(THREE, i)
            num = 2 * B[1, 1]
            den = num + B[1, 0] + B[0, 1]
            per_class.append(Fraction(num, den) if den else Fraction(1))
        expect = sum(per_class) / 3
        assert ev("f:beta=1:macro", THREE) == expect

    def test_macro_acc_by_hand(self):
        per_class = [
            Fraction(
                one_vs_all(THREE, i)[1, 1] + one_vs_all(THREE, i)[0, 0], THREE.n
            )
            for i in range(3)
        ]
        assert ev("acc:macro", THREE) == sum(per_class) / 3

    def test_macro_of_binary_matrix_symmetrizes(self):
        # at m=2 the two one-vs-all problems are label swaps
        C = confusion_matrix([[4, 1], [2, 3]])
        expect = Fraction(1, 2) * (Fraction(2, 3) + Fraction(8, 11))
        assert ev("f:beta=1:macro", C) == expect


class TestWeighted:
    def test_weighted_equals_macro_on_balanced_truth(self):
        # a = (2,2,2): weights are uniform
        for mid in ("f:beta=1", "acc", "jaccard"):
            assert ev(f"{mid}:weighted", THREE) == ev(f"{mid}:macro", THREE)

    def test_weighted_skips_empty_true_class(self):
        C = confusion_matrix([[0, 0, 0], [1, 3, 0], [0, 1, 1]])
        # a = (0,4,2): class 0 contributes nothing, weights 4/6 and 2/6
        per = [one_vs_all(C, i) for i in range(3)]
        f1 = []
        for B in per:
            num = 2 * B[1, 1]
            den = num + B[1, 0] + B[0, 1]
            f1.append(Fraction(num, den) if den else Fraction(1))
        expect = Fraction(4, 6) * f1[1] + Fraction(2, 6) * f1[2]
        assert ev("f:beta=1:weighted", C) == expect

    def test_weighted_breaks_transpose_symmetry(self):
        # weights follow rows, so transposing reweights the per-class values
        from clfmeasures.core import transpose

        C = confusion_matrix([[3, 0, 0], [1, 1, 0], [0, 0, 1]])
        assert ev("f:beta=1:weighted", C) == Fraction(103, 126)
        assert ev("f:beta=1:weighted", transpose(C)) == Fraction(107, 126)


class TestSchemeExactness:
    def test_macro_cc_goes_numeric(self):
        # per-class roots have unlike radicands; the sum is a float
        d = parse_measure_id("cc:macro")
        assert not d.exact
        v = evaluate(d, THREE)
        from clfmeasures.values import is_exact

        assert not is_exact(v)

    def test_micro_cc_stays_exact(self):
        d = parse_measure_id("cc:micro")
        assert d.exact
        assert isinstance(evaluate(d, THREE), Fraction)

    def test_micro_at_m2_pools_both_classes(self):
        # micro symmetrizes even at m=2: counts become (S, n-S, n-S, S),
        # so only measures depending on S/n alone coincide with the base
        C = confusion_matrix([[4, 1], [2, 3]])
        assert ev("acc:micro", C) == ev("acc", C) == Fraction(7, 10)
        assert ev("f:beta=1:micro", C) == Fraction(7, 10)  # != binary F1 = 2/3
        assert ev("f:beta=1", C) == Fraction(2, 3)


#: Class values whose sum stays exact only if the radicals cancel first.
SQRT2, MINUS_SQRT2, SQRT3 = root_value(1, 2, 2), root_value(-1, 2, 2), root_value(1, 3, 2)


def _cancelling_kernel(B):
    """A synthetic binary measure: √2, −√2 or √3 by the true positives
    (0, 1 or 2) of a one-vs-all matrix."""
    return (SQRT2, MINUS_SQRT2, SQRT3)[B[1, 1]]


class TestCanonicalClassOrder:
    # a = (2, 2, 2), so both schemes weigh the classes alike; the diagonal
    # (0, 1, 2) gives the classes the values √2, −√2 and √3.
    C = confusion_matrix([[0, 1, 1], [1, 1, 0], [0, 0, 2]])

    def test_sum_order_matters(self):
        assert type(value_sum([SQRT2, MINUS_SQRT2, SQRT3])) is Root
        assert type(value_sum([SQRT2, SQRT3, MINUS_SQRT2])) is not Root

    @pytest.mark.parametrize("extend", [macro_extend, weighted_extend])
    @pytest.mark.parametrize("memo", [None, {}], ids=["unmemoized", "memo"])
    def test_average_is_identical_on_every_relabeling(self, extend, memo):
        first, *rest = (
            extend(_cancelling_kernel, permute_classes(self.C, p), memo)
            for p in itertools.permutations(range(3))
        )
        assert type(first) is Root
        assert all(value_identical(v, first) for v in rest)
