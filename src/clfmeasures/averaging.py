"""Micro, macro, and weighted extensions of binary measures.

Each scheme turns a binary measure into a multiclass one by aggregating
the per-class one-vs-all 2x2 matrices: micro pools their entries, macro
averages the per-class values, weighted averages them by true class size
(empty true classes are skipped; their weight is zero).
"""

from __future__ import annotations

from fractions import Fraction

from .core import ConfusionMatrix, _with_margins, one_vs_all
from .values import Value, scale, value_sum


def micro_counts(C: ConfusionMatrix) -> ConfusionMatrix:
    """Pooled one-vs-all counts as one 2x2 matrix: TP = diagonal mass
    s, FN = FP = off-diagonal mass, TN = (m-2)n + s."""
    n, s = C.n, C.diagonal_sum
    miss = n - s
    tn = (C.m - 2) * n + s
    rest = (C.m - 1) * n
    return _with_margins(((tn, miss), (miss, s)), (rest, n), (rest, n), C.m * n, tn + s)


def micro_extend(binary_measure, C: ConfusionMatrix) -> Value:
    return binary_measure(micro_counts(C))


def macro_extend(binary_measure, C: ConfusionMatrix) -> Value:
    vals = [binary_measure(one_vs_all(C, i)) for i in range(C.m)]
    return scale(value_sum(vals), Fraction(1, C.m))


def weighted_extend(binary_measure, C: ConfusionMatrix) -> Value:
    terms = []
    for i in range(C.m):
        ai = C.a[i]
        if ai == 0:
            continue
        terms.append(scale(binary_measure(one_vs_all(C, i)), Fraction(ai, C.n)))
    return value_sum(terms)
