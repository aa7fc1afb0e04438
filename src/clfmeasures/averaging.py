"""Micro, macro, and weighted extensions of binary measures.

Each scheme turns a binary measure into a multiclass one by aggregating
the per-class one-vs-all 2x2 matrices: micro pools their entries, macro
averages the per-class values, weighted averages them by true class size
(empty true classes are skipped; their weight is zero).

A class's one-vs-all matrix is fixed by the four counts
``(n, a_i, b_i, c_ii)``, and the pooled micro matrix by
``(m, n, diagonal_sum)``.  Given a ``memo`` dict (the caller owns it,
one per binary measure), an int matrix looks its class values up by
those counts and builds a 2x2 matrix only on a miss; a matrix with
Fraction entries (expected and rate matrices) builds every one.

Macro and weighted read their classes in one canonical order, sorted by
the one-vs-all key ``(a_i, b_i, c_ii)``.  Relabeling the classes only
permutes those keys, and classes with equal keys have equal values, so
every relabeling of a matrix sums the same terms in the same order: an
averaged value is a function of the multiset of its class keys, one
identical value (type and representation) on every relabeling.  Micro's
``(m, n, diagonal_sum)`` is invariant already.  The order matters to
:func:`value_sum`, which stays exact only while its radicals cancel as
they come: ``[√2, −√2, √3]`` sums to the root √3, ``[√2, √3, −√2]`` to
a float.  Rational class values are summed as one integer numerator
and denominator; any other value sends the terms, in canonical order,
through :func:`value_sum` and :func:`scale`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat

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


def micro_extend(binary_measure, C: ConfusionMatrix, memo: dict | None = None) -> Value:
    if memo is None or type(C.n) is not int:
        return binary_measure(micro_counts(C))
    key = (C.m, C.n, C.diagonal_sum)
    v = memo.get(key)
    if v is None:
        v = memo[key] = binary_measure(micro_counts(C))
    return v


def _canonical_classes(C: ConfusionMatrix) -> list[tuple]:
    """``(a_i, b_i, c_ii, i)`` of every class i, in canonical class order."""
    e = C.entries
    return sorted(zip(C.a, C.b, [e[i][i] for i in range(C.m)], range(C.m)))


def _class_values(binary_measure, C: ConfusionMatrix, classes, memo) -> list:
    """The binary measure on the one-vs-all matrix of each class of
    ``classes`` (``(a_i, b_i, c_ii, i)`` tuples), looked up in ``memo``
    when there is one."""
    n = C.n
    if type(n) is not int:
        memo = None
    vals = []
    for ai, bi, cii, i in classes:
        if memo is None:
            v = binary_measure(one_vs_all(C, i))
        else:
            key = (n, ai, bi, cii)
            v = memo.get(key)
            if v is None:
                v = memo[key] = binary_measure(one_vs_all(C, i))
        vals.append(v)
    return vals


def _rational_mean(vals, weights, total) -> Fraction | None:
    """``sum(w * v for v, w in zip(vals, weights)) / total`` as one
    Fraction, or None if some value is neither an int nor a Fraction."""
    num, den = 0, 1
    for v, w in zip(vals, weights):
        t = type(v)
        if t is Fraction:
            p, q = v.numerator, v.denominator
        elif t is int:
            p, q = v, 1
        else:
            return None
        num, den = num * q + w * p * den, den * q
    return Fraction(num, den * total)


def macro_extend(binary_measure, C: ConfusionMatrix, memo: dict | None = None) -> Value:
    m = C.m
    vals = _class_values(binary_measure, C, _canonical_classes(C), memo)
    mean = _rational_mean(vals, repeat(1), m)
    return scale(value_sum(vals), Fraction(1, m)) if mean is None else mean


def weighted_extend(binary_measure, C: ConfusionMatrix, memo: dict | None = None) -> Value:
    n = C.n
    classes = [key for key in _canonical_classes(C) if key[0]]
    weights = [key[0] for key in classes]
    vals = _class_values(binary_measure, C, classes, memo)
    mean = _rational_mean(vals, weights, n)
    if mean is None:
        return value_sum([scale(v, Fraction(ai, n)) for v, ai in zip(vals, weights)])
    return mean
