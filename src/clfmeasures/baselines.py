"""Exact expectations of measures under margin-preserving randomization.

The randomization model: the true labeling is fixed with class sizes
``a``; the predicted labeling is drawn uniformly from all labelings with
class sizes ``b``.  Expectations are computed exactly by enumeration,
through either of two independent routes:

* ``matrices``: enumerate confusion matrices compatible with the margins,
  weighting each by the number of predictions that produce it;
* ``labelings``: enumerate the predicted labelings directly.

Both routes must agree; the second is slower and exists to corroborate
the first.

Each route reduces a margin pair to a table of ``(C, count)`` pairs: the
matrices route holds each compatible matrix with its multiplicity, the
labelings route each distinct matrix of the truth against an enumerated
labeling, built once, with the number of labelings that made it.
The most recently used tables are kept per process (at most
:data:`TABLE_MATRICES` matrices in all), so the measures evaluated on one
margin pair share one enumeration.  The cap holds the whole ``cb`` margin
grid of a default ``audit --m 3`` (4,755 matrices at n <= 6), so a
measure-major audit builds each table once, not once per measure.  A
budget is charged as if every call enumerated: one state per matrix or
per labeling, charged while the table is built and replayed in one
charge when a kept table is reused.

Each value enters the sum once, times its count.  When every value is
rational (int or Fraction), the sum is one integer numerator over one
integer denominator, and the expectation one Fraction.  Otherwise each
value is scaled by its count and summed by
:func:`clfmeasures.values.value_sum`.  That changes no exact sum.  A sum
that has to be rounded (a float-valued measure) could change, so the
labelings route then sums ``count`` copies of each value: the same terms
as one value per labeling.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from fractions import Fraction
from typing import Sequence

from .averaging import _rational_mean
from .core import (
    Budget,
    Labeling,
    _joint_counts,
    _margins,
    _with_margins,
    enumerate_confusion_matrices,
    enumerate_labelings,
    multinomial,
)
from .measures import MeasureDescriptor, check_arity, evaluate
from .values import Value, is_exact, scale, value_sum

METHODS = ("matrices", "labelings")


def is_unary(sizes: Sequence[int]) -> bool:
    """True if one class holds every element."""
    n = sum(sizes)
    return any(s == n for s in sizes)


def canonical_labeling(sizes: Sequence[int]) -> Labeling:
    """The lexicographically smallest labeling with the given class sizes."""
    labels: list[int] = []
    for cls, s in enumerate(sizes):
        labels.extend([cls] * s)
    return Labeling(tuple(labels), len(sizes))


#: Most matrices the kept tables hold together.
TABLE_MATRICES = 8192

#: (a_sizes, b_sizes, method) -> (table, states charged per use, number
#: of labelings), least recently used first; ``_held`` counts their
#: matrices.
_tables: OrderedDict = OrderedDict()
_held = 0


def _build_table(a_sizes, b_sizes, method, budget) -> tuple:
    if method == "matrices":
        return tuple(enumerate_confusion_matrices(a_sizes, b_sizes, budget))
    truth = canonical_labeling(a_sizes)
    # One matrix per distinct entries, not one per labeling.
    counts = Counter(
        _joint_counts(truth.labels, pred.labels, truth.m)
        for pred in enumerate_labelings(len(truth), truth.m, class_sizes=b_sizes, budget=budget)
    )
    return tuple((_with_margins(e, *_margins(e)), k) for e, k in counts.items())


def _table(a_sizes, b_sizes, method, budget) -> tuple:
    """The ``(C, count)`` table of one margin pair and route, and the
    number of labelings with class sizes ``b_sizes``, the sum of its
    counts."""
    global _held
    key = (a_sizes, b_sizes, method)
    if key in _tables:
        _tables.move_to_end(key)
        table, states, labelings = _tables[key]
        if budget is not None:
            budget.charge(states)
        return table, labelings
    table = _build_table(a_sizes, b_sizes, method, budget)
    labelings = multinomial(sum(a_sizes), b_sizes)
    states = len(table) if method == "matrices" else labelings
    _tables[key] = table, states, labelings
    _held += len(table)
    while _held > TABLE_MATRICES:
        _held -= len(_tables.popitem(last=False)[1][0])
    return table, labelings


def exact_baseline_expectation(
    desc: MeasureDescriptor,
    a_sizes: Sequence[int],
    b_sizes: Sequence[int],
    method: str = "matrices",
    budget: Budget | None = None,
) -> Value:
    """Expected value of a measure over uniformly random predictions.

    ``a_sizes``/``b_sizes`` are the true/predicted class size vectors.
    Both-unary margins are rejected: the prediction would be deterministic
    and identical-or-disjoint to the truth, which is outside the scope of
    baseline analysis.
    """
    a_sizes = tuple(a_sizes)
    b_sizes = tuple(b_sizes)
    if len(a_sizes) != len(b_sizes):
        raise ValueError("class size vectors must have equal length")
    n = sum(a_sizes)
    if n <= 0 or sum(b_sizes) != n:
        raise ValueError("class sizes must sum to the same positive total")
    if is_unary(a_sizes) and is_unary(b_sizes):
        raise ValueError(
            "both margins are unary: the expectation degenerates to a single "
            "constant comparison"
        )
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    check_arity(desc, len(a_sizes))  # before a table is enumerated for nothing
    return _expectation(lambda C: evaluate(desc, C), a_sizes, b_sizes, method, budget)


def _expectation(value_of, a_sizes: tuple, b_sizes: tuple, method: str, budget) -> Value:
    """The expectation of ``value_of`` over one margin pair's table.

    Arguments are those of :func:`exact_baseline_expectation`, already
    validated; the property audit passes its row evaluator's memoized
    value function.
    """
    table, labelings = _table(a_sizes, b_sizes, method, budget)
    weighted = [(value_of(C), count) for C, count in table]
    mean = _rational_mean(*zip(*weighted), labelings)
    if mean is not None:
        return mean
    rounded = method == "labelings" and not all(is_exact(v) for v, _ in weighted)
    if not rounded:
        total = value_sum([scale(v, count) for v, count in weighted])
        rounded = method == "labelings" and not is_exact(total)
    if rounded:
        # A rounded sum depends on its terms: one value per labeling.
        total = value_sum([v for v, count in weighted for _ in range(count)])
    return scale(total, Fraction(1, labelings))
