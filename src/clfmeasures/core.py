"""Labelings, confusion matrices, and exhaustive enumeration primitives.

Conventions used throughout the package:

* classes are 0-based indices ``0..m-1``;
* confusion matrix rows are indexed by the true class, columns by the
  predicted class, so ``entries[i][j]`` counts elements of true class ``i``
  predicted as ``j``;
* row sums ``a`` are the true class sizes, column sums ``b`` the predicted
  class sizes, and ``n`` the total count;
* entries are exact (int or Fraction).  Rational entries arise from
  expected matrices under margin-preserving randomization;
* the one matrix type serves every measure: a binary problem is the 2x2
  matrix ``((c00, c01), (c10, c11))`` with class 1 as the positive
  class, and :func:`one_vs_all` reduces a multiclass matrix to one.

All objects are immutable and all enumeration functions are pure
generators.  :func:`enumerate_entries` is the one matrix enumerator:
every space of confusion matrices the package audits or averages over
is a filter, sort or cache of its output, so "the first counterexample
in enumeration order" means the same order everywhere.  Its
margin-carrying form is :func:`_block`, kept per process.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import getitem
from typing import Iterator, Sequence


class EnumerationBudgetExceeded(RuntimeError):
    """Raised when an enumeration visits more states than its budget allows."""


class Budget:
    """Mutable counter limiting the number of enumerated states."""

    def __init__(self, limit: int):
        if limit <= 0:
            raise ValueError("budget limit must be positive")
        self.limit = limit
        self.used = 0

    def charge(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.limit:
            raise EnumerationBudgetExceeded(
                f"enumeration budget of {self.limit} states exceeded"
            )


@dataclass(frozen=True)
class Labeling:
    """An assignment of n elements to m classes."""

    labels: tuple[int, ...]
    m: int

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if self.m < 1:
            raise ValueError("need at least one class")
        if not self.labels:
            raise ValueError("labeling must be non-empty")
        if min(self.labels) < 0 or max(self.labels) >= self.m:
            bad = [x for x in self.labels if not 0 <= x < self.m]
            raise ValueError(f"labels out of range for m={self.m}: {bad[:5]}")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def n(self) -> int:
        return len(self.labels)


@dataclass(frozen=True, slots=True)
class ConfusionMatrix:
    """Square matrix of exact per-(true, predicted) class counts.

    The margins ``n`` (total), ``a`` (row sums: true class sizes), ``b``
    (column sums: predicted class sizes) and ``diagonal_sum`` are set when
    the matrix is built: computed by the constructor, which also stores
    the entries as a tuple of tuples, or given to :func:`_with_margins`
    by the package's own builders.  Equality and hashing read ``entries``
    only.
    """

    entries: tuple[tuple[int | Fraction, ...], ...]
    a: tuple = field(init=False, repr=False, compare=False)
    b: tuple = field(init=False, repr=False, compare=False)
    n: int | Fraction = field(init=False, repr=False, compare=False)
    diagonal_sum: int | Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        entries = tuple(map(tuple, self.entries))
        m = len(entries)
        if m < 1 or any(len(row) != m for row in entries):
            raise ValueError("entries must form a non-empty square matrix")
        for row in entries:
            for x in row:
                if type(x) is not int and type(x) is not Fraction:
                    raise ValueError(
                        f"entry {x!r} is a {type(x).__name__}, not an int or a Fraction;"
                        " confusion_matrix() converts integral floats and rational strings"
                    )
        if any(x < 0 for row in entries for x in row):
            raise ValueError("entries must be non-negative")
        margins = _margins(entries)
        if margins[2] <= 0:  # n
            raise ValueError("matrix total must be positive")
        for name, value in zip(("entries", "a", "b", "n", "diagonal_sum"), (entries, *margins)):
            object.__setattr__(self, name, value)

    @property
    def m(self) -> int:
        return len(self.entries)

    def is_diagonal(self) -> bool:
        # Entries are non-negative: the diagonal holds all the mass.
        return self.diagonal_sum == self.n

    def is_zero_diagonal(self) -> bool:
        return self.diagonal_sum == 0

    def __getitem__(self, ij: tuple[int, int]):
        i, j = ij
        return self.entries[i][j]


def _margins(e) -> tuple:
    """``(a, b, n, diagonal_sum)`` of a tuple of tuples, each summed from
    int 0: a margin is a Fraction exactly when a Fraction entry enters it."""
    a = tuple(map(sum, e))
    return a, tuple(map(sum, zip(*e))), sum(a), sum(map(getitem, e, range(len(e))))


def _with_margins(entries, a, b, n, diagonal_sum) -> ConfusionMatrix:
    """Wrap entries whose margins the caller already knows, unchecked.

    Only for matrices the package builds itself from a valid matrix or
    margin: ``entries`` is a non-empty square tuple of tuples of
    non-negative exact numbers with a positive total, and the margins
    equal, in value and type, what :func:`_margins` computes from it.
    """
    C = object.__new__(ConfusionMatrix)
    set_ = object.__setattr__
    set_(C, "entries", entries)
    set_(C, "a", a)
    set_(C, "b", b)
    set_(C, "n", n)
    set_(C, "diagonal_sum", diagonal_sum)
    return C


def confusion_matrix(rows: Sequence[Sequence]) -> ConfusionMatrix:
    """Build a ConfusionMatrix from any nested sequence of exact numbers."""

    def norm(x):
        if isinstance(x, (int, Fraction)):
            return x
        if isinstance(x, float):
            if not x.is_integer():
                raise ValueError(f"non-integer float entry {x}; pass Fractions")
            return int(x)
        if isinstance(x, str):
            return Fraction(x)
        raise TypeError(f"unsupported entry type {type(x).__name__}")

    return ConfusionMatrix(tuple(tuple(norm(x) for x in row) for row in rows))


def build_confusion(true: Labeling, pred: Labeling) -> ConfusionMatrix:
    """Count joint (true, predicted) class occurrences of two labelings."""
    if true.m != pred.m:
        raise ValueError(f"class count mismatch: {true.m} vs {pred.m}")
    if len(true) != len(pred):
        raise ValueError(f"length mismatch: {len(true)} vs {len(pred)}")
    # Valid labelings are non-empty with labels in range, so the counts
    # form a valid matrix.
    entries = _joint_counts(true.labels, pred.labels, true.m)
    return _with_margins(entries, *_margins(entries))


def _joint_counts(true_labels, pred_labels, m: int) -> tuple:
    """The confusion matrix entries of two label sequences of classes 0..m-1."""
    cells = [[0] * m for _ in range(m)]
    for t, p in zip(true_labels, pred_labels):
        cells[t][p] += 1
    return tuple(map(tuple, cells))


def transpose(C: ConfusionMatrix) -> ConfusionMatrix:
    """Swap the roles of the two labelings."""
    return _with_margins(tuple(zip(*C.entries)), C.b, C.a, C.n, C.diagonal_sum)


def permute_classes(C: ConfusionMatrix, perm: Sequence[int]) -> ConfusionMatrix:
    """Relabel both labelings by the same permutation of classes.

    ``perm[i]`` is the old class shown at new index ``i``:
    result[i][j] = entries[perm[i]][perm[j]].
    """
    if sorted(perm) != list(range(C.m)):
        raise ValueError(f"not a permutation of 0..{C.m - 1}: {perm}")
    e, a, b = C.entries, C.a, C.b
    entries = tuple(tuple(e[i][j] for j in perm) for i in perm)
    a, b = tuple(a[i] for i in perm), tuple(b[i] for i in perm)
    return _with_margins(entries, a, b, C.n, C.diagonal_sum)


def one_vs_all(C: ConfusionMatrix, i: int) -> ConfusionMatrix:
    """Collapse to the binary problem "class i against the rest".

    The result is the 2x2 matrix ``((tn, fp), (fn, tp))``: class 1 is
    class i, the positive class of the binary measures.
    """
    if not 0 <= i < C.m:
        raise ValueError(f"class index {i} out of range for m={C.m}")
    n, ai, bi = C.n, C.a[i], C.b[i]
    tp = C.entries[i][i]
    tn = n - ai - bi + tp
    return _with_margins(
        ((tn, bi - tp), (ai - tp, tp)), (n - ai, ai), (n - bi, bi), n, tn + tp
    )


def expected_matrix(a_sizes: Sequence[int], b_sizes: Sequence[int]) -> ConfusionMatrix:
    """Expected confusion matrix when the prediction is a uniformly random
    labeling with class sizes ``b_sizes``: entry (i, j) is a_i * b_j / n."""
    a_sizes = tuple(a_sizes)
    b_sizes = tuple(b_sizes)
    if len(a_sizes) != len(b_sizes):
        raise ValueError("class size vectors must have equal length")
    n = sum(a_sizes)
    if n <= 0 or n != sum(b_sizes) or any(x < 0 for x in a_sizes + b_sizes):
        raise ValueError("class sizes must be non-negative with equal positive totals")
    # Entries are Fractions, so the margins are too: row i sums to a_i,
    # column j to b_j.
    entries = tuple(tuple(Fraction(ai * bj, n) for bj in b_sizes) for ai in a_sizes)
    return _with_margins(
        entries,
        tuple(map(Fraction, a_sizes)),
        tuple(map(Fraction, b_sizes)),
        Fraction(n),
        sum(map(getitem, entries, range(len(entries)))),
    )


def multinomial(n: int, parts: Sequence[int]) -> int:
    """Number of labelings of n elements with the given class sizes."""
    if sum(parts) != n or any(p < 0 for p in parts):
        raise ValueError("parts must be non-negative and sum to n")
    out = 1
    rest = n
    for p in parts:
        out *= math.comb(rest, p)
        rest -= p
    return out


def compositions(n: int, m: int, min_part: int = 0) -> Iterator[tuple[int, ...]]:
    """All ordered ways to split n into m parts of at least ``min_part``
    (default: non-negative parts), lexicographic."""
    if m < 1 or n < min_part * m:
        return
    parts = [min_part] * m
    parts[-1] = n - min_part * (m - 1)
    while True:
        yield tuple(parts)
        # The successor: the rightmost part j >= 1 above the floor gives
        # one unit to part j - 1 and the rest of it to the last part.
        j = m - 1
        while j and parts[j] == min_part:
            j -= 1
        if not j:
            return
        rest = parts[j] - 1
        parts[j] = min_part
        parts[j - 1] += 1
        parts[-1] = rest


def enumerate_labelings(
    n: int,
    m: int,
    class_sizes: Sequence[int] | None = None,
    budget: Budget | None = None,
) -> Iterator[Labeling]:
    """All labelings of n elements into m classes, in lexicographic order.

    With ``class_sizes`` only labelings of those exact sizes are produced.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    if class_sizes is None:
        for labels in itertools.product(range(m), repeat=n):
            if budget is not None:
                budget.charge()
            yield Labeling(labels, m)
        return
    class_sizes = tuple(class_sizes)
    if len(class_sizes) != m or sum(class_sizes) != n:
        raise ValueError("class sizes must have length m and sum to n")
    if min(class_sizes) < 0:
        raise ValueError("class sizes must be non-negative")
    labels = [c for c, size in enumerate(class_sizes) for _ in range(size)]
    while True:
        if budget is not None:
            budget.charge()
        yield Labeling(tuple(labels), m)
        # Next permutation of the multiset: bump the last ascent, then
        # put the tail after it in ascending order.
        i = n - 2
        while i >= 0 and labels[i] >= labels[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while labels[j] <= labels[i]:
            j -= 1
        labels[i], labels[j] = labels[j], labels[i]
        labels[i + 1:] = labels[:i:-1]


@lru_cache(maxsize=8192)
def _row_fills(total: int, m: int, caps: tuple[int, ...] | None) -> tuple:
    """``(row, caps left, multinomial(total, row))`` for every row of m
    entries summing to ``total`` and within ``caps`` (None: no caps),
    lexicographic."""
    return tuple(
        (
            row,
            None if caps is None else tuple(c - x for c, x in zip(caps, row)),
            multinomial(total, row),
        )
        for row in compositions(total, m)
        if caps is None or all(x <= c for x, c in zip(row, caps))
    )


def enumerate_entries(
    a_sizes: Sequence[int], b_sizes: Sequence[int] | None = None
) -> Iterator[tuple[tuple[tuple[int, ...], ...], int]]:
    """All integer matrices with row sums ``a_sizes`` (and column sums
    ``b_sizes`` unless None), as ``(entries, multiplicity)`` pairs.

    Matrices appear in row-major lexicographic order.  The multiplicity is
    the number of predicted labelings producing the matrix against a
    fixed true labeling of sizes ``a_sizes``, so multiplicities sum to
    ``multinomial(n, b_sizes)``, or to ``m**n`` when ``b_sizes`` is None.
    No argument validation: callers pass non-negative margins of equal
    length and total.
    """
    a_sizes = tuple(a_sizes)
    m = len(a_sizes)
    caps = None if b_sizes is None else tuple(b_sizes)

    def rec(i: int, row_caps, rows: tuple, mult: int):
        for row, left, k in _row_fills(a_sizes[i], m, row_caps):
            if i == m - 1:
                yield rows + (row,), mult * k
            else:
                yield from rec(i + 1, left, rows + (row,), mult * k)

    yield from rec(0, caps, (), 1)


def enumerate_confusion_matrices(
    a_sizes: Sequence[int],
    b_sizes: Sequence[int],
    budget: Budget | None = None,
) -> Iterator[tuple[ConfusionMatrix, int]]:
    """All confusion matrices with the given margins, with multiplicities.

    Yields ``(C, count)`` pairs where ``count`` is the number of predicted
    labelings producing ``C`` against a fixed true labeling of sizes
    ``a_sizes``; counts over all matrices of one margin pair sum to
    ``multinomial(n, b_sizes)``.  Matrices appear in row-major
    lexicographic order.
    """
    a_sizes = tuple(a_sizes)
    b_sizes = tuple(b_sizes)
    m = len(a_sizes)
    if m < 1 or len(b_sizes) != m:
        raise ValueError("margin vectors must be non-empty and of equal length")
    n = sum(a_sizes)
    if n != sum(b_sizes) or n <= 0:
        raise ValueError("margins must sum to the same positive total")
    if any(x < 0 for x in a_sizes + b_sizes):
        raise ValueError("margins must be non-negative")

    diagonal = range(m)
    for entries, count in enumerate_entries(a_sizes, b_sizes):
        if budget is not None:
            budget.charge()
        diagonal_sum = sum(map(getitem, entries, diagonal))
        yield _with_margins(entries, a_sizes, b_sizes, n, diagonal_sum), count


@lru_cache(maxsize=4096)
def _block(a: tuple[int, ...]) -> tuple[ConfusionMatrix, ...]:
    """The m x m integer matrices with row sums ``a``, in enumeration
    order, built with their margins: ``a`` itself, the column sums (equal
    ones share one tuple), the total and the diagonal sum."""
    n, diagonal = sum(a), range(len(a))
    columns: dict = {}
    block = []
    for e, _ in enumerate_entries(a):
        b = tuple(map(sum, zip(*e)))
        b = columns.setdefault(b, b)
        block.append(_with_margins(e, a, b, n, sum(map(getitem, e, diagonal))))
    return tuple(block)
