"""The benchmark's own evaluator of the measures it checks.

Written from the measures' definitions, apart from the program: it
imports nothing from it.  Rational measures are exact ``Fraction`` s;
single square roots are exact :class:`Surd` s; the entropy and angle
measures, and sums of unlike roots, are ``mpmath`` numbers at
``DPS`` digits.

Matrices are tuples of rows, rows index the true class and columns the
predicted class, entries are ints or Fractions.  In a 2x2 matrix class 1
is the positive class.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import permutations

import mpmath

DPS = 50
#: The program's documented tolerance for comparisons in which a
#: float-valued measure takes part (its ``--eps`` default).
EPS = 1e-12
#: The program's tolerance for the triangle inequality of ``dist``.
DIST_TOL = 1e-9

SCHEMES = ("micro", "macro", "weighted")
DISSIMILARITIES = ("ce", "cd", "cdprime")


class Surd:
    """Exact ``q * sqrt(d)`` with ``q != 0`` and ``d > 0`` rational."""

    __slots__ = ("q", "d")

    def __init__(self, q: Fraction, d: Fraction):
        self.q = q
        self.d = d

    def __neg__(self):
        return Surd(-self.q, self.d)

    def __repr__(self):
        return f"Surd({self.q}, {self.d})"


def surd(q, d):
    """``q * sqrt(d)``, collapsed to a Fraction when ``d`` is a square."""
    q, d = Fraction(q), Fraction(d)
    if q == 0 or d == 0:
        return Fraction(0)
    rn, rd = math.isqrt(d.numerator), math.isqrt(d.denominator)
    if rn * rn == d.numerator and rd * rd == d.denominator:
        return q * Fraction(rn, rd)
    return Surd(q, d)


def is_exact(v) -> bool:
    return isinstance(v, (int, Fraction, Surd))


def to_mpf(v):
    with mpmath.workdps(DPS):
        if isinstance(v, Surd):
            return mpmath.mpf(v.q.numerator) / v.q.denominator * mpmath.sqrt(
                mpmath.mpf(v.d.numerator) / v.d.denominator
            )
        if isinstance(v, Fraction):
            return mpmath.mpf(v.numerator) / v.denominator
        return mpmath.mpf(v)


def _sign(v) -> int:
    x = v.q if isinstance(v, Surd) else v
    return (x > 0) - (x < 0)


def _square(v) -> Fraction:
    if isinstance(v, Surd):
        return v.q * v.q * v.d
    return Fraction(v) * Fraction(v)


def cmp(u, v, eps: float = EPS) -> int:
    """Three-way comparison: exact for exact operands, else within ``eps``."""
    if is_exact(u) and is_exact(v):
        su, sv = _sign(u), _sign(v)
        if su != sv:
            return 1 if su > sv else -1
        if su == 0:
            return 0
        qu, qv = _square(u), _square(v)
        if qu == qv:
            return 0
        return su if qu > qv else -su
    with mpmath.workdps(DPS):
        d = to_mpf(u) - to_mpf(v)
    if abs(d) <= eps:
        return 0
    return 1 if d > 0 else -1


def vsum(terms):
    """Sum: exact when every term is rational or all share one root."""
    terms = list(terms)
    rational = [Fraction(t) for t in terms if isinstance(t, (int, Fraction))]
    roots = [t for t in terms if isinstance(t, Surd)]
    if len(rational) + len(roots) == len(terms):
        rational_sum = sum(rational, Fraction(0))
        if not roots:
            return rational_sum
        if rational_sum == 0 and len({r.d for r in roots}) == 1:
            return surd(sum(r.q for r in roots), roots[0].d)
    with mpmath.workdps(DPS):
        return mpmath.fsum(to_mpf(t) for t in terms)


def vscale(v, q):
    q = Fraction(q)
    if isinstance(v, Surd):
        return surd(v.q * q, v.d)
    if isinstance(v, (int, Fraction)):
        return Fraction(v) * q
    with mpmath.workdps(DPS):
        return v * to_mpf(q)


def negate(v):
    return -v


# ---------------------------------------------------------------------------
# matrices


def margins(C):
    m = len(C)
    a = tuple(sum(row) for row in C)
    b = tuple(sum(C[i][j] for i in range(m)) for j in range(m))
    return a, b, sum(a)


def transpose(C):
    return tuple(zip(*C))


def permute(C, p):
    m = len(C)
    return tuple(tuple(C[p[i]][p[j]] for j in range(m)) for i in range(m))


def is_diagonal(C) -> bool:
    return all(C[i][j] == 0 for i in range(len(C)) for j in range(len(C)) if i != j)


def is_zero_diagonal(C) -> bool:
    return all(C[i][i] == 0 for i in range(len(C)))


def has_unary_margin(C) -> bool:
    """A row or column sum holds every element (a constant labeling)."""
    a, b, n = margins(C)
    return n in a or n in b


def confusion(truth, pred, m: int):
    cells = [[0] * m for _ in range(m)]
    for t, p in zip(truth, pred):
        cells[t][p] += 1
    return tuple(tuple(row) for row in cells)


def identity(m: int):
    return tuple(tuple(int(i == j) for j in range(m)) for i in range(m))


def expected_matrix(a, b):
    n = sum(a)
    return tuple(tuple(Fraction(ai * bj, n) for bj in b) for ai in a)


def _multinomial(parts) -> int:
    out, rest = 1, sum(parts)
    for p in parts:
        out *= math.comb(rest, p)
        rest -= p
    return out


def _rows_within(total, caps):
    if len(caps) == 1:
        if total <= caps[0]:
            yield (total,)
        return
    for first in range(min(total, caps[0]) + 1):
        for rest in _rows_within(total - first, caps[1:]):
            yield (first,) + rest


def matrices_with_margins(a, b):
    """Every matrix with row sums ``a`` and column sums ``b``, with the
    number of predictions of sizes ``b`` that give it against one truth."""

    def rec(i, left, rows, weight):
        if i == len(a):
            yield tuple(rows), weight
            return
        for row in _rows_within(a[i], left):
            yield from rec(
                i + 1,
                tuple(x - y for x, y in zip(left, row)),
                rows + [row],
                weight * _multinomial(row),
            )

    yield from rec(0, tuple(b), [], 1)


def expectation(mid: str, a, b):
    """Expected value over uniformly drawn predictions of sizes ``b``."""
    terms = [vscale(value(mid, C), w) for C, w in matrices_with_margins(a, b)]
    return vscale(vsum(terms), Fraction(1, _multinomial(b)))


# ---------------------------------------------------------------------------
# measures


def _accuracy(C):
    a, b, n = margins(C)
    return Fraction(sum(C[i][i] for i in range(len(C)))) / n


def _recall_terms(C, a, b, n):
    # An empty true class scores what a random prediction would: b_i / n.
    return [Fraction(C[i][i]) / a[i] if a[i] else Fraction(b[i]) / n for i in range(len(C))]


def _balanced_accuracy(C):
    a, b, n = margins(C)
    return sum(_recall_terms(C, a, b, n), Fraction(0)) / len(C)


def _symmetric_balanced_accuracy(C):
    a, b, n = margins(C)
    recalls = _recall_terms(C, a, b, n)
    precisions = _recall_terms(transpose(C), b, a, n)
    return (sum(recalls, Fraction(0)) + sum(precisions, Fraction(0))) / (2 * len(C))


def _agreement_terms(C):
    a, b, n = margins(C)
    hits = sum(C[i][i] for i in range(len(C)))
    chance = sum(Fraction(x) * y for x, y in zip(a, b))
    return Fraction(n), Fraction(hits), chance, a, b


def _kappa(C):
    n, hits, chance, _, _ = _agreement_terms(C)
    if n * n == chance:
        return Fraction(1)
    return (n * hits - chance) / (n * n - chance)


def _correlation(C):
    n, hits, chance, a, b = _agreement_terms(C)
    const_a = [i for i, x in enumerate(a) if x == n]
    const_b = [i for i, x in enumerate(b) if x == n]
    if const_a and const_b:
        return Fraction(1) if const_a == const_b else Fraction(-1)
    if const_a or const_b:
        return Fraction(0)
    cov = n * hits - chance
    var_a = n * n - sum(Fraction(x) * x for x in a)
    var_b = n * n - sum(Fraction(x) * x for x in b)
    return surd(cov / (var_a * var_b), var_a * var_b)


def _confusion_entropy(C):
    m = len(C)
    a, b, n = margins(C)
    with mpmath.workdps(DPS):
        total = mpmath.mpf(0)
        for j in range(m):
            mass = Fraction(a[j]) + b[j]
            if mass == 0:
                continue
            for k in range(m):
                if k == j:
                    continue
                for c in (C[j][k], C[k][j]):
                    if c:
                        share = to_mpf(Fraction(c) / mass)
                        total += to_mpf(Fraction(c)) / (2 * to_mpf(Fraction(n))) * mpmath.log(share)
        return -total / mpmath.log(2 * (m - 1))


def _clamped_correlation(C):
    with mpmath.workdps(DPS):
        return max(mpmath.mpf(-1), min(mpmath.mpf(1), to_mpf(_correlation(C))))


def _correlation_distance(C):
    with mpmath.workdps(DPS):
        return mpmath.acos(_clamped_correlation(C)) / mpmath.pi


def _chordal_distance(C):
    with mpmath.workdps(DPS):
        return mpmath.sqrt(2 * (1 - _clamped_correlation(C)))


def _counts(C):
    """(tp, fn, fp, tn) of a 2x2 matrix, class 1 positive."""
    return C[1][1], C[1][0], C[0][1], C[0][0]


def _f1(tp, fn, fp, tn):
    den = 2 * Fraction(tp) + fn + fp
    return Fraction(1) if den == 0 else 2 * Fraction(tp) / den


def _jaccard(tp, fn, fp, tn):
    den = Fraction(tp) + fn + fp
    return Fraction(1) if den == 0 else Fraction(tp) / den


def _gm_r1(tp, fn, fp, tn):
    n = Fraction(tp) + fn + fp + tn
    pos, neg = Fraction(tp) + fn, Fraction(fp) + tn
    ppos, pneg = Fraction(tp) + fp, Fraction(fn) + tn
    x, y = pos * neg, ppos * pneg
    if x == 0 and y == 0:
        return Fraction(1) if tp == n or tn == n else Fraction(-1)
    if x == 0 or y == 0:
        return Fraction(0)
    return (n * tp - pos * ppos) / ((x + y) / 2)


def _netagree(tp, fn, fp, tn):
    return Fraction(tp) + tn - fn - fp


def _anyagree(tp, fn, fp, tn):
    return Fraction(1) if tp + tn > 0 else Fraction(0)


_NATIVE = {
    "acc": _accuracy,
    "ba": _balanced_accuracy,
    "sba": _symmetric_balanced_accuracy,
    "kappa": _kappa,
    "cc": _correlation,
    "ce": _confusion_entropy,
    "cd": _correlation_distance,
    "cdprime": _chordal_distance,
}
_BINARY = {
    "f:beta=1": _f1,
    "jaccard": _jaccard,
    "gm:r=1": _gm_r1,
    "netagree": _netagree,
    "anyagree": _anyagree,
}


def split_id(mid: str) -> tuple[str, str | None]:
    """(base id, averaging scheme or None)."""
    head, _, last = mid.rpartition(":")
    if head and last in SCHEMES:
        return head, last
    return mid, None


def _binary_value(base: str, tp, fn, fp, tn):
    if base in _BINARY:
        return _BINARY[base](tp, fn, fp, tn)
    return _NATIVE[base](((tn, fp), (fn, tp)))


def value(mid: str, C):
    """The measure's value on ``C`` (not oriented)."""
    base, scheme = split_id(mid)
    if base not in _NATIVE and base not in _BINARY:
        raise KeyError(f"no reference evaluator for {mid!r}")
    if scheme is None:
        if base in _BINARY:
            if len(C) != 2:
                raise ValueError(f"{mid} is binary-only")
            return _BINARY[base](*_counts(C))
        return _NATIVE[base](C)
    m = len(C)
    a, b, n = margins(C)
    if scheme == "micro":
        hits = sum(C[i][i] for i in range(m))
        return _binary_value(base, hits, n - hits, n - hits, (m - 2) * n + hits)
    per_class = []
    for i in range(m):
        tp = C[i][i]
        per_class.append(_binary_value(base, tp, a[i] - tp, b[i] - tp, n - a[i] - b[i] + tp))
    if scheme == "macro":
        return vscale(vsum(per_class), Fraction(1, m))
    return vsum(vscale(v, Fraction(a[i], n)) for i, v in enumerate(per_class) if a[i])


def oriented(mid: str, v):
    """Flip dissimilarities so that larger is better."""
    return negate(v) if split_id(mid)[0] in DISSIMILARITIES else v


def oriented_value(mid: str, C):
    return oriented(mid, value(mid, C))


def non_identity_permutations(m: int):
    return [p for p in permutations(range(m)) if p != tuple(range(m))]


# ---------------------------------------------------------------------------
# the program's printed values


_ROOT = re.compile(r"^\((?P<q>[^()]+)\)\*sqrt\((?P<d>[^()]+)\)$")
_KTH_ROOT = re.compile(r"^\((?P<q>[^()]+)\)\*\((?P<d>[^()]+)\)\^\(1/(?P<k>\d+)\)$")


def parse_printed(text: str):
    """A value as the program prints it: a fraction, a root or a decimal."""
    text = text.strip()
    match = _ROOT.match(text)
    if match:
        return Surd(Fraction(match["q"]), Fraction(match["d"]))
    match = _KTH_ROOT.match(text)
    if match:
        with mpmath.workdps(DPS):
            return to_mpf(Fraction(match["q"])) * mpmath.root(
                to_mpf(Fraction(match["d"])), int(match["k"])
            )
    if any(ch in text for ch in ".eEn"):
        with mpmath.workdps(DPS):
            return mpmath.mpf(text)
    return Fraction(text)


def same_value(printed: str, mine, rel: float = 1e-14) -> bool:
    """Whether a printed value is the one the reference computed: exactly
    for two exact values, else to the printed precision."""
    theirs = parse_printed(printed)
    if is_exact(theirs) and is_exact(mine):
        return cmp(theirs, mine) == 0
    with mpmath.workdps(DPS):
        x, y = to_mpf(theirs), to_mpf(mine)
        return abs(x - y) <= rel * max(1, abs(y))


def same_float(printed: float, mine, rel: float = 1e-12) -> bool:
    y = float(to_mpf(mine))
    return abs(float(printed) - y) <= rel * max(1.0, abs(y))
