"""Exact and high-precision arithmetic for measure values.

Measure results are one of three kinds:

* ``fractions.Fraction`` for rational-valued measures,
* :class:`Root` for values of the form ``coeff * radicand**(1/index)``
  (correlation-style measures whose only irrationality is a single root),
* ``mpmath.mpf`` for transcendental values (entropy and arccos based).

Exact kinds compare exactly, on Python ints: two rationals by
cross-multiplying numerators and denominators, and a :class:`Root` by
raising both sides to the least common root index and cross-multiplying
the integer numerators and denominators of coefficient and radicand.
No intermediate Fraction is built.  Once a float/mpf is involved,
comparisons use an epsilon tolerance at :data:`WORKING_DPS` digits.  All
helpers treat plain ints as Fractions.

A :class:`Root`'s radicand is never a perfect ``index``-th power
(:func:`root_value` collapses those).  So a like term, the same radical
times a rational coefficient, is a :class:`Root` again unless that
coefficient is 0: products with a rational and sums of like terms build
it directly, without testing the radicand again.

Precision rule: mpmath work runs at :data:`WORKING_DPS` digits or at the
ambient precision, whichever is higher.  :func:`working_precision` enters
a precision context only when the ambient precision is below
:data:`WORKING_DPS`; otherwise it changes nothing, so a caller that has
raised the precision (as :mod:`clfmeasures.orders` does) keeps its exact
``mp.prec``.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import inf, isqrt, lcm
from typing import Union

import mpmath
from mpmath import mp

#: Tolerance used when at least one operand is a float; ties closer than
#: this are treated as equal.
DEFAULT_EPS = 1e-12

#: Working precision (decimal digits) for transcendental evaluations.
WORKING_DPS = 30

ExactValue = Union[int, Fraction, "Root"]
Value = Union[int, Fraction, "Root", float, mpmath.mpf]


#: Most bits of the part of ``x`` whose float k-th root seeds Newton's
#: method: below the float range's 1024 binary digits.
_SEED_BITS = 960

#: Primes per index k in the power-residue screen of :func:`_int_kth_root`.
_RESIDUE_PRIMES = 4


@lru_cache(maxsize=None)
def _residue_screen(k: int) -> tuple[tuple[int, int], ...]:
    """``(p, (p - 1) // k)`` for the first few primes p = 1 (mod k).

    Modulo such a p, a k-th power x satisfies ``x**((p - 1) // k)`` = 0 or
    1, while a non-residue gives another k-th root of unity, so each prime
    rejects all but about 1/k of the non-powers.
    """
    screen = []
    p = k + 1
    while len(screen) < _RESIDUE_PRIMES:
        if all(p % d for d in range(2, isqrt(p) + 1)):
            screen.append((p, (p - 1) // k))
        p += k
    return tuple(screen)


def _int_kth_root(x: int, k: int) -> int | None:
    """Exact integer k-th root of x >= 0, or None if x is not a perfect power."""
    if x < 0:
        return None
    if x in (0, 1) or k == 1:
        return x
    if k == 2:
        r = isqrt(x)
        return r if r * r == x else None
    for p, e in _residue_screen(k):
        if pow(x, e, p) > 1:
            return None
    # Newton's method on integers decreases to the floor of the root from
    # any start at or above it.  Start from the float root of the leading
    # bits: with x = y * 2**(k*s) + low, the root is below
    # (y**(1/k) + 1) * 2**s, and a relative margin covers the float's
    # rounding, so the start is above the root and near it.
    s = max(0, -(-(x.bit_length() - _SEED_BITS) // k))
    y = x >> (k * s)
    r = (int(float(y) ** (1.0 / k) * (1 + 1e-10)) + 2) << s
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r ** k > x:
        r -= 1
    return r if r ** k == x else None


@dataclass(frozen=True, eq=False)
class Root:
    """Exact value ``coeff * radicand**(1/index)``.

    ``radicand`` is a positive rational that is not a perfect ``index``-th
    power (construct through :func:`root_value`, which collapses those to
    Fractions).  Comparisons are exact; use :func:`value_cmp` when mixing
    with floats.
    """

    coeff: Fraction
    radicand: Fraction
    index: int

    def __neg__(self) -> "Root":
        return Root(-self.coeff, self.radicand, self.index)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _like_term(self.coeff * other, self.radicand, self.index)
        return NotImplemented

    __rmul__ = __mul__

    def __add__(self, other):
        # Only like terms (same radical) or exact zero can be added while
        # staying exact; anything else must go through value_sum.
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return self
            raise TypeError("cannot add a rational to a root term exactly")
        if isinstance(other, Root):
            if (other.radicand, other.index) == (self.radicand, self.index):
                return _like_term(self.coeff + other.coeff, self.radicand, self.index)
            raise TypeError("cannot add unlike root terms exactly")
        return NotImplemented

    __radd__ = __add__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Root)):
            return exact_cmp(self, other) == 0
        return NotImplemented

    def __lt__(self, other):
        return exact_cmp(self, other) < 0

    def __le__(self, other):
        return exact_cmp(self, other) <= 0

    def __gt__(self, other):
        return exact_cmp(self, other) > 0

    def __ge__(self, other):
        return exact_cmp(self, other) >= 0

    def __float__(self) -> float:
        try:
            return float(self.coeff) * float(self.radicand) ** (1.0 / self.index)
        except OverflowError:  # radicand beyond the float range, as in gm at large r
            with working_precision():
                return float(to_mpf(self))

    def __repr__(self) -> str:
        return f"Root({self.coeff!r}, {self.radicand!r}, {self.index})"

    def __str__(self) -> str:
        coeff, radicand = _fraction_str(self.coeff), _fraction_str(self.radicand)
        if self.index == 2:
            return f"({coeff})*sqrt({radicand})"
        return f"({coeff})*({radicand})^(1/{self.index})"


#: Decimal digits per chunk when rendering a large int: below 640, the
#: smallest int-to-str limit the interpreter accepts, so ``str`` never
#: refuses a chunk whatever the limit is set to.
_CHUNK_DIGITS = 600
_CHUNK = 10**_CHUNK_DIGITS


def _int_str(x: int) -> str:
    """``str(x)``, also for ints with more digits than the interpreter's
    int-to-str limit (as the radicands of gm at large |r| have)."""
    if -_CHUNK < x < _CHUNK:
        return str(x)
    sign = "-" if x < 0 else ""
    x = abs(x)
    chunks = []
    while x >= _CHUNK:
        x, low = divmod(x, _CHUNK)
        chunks.append(str(low).zfill(_CHUNK_DIGITS))
    chunks.append(str(x))
    return sign + "".join(reversed(chunks))


def _fraction_str(q: Fraction) -> str:
    """``str(q)`` through :func:`_int_str`."""
    if q.denominator == 1:
        return _int_str(q.numerator)
    return f"{_int_str(q.numerator)}/{_int_str(q.denominator)}"


def root_value(coeff, radicand, index: int) -> ExactValue:
    """Build ``coeff * radicand**(1/index)``, collapsing perfect powers.

    radicand must be >= 0; a zero coeff or radicand collapses to Fraction(0).
    """
    coeff = Fraction(coeff)
    radicand = Fraction(radicand)
    if index < 1:
        raise ValueError(f"root index must be >= 1, got {index}")
    if radicand < 0:
        raise ValueError("radicand must be non-negative")
    if coeff == 0 or radicand == 0:
        return Fraction(0)
    if index == 1:
        return coeff * radicand
    rn = _int_kth_root(radicand.numerator, index)
    if rn is not None:
        rd = _int_kth_root(radicand.denominator, index)
        if rd is not None:
            return coeff * Fraction(rn, rd)
    return Root(coeff, radicand, index)


def _like_term(coeff: Fraction, radicand: Fraction, index: int) -> ExactValue:
    """``root_value(coeff, radicand, index)`` for the radicand and index of
    an existing :class:`Root`, which are never a perfect power."""
    if coeff == 0:
        return Fraction(0)
    return Root(coeff, radicand, index)


def _int_parts(v: ExactValue) -> tuple[int, int, int, int, int]:
    """``(p, q, u, w, k)`` of ``v = (p/q) * (u/w)**(1/k)``, all ints, with
    ``q``, ``w`` > 0 and ``u`` > 0 (rationals have ``u = w = k = 1``)."""
    if isinstance(v, Root):
        c, r = v.coeff, v.radicand
        return c.numerator, c.denominator, r.numerator, r.denominator, v.index
    return v.numerator, v.denominator, 1, 1, 1


def is_exact(v: Value) -> bool:
    return isinstance(v, (int, Fraction, Root))


def exact_cmp(a: ExactValue, b: ExactValue) -> int:
    """Exact three-way comparison of rational / root values.

    Both sides are raised to the least common root index and compared by
    integer cross-multiplication; no intermediate rationals are built.
    """
    pa, qa, ua, wa, ka = _int_parts(a)
    pb, qb, ub, wb, kb = _int_parts(b)
    sa = (pa > 0) - (pa < 0)
    sb = (pb > 0) - (pb < 0)
    if sa != sb:
        return -1 if sa < sb else 1
    if sa == 0:
        return 0
    # Same sign: compare |a|**L vs |b|**L with L = lcm of the indices.
    big = lcm(ka, kb)
    ea, eb = big // ka, big // kb
    lhs = abs(pa) ** big * ua**ea * qb**big * wb**eb
    rhs = abs(pb) ** big * ub**eb * qa**big * wa**ea
    if lhs == rhs:
        return 0
    return sa if lhs > rhs else -sa


#: Radicals kept by :func:`_root_mpf`.  A round of chance-level probes
#: roots a few hundred distinct radicals, most of them many times; gm's
#: radicands at |r| = 16 reach about 10^4 bits, so even a full cache of
#: those holds only a few MB.
_ROOT_CACHE_SIZE = 1024


@lru_cache(maxsize=_ROOT_CACHE_SIZE)
def _root_mpf(radicand: Fraction, index: int, prec: int) -> mpmath.mpf:
    """``radicand**(1/index)`` at the ambient precision, which must be
    ``prec`` bits: the precision is in the key because the root is rounded
    to it."""
    return mpmath.root(mpmath.mpf(radicand.numerator) / radicand.denominator, index)


def to_mpf(v: Value) -> mpmath.mpf:
    """Convert any value kind to mpf at the current mpmath precision.

    A :class:`Root` is its coefficient times the memoized root of its
    radicand (:func:`_root_mpf`, keyed on radicand, index and ``mp.prec``):
    the values a probe converts share few radicals, and each is rooted
    once per precision.  The result is the one ``mpmath.root`` gives.
    """
    if isinstance(v, mpmath.mpf):
        return v
    if isinstance(v, int):
        return mpmath.mpf(v)
    if isinstance(v, Fraction):
        return mpmath.mpf(v.numerator) / v.denominator
    if isinstance(v, Root):
        return to_mpf(v.coeff) * _root_mpf(v.radicand, v.index, mp.prec)
    return mpmath.mpf(v)


def as_float(v: Value) -> float:
    """The nearest float; a rational beyond the float range gives +-inf,
    as a :class:`Root` does."""
    if isinstance(v, Fraction):
        try:
            return v.numerator / v.denominator
        except OverflowError:
            return inf if v > 0 else -inf
    return float(v)


#: The context :func:`working_precision` returns when the ambient precision
#: already suffices; a ``nullcontext`` can be entered any number of times.
_AMBIENT = nullcontext()


def working_precision():
    """Context with at least WORKING_DPS digits.

    Keeps the ambient precision, ``mp.prec`` unchanged, when a caller has
    already raised it to WORKING_DPS or more (the derivative probes run at
    higher precision than the default): the context then does nothing.
    """
    if mp.dps >= WORKING_DPS:
        return _AMBIENT
    return mp.workdps(WORKING_DPS)


_RATIONAL_TYPES = frozenset((int, Fraction))


def value_cmp(a: Value, b: Value, eps: float = DEFAULT_EPS) -> int:
    """Three-way comparison; exact when both operands are exact."""
    if type(a) in _RATIONAL_TYPES and type(b) in _RATIONAL_TYPES:
        x = a.numerator * b.denominator
        y = b.numerator * a.denominator
        return (x > y) - (x < y)
    if is_exact(a) and is_exact(b):
        return exact_cmp(a, b)
    with working_precision():
        d = to_mpf(a) - to_mpf(b)
        if abs(d) <= eps:
            return 0
        return 1 if d > 0 else -1


def values_equal(a: Value, b: Value, eps: float = DEFAULT_EPS) -> bool:
    return value_cmp(a, b, eps) == 0


def value_identical(a: Value, b: Value) -> bool:
    """Whether ``a`` and ``b`` are one value in one representation: the
    same type, and for a :class:`Root` the same coefficient, radicand and
    index.  :func:`value_cmp` then treats them alike against any value, at
    any ``eps``."""
    if type(a) is not type(b):
        return False
    if type(a) is Root:
        return (a.coeff, a.radicand, a.index) == (b.coeff, b.radicand, b.index)
    return a == b


def value_key(v: Value) -> tuple:
    """A hashable key of ``v``'s representation: its type, then the ints
    ``(numerator, denominator)`` of a rational, the ints of a
    :class:`Root`'s coefficient and radicand and its index, the ``_mpf_``
    tuple of an mpf, or a float itself.

    Two keys are equal exactly when :func:`value_identical` holds, with
    one exception: a nan is not identical to itself, while the keys of two
    mpf nans are equal (one ``_mpf_`` tuple) and those of one float nan
    object are too.  So a memo keyed here serves every identical value
    one result, and a kernel that reads only the representation gives the
    same bits for it.
    """
    kind = type(v)
    if kind is Fraction or kind is int:
        return kind, v.numerator, v.denominator
    if kind is Root:
        c, r = v.coeff, v.radicand
        return kind, c.numerator, c.denominator, r.numerator, r.denominator, v.index
    if kind is mpmath.mpf:
        return kind, v._mpf_
    return kind, v


def value_sum(terms) -> Value:
    """Sum of values, exact whenever the terms allow it.

    Rational terms sum exactly.  Root terms sum exactly when they share one
    radical (the usual case: a family of values over a common margin pair).
    Mixed radicals, or a nonzero rational plus a root, fall back to a
    high-precision float.
    """
    terms = list(terms)
    rational = Fraction(0)
    root_acc: Root | None = None
    exact_ok = True
    for t in terms:
        if isinstance(t, int):
            t = Fraction(t)
        if isinstance(t, Fraction):
            rational += t
        elif isinstance(t, Root):
            if root_acc is None:
                root_acc = t
            elif (t.radicand, t.index) == (root_acc.radicand, root_acc.index):
                combined = _like_term(
                    root_acc.coeff + t.coeff, root_acc.radicand, root_acc.index
                )
                if isinstance(combined, Root):
                    root_acc = combined
                else:
                    rational += combined
                    root_acc = None
            else:
                exact_ok = False
                break
        else:
            exact_ok = False
            break
    if exact_ok:
        if root_acc is None:
            return rational
        if rational == 0:
            return root_acc
        # Root plus nonzero rational is irrational; no exact closed form here.
        exact_ok = False
    with working_precision():
        return mpmath.fsum(to_mpf(t) for t in terms)


def scale(v: Value, q) -> Value:
    """Multiply a value by a rational factor, staying exact when possible."""
    if type(q) is not Fraction:
        q = Fraction(q)
    if isinstance(v, int):
        return Fraction(v) * q
    if isinstance(v, (Fraction, Root)):
        return v * q
    with working_precision():
        return to_mpf(q) * v


def value_str(v: Value) -> str:
    """Compact exact-aware rendering, used by reports."""
    if isinstance(v, int):
        return _int_str(v)
    if isinstance(v, Fraction):
        return _fraction_str(v)
    if isinstance(v, Root):
        return str(v)
    return mpmath.nstr(to_mpf(v), 17)
