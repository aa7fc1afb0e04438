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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
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


def _int_kth_root(x: int, k: int) -> int | None:
    """Exact integer k-th root of x >= 0, or None if x is not a perfect power."""
    if x < 0:
        return None
    if x in (0, 1) or k == 1:
        return x
    # Newton iteration on integers; magnitudes here are small.
    r = 1 << ((x.bit_length() + k - 1) // k)
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
            return root_value(self.coeff * other, self.radicand, self.index)
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
                return root_value(self.coeff + other.coeff, self.radicand, self.index)
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
    rd = _int_kth_root(radicand.denominator, index)
    if rn is not None and rd is not None:
        return coeff * Fraction(rn, rd)
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


def to_mpf(v: Value) -> mpmath.mpf:
    """Convert any value kind to mpf at the current mpmath precision."""
    if isinstance(v, mpmath.mpf):
        return v
    if isinstance(v, int):
        return mpmath.mpf(v)
    if isinstance(v, Fraction):
        return mpmath.mpf(v.numerator) / v.denominator
    if isinstance(v, Root):
        return to_mpf(v.coeff) * mpmath.root(to_mpf(v.radicand), v.index)
    return mpmath.mpf(v)


def as_float(v: Value) -> float:
    if isinstance(v, Fraction):
        return v.numerator / v.denominator
    return float(v)


def working_precision():
    """Context with at least WORKING_DPS digits.

    Keeps the ambient precision when a caller has already raised it (the
    derivative probes run at higher precision than the default).
    """
    return mp.workdps(max(mp.dps, WORKING_DPS))


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
                combined = root_value(
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
