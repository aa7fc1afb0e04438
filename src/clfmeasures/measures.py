"""Classification performance measures over confusion matrices.

Every measure takes a :class:`ConfusionMatrix`.  Binary-only measures
read a 2x2 matrix ``((c00, c01), (c10, c11))`` with class 1 as the
positive class; :func:`evaluate` applies them to larger matrices only
through an averaging scheme, on the one-vs-all 2x2 matrices.  Every
measure returns an exact value (Fraction or Root) except the entropy- and
angle-based ones, which return high-precision floats.

Singular configurations (empty classes, constant labelings) are resolved
so that every measure stays total and chance-level behaviour is preserved:

* ratio terms with an empty class are replaced by their value under
  margin-preserving randomization (``c_ii/a_i -> b_i/n`` and
  ``c_ii/b_i -> a_i/n``);
* correlation-style measures score 0 when exactly one labeling is
  constant, and +1/-1 when both are constant and equal/unequal;
* overlap ratios with empty numerator and denominator score 1;
* entropy terms follow the ``0 * log 0 = 0`` convention, and classes
  absent from both labelings are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from math import copysign, isfinite, isqrt, sqrt
from operator import mul
from typing import Callable, NamedTuple

import mpmath
from mpmath import mp

from . import averaging, values
from .core import ConfusionMatrix
from .values import Root, Value, root_value, to_mpf, value_key, working_precision


class MeasureArityError(ValueError):
    """A binary-only measure was applied to a multiclass matrix."""


class MeasureParseError(ValueError):
    """A measure id string does not follow the grammar."""


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


# One body per rational measure: its numerator and denominator are
# computed in the entries' own type (int, or Fraction for expected and
# rate matrices) and one Fraction is built at the end.  ``Fraction(p, q)``
# normalizes ints and Fractions alike, so equal entries of either type give
# one value in one representation.


def _recall_terms(C: ConfusionMatrix) -> list[tuple]:
    """``(c_ii, a_i)`` per class, or ``(b_i, n)`` for an empty true class."""
    e, n = C.entries, C.n
    return [(e[i][i], ai) if ai else (bi, n) for i, (ai, bi) in enumerate(zip(C.a, C.b))]


def _precision_terms(C: ConfusionMatrix) -> list[tuple]:
    """``(c_ii, b_i)`` per class, or ``(a_i, n)`` for an empty predicted class."""
    e, n = C.entries, C.n
    return [(e[i][i], bi) if bi else (ai, n) for i, (ai, bi) in enumerate(zip(C.a, C.b))]


def _ratio_mean(terms, count: int) -> Fraction:
    """``sum(p / q for p, q in terms) / count`` as one Fraction."""
    num, den = 0, 1
    for p, q in terms:
        num, den = num * q + p * den, den * q
    return Fraction(num, den * count)


# ---------------------------------------------------------------------------
# multiclass-native measures


def accuracy(C: ConfusionMatrix) -> Fraction:
    """Fraction of elements on the diagonal."""
    return Fraction(C.diagonal_sum, C.n)


def balanced_accuracy(C: ConfusionMatrix) -> Fraction:
    """Mean per-true-class recall; empty true classes contribute b_i/n."""
    return _ratio_mean(_recall_terms(C), C.m)


def symmetric_balanced_accuracy(C: ConfusionMatrix) -> Fraction:
    """Mean of recall and precision terms over all classes.

    Equals the average of balanced accuracy on C and on its transpose.
    """
    return _ratio_mean(_recall_terms(C) + _precision_terms(C), 2 * C.m)


def cohens_kappa(C: ConfusionMatrix) -> Fraction:
    """Agreement above chance, normalized by its maximum headroom."""
    n = C.n
    chance = sum(map(mul, C.a, C.b))
    den = n * n - chance
    # den is 0 only when both labelings are the same constant.
    return Fraction(n * C.diagonal_sum - chance, den) if den else Fraction(1)


def _constant_class(sizes, n) -> int | None:
    """Index of the class holding all n elements, or None."""
    for i, s in enumerate(sizes):
        if s == n:
            return i
    return None


def matthews_cc(C: ConfusionMatrix) -> Value:
    """Correlation between the two labelings (multiclass generalization).

    Constant labelings make the correlation undefined; those cases resolve
    to 0 (one constant) or to +1/-1 (both constant, equal/unequal).
    """
    n = C.n
    ca = _constant_class(C.a, n)
    cb = _constant_class(C.b, n)
    if ca is not None and cb is not None:
        return Fraction(1) if ca == cb else Fraction(-1)
    if ca is not None or cb is not None:
        return Fraction(0)
    num = n * C.diagonal_sum - sum(map(mul, C.a, C.b))
    if num == 0:
        return Fraction(0)
    nn = n * n
    rad = (nn - sum(map(mul, C.b, C.b))) * (nn - sum(map(mul, C.a, C.a)))
    if type(rad) is not int:
        return root_value(Fraction(num, rad), rad, 2)
    # root_value(num / rad, rad, 2) without the rational round trip.
    root = isqrt(rad)
    if root * root == rad:
        return Fraction(num, root)
    return Root(Fraction(num, rad), Fraction(rad), 2)


#: Log terms kept by :func:`_ce_term`.  The default binary ``audit`` reads
#: 64 distinct ``(count, class mass)`` pairs, each about 20 times; an
#: entry holds a key of two numbers and one mpf, a few hundred bytes.
_CE_TERM_CACHE_SIZE = 4096

#: Normalizers kept by :func:`_ce_norm`: one per sample size, class count
#: and precision.
_CE_NORM_CACHE_SIZE = 256


@lru_cache(maxsize=_CE_TERM_CACHE_SIZE)
def _ce_term(c, mass, prec: int) -> mpmath.mpf:
    """``c * log(c / mass)`` at the ambient precision, which must be
    ``prec`` bits: the precision is in the key because the term is rounded
    to it.  An int and an equal Fraction share one entry, and both give
    these bits."""
    return to_mpf(c) * mpmath.log(to_mpf(_frac(c) / mass))


@lru_cache(maxsize=_CE_NORM_CACHE_SIZE)
def _ce_norm(n, m: int, prec: int) -> mpmath.mpf:
    """``2n * log(2m - 2)`` at the ambient precision, which must be
    ``prec`` bits."""
    return 2 * to_mpf(_frac(n)) * mpmath.log(2 * m - 2)


def confusion_entropy(C: ConfusionMatrix) -> mpmath.mpf:
    """Entropy of the misclassification pattern (a dissimilarity).

    Off-diagonal entries are weighted by logarithms of their share of the
    combined class mass, in base 2(m-1).  Classes missing from both
    labelings are skipped.

    Each term and the normalizer are memoized on their numbers and
    ``mp.prec`` (:func:`_ce_term`, :func:`_ce_norm`), read inside
    :func:`working_precision`, so a hit has the bits a miss would compute.
    """
    m = C.m
    if m < 2:
        raise MeasureArityError("confusion entropy needs at least two classes")
    E, a, b = C.entries, C.a, C.b
    with working_precision():
        prec = mp.prec
        terms = []
        for j in range(m):
            mass = a[j] + b[j]
            if mass == 0:
                continue
            for i in range(m):
                if i == j:
                    continue
                for c in (E[j][i], E[i][j]):
                    if c:
                        terms.append(_ce_term(c, mass, prec))
        # fsum adds the terms exactly and rounds once, so the value does not
        # depend on their order: relabeling the classes gives an identical
        # value, not one a rounding apart.
        return -mpmath.fsum(terms) / _ce_norm(C.n, m, prec)


#: The clamp of :func:`_cc_as_mpf`; exact at every precision.
_MPF_MINUS_ONE = mpmath.mpf(-1)
_MPF_ONE = mpmath.mpf(1)


def _cc_as_mpf(C: ConfusionMatrix) -> mpmath.mpf:
    x = to_mpf(matthews_cc(C))
    # Guard against representation round-off at the extremes.
    return max(_MPF_MINUS_ONE, min(_MPF_ONE, x))


#: Angles kept by :func:`_angle`.  A chance-level probe of ``cd`` reads
#: about 320 distinct ``cc`` values, each seven or eight times; an entry
#: holds a key of a few ints and one mpf, a few hundred bytes.
_ANGLE_MEMO_SIZE = 1024
_ANGLES: dict = {}


def _angle(transform, C: ConfusionMatrix) -> mpmath.mpf:
    """``transform(_cc_as_mpf(C))``, the transform of ``cc`` on C as an
    mpf clamped to [-1, 1], at the working precision.

    Memoized on ``(transform, value_key(cc), mp.prec)``, with ``mp.prec``
    read inside :func:`working_precision`: the mpf of cc depends only on
    its representation and the precision, so a hit has the bits a miss
    would compute.  The memo keeps the last :data:`_ANGLE_MEMO_SIZE`
    angles computed and drops the oldest first.
    """
    cc = matthews_cc(C)
    with working_precision():
        key = transform, value_key(cc), mp.prec
        angle = _ANGLES.get(key)
        if angle is None:
            if len(_ANGLES) >= _ANGLE_MEMO_SIZE:
                del _ANGLES[next(iter(_ANGLES))]
            angle = _ANGLES[key] = transform(_cc_as_mpf(C))
        return angle


def _acos_over_pi(x: mpmath.mpf) -> mpmath.mpf:
    return mpmath.acos(x) / mpmath.pi


def _chord(x: mpmath.mpf) -> mpmath.mpf:
    return mpmath.sqrt(2 * (1 - x))


def correlation_distance(C: ConfusionMatrix) -> mpmath.mpf:
    """Angle between the labelings, scaled to [0, 1].  A dissimilarity.

    Computed once per ``cc`` representation and precision (:func:`_angle`)."""
    return _angle(_acos_over_pi, C)


def chordal_distance(C: ConfusionMatrix) -> mpmath.mpf:
    """Chord-length transform sqrt(2 * (1 - correlation)), range [0, 2].

    Computed once per ``cc`` representation and precision (:func:`_angle`)."""
    return _angle(_chord, C)


# ---------------------------------------------------------------------------
# binary-only measures


def f_beta(C: ConfusionMatrix, beta=Fraction(1)) -> Fraction:
    """Weighted harmonic mean of precision and recall on the positive class."""
    beta = _frac(beta)
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    (_, c01), (c10, c11) = C.entries
    # (1 + beta**2) c11 / ((1 + beta**2) c11 + beta**2 c10 + c01), scaled by
    # the squared denominator of beta: p = beta.numerator**2.
    p, q = beta.numerator**2, beta.denominator**2
    num = (p + q) * c11
    den = num + p * c10 + q * c01
    # den is 0 with no positives anywhere: perfect agreement on an
    # all-negative set.
    return Fraction(num, den) if den else Fraction(1)


def jaccard(C: ConfusionMatrix) -> Fraction:
    """Overlap of the positive sets; empty-vs-empty counts as full overlap."""
    (_, c01), (c10, c11) = C.entries
    den = c11 + c10 + c01
    return Fraction(c11, den) if den else Fraction(1)


def _normalize_r(r):
    """Collapse integral exponents to int so they take the exact path."""
    if isinstance(r, float) and r.is_integer():
        return int(r)
    if isinstance(r, Fraction) and r.denominator == 1:
        return int(r)
    return r


def power_mean_ratio(num, x, y, r: int) -> Value:
    """``num / M_r(x, y)``, exact, for x, y > 0 and a nonzero integer r.

    With s = |r|, M_r is ``u**(1/s)`` for u the mean of ``x**s`` and
    ``y**s`` (r > 0) or the reciprocal of the mean of their reciprocals
    (r < 0), so the ratio is ``(num / u) * u**((s-1)/s)``.

    The value is ``root_value(num / u, u**(s-1), s)``: a Root's
    coefficient is ``num / u`` and its radicand ``u**(s-1)``, both in
    lowest terms, for int and Fraction x and y alike, and s = 1 or a
    perfect-power radicand gives a Fraction.  Callers compare these
    fields, not only the value.  u is ``top / bottom`` for ints ``top``
    and ``bottom`` formed from the numerators and denominators of x and
    y, so each of the two is one Fraction construction.
    """
    s = abs(r)
    xn, xd = x.numerator, x.denominator
    yn, yd = y.numerator, y.denominator
    # x**s + y**s over their common denominator (xd*yd)**s.
    total = (xn * yd) ** s + (yn * xd) ** s
    if r > 0:
        top, bottom = total, 2 * (xd * yd) ** s
    else:
        # 2 x**s y**s / (x**s + y**s): the common denominator cancels.
        top, bottom = 2 * (xn * yn) ** s, total
    coeff = Fraction(num * bottom, top)
    if s == 1:
        return coeff
    return root_value(coeff, Fraction(top, bottom) ** (s - 1), s)


def generalized_means(C: ConfusionMatrix, r) -> Value:
    """Covariance-style agreement normalized by a power mean of the two
    margin variances.  ``r`` is the power-mean exponent (nonzero; the
    r -> 0 limit is the correlation coefficient).

    Exact for integer r; other exponents are evaluated in high precision.
    """
    if r == 0:
        raise ValueError("r must be nonzero; the r->0 limit is matthews_cc")
    r = _normalize_r(r)
    (c00, _), (_, c11) = C.entries
    n, a1, b1 = C.n, C.a[1], C.b[1]
    x, y = a1 * (n - a1), b1 * (n - b1)
    if x == 0 and y == 0:
        # Both labelings constant: sign of the (dis)agreement.
        return Fraction(1) if (c11 == n or c00 == n) else Fraction(-1)
    if x == 0 or y == 0:
        return Fraction(0)
    num = n * c11 - a1 * b1
    if isinstance(r, int):
        return power_mean_ratio(num, x, y, r)
    with working_precision():
        # The power mean exp(log1p(mean of expm1(r ln v)) / r): no
        # v**r - 1 cancels, so a tiny r keeps every digit and the
        # r -> 0 limit is the geometric mean.
        rr = to_mpf(r)
        xr_m1 = mpmath.expm1(rr * mpmath.log(to_mpf(x)))
        yr_m1 = mpmath.expm1(rr * mpmath.log(to_mpf(y)))
        mean = mpmath.exp(mpmath.log1p((xr_m1 + yr_m1) / 2) / rr)
        return to_mpf(num) / mean


def net_agreement(C: ConfusionMatrix) -> Fraction:
    """Agreements minus disagreements.  Unnormalized; audit use only."""
    (c00, c01), (c10, c11) = C.entries
    return Fraction(c11 + c00 - c10 - c01)


def any_agreement(C: ConfusionMatrix) -> Fraction:
    """Indicator of at least one agreement.  Audit use only."""
    return Fraction(1) if C.diagonal_sum > 0 else Fraction(0)


# ---------------------------------------------------------------------------
# descriptors and the registry

SIMILARITY = "similarity"
DISSIMILARITY = "dissimilarity"


@dataclass(frozen=True)
class MeasureDescriptor:
    """Identity and metadata of one (possibly parametrized) measure.

    ``exact`` says whether values support exact comparison; averaged forms
    of root-valued measures lose exactness because unlike radicals are
    summed numerically.
    """

    measure_id: str
    base: str
    label: str
    arity: str  # "binary" | "multiclass"
    orientation: str  # SIMILARITY | DISSIMILARITY
    exact: bool
    beta: Fraction | None = None
    r: int | float | None = None
    scheme: str | None = None  # None | "micro" | "macro" | "weighted"
    audit_only: bool = False

    def __str__(self) -> str:
        return self.measure_id

    @cached_property
    def kernel(self):
        """The function of a ConfusionMatrix this descriptor evaluates
        (on each one-vs-all 2x2 matrix when it has a scheme)."""
        kernel = _BASES[self.base].kernel
        # Partials rather than closures: the descriptor must stay picklable.
        if self.base == "f":
            return partial(kernel, beta=self.beta)
        if self.base == "gm":
            return partial(kernel, r=self.r)
        return kernel

    @property
    def order_key(self) -> OrderKey | None:
        """The base measure's :class:`OrderKey`; None for averaged forms."""
        return _BASES[self.base].order if self.scheme is None else None


class OrderKey(NamedTuple):
    """A measure whose values are a strictly monotone function f of
    another measure's values, its key.

    ``measure`` is the key's measure id and ``decreasing`` says which way
    f runs.  ``slope`` is a bound g on 1/|f'| over the key's range, so
    two keys k1, k2 have values at least ``|k1 - k2| / g`` apart:
    :meth:`Evaluator.compare`, which the audit and the order-consistency
    commands share, decides a comparison on the keys alone when their gap
    outruns the comparison tolerance.

    Identical keys give bit-identical values by construction for the
    angle measures keyed on ``cc``: their kernels memoize each angle on
    ``(value_key(cc), mp.prec)`` (:func:`_angle`), and a miss reads only
    the key's representation and the precision.
    """

    measure: str
    decreasing: bool
    slope: int


class _Base(NamedTuple):
    """One base measure.  ``order`` is its :class:`OrderKey`, or None;
    averaged forms of a keyed measure have none."""

    label: str
    arity: str
    orientation: str
    exact: bool
    kernel: Callable[..., Value]
    audit_only: bool = False
    order: OrderKey | None = None


#: One row per base measure.  ``f`` and ``gm`` also take beta / r; their
#: rows give the label and exactness at beta = 1 and r = 1.  The angle
#: measures are keyed on ``cc``: |acos'| >= 1 and pi < 4 bound cd's
#: 1/|slope| by 4, and sqrt(2(1 - cc)) <= 2 bounds cdprime's by 2.
_BASES = {
    "acc": _Base("accuracy", "multiclass", SIMILARITY, True, accuracy),
    "ba": _Base("balanced accuracy", "multiclass", SIMILARITY, True, balanced_accuracy),
    "sba": _Base("symmetric balanced accuracy", "multiclass", SIMILARITY, True,
                 symmetric_balanced_accuracy),
    "kappa": _Base("Cohen's kappa", "multiclass", SIMILARITY, True, cohens_kappa),
    "cc": _Base("correlation coefficient", "multiclass", SIMILARITY, True, matthews_cc),
    "ce": _Base("confusion entropy", "multiclass", DISSIMILARITY, False, confusion_entropy),
    "cd": _Base("correlation distance", "multiclass", DISSIMILARITY, False, correlation_distance,
                order=OrderKey("cc", True, 4)),
    "cdprime": _Base("chordal distance", "multiclass", DISSIMILARITY, False, chordal_distance,
                     order=OrderKey("cc", True, 2)),
    "f": _Base("F1", "binary", SIMILARITY, True, f_beta),
    "jaccard": _Base("Jaccard index", "binary", SIMILARITY, True, jaccard),
    "gm": _Base("GM(r=1)", "binary", SIMILARITY, True, generalized_means),
    "netagree": _Base("net agreement", "binary", SIMILARITY, True, net_agreement, True),
    "anyagree": _Base("any-agreement indicator", "binary", SIMILARITY, True, any_agreement, True),
}


def _base_descriptor(base: str, beta=None, r=None) -> MeasureDescriptor:
    row = _BASES.get(base)
    if row is None:
        raise MeasureParseError(f"unknown measure {base!r}")
    measure_id, label, exact = base, row.label, row.exact
    if base == "f":
        beta = _frac(Fraction(1) if beta is None else beta)
        if beta <= 0:
            raise MeasureParseError(f"beta must be positive, got {beta}")
        measure_id = f"f:beta={beta}"
        if beta != 1:
            label = f"F(beta={beta})"
    elif base == "gm":
        r = _normalize_r(1 if r is None else r)
        if r == 0:
            raise MeasureParseError("gm needs a nonzero r (r->0 limit is cc)")
        if abs(r) > GM_R_MAX:
            raise MeasureParseError(f"gm needs |r| <= {GM_R_MAX}")
        measure_id, label, exact = f"gm:r={r}", f"GM(r={r})", isinstance(r, int)
    return MeasureDescriptor(
        measure_id, base, label, row.arity, row.orientation, exact,
        beta=beta, r=r, audit_only=row.audit_only,
    )


_ROOT_VALUED_BASES = {"cc", "gm"}
SCHEMES = ("micro", "macro", "weighted")


def with_scheme(desc: MeasureDescriptor, scheme: str) -> MeasureDescriptor:
    """Derive the micro/macro/weighted extension of a measure."""
    if scheme not in SCHEMES:
        raise MeasureParseError(f"unknown averaging scheme {scheme!r}")
    if desc.scheme is not None:
        raise MeasureParseError(f"{desc.measure_id} already has a scheme")
    exact = desc.exact
    if scheme in ("macro", "weighted") and desc.base in _ROOT_VALUED_BASES:
        exact = False  # sums of unlike radicals are evaluated numerically
    return replace(
        desc,
        measure_id=f"{desc.measure_id}:{scheme}",
        label=f"{desc.label}, {scheme}",
        arity="multiclass",
        scheme=scheme,
        exact=exact,
    )


#: Largest |r| accepted for ``gm``.  The exact value raises the margin
#: variances to the power r: on two 100k-count matrices that took 0.18 s
#: at r=64 and 80 s at r=256.
GM_R_MAX = 64


def _parse_number(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise MeasureParseError(f"zero denominator in numeric parameter {text!r}") from None
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        raise MeasureParseError(f"cannot parse numeric parameter {text!r}") from None
    if not isfinite(value):
        raise MeasureParseError(f"numeric parameter {text!r} is not finite")
    return value


@lru_cache(maxsize=None)
def parse_measure_id(measure_id: str) -> MeasureDescriptor:
    """Parse ``name[:param=value][:scheme]`` into a descriptor.

    Examples: ``acc``, ``f:beta=2``, ``gm:r=-1:macro``, ``cc:weighted``.
    """
    parts = measure_id.strip().split(":")
    if not parts or not parts[0]:
        raise MeasureParseError(f"empty measure id {measure_id!r}")
    base, params = parts[0].lower(), parts[1:]
    scheme = None
    if params and params[-1].lower() in SCHEMES:
        scheme = params.pop().lower()
    beta = r = None
    for p in params:
        if "=" not in p:
            raise MeasureParseError(f"expected key=value parameter, got {p!r}")
        key, _, raw = p.partition("=")
        key = key.strip().lower()
        val = _parse_number(raw.strip())
        if key == "beta":
            beta = val
        elif key == "r":
            r = val
        else:
            raise MeasureParseError(f"unknown parameter {key!r} for {base!r}")
    if beta is not None and base != "f":
        raise MeasureParseError("beta only applies to f")
    if r is not None and base != "gm":
        raise MeasureParseError("r only applies to gm")
    desc = _base_descriptor(base, beta=beta, r=r)
    if scheme is not None:
        desc = with_scheme(desc, scheme)
    return desc


#: The measures of the main comparison grid, in presentation order.
CANONICAL_IDS = (
    "f:beta=1",
    "jaccard",
    "cc",
    "acc",
    "ba",
    "kappa",
    "ce",
    "sba",
    "gm:r=1",
    "cd",
)

#: Measures entering the order-consistency analysis.
CONSISTENCY_IDS = ("acc", "ba", "f:beta=1", "kappa", "ce", "gm:r=1", "cc", "sba")

#: Unnormalized helper measures used only inside property audits.
AUDIT_ONLY_IDS = ("netagree", "anyagree")


# ---------------------------------------------------------------------------
# evaluation


_EXTENDERS = {scheme: f"{scheme}_extend" for scheme in SCHEMES}


def check_arity(desc: MeasureDescriptor, m: int) -> None:
    """Raise :class:`MeasureArityError` if ``desc`` has no value at m classes."""
    if desc.arity == "binary" and m != 2:
        raise MeasureArityError(
            f"{desc.measure_id} is binary-only; use an averaging scheme for m={m}"
        )


def evaluate(desc: MeasureDescriptor, C: ConfusionMatrix) -> Value:
    """Evaluate a measure described by ``desc`` on a confusion matrix."""
    if desc.scheme is not None:
        # Looked up on the module on each call, so wrappers installed
        # there (tracing) see every extension.
        return getattr(averaging, _EXTENDERS[desc.scheme])(desc.kernel, C)
    if desc.arity == "binary":
        check_arity(desc, C.m)
    return desc.kernel(C)


def oriented(desc: MeasureDescriptor, value: Value) -> Value:
    """Flip dissimilarities so that larger always means better."""
    if desc.orientation == DISSIMILARITY:
        return -value
    return value


#: Slack of the order-key decisions of :meth:`Evaluator.compare`, both in
#: the key gap and as the least ``eps`` at which equal keys are a tie; see
#: there for the error budget it covers.
KEY_SLACK = 2.0**-40


def _near_float(k) -> float:
    """A float within 2**-51 of an order key k in [-1, 1]: a rational
    rounded once, or a square root ``c * sqrt(r)`` (cc's only irrational
    form) as the signed ``sqrt`` of its square rounded once; both
    roundings are correct, so the error stays absolute near 0."""
    if type(k) is Root:
        c, r = k.coeff, k.radicand
        square = c.numerator**2 * r.numerator / (c.denominator**2 * r.denominator)
        return copysign(sqrt(square), c.numerator)
    return k.numerator / k.denominator


class Evaluator:
    """One measure's values, memoized on the entries of the matrix, and
    the one comparison of two matrices under it.

    :meth:`value` is the value :func:`evaluate` gives, and :meth:`oriented`
    flips it as :func:`oriented` does.  A descriptor with a scheme also
    hands its extender a memo of the binary kernel's class values, keyed
    on the counts that fix each one-vs-all matrix ``(n, a_i, b_i, c_ii)``
    and the micro matrix ``(m, n, diagonal_sum)``: those recur across the
    matrices of a space, and a 2x2 matrix is built only on a miss.
    Matrices with Fraction entries bypass that memo.  A measure with an
    :class:`OrderKey` (``cd`` and ``cdprime``, keyed on ``cc``) also keeps
    a key memo: the exact key of each matrix with a float near it.
    :meth:`compare` reads the keys first and a value only where they do
    not settle the comparison.  Nothing is shared between instances: an
    evaluator lives as long as the computation that holds it.
    """

    def __init__(self, desc: MeasureDescriptor):
        self.desc = desc
        self._memo: dict = {}
        self._class_memo: dict = {}
        self._extend = _EXTENDERS.get(desc.scheme)  # the extender's name, or None
        self._flip = desc.orientation == DISSIMILARITY
        self._order = order = desc.order_key
        if order is not None:
            self._key_desc = parse_measure_id(order.measure)
            self._keys: dict = {}
            # The sign of the oriented comparison when the first key is larger.
            self._key_sign = 1 if order.decreasing == self._flip else -1

    def value(self, C: ConfusionMatrix) -> Value:
        v = self._memo.get(C.entries)
        if v is None:
            v = self._memo[C.entries] = self._miss(C)
        return v

    def oriented(self, C: ConfusionMatrix) -> Value:
        value = self.value(C)
        return -value if self._flip else value

    def _miss(self, C: ConfusionMatrix) -> Value:
        # Looked up at call time, so a wrapped evaluate or extender sees every miss.
        if self._extend is None:
            return evaluate(self.desc, C)
        return getattr(averaging, self._extend)(self.desc.kernel, C, self._class_memo)

    def key(self, C: ConfusionMatrix) -> tuple:
        """``(k, x)``: C's order key k, the key measure's exact value, and
        a float x within 2**-51 of it; kept per entries in the key memo."""
        got = self._keys.get(C.entries)
        if got is None:
            k = evaluate(self._key_desc, C)
            got = self._keys[C.entries] = k, _near_float(k)
        return got

    def compare(self, C1: ConfusionMatrix, C2: ConfusionMatrix, eps: float, value=None) -> int:
        """``value_cmp(oriented(C1), oriented(C2), eps)``: -1/0/+1 as the
        measure ranks C1 below/equal to/above C2.

        ``value``, when given, reads the two values in place of the memo.
        They are compared as they are, not negated (a negated mpf is
        rounded to the ambient precision), in the order that gives the
        oriented sign: ``value(C2)`` with ``value(C1)`` for a
        dissimilarity.

        A keyed measure reads the keys of C1 and C2 first, and the values
        only when the keys leave the comparison open, so its answer is
        the value comparison's at every ``eps >= 0`` (a negative or nan
        ``eps`` falls outside the proof and is compared on the values):

        * a key gap above ``g * eps * (1 + s) + s`` (g the key's slope
          bound, s = :data:`KEY_SLACK`) is the comparison's sign;
        * at ``eps >= s``, exactly equal keys are a tie.

        The error budget, for keys in [-1, 1], angles computed at 30 or
        more digits (unit roundoff u <= 2**-103) and an ambient precision
        of 53 bits or more (mpmath's default), at which :meth:`oriented`
        negates: the key floats are within 2**-51 of the keys, so their
        difference is within 2**-49 of the true gap.  An angle's argument,
        cc rounded to mpf, is within 8u of cc; acos and sqrt(2(1 - x))
        move by at most 2 sqrt(h) and sqrt(2h) when x moves by h, so with
        the roundings that follow, the negation included, each value is
        within E = 2**-48 of its true value.  Keys d apart give true
        values at least d / g apart, so the computed difference, rounded
        once more, exceeds ``eps`` with the key's sign once d > g * eps *
        (1 + 2**-101) + 2 g E + 2**-49; the threshold covers that, with
        room for its own roundings, as g <= 4.  Equal keys give equal true
        values, so computed values at most 2E (1 + u) < 2**-46 <= s apart.
        """
        # value_cmp is looked up at call time, so a wrapped one (tracing)
        # sees every comparison.
        order = self._order
        if order is not None and eps >= 0:
            (k1, x1), (k2, x2) = self.key(C1), self.key(C2)
            gap, bound = x1 - x2, order.slope * eps * (1 + KEY_SLACK) + KEY_SLACK
            if gap > bound:
                return self._key_sign
            if -gap > bound:
                return -self._key_sign
            if eps >= KEY_SLACK and values.value_cmp(k1, k2) == 0:
                return 0
        if value is None:
            return values.value_cmp(self.oriented(C1), self.oriented(C2), eps)
        if self._flip:
            C1, C2 = C2, C1
        return values.value_cmp(value(C1), value(C2), eps)
