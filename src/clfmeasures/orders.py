"""Flatness of binary measures around the independence baseline.

Scale invariance lets every binary measure act on joint rates instead of
counts: with ``p_a``, ``p_b`` the positive rates of the two labelings and
``p_ab`` their joint positive rate, the measure is evaluated on the 2x2
matrix of cell rates with unit mass.  Under margin-preserving
randomization the expected joint rate is ``p_a * p_b``, so the behaviour
of a measure near chance level is its behaviour in ``p_ab`` around that
product point.

:func:`baseline_order` measures how flat that behaviour is.  A measure
has baseline order k when its value at the product point is one constant
for every margin pair and its derivatives in ``p_ab`` of orders 2..k all
vanish there (order 1 is the bare constant-baseline statement; the first
derivative never vanishes for a non-degenerate measure, so it carries no
information).  Derivatives are estimated by central differences with
Richardson extrapolation, evaluated at exact rational abscissae under
high-precision arithmetic; round-off is driven far below the vanishing
threshold, so the verdicts are clean.

The probe evaluates on the integer lattice rather than on rate matrices.
At each grid point one scale ``D`` clears the denominators of ``p_a``,
``p_b``, the product point and the half step, and every abscissa is
evaluated on the int matrix ``D`` times its rates (:func:`lattice_matrix`),
so the kernels run on int entries, their cheapest input.  Scale
invariance gives the same values as on the rates (:func:`rate_matrix`
stays the reference), and one ``D`` per point gives every root-valued
abscissa the same radicand, so the stencil sums of ``cc`` and ``gm``
stay exact.  The
audit-only measures are not scale-free and are refused.  Grid margins
must be rationals (int or Fraction): a float is not the rational it
stands for, and float abscissae round away the small differences the
probe measures.

An exact stencil is summed on ints.  When its values are all rational,
or all share one radical with every rational value 0 (every exact
measure on the lattice, as one ``D`` gives one radicand and ``cc`` is 0
at the product point), the coarse and fine stencils, their step
scalings and the Richardson weights fold into one int weight per
abscissa, and the estimate is one Fraction, times the radical if there
is one.  The sum is exact, so its order does not matter.  Any other
stencil (mpf values, mixed kinds, unlike radicals) goes through the
two-stage order of operations: weight each stencil value and sum per
stencil, scale each sum by its step, then combine the two sums by
Richardson extrapolation.  The mpf bits of the transcendental measures
(``cd``, ``cdprime``, ``ce``), and so the reported ``max_abs`` noise,
depend on that order.  The stencil and Richardson weights are converted
to mpf once, at :data:`ORDER_DPS`, rather than on every product.

Each distinct stencil is estimated once per probe.  An estimate depends
only on the step ``h`` and on the values it reads, so a memo local to
the call of :func:`baseline_order`, keyed on ``h`` and the
:func:`clfmeasures.values.value_key` of each value read, serves every
grid point with that stencil the same floats.  Swapped and complemented
margins share a stencil: the 361 points of the default grid hold 55
distinct stencils for ``cd``, ``cdprime`` and ``cc``.  Every value is
still evaluated, as the key needs it; the angles of ``cd`` and
``cdprime`` are computed once per ``cc`` value by the measures' own memo
(:func:`clfmeasures.measures.correlation_distance`).

:func:`check_gm_normalizer_conditions` verifies the six conditions on a
normalizer s(p_a, p_b) under which s * (p_ab - p_a*p_b) retains the full
chance-correction property set, instantiated for the power-mean
normalizers of the generalized-means family.  Every condition is
decided exactly: the two bound conditions compare the root-valued
normalizer with its rational bound by :func:`clfmeasures.values.exact_cmp`,
and the two band conditions compare integer numerators over one
positive denominator per grid point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from numbers import Integral, Rational
from typing import Callable, Iterable, Sequence

from mpmath import fsum, mp, mpf

from .core import ConfusionMatrix, _with_margins
from .measures import evaluate, parse_measure_id, power_mean_ratio
from .values import (
    Root, Value, as_float, exact_cmp, is_exact, scale, to_mpf, value_cmp, value_key,
    value_sum,
)

ORDER_DPS = 40
DEFAULT_ZERO_TOL = 1e-6
#: Step size as a fraction of the feasible p_ab interval's width.
DEFAULT_H_SCALE = Fraction(1, 10**4)

RatePair = tuple[Fraction, Fraction]


def _grid_steps(steps) -> int:
    """``steps`` as an int of at least 2; anything else raises ``ValueError``."""
    if isinstance(steps, bool) or not isinstance(steps, Integral):
        raise ValueError(f"steps must be an int, got {steps!r}")
    if steps < 2:
        raise ValueError("steps must be at least 2")
    return int(steps)


def default_rate_grid(steps: int = 20) -> tuple[RatePair, ...]:
    """All interior margin pairs (k/steps, l/steps), k,l = 1..steps-1."""
    steps = _grid_steps(steps)
    qs = [Fraction(k, steps) for k in range(1, steps)]
    return tuple((pa, pb) for pa in qs for pb in qs)


def feasible_joint_interval(p_a: Fraction, p_b: Fraction) -> tuple[Fraction, Fraction]:
    """Range of joint rates compatible with the margins (Frechet bounds)."""
    lo = max(Fraction(0), p_a + p_b - 1)
    hi = min(p_a, p_b)
    return lo, hi


def rate_matrix(p_ab, p_a, p_b) -> ConfusionMatrix:
    """The 2x2 matrix of joint rates, unit total, class 1 positive."""
    p_ab, p_a, p_b = Fraction(p_ab), Fraction(p_a), Fraction(p_b)
    if not (0 <= p_a <= 1 and 0 <= p_b <= 1):
        raise ValueError(f"margins must lie in [0, 1], got ({p_a}, {p_b})")
    lo, hi = feasible_joint_interval(p_a, p_b)
    if not lo <= p_ab <= hi:
        raise ValueError(f"joint rate {p_ab} outside feasible range [{lo}, {hi}]")
    return ConfusionMatrix(
        (
            (1 - p_a - p_b + p_ab, p_b - p_ab),
            (p_a - p_ab, p_ab),
        )
    )


def lattice_matrix(
    p_ab: Fraction, p_a: Fraction, p_b: Fraction, n: int
) -> ConfusionMatrix:
    """``n`` times :func:`rate_matrix`: the int matrix of total ``n``.

    Unchecked: ``n`` must be a positive multiple of the denominators of
    the three rates, and ``p_ab`` feasible for the margins.
    """

    def count(q: Fraction) -> int:
        return q.numerator * (n // q.denominator)

    a1, b1, c11 = count(p_a), count(p_b), count(p_ab)
    c00 = n - a1 - b1 + c11
    return _with_margins(
        ((c00, b1 - c11), (a1 - c11, c11)), (n - a1, a1), (n - b1, b1), n, c00 + c11
    )


# ---------------------------------------------------------------------------
# baseline order

# Central-difference weights per derivative order, on abscissae offset * h.
_STENCILS: dict[int, tuple[tuple[int, Fraction], ...]] = {
    2: ((1, Fraction(1)), (0, Fraction(-2)), (-1, Fraction(1))),
    3: (
        (2, Fraction(1, 2)),
        (1, Fraction(-1)),
        (-1, Fraction(1)),
        (-2, Fraction(-1, 2)),
    ),
    4: (
        (2, Fraction(1)),
        (1, Fraction(-4)),
        (0, Fraction(6)),
        (-1, Fraction(-4)),
        (-2, Fraction(1)),
    ),
}
MAX_PROBE_ORDER = max(_STENCILS)

# Each weight beside its mpf at ORDER_DPS, the precision the probe runs
# at: converted here once, not by ``scale`` on every product.
with mp.workdps(ORDER_DPS):
    _WEIGHTS = {
        l: tuple((off, w, to_mpf(w)) for off, w in stencil)
        for l, stencil in _STENCILS.items()
    }
    # Richardson's weights on the fine and the coarse estimate: central
    # stencils have an h^2 error series, and one extrapolation step
    # cancels its leading term.
    _FINE, _COARSE = ((w, to_mpf(w)) for w in (Fraction(4, 3), Fraction(-1, 3)))


def _folded_weights(l: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """``((j, u_j), ...), den``: the order-l estimate at step h is
    ``sum(u_j * v_j) / (den * h**l)`` over the values ``v_j`` at
    ``j*h/2``, with int ``u_j`` and ``den``.

    The fine stencil's weights times ``2**l`` (its ``1/(h/2)**l``) and
    Richardson's fine weight, plus the coarse stencil's weights at twice
    the offsets times Richardson's coarse weight.
    """
    folded: dict[int, Fraction] = {}
    for off, w in _STENCILS[l]:
        folded[off] = folded.get(off, 0) + _FINE[0] * 2**l * w
        folded[2 * off] = folded.get(2 * off, 0) + _COARSE[0] * w
    den = lcm(*(q.denominator for q in folded.values()))
    return tuple((j, int(q * den)) for j, q in sorted(folded.items())), den


_FOLDED = {l: _folded_weights(l) for l in _STENCILS}


@dataclass(frozen=True)
class DerivativeProbe:
    """Largest |d^l M / d p_ab^l| estimate over the grid, for one l."""

    order: int
    max_abs: float
    argmax: RatePair
    vanishes: bool

    def to_dict(self) -> dict:
        return {
            "order": self.order,
            "max_abs": self.max_abs,
            "argmax": [str(self.argmax[0]), str(self.argmax[1])],
            "vanishes": self.vanishes,
        }


@dataclass(frozen=True)
class BaselineOrderReport:
    """Outcome of the flatness probe for one measure."""

    measure_id: str
    grid_points: int
    baseline_constant: bool
    baseline_value: float
    baseline_spread: float
    probes: tuple[DerivativeProbe, ...]
    order: int
    order_saturated: bool  # every probed derivative vanished; order is a floor

    def to_dict(self) -> dict:
        return {
            "measure": self.measure_id,
            "grid_points": self.grid_points,
            "baseline_constant": self.baseline_constant,
            "baseline_value": self.baseline_value,
            "baseline_spread": self.baseline_spread,
            "order": self.order,
            "order_saturated": self.order_saturated,
            "derivatives": [p.to_dict() for p in self.probes],
        }


def _weighted(v: Value, w: Fraction, w_mpf) -> Value:
    """``scale(v, w)``, with ``w_mpf`` the mpf of ``w`` at the ambient
    precision: an exact ``v`` is scaled exactly, any other multiplied by
    ``w_mpf`` without converting ``w`` again."""
    if is_exact(v):
        return scale(v, w)
    return w_mpf * v


def _stage_sum(terms: list) -> Value:
    """``value_sum(terms)`` at ORDER_DPS; terms that are all mpf go
    straight to the ``mpmath.fsum`` it would call, with the same bits."""
    if all(type(t) is mpf for t in terms):
        return fsum(terms)
    return value_sum(terms)


def _richardson(coarse: Value, fine: Value) -> Value:
    return _stage_sum([_weighted(fine, *_FINE), _weighted(coarse, *_COARSE)])


def _rational_margin(x) -> Fraction:
    if isinstance(x, Rational) and not isinstance(x, bool):
        return Fraction(x)
    raise ValueError(f"grid margin must be a rational (int or Fraction), got {x!r}")


def _grid_pair(entry) -> RatePair:
    """A grid entry as a pair of rational margins; anything else raises
    ``ValueError`` naming the entry."""
    try:
        p_a, p_b = entry
    except (TypeError, ValueError):
        raise ValueError(
            f"grid entry must be a margin pair (p_a, p_b), got {entry!r}"
        ) from None
    return _rational_margin(p_a), _rational_margin(p_b)


def _stencil(desc, p_a: Fraction, p_b: Fraction):
    """Step ``h`` and the evaluations at ``p_a*p_b + j*h/2``, j = -4..4,
    computed on first use on one integer lattice."""
    lo, hi = feasible_joint_interval(p_a, p_b)
    if hi <= lo:
        raise ValueError(f"degenerate joint range at margins ({p_a}, {p_b})")
    x0 = p_a * p_b
    h = (hi - lo) * DEFAULT_H_SCALE
    half = h / 2
    reach = 2 * h
    if x0 - reach <= lo or x0 + reach >= hi:
        raise ValueError(f"stencil leaves the feasible range at margins ({p_a}, {p_b})")
    D = lcm(p_a.denominator, p_b.denominator, x0.denominator, half.denominator)
    cache: dict[int, Value] = {}

    def at(j: int) -> Value:
        if j not in cache:
            cache[j] = evaluate(desc, lattice_matrix(x0 + j * half, p_a, p_b, D))
        return cache[j]

    return h, at


def _exact_estimate(terms, den: int, h: Fraction, l: int) -> float | None:
    """``abs(sum(u * v) / (den * h**l))`` over the ``(u, v)`` of ``terms``,
    summed on ints, when the values ``v`` are all rational, or all share
    one radical with every rational ``v`` 0; ``None`` for any other
    stencil."""
    radical = None
    nonzero_rational = False
    parts = []
    for u, v in terms:
        kind = type(v)
        if kind is Root:
            if radical is None:
                radical = (v.radicand, v.index)
            elif (v.radicand, v.index) != radical:
                return None
            v = v.coeff
        elif kind is Fraction or kind is int:
            nonzero_rational = nonzero_rational or v != 0
        else:
            return None
        parts.append((u * v.numerator, v.denominator))
    if radical is not None and nonzero_rational:
        return None
    common = lcm(*(q for _, q in parts))
    total = sum(p * (common // q) for p, q in parts)
    coeff = Fraction(total * h.denominator**l, common * den * h.numerator**l)
    if radical is None or total == 0:
        return abs(as_float(coeff))
    return abs(as_float(Root(coeff, *radical)))


def _derivative_estimates(h: Fraction, at, orders: Sequence[int]) -> dict[int, float]:
    """Richardson-extrapolated |d^l M / d p_ab^l| per order l, at ORDER_DPS.

    An exact stencil, all rational or one shared radical with its
    rational values 0, is summed on ints with the folded weights of
    :data:`_FOLDED` (:func:`_exact_estimate`); the result is exact, so
    it does not depend on the order of the sum.  Any other stencil keeps
    the two-stage order of operations: weight each stencil value, sum
    per stencil, scale each sum by its step, then extrapolate.  The mpf
    bits of the transcendental measures, and so the reported noise,
    depend on that order.

    The estimates read ``at`` only, at the abscissae of :data:`_FOLDED`,
    so equal ``h`` and identical values give identical floats:
    :func:`baseline_order` calls this once per distinct stencil, keyed on
    ``h`` and the :func:`clfmeasures.values.value_key` of those values.
    """
    half = h / 2
    out: dict[int, float] = {}
    for l in orders:
        folded, den = _FOLDED[l]
        est = _exact_estimate([(u, at(j)) for j, u in folded], den, h, l)
        if est is not None:
            out[l] = est
            continue
        weights = _WEIGHTS[l]
        coarse = _stage_sum([_weighted(at(2 * off), w, wm) for off, w, wm in weights])
        fine = _stage_sum([_weighted(at(off), w, wm) for off, w, wm in weights])
        coarse = scale(coarse, Fraction(1) / h**l)
        fine = scale(fine, Fraction(1) / half**l)
        out[l] = abs(as_float(_richardson(coarse, fine)))
    return out


def _probe_order(l_max) -> int:
    """``l_max`` as an int in 1..MAX_PROBE_ORDER; anything else raises
    ``ValueError``."""
    if isinstance(l_max, bool) or not isinstance(l_max, Integral):
        raise ValueError(f"l_max must be an int, got {l_max!r}")
    if not 1 <= l_max <= MAX_PROBE_ORDER:
        raise ValueError(f"l_max must be in 1..{MAX_PROBE_ORDER}")
    return int(l_max)


def baseline_order(
    measure,
    l_max: int = 3,
    grid: Iterable[RatePair] | None = None,
) -> BaselineOrderReport:
    """Probe the flatness of a binary measure at the independence point.

    Returns a report whose ``order`` is the largest k <= l_max such that
    the baseline value is one constant across the grid and the
    derivative estimates of orders 2..k stay below ``DEFAULT_ZERO_TOL``
    at every grid point.  ``order`` is 0 when even the baseline is not constant.
    ``grid`` is any iterable of margin pairs, read once.  Audit-only
    measures, an ``l_max`` that is not an int in 1..MAX_PROBE_ORDER, an
    empty grid, a grid entry that is not a pair and grid margins that are
    not rationals raise ``ValueError``.
    """
    desc = parse_measure_id(measure) if isinstance(measure, str) else measure
    if desc.audit_only:
        raise ValueError(
            f"{desc.measure_id} is audit-only: it is not scale-free, so it has "
            "no value on rates"
        )
    l_max = _probe_order(l_max)
    if grid is None:
        grid = default_rate_grid()
    grid = [_grid_pair(entry) for entry in grid]
    if not grid:
        raise ValueError("empty rate grid")
    for p_a, p_b in grid:
        if not (0 < p_a < 1 and 0 < p_b < 1):
            raise ValueError(f"grid margins must be interior, got ({p_a}, {p_b})")
    orders = range(2, l_max + 1)
    # The abscissae the estimates of these orders read.
    reads = sorted({j for l in orders for j, _ in _FOLDED[l][0]})
    estimates: dict[tuple, dict[int, float]] = {}
    worst: dict[int, tuple[float, RatePair]] = {l: (-1.0, grid[0]) for l in orders}
    base_first: float | None = None
    base_spread = 0.0
    with mp.workdps(ORDER_DPS):
        for p_a, p_b in grid:
            h, at = _stencil(desc, p_a, p_b)
            v0 = as_float(at(0))
            if base_first is None:
                base_first = v0
            base_spread = max(base_spread, abs(v0 - base_first))
            stencil = h, *(value_key(at(j)) for j in reads)
            ests = estimates.get(stencil)
            if ests is None:
                ests = estimates[stencil] = _derivative_estimates(h, at, orders)
            for l, est in ests.items():
                if est > worst[l][0]:
                    worst[l] = (est, (p_a, p_b))
    probes = tuple(
        DerivativeProbe(l, worst[l][0], worst[l][1], worst[l][0] < DEFAULT_ZERO_TOL)
        for l in orders
    )
    constant = base_spread < DEFAULT_ZERO_TOL
    order = 0
    saturated = False
    if constant:
        order = 1
        for probe in probes:
            if not probe.vanishes:
                break
            order = probe.order
        else:
            saturated = l_max > 1
    return BaselineOrderReport(
        measure_id=desc.measure_id,
        grid_points=len(grid),
        baseline_constant=constant,
        baseline_value=base_first,
        baseline_spread=base_spread,
        probes=probes,
        order=order,
        order_saturated=saturated,
    )


# ---------------------------------------------------------------------------
# normalizer conditions for the chance-corrected family


def _margin_variance(p: Fraction) -> Fraction:
    """``p * (1 - p)``, built as one Fraction from the ints of ``p``."""
    n, d = p.numerator, p.denominator
    return Fraction(n * (d - n), d * d)


def _nonzero_int(r) -> int:
    """``r`` as an int; a non-integer, bool or zero ``r`` raises ``ValueError``."""
    try:
        k = int(r)
    except (TypeError, ValueError, OverflowError):
        k = None
    if k is None or k != r or isinstance(r, bool):
        raise ValueError(f"r must be an integer, got {r!r}")
    if k == 0:
        raise ValueError("r must be nonzero")
    return k


def gm_normalizer(r: int) -> Callable[[Fraction, Fraction], Value]:
    """The power-mean normalizer s(p_a, p_b) of the generalized means.

    s is the reciprocal of the r-power mean of the two margin variances
    x = p_a(1-p_a) and y = p_b(1-p_b); the measure itself is
    s * (p_ab - p_a*p_b).  Exact (Fraction or Root); ``r`` must be a
    nonzero integer.
    """
    r = _nonzero_int(r)

    def s(p_a, p_b) -> Value:
        x = _margin_variance(Fraction(p_a))
        y = _margin_variance(Fraction(p_b))
        if x == 0 or y == 0:
            raise ValueError("normalizer undefined on constant margins")
        return power_mean_ratio(1, x, y, r)

    return s


def _bands(N: int, k: int, l: int, w_x: int, w_y: int):
    """Conditions 5 and 6 at p_a = k/N, p_b = l/N, on integers.

    The two margins' terms are weighted ``w_x/t`` and ``w_y/t``, with
    ``t = w_x + w_y > 0``.  Returns ``(g, lo, hi, den)`` per condition:
    the derivative of log s is ``g/den`` and its band ``[lo/den,
    hi/den]``.  ``den > 0`` is ``t*(N-k)*(N-l)`` for condition 5 and
    ``t*k*(N-l)`` for condition 6, so each decision is one of ints.
    """
    ck, cl = N - k, N - l
    t = w_x + w_y
    lean_a = (2 * k - N) * cl  # 2p_a - 1, scaled
    den5 = t * ck * cl
    band5 = (
        w_x * lean_a + w_y * (2 * l - N) * ck,
        min(-2 * den5, -t * (ck * cl + k * l)),
        t * max(lean_a, (2 * l - N) * ck),
        den5,
    )
    band6 = (
        w_x * lean_a + w_y * (N - 2 * l) * k,
        t * min(lean_a, (N - 2 * l) * k),
        t * max(k * cl + l * ck, 2 * k * cl),
        t * k * cl,
    )
    return band5, band6


class ConditionReport:
    """One normalizer condition checked over the margin grid, filled in
    point by point."""

    def __init__(self, condition: int, description: str):
        self.condition = condition
        self.description = description
        self.checked = 0
        self.equality_points = 0
        self.min_strict_margin: float | None = None
        self.failures: list[dict] = []

    @property
    def holds(self) -> bool:
        return not self.failures

    def check(self, ok: bool, p_a, p_b, detail: str, **extra) -> None:
        self.checked += 1
        if not ok and len(self.failures) < 5:  # keep the first few; counts say the rest
            self.failures.append({"p_a": str(p_a), "p_b": str(p_b), "detail": detail, **extra})

    def strict(self, ok: bool, margin: float, p_a, p_b, detail: str) -> None:
        """A strict inequality decided exactly as ``ok``; ``margin`` is its
        slack as a float, for the report."""
        if self.min_strict_margin is None or margin < self.min_strict_margin:
            self.min_strict_margin = margin
        self.check(ok, p_a, p_b, detail, margin=margin)

    def equality_point(self, ok: bool, p_a, p_b, detail: str) -> None:
        self.equality_points += 1
        self.check(ok, p_a, p_b, detail)

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "description": self.description,
            "holds": self.holds,
            "checked": self.checked,
            "equality_points": self.equality_points,
            "min_strict_margin": self.min_strict_margin,
            "failures": list(self.failures),
        }


def _minus(v: Value) -> Value:
    return scale(v, Fraction(-1))


def check_gm_normalizer_conditions(r: int, steps: int = 20) -> dict:
    """Check the six normalizer conditions for the power-mean family.

    The conditions guarantee that s(p_a, p_b) * (p_ab - p_a*p_b) keeps
    the whole chance-correction property set.  They are checked on the
    interior grid of margin pairs (k/steps, l/steps):

    1. s is invariant under swapping its arguments and under jointly
       complementing them (exact).
    2. s(p, p) = s(p, 1-p) = 1/(p(1-p)) (exact).
    3. s stays below max(1/(p_a p_b), 1/((1-p_a)(1-p_b))); the bound is
       only asserted away from complementary margins, where it is not
       required.  Strict, compared exactly.
    4. s stays below max(1/(p_a(1-p_b)), 1/((1-p_a)p_b)) away from equal
       margins; strict, compared exactly.
    5. The scaling derivative (p_a d/dp_a + p_b d/dp_b) log s lies in
       its admissible band.  For power means it is the weight-averaged
       combination of the band's upper-edge terms, so it touches the
       edge exactly when the margins are equal; elsewhere the check is
       strict.
    6. The shear derivative ((1-p_a) d/dp_a - p_b d/dp_b) log s lies in
       its band, touching the lower edge exactly on complementary
       margins; elsewhere strict.

    Conditions 5 and 6 are decided on integers: with p_a = k/steps and
    p_b = l/steps, the derivative, the band edges and the slack are
    numerators over one positive int denominator per point
    (:func:`_bands`), and a reported slack is the float of that exact
    ratio.  A finite-difference probe of ds/dp_a against its closed form
    guards the derivative algebra used by conditions 5 and 6.  ``r``
    must be a nonzero integer and ``steps`` an int of at least 2;
    otherwise ``ValueError``.
    """
    r = _nonzero_int(r)
    N = _grid_steps(steps)
    s = gm_normalizer(r)
    ks = range(1, N)
    q = {k: Fraction(k, N) for k in ks}  # the margin k/N

    c1 = ConditionReport(1, "invariant under argument swap and joint complement")
    c2 = ConditionReport(2, "equals 1/(p(1-p)) on equal and complementary margins")
    c3 = ConditionReport(3, "below the same-sign product bound (off complements)")
    c4 = ConditionReport(4, "below the cross-sign product bound (off equals)")
    c5 = ConditionReport(5, "scaling derivative of log s within its band")
    c6 = ConditionReport(6, "shear derivative of log s within its band")

    fd_worst = 0.0
    delta = Fraction(1, 10**7)
    fd_scale = Fraction(1, 2) / delta

    # N^2 times the margin variance of k/N, and its |r|-th power.  With
    # X, Y those of p_a, p_b, the margins' weights x^r/(x^r + y^r) and
    # y^r/(x^r + y^r) are W_X/T and W_Y/T, T = W_X + W_Y, for
    # (W_X, W_Y) = (X^r, Y^r) when r > 0 and (Y^|r|, X^|r|) when r < 0.
    variance = {k: k * (N - k) for k in ks}
    power = {k: variance[k] ** abs(r) for k in ks}

    with mp.workdps(ORDER_DPS):
        # s once per grid point, each at its own arguments: condition 1
        # compares values computed independently of each other.
        S = {(k, l): s(q[k], q[l]) for k in ks for l in ks}
        for k in ks:
            target = Fraction(N * N, variance[k])
            c2.check(
                value_cmp(S[k, k], target) == 0, q[k], q[k], "s(p, p) != 1/(p(1-p))"
            )
            c2.check(
                value_cmp(S[k, N - k], target) == 0,
                q[k],
                q[N - k],
                "s(p, 1-p) != 1/(p(1-p))",
            )
        for k, l in S:
            p_a, p_b = q[k], q[l]
            s_val = S[k, l]
            c1.check(value_cmp(s_val, S[l, k]) == 0, p_a, p_b, "swap changes s")
            c1.check(
                value_cmp(s_val, S[N - k, N - l]) == 0,
                p_a,
                p_b,
                "joint complement changes s",
            )

            # The complements of k and l: 1 - p_a = ck/N, 1 - p_b = cl/N.
            ck, cl = N - k, N - l
            same = Fraction(N * N, min(k * l, ck * cl))
            cross = Fraction(N * N, min(k * cl, ck * l))
            for cond, asserted, bound, sign in (
                (c3, l != ck, same, "same"),
                (c4, l != k, cross, "cross"),
            ):
                if asserted:
                    margin = as_float(value_sum([bound, _minus(s_val)]))
                    ok = exact_cmp(s_val, bound) < 0
                    cond.strict(ok, margin, p_a, p_b, f"{sign}-sign bound violated")

            w_x, w_y = (power[k], power[l]) if r > 0 else (power[l], power[k])
            band5, band6 = _bands(N, k, l, w_x, w_y)
            for cond, touches, (g, lo, hi, den), where in (
                (c5, k == l, band5, "equal"),
                (c6, l == ck, band6, "complementary"),
            ):
                if touches:
                    detail = f"band violated on {where} margins"
                    cond.equality_point(lo <= g <= hi, p_a, p_b, detail)
                else:
                    # num / den is correctly rounded: the float of the
                    # rational slack.
                    slack = min(g - lo, hi - g)
                    detail = f"band not strict off {where} margins"
                    cond.strict(slack > 0, slack / den, p_a, p_b, detail)

            # ds/dp_a = s * (2p_a - 1)/x * W_X/T, with x = X/N^2.
            slope = Fraction((2 * k - N) * N * w_x, variance[k] * (w_x + w_y))
            closed = scale(s_val, slope)
            fd = scale(
                value_sum([s(p_a + delta, p_b), _minus(s(p_a - delta, p_b))]),
                fd_scale,
            )
            err = abs(as_float(value_sum([fd, _minus(closed)])))
            rel = err / max(1.0, abs(as_float(closed)))
            fd_worst = max(fd_worst, rel)

    conditions = [c1, c2, c3, c4, c5, c6]
    all_hold = all(c.holds for c in conditions)
    partial = {
        "max_rel_error": fd_worst,
        "tolerance": 1e-6,
        "ok": fd_worst < 1e-6,
    }
    return {
        "r": r,
        "grid_steps": N,
        "conditions": conditions,
        "all_hold": all_hold,
        "partial_check": partial,
        "all_ok": all_hold and partial["ok"],
    }
