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

:func:`check_gm_normalizer_conditions` verifies the six conditions on a
normalizer s(p_a, p_b) under which s * (p_ab - p_a*p_b) retains the full
chance-correction property set, instantiated for the power-mean
normalizers of the generalized-means family.  Every condition is
decided exactly: the two bound conditions compare the root-valued
normalizer with its rational bound by :func:`clfmeasures.values.exact_cmp`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from numbers import Rational
from typing import Callable, Sequence

from mpmath import mp

from .core import ConfusionMatrix, _with_margins
from .measures import evaluate, parse_measure_id, power_mean_ratio
from .values import Value, as_float, exact_cmp, scale, value_cmp, value_sum

ORDER_DPS = 40
DEFAULT_ZERO_TOL = 1e-6
#: Step size as a fraction of the feasible p_ab interval's width.
DEFAULT_H_SCALE = Fraction(1, 10**4)

RatePair = tuple[Fraction, Fraction]


def default_rate_grid(steps: int = 20) -> tuple[RatePair, ...]:
    """All interior margin pairs (k/steps, l/steps), k,l = 1..steps-1."""
    if steps < 2:
        raise ValueError("steps must be at least 2")
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


def _richardson(coarse: Value, fine: Value) -> Value:
    # Central stencils have an h^2 error series; one extrapolation step
    # cancels the leading term.
    return value_sum([scale(fine, Fraction(4, 3)), scale(coarse, Fraction(-1, 3))])


def _rational_margin(x) -> Fraction:
    if isinstance(x, Rational) and not isinstance(x, bool):
        return Fraction(x)
    raise ValueError(f"grid margin must be a rational (int or Fraction), got {x!r}")


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


def _derivative_estimates(h: Fraction, at, orders: Sequence[int]) -> dict[int, float]:
    half = h / 2
    out: dict[int, float] = {}
    for l in orders:
        weights = _STENCILS[l]
        coarse = value_sum([scale(at(2 * off), w) for off, w in weights])
        fine = value_sum([scale(at(off), w) for off, w in weights])
        coarse = scale(coarse, Fraction(1) / h**l)
        fine = scale(fine, Fraction(1) / half**l)
        out[l] = abs(as_float(_richardson(coarse, fine)))
    return out


def baseline_order(
    measure,
    l_max: int = 3,
    grid: Sequence[RatePair] | None = None,
) -> BaselineOrderReport:
    """Probe the flatness of a binary measure at the independence point.

    Returns a report whose ``order`` is the largest k <= l_max such that
    the baseline value is one constant across the grid and the
    derivative estimates of orders 2..k stay below ``DEFAULT_ZERO_TOL``
    at every grid point.  ``order`` is 0 when even the baseline is not constant.
    Audit-only measures, and grid margins that are not rationals, raise
    ``ValueError``.
    """
    desc = parse_measure_id(measure) if isinstance(measure, str) else measure
    if desc.audit_only:
        raise ValueError(
            f"{desc.measure_id} is audit-only: it is not scale-free, so it has "
            "no value on rates"
        )
    if not 1 <= l_max <= MAX_PROBE_ORDER:
        raise ValueError(f"l_max must be in 1..{MAX_PROBE_ORDER}")
    if grid is None:
        grid = default_rate_grid()
    if not grid:
        raise ValueError("empty rate grid")
    grid = [tuple(map(_rational_margin, pair)) for pair in grid]
    for p_a, p_b in grid:
        if not (0 < p_a < 1 and 0 < p_b < 1):
            raise ValueError(f"grid margins must be interior, got ({p_a}, {p_b})")
    orders = range(2, l_max + 1)
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
            ests = _derivative_estimates(h, at, orders)
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
    return p * (1 - p)


def _nonzero_int(r) -> int:
    """``r`` as an int; a non-integer or zero ``r`` raises ``ValueError``."""
    try:
        k = int(r)
    except (TypeError, ValueError, OverflowError):
        k = None
    if k is None or k != r:
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


def _power_weights(xr: Fraction, yr: Fraction) -> tuple[Fraction, Fraction]:
    """Weights xr/(xr+yr), yr/(xr+yr) of the r-th powers of the two margin
    variances."""
    total = xr + yr
    return xr / total, yr / total


def _log_slope(p: Fraction) -> Fraction:
    """(2p - 1)/(p(1-p)): the derivative of log s in its own margin, per
    unit weight of that margin's variance."""
    return (2 * p - 1) / _margin_variance(p)


def normalizer_partial_pa(p_a: Fraction, p_b: Fraction, r: int, s_val: Value) -> Value:
    """Closed form of ds/dp_a for the power-mean normalizer.

    The chain rule through the r-power mean gives
    ds/dp_a = s * (2p_a - 1)/x * x^r/(x^r + y^r).
    """
    w_x, _ = _power_weights(_margin_variance(p_a) ** r, _margin_variance(p_b) ** r)
    return scale(s_val, _log_slope(p_a) * w_x)


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
       strict.  Checked in exact rational arithmetic.
    6. The shear derivative ((1-p_a) d/dp_a - p_b d/dp_b) log s lies in
       its band, touching the lower edge exactly on complementary
       margins; elsewhere strict.  Exact rational arithmetic.

    A finite-difference probe of ds/dp_a against its closed form guards
    the rational derivative algebra used by conditions 5 and 6.  ``r``
    must be a nonzero integer.
    """
    r = _nonzero_int(r)
    s = gm_normalizer(r)
    qs = [Fraction(k, steps) for k in range(1, steps)]
    grid = default_rate_grid(steps)

    c1 = ConditionReport(1, "invariant under argument swap and joint complement")
    c2 = ConditionReport(2, "equals 1/(p(1-p)) on equal and complementary margins")
    c3 = ConditionReport(3, "below the same-sign product bound (off complements)")
    c4 = ConditionReport(4, "below the cross-sign product bound (off equals)")
    c5 = ConditionReport(5, "scaling derivative of log s within its band")
    c6 = ConditionReport(6, "shear derivative of log s within its band")

    fd_worst = 0.0
    delta = Fraction(1, 10**7)

    # The exact per-margin terms, once per margin rather than per pair.
    # qs is closed under p -> 1 - p.
    powers = {p: _margin_variance(p) ** r for p in qs}
    slope = {p: _log_slope(p) for p in qs}
    inverse = {p: 1 / p for p in qs}
    odds = {p: p / (1 - p) for p in qs}
    edge5 = {p: (2 * p - 1) / (1 - p) for p in qs}
    edge6 = {p: 2 - inverse[p] for p in qs}

    with mp.workdps(ORDER_DPS):
        # s once per grid point, each at its own arguments: condition 1
        # compares values computed independently of each other.
        S = {(p_a, p_b): s(p_a, p_b) for p_a, p_b in grid}
        for p in qs:
            target = 1 / _margin_variance(p)
            c2.check(
                value_cmp(S[p, p], target) == 0, p, p, "s(p, p) != 1/(p(1-p))"
            )
            c2.check(
                value_cmp(S[p, 1 - p], target) == 0,
                p,
                1 - p,
                "s(p, 1-p) != 1/(p(1-p))",
            )
        for p_a, p_b in grid:
            s_val = S[p_a, p_b]
            c1.check(
                value_cmp(s_val, S[p_b, p_a]) == 0, p_a, p_b, "swap changes s"
            )
            c1.check(
                value_cmp(s_val, S[1 - p_a, 1 - p_b]) == 0,
                p_a,
                p_b,
                "joint complement changes s",
            )

            same = max(inverse[p_a] * inverse[p_b], inverse[1 - p_a] * inverse[1 - p_b])
            cross = max(inverse[p_a] * inverse[1 - p_b], inverse[1 - p_a] * inverse[p_b])
            for cond, asserted, bound, sign in (
                (c3, p_b != 1 - p_a, same, "same"),
                (c4, p_b != p_a, cross, "cross"),
            ):
                if asserted:
                    margin = as_float(value_sum([bound, _minus(s_val)]))
                    ok = exact_cmp(s_val, bound) < 0
                    cond.strict(ok, margin, p_a, p_b, f"{sign}-sign bound violated")

            w_x, w_y = _power_weights(powers[p_a], powers[p_b])
            edge_a5, edge_b5 = edge5[p_a], edge5[p_b]
            g5 = w_x * edge_a5 + w_y * edge_b5
            lo5 = min(Fraction(-2), -1 - odds[p_a] * odds[p_b])
            hi5 = max(edge_a5, edge_b5)
            if p_a == p_b:
                c5.equality_point(
                    lo5 <= g5 <= hi5, p_a, p_b, "band violated on equal margins"
                )
            else:
                slack5 = min(g5 - lo5, hi5 - g5)
                c5.strict(slack5 > 0, float(slack5), p_a, p_b, "band not strict off equal margins")

            edge_a6, edge_b6 = edge6[p_a], edge6[1 - p_b]
            g6 = w_x * edge_a6 + w_y * edge_b6
            lo6 = min(edge_a6, edge_b6)
            hi6 = max(1 + odds[p_b] / odds[p_a], Fraction(2))
            if p_b == 1 - p_a:
                c6.equality_point(
                    lo6 <= g6 <= hi6,
                    p_a,
                    p_b,
                    "band violated on complementary margins",
                )
            else:
                slack6 = min(g6 - lo6, hi6 - g6)
                detail = "band not strict off complementary margins"
                c6.strict(slack6 > 0, float(slack6), p_a, p_b, detail)

            closed = scale(s_val, slope[p_a] * w_x)
            fd = scale(
                value_sum([s(p_a + delta, p_b), _minus(s(p_a - delta, p_b))]),
                Fraction(1, 2) / delta,
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
        "grid_steps": steps,
        "conditions": conditions,
        "all_hold": all_hold,
        "partial_check": partial,
        "all_ok": all_hold and partial["ok"],
    }
