"""Exhaustive audits of structural properties of measures.

Nine properties are checked by enumeration over bounded spaces of
confusion matrices:

* ``max`` / ``min``: a best (worst) value exists, attained exactly on the
  diagonal (zero-diagonal) matrices;
* ``sym``: invariance under swapping the two labelings (transposition);
* ``csym``: invariance under relabeling the classes (simultaneous row and
  column permutation);
* ``dist``: the measure induces a metric on labelings, checked as
  symmetry + maximal agreement + the triangle inequality of
  ``c_max - M`` over labeling triples;
* ``mon``: resolving one disagreement (moving an element from an
  off-diagonal cell to the diagonal of its row or column) never makes
  the measure strictly worse, provided no row or column of the starting
  matrix holds everything;
* ``smon``: adding a diagonal element or removing an off-diagonal one
  strictly improves the measure, under the side conditions above plus
  the pair not being both diagonal or both zero-diagonal;
* ``cb``: the expectation under margin-preserving randomization is one
  constant, independent of class sizes and of n;
* ``acb``: the measure of the expected confusion matrix is one constant.

The mon/smon asymmetry is deliberate.  Several measures ignore parts of
the matrix (F and Jaccard never look at c_00), so an edit can leave them
flat; under mon a flat step is fine because a chain of improvements
still never ranks a worse matrix above a better one, while smon is
exactly the demand that every single improvement registers.  Ties are
therefore smon violations but not mon violations.

Value-comparison spaces (``max``/``min``/``sym``/``csym``) contain every
matrix whose true labeling uses all m classes (row sums positive);
predictions are unconstrained, so the singularity resolutions are
exercised.  Allowing empty true classes there would contradict the
best-value semantics of recall-style measures, whose empty-class terms
resolve to chance level rather than to perfection.  The mon/smon edit
walks do allow empty classes: their definitions exclude only matrices
with a constant labeling (a row or column sum equal to n), and some
known multiclass violations live on matrices with an unused class.
Edits constrain the starting matrix only; the edited matrix may end up
with a constant labeling, where the resolved value is compared as-is.
The ``dist`` triple space uses all labelings, constants included;
``cb``/``acb`` quantify over all true class sizes and all non-unary
predicted class sizes (``cb_min_col`` optionally demands every class be
predicted at least once, which the averaging-preservation checks use:
a class absent from both labelings makes every one-vs-rest comparison
of that class degenerate, and the agreement-based resolution of that
degenerate sub-problem is deliberately not chance-level).

Verdicts carry replayable witnesses: matrices are rendered as exact
entry strings and values through :func:`clfmeasures.values.value_str`.

The ``csym``, ``mon`` and ``smon`` scans run one sample size (level) at a
time over the orbits of the level under relabeling the classes, each
orbit represented by its first member in space order.  Their moves
commute with relabeling, so the checks of every member of an orbit are
the representative's checks relabeled.  A level is scanned one
representative per orbit when, on the row, every orbit of the levels
its moves reach carries one *identical* value
(:func:`clfmeasures.values.value_identical`: the same type and the same
representation, not merely equal within ``eps``); each comparison then
comes out alike for every member, ties included, and each check of the
representative counts orbit-size times in ``checked``.  Otherwise, and
on a violation, the level is rescanned matrix by matrix in space order,
so ``checked``, the witness and the budget charged are always those of
the scan of every matrix; a reduced level charges its matrices when it
finishes.  So ``csym`` makes one identity test per matrix and compares
only the representatives with their relabelings.  Binary ``f``,
``jaccard`` and ``ce`` are the rows of the default grids whose orbits
are not identical.

Values are memoized per row of the audit grid, on one
:class:`clfmeasures.measures.Evaluator` per measure: :func:`audit_grid`
runs every property of one measure on it, and
:func:`check_averaging_preservation` every space of one averaged measure,
so a matrix shared by several checks (and by the ``cb`` expectation
tables) is evaluated once.  The row evaluator adds only the comparison
tolerance, the enumeration budget and witness rendering.  The memo is
dropped with its row; nothing is kept for the life of the process but
the verdicts of the default binary bounds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .baselines import _expectation, is_unary
from .core import (
    Budget,
    ConfusionMatrix,
    Labeling,
    build_confusion,
    compositions,
    enumerate_entries,
    expected_matrix,
    permute_classes,
    transpose,
)
from .measures import (
    AUDIT_ONLY_IDS,
    CANONICAL_IDS,
    Evaluator,
    MeasureDescriptor,
    check_arity,
    evaluate,
    parse_measure_id,
    with_scheme,
)
from .values import (
    DEFAULT_EPS,
    as_float,
    value_cmp,
    value_identical,
    value_str,
    value_sum,
)

MAX = "max"
MIN = "min"
SYM = "sym"
CSYM = "csym"
DIST = "dist"
MON = "mon"
SMON = "smon"
CB = "cb"
ACB = "acb"

ALL_PROPERTIES = (MAX, MIN, SYM, CSYM, DIST, MON, SMON, CB, ACB)

SATISFIED = "satisfied"
VIOLATED = "violated"

#: Smallest sample size of the ``cb``/``acb`` margin grid.
CB_N_MIN = 2

#: Float slack for the vectorized triangle scan; candidate violations are
#: confirmed in exact or high-precision arithmetic before being reported.
DIST_TOL = 1e-9


def parse_property(name: str) -> str:
    key = name.strip().lower()
    if key not in ALL_PROPERTIES:
        raise ValueError(f"unknown property {name!r}; expected one of {ALL_PROPERTIES}")
    return key


@dataclass(frozen=True)
class AuditSpace:
    """Bounds of one exhaustive audit.

    ``n_max`` bounds the value-comparison spaces, ``mon_n_max`` the edit
    walks, ``dist_n_max`` the labeling-triple space, and ``cb_n_max`` the
    margin grid of the baseline properties, which starts at n = 2.  The
    value-comparison spaces demand every true class size be at least 1;
    ``cb_min_col`` is the predicted-class-size floor of the margin grid.
    Both floors are discussed in the module docstring.
    """

    m: int = 2
    n_max: int = 8
    mon_n_max: int | None = None
    dist_n_max: int = 6
    cb_n_max: int = 8
    cb_min_col: int = 0

    @property
    def edit_n_max(self) -> int:
        return self.mon_n_max if self.mon_n_max is not None else self.n_max

    def describe(self) -> dict:
        return {
            "m": self.m,
            "n_max": self.n_max,
            "mon_n_max": self.edit_n_max,
            "dist_n_max": self.dist_n_max,
            "cb_n": [CB_N_MIN, self.cb_n_max],
            "min_row": 1,
            "cb_min_col": self.cb_min_col,
        }


BINARY_DEFAULT_SPACE = AuditSpace()
MULTICLASS_DEFAULT_SPACE = AuditSpace(
    m=3, n_max=6, mon_n_max=9, dist_n_max=6, cb_n_max=6
)


def _generic_space(m: int) -> AuditSpace:
    """Default bounds at m classes.

    From m = 4 on, the m = 4 preservation windows (n <= 4), except that a
    value-comparison space needs n >= m to hold a diagonal matrix.
    """
    if m == 2:
        return BINARY_DEFAULT_SPACE
    if m == 3:
        return MULTICLASS_DEFAULT_SPACE
    return AuditSpace(m=m, n_max=max(m, 4), mon_n_max=4, dist_n_max=4, cb_n_max=4)


def audit_space_policy(
    desc: MeasureDescriptor, prop: str, m: int = 2, n_max: int | None = None
) -> AuditSpace:
    """Default audit bounds for one measure/property cell.

    The entropy measure gets a wider binary window for min/mon/smon: its
    known violations at balanced margins need n up to 12.  ``n_max``
    overrides the generic sample-size bound; a wider window only ever
    grows, and the labeling-triple bound never does.
    """
    generic = _generic_space(m)
    space = generic
    if m == 2 and desc.base == "ce" and prop in (MIN, MON, SMON):
        space = replace(space, n_max=12, mon_n_max=12)
    if n_max is not None:
        if space.n_max > generic.n_max:
            n_max = max(n_max, space.n_max)
        space = replace(
            space, n_max=n_max, mon_n_max=None, cb_n_max=n_max,
            dist_n_max=min(space.dist_n_max, n_max),
        )
    return space


@dataclass(frozen=True)
class Verdict:
    """Outcome of one property check over one bounded space."""

    measure_id: str
    property: str
    status: str
    space: dict
    witness: dict | None
    checked: int

    @property
    def satisfied(self) -> bool:
        return self.status == SATISFIED

    def to_dict(self) -> dict:
        return {
            "measure": self.measure_id,
            "property": self.property,
            "status": self.status,
            "space": self.space,
            "witness": self.witness,
            "checked": self.checked,
        }


def _fmt_matrix(C: ConfusionMatrix) -> list[list[str]]:
    return [[str(x) for x in row] for row in C.entries]


class _Eval(Evaluator):
    """Row evaluator: one measure's memoized values, with comparison,
    budget and witnesses.

    One instance serves every property audited for its measure (a row of
    the audit grid) and is dropped when the row is done, so no value
    outlives the audit or crosses a change of working precision.
    ``budget`` (None: unlimited) is charged once per enumerated state.
    """

    def __init__(self, desc: MeasureDescriptor, eps: float, budget: Budget | None):
        super().__init__(desc)
        self.eps = eps
        self.budget = budget
        self._identical_levels: dict = {}

    def orbits_identical(self, m: int, n: int, min_row: int) -> bool:
        """Whether every orbit of the level has one identical value on
        all its members (:func:`clfmeasures.values.value_identical`).

        Decided on the first call per level and kept with the row.
        """
        key = (m, n, min_row)
        same = self._identical_levels.get(key)
        if same is None:
            same = self._identical_levels[key] = all(
                map(self._orbit_identical, _orbit_index(m, n, min_row))
            )
        return same

    def _orbit_identical(self, orbit) -> bool:
        first, *rest = (self.value(ConfusionMatrix._trusted(e)) for e in orbit)
        return all(value_identical(v, first) for v in rest)

    def charge(self, states: int = 1) -> None:
        if self.budget is not None:
            self.budget.charge(states)

    def cmp(self, u, v) -> int:
        return value_cmp(u, v, self.eps)

    def witness(self, kind: str, matrices, **extra) -> dict:
        values = [self.value(C) for C in matrices]
        return {
            "kind": kind,
            "matrices": [_fmt_matrix(C) for C in matrices],
            "values": [value_str(v) for v in values],
            "value_floats": [as_float(v) for v in values],
            **extra,
        }


@lru_cache(maxsize=4096)
def _space_entries(m: int, n: int, min_row: int) -> tuple:
    """All m x m integer matrices with total n and row sums >= min_row."""
    return tuple(
        entries
        for a in compositions(n, m, min_part=min_row)
        for entries, _ in enumerate_entries(a)
    )


@lru_cache(maxsize=4096)
def _orbit_index(m: int, n: int, min_row: int) -> tuple:
    """The orbits of ``_space_entries(m, n, min_row)`` under relabeling
    the classes (simultaneous row and column permutation).

    One tuple of members per orbit, in space order, so the first member
    is the orbit's representative; orbits come in the space order of their
    representatives.  Members are the space's own entry tuples.
    """
    level = _space_entries(m, n, min_row)
    position = {e: k for k, e in enumerate(level)}
    perms = list(itertools.permutations(range(m)))
    marked = [False] * len(level)
    orbits = []
    for k, e in enumerate(level):
        if marked[k]:
            continue
        members = sorted({position[tuple(tuple(e[i][j] for j in p) for i in p)] for p in perms})
        for x in members:
            marked[x] = True
        orbits.append(tuple(level[x] for x in members))
    return tuple(orbits)


def _iter_matrices(ev: _Eval, m: int, n_lo: int, n_hi: int, min_row: int = 1):
    for n in range(max(n_lo, 1), n_hi + 1):
        for entries in _space_entries(m, n, min_row):
            ev.charge()
            yield ConfusionMatrix._trusted(entries)


def _edit(C: ConfusionMatrix, decrement=None, increment=None) -> ConfusionMatrix:
    """C with one unit moved, removed or added.

    Callers decrement only a positive cell of a matrix without a unary
    margin, so the result is never empty and needs no validation.
    """
    cells = [list(row) for row in C.entries]
    if decrement is not None:
        i, j = decrement
        cells[i][j] -= 1
    if increment is not None:
        i, j = increment
        cells[i][j] += 1
    return ConfusionMatrix._trusted(tuple(tuple(row) for row in cells))


# ---------------------------------------------------------------------------
# extremal agreement


def _check_extremal(ev: _Eval, space: AuditSpace, at_max: bool):
    target = ConfusionMatrix.is_diagonal if at_max else ConfusionMatrix.is_zero_diagonal
    kind = "diagonal" if at_max else "zero_diagonal"
    ref_val = None
    ref_C = None
    checked = 0
    matrices = list(_iter_matrices(ev, space.m, 1, space.n_max))
    for C in matrices:
        if target(C):
            v = ev.oriented(C)
            checked += 1
            if ref_val is None:
                ref_val, ref_C = v, C
            elif ev.cmp(v, ref_val) != 0:
                return VIOLATED, ev.witness(f"{kind}_values_differ", [ref_C, C]), checked
    if ref_C is None:
        raise RuntimeError(f"audit space contains no {kind} matrix")
    for C in matrices:
        if target(C):
            continue
        v = ev.oriented(C)
        checked += 1
        side = ev.cmp(v, ref_val)
        if (side >= 0) if at_max else (side <= 0):
            which = "reaches_max_off_diagonal" if at_max else "reaches_min_off_zero_diagonal"
            return VIOLATED, ev.witness(which, [C, ref_C]), checked
    return SATISFIED, None, checked


# ---------------------------------------------------------------------------
# neighbour properties: symmetry and monotonicity


def _scan(ev: _Eval, starts, moves, worse):
    """Compare each start matrix C with its neighbours.

    ``starts`` gives ``(C, weight)`` pairs, where C stands for ``weight``
    matrices whose checks come out as C's do.  ``moves(C)`` gives C's
    neighbours as ``(Ct, kind, extra)``.  Each counts ``weight`` checks;
    the first with ``worse(cmp(oriented(Ct), oriented(C)))`` is the
    witness ``kind`` over ``[C, Ct]`` with the ``extra`` fields.  sym and
    csym pass ``bool``: any difference is a violation.
    """
    checked = 0
    for C, weight in starts:
        base = ev.oriented(C)
        for Ct, kind, extra in moves(C):
            checked += weight
            if worse(ev.cmp(ev.oriented(Ct), base)):
                return VIOLATED, ev.witness(kind, [C, Ct], **extra), checked
    return SATISFIED, None, checked


def _scan_orbits(ev: _Eval, m: int, n_lo: int, n_hi: int, min_row: int, keep, moves, worse,
                 reach=(0,)):
    """:func:`_scan` over the levels ``n_lo..n_hi`` of starts passing
    ``keep``, one representative per class-permutation orbit.

    ``moves`` must commute with relabeling the classes and lead from
    level n to the levels ``n + d``, d in ``reach``.  Level n is scanned
    reduced when its orbits and those of the levels it reaches each carry
    one identical value on the row: then every member's checks come out
    as its representative's, so the representative weighs the orbit size.
    A reduced level is charged when it finishes.  Otherwise, or on a
    violation, the level is rescanned matrix by matrix in space order, so
    ``checked`` and the witness are those of the full scan.
    """
    checked = 0
    for n in range(max(n_lo, 1), n_hi + 1):
        starts = [
            (C, len(orbit))
            for orbit in _orbit_index(m, n, min_row)
            if keep(C := ConfusionMatrix._trusted(orbit[0]))
        ]
        if starts and all(ev.orbits_identical(m, n + d, min_row) for d in reach):
            status, _, sub = _scan(ev, starts, moves, worse)
            if status == SATISFIED:
                ev.charge(len(_space_entries(m, n, min_row)))
                checked += sub
                continue
        full = ((C, 1) for C in _iter_matrices(ev, m, n, n, min_row) if keep(C))
        status, witness, sub = _scan(ev, full, moves, worse)
        checked += sub
        if status == VIOLATED:
            return status, witness, checked
    return SATISFIED, None, checked


def _check_sym(ev: _Eval, space: AuditSpace):
    starts = ((C, 1) for C in _iter_matrices(ev, space.m, 1, space.n_max))
    return _scan(ev, starts, lambda C: [(transpose(C), "transpose_differs", {})], bool)


def _check_csym(ev: _Eval, space: AuditSpace):
    perms = list(itertools.permutations(range(space.m)))[1:]  # all but the identity

    def moves(C):
        kind = "class_permutation_differs"
        return [(permute_classes(C, p), kind, {"permutation": list(p)}) for p in perms]

    return _scan_orbits(ev, space.m, 1, space.n_max, 1, lambda C: True, moves, bool)


def _no_unary_margin(C: ConfusionMatrix) -> bool:
    # Empty classes are legal start matrices of the edit walks; only
    # constant labelings are excluded, and only on the unedited side.
    return C.n not in C.a and C.n not in C.b


def _edit_moves(kind: str, edits):
    """Moves applying each ``(decrement, increment)`` edit whose
    decremented cell of C is positive.

    Witness fields are built once per check; a check reports at most one
    witness.
    """
    table = [
        (dec, inc, {"edit": {k: list(v) for k, v in (("decrement", dec), ("increment", inc)) if v}})
        for dec, inc in edits
    ]
    return lambda C: [
        (_edit(C, dec, inc), kind, extra)
        for dec, inc, extra in table
        if dec is None or C.entries[dec[0]][dec[1]] >= 1
    ]


def _check_mon(ev: _Eval, space: AuditSpace):
    # Resolve one disagreement: move a unit of cell (i, j) to the
    # diagonal cell of its row or of its column.
    off_diagonal = itertools.permutations(range(space.m), 2)
    moves = _edit_moves("improvement_penalized", [
        ((i, j), (t, t)) for i, j in off_diagonal for t in (i, j)
    ])
    return _scan_orbits(
        ev, space.m, 2, space.edit_n_max, 0, _no_unary_margin, moves, lambda side: side < 0
    )


def _check_smon(ev: _Eval, space: AuditSpace):
    m = space.m
    add = _edit_moves("extra_agreement_not_rewarded", [(None, (i, i)) for i in range(m)])
    remove = _edit_moves("removed_confusion_not_rewarded", [
        (ij, None) for ij in itertools.permutations(range(m), 2)
    ])

    def moves(C):
        return ([] if C.is_diagonal() else add(C)) + ([] if C.is_zero_diagonal() else remove(C))

    return _scan_orbits(
        ev, m, 1, space.edit_n_max, 0, _no_unary_margin, moves, lambda side: side <= 0,
        reach=(-1, 0, 1),
    )


# ---------------------------------------------------------------------------
# baseline properties


def _margin_grid(ev: _Eval, space: AuditSpace):
    for n in range(CB_N_MIN, space.cb_n_max + 1):
        for a in compositions(n, space.m):
            for b in compositions(n, space.m, min_part=space.cb_min_col):
                if is_unary(b):
                    continue
                ev.charge()
                yield n, a, b


def _check_constant_over_margins(ev: _Eval, space: AuditSpace, value_of):
    ref = None
    checked = 0
    for n, a, b in _margin_grid(ev, space):
        val = value_of(a, b)
        checked += 1
        if ref is None:
            ref = (n, a, b, val)
        elif ev.cmp(val, ref[3]) != 0:
            witness = {
                "kind": "constant_depends_on_margins",
                "first": {"n": ref[0], "a": list(ref[1]), "b": list(ref[2]),
                          "value": value_str(ref[3]), "value_float": as_float(ref[3])},
                "second": {"n": n, "a": list(a), "b": list(b),
                           "value": value_str(val), "value_float": as_float(val)},
            }
            return VIOLATED, witness, checked
    return SATISFIED, None, checked


# ---------------------------------------------------------------------------
# distance


def _labeling_array(m: int, n: int) -> np.ndarray:
    return np.array(list(itertools.product(range(m), repeat=n)), dtype=np.int8)


def _pair_table_index(labels: np.ndarray, m: int):
    """Map every ordered labeling pair to its confusion table.

    Returns (tables, inverse) with ``tables`` the distinct m*m count
    vectors in lexicographic order and ``inverse`` of shape (L, L)
    indexing into them.
    """
    onehot = (labels[:, :, None] == np.arange(m)[None, None, :]).astype(np.float32)
    joint = np.einsum("pki,qkj->pqij", onehot, onehot)
    L, n = labels.shape
    flat = joint.reshape(L * L, m * m).astype(np.int64)
    # One key per table, its cells as digits in base n + 1, most
    # significant first: keys sort as the tables do lexicographically.
    # Python ints (object dtype) take over where int64 would overflow.
    dtype = np.int64 if (n + 1) ** (m * m) <= np.iinfo(np.int64).max else object
    weights = np.array([(n + 1) ** k for k in range(m * m - 1, -1, -1)], dtype=dtype)
    keys = flat.astype(dtype, copy=False) @ weights
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return flat[first], inverse.reshape(L, L)


def _confirm_triangle(ev: _Eval, c_max, la, lb, lc, m: int) -> bool:
    """Exact (or high-precision) confirmation of a float triangle hit."""
    vab = ev.oriented(build_confusion(la, lb))
    vbc = ev.oriented(build_confusion(lb, lc))
    vac = ev.oriented(build_confusion(la, lc))
    # d(A,C) > d(A,B) + d(B,C)  <=>  v_AB + v_BC > v_AC + c_max
    lhs = value_sum([vab, vbc])
    rhs = value_sum([vac, c_max])
    return value_cmp(lhs, rhs, DIST_TOL) > 0


def _check_dist(ev: _Eval, space: AuditSpace):
    checked = 0
    for prereq, checker in ((SYM, _check_sym), (MAX, lambda e, s: _check_extremal(e, s, True))):
        status, witness, sub = checker(ev, space)
        checked += sub
        if status == VIOLATED:
            return VIOLATED, {"kind": f"prerequisite_{prereq}_failed", "inner": witness}, checked

    # The oriented best value; diagonal matrices all share it (max holds).
    ref = ConfusionMatrix(
        tuple(
            tuple(1 if i == j else 0 for j in range(space.m)) for i in range(space.m)
        )
    )
    c_max = ev.oriented(ref)
    c_max_f = as_float(c_max)

    for n in range(1, space.dist_n_max + 1):
        ev.charge(space.m**n)
        labels = _labeling_array(space.m, n)
        L = labels.shape[0]
        tables, inverse = _pair_table_index(labels, space.m)
        vals = np.empty(len(tables), dtype=np.float64)
        for k, tab in enumerate(tables.tolist()):
            C = ConfusionMatrix._trusted(
                tuple(tuple(tab[i * space.m:(i + 1) * space.m]) for i in range(space.m))
            )
            vals[k] = as_float(ev.oriented(C))
        D = c_max_f - vals[inverse]
        checked += L * L

        def labeling(idx: int) -> Labeling:
            return Labeling(tuple(int(x) for x in labels[idx]), space.m)

        # Identity of indiscernibles: distance zero only between equal labelings.
        off = D <= DIST_TOL
        np.fill_diagonal(off, False)
        if off.any():
            p, q = map(int, np.argwhere(off)[0])
            la, lb = labeling(p), labeling(q)
            vab = ev.oriented(build_confusion(la, lb))
            if value_cmp(vab, c_max, DIST_TOL) >= 0:
                w = ev.witness(
                    "distinct_labelings_at_distance_zero",
                    [build_confusion(la, lb)],
                    labelings=[list(la.labels), list(lb.labels)],
                )
                return VIOLATED, w, checked

        for a_idx in range(L):
            # d(A, C) <= d(A, B) + d(B, C) for every middle B, vectorized.
            slack = D[a_idx, None, :] - (D[a_idx, :, None] + D) - DIST_TOL
            checked += L * L
            if not (slack > 0).any():
                continue
            b_idx, c_idx = map(int, np.argwhere(slack > 0)[0])
            la, lb, lc = labeling(a_idx), labeling(b_idx), labeling(c_idx)
            if _confirm_triangle(ev, c_max, la, lb, lc, space.m):
                mats = [
                    build_confusion(la, lc),
                    build_confusion(la, lb),
                    build_confusion(lb, lc),
                ]
                w = ev.witness(
                    "triangle_violation",
                    mats,
                    labelings=[list(x.labels) for x in (la, lb, lc)],
                    n=n,
                )
                return VIOLATED, w, checked
    return SATISFIED, None, checked


# ---------------------------------------------------------------------------
# entry points


def check_property(
    desc: MeasureDescriptor | str,
    prop: str,
    space: AuditSpace | None = None,
    eps: float = DEFAULT_EPS,
    budget: Budget | None = None,
) -> Verdict:
    """Audit one property of one measure over a bounded space.

    A ``satisfied`` verdict means no counterexample exists within the
    space; a ``violated`` verdict carries a replayable witness.  ``budget``
    is charged once per enumerated state: each matrix of a value or edit
    space, each margin pair of ``cb``/``acb`` (plus the matrices of each
    ``cb`` expectation), and ``m**n`` per labeling array of ``dist``.
    """
    if isinstance(desc, str):
        desc = parse_measure_id(desc)
    prop = parse_property(prop)
    if space is None:
        space = audit_space_policy(desc, prop, m=2)
    check_arity(desc, space.m)
    return _run(_Eval(desc, eps, budget), prop, space)


def _run(ev: _Eval, prop: str, space: AuditSpace) -> Verdict:
    """Audit the parsed property ``prop`` of ``ev``'s measure on ``ev``.

    The caller has checked that the measure has a value at ``space.m``.
    """
    desc = ev.desc
    if prop == MAX:
        status, witness, checked = _check_extremal(ev, space, at_max=True)
    elif prop == MIN:
        status, witness, checked = _check_extremal(ev, space, at_max=False)
    elif prop == SYM:
        status, witness, checked = _check_sym(ev, space)
    elif prop == CSYM:
        status, witness, checked = _check_csym(ev, space)
    elif prop == MON:
        status, witness, checked = _check_mon(ev, space)
    elif prop == SMON:
        status, witness, checked = _check_smon(ev, space)
    elif prop == CB:
        status, witness, checked = _check_constant_over_margins(
            ev, space, lambda a, b: _expectation(ev.value, a, b, "matrices", ev.budget)
        )
    elif prop == ACB:
        status, witness, checked = _check_constant_over_margins(
            ev, space, lambda a, b: evaluate(desc, expected_matrix(a, b))
        )
    else:
        status, witness, checked = _check_dist(ev, space)
    return Verdict(desc.measure_id, prop, status, space.describe(), witness, checked)


#: Verdicts of the default binary bounds, kept for the life of the
#: process: (measure id, property) -> Verdict.
_default_verdicts: dict = {}


def _default_binary_verdicts(measure_id: str, props) -> list[Verdict]:
    """The cached verdicts of one measure's cells at the default binary
    bounds.

    Missing cells are computed on one row evaluator at the default
    ``eps`` without a budget, dropped on return.
    """
    keys = [(measure_id, parse_property(prop)) for prop in props]
    ev = None
    for key in keys:
        if key not in _default_verdicts:
            if ev is None:
                ev = _Eval(parse_measure_id(measure_id), DEFAULT_EPS, None)
            space = audit_space_policy(ev.desc, key[1], m=2)
            _default_verdicts[key] = _run(ev, key[1], space)
    return [_default_verdicts[key] for key in keys]


def audit_grid(
    measure_ids=CANONICAL_IDS,
    properties=ALL_PROPERTIES,
    m: int = 2,
    space: AuditSpace | None = None,
    eps: float = DEFAULT_EPS,
    n_max: int | None = None,
    budget: Budget | None = None,
) -> list[Verdict]:
    """Run the measure-by-property audit grid, measure-major.

    Each cell runs over ``space``, or else over
    ``audit_space_policy(desc, prop, m, n_max)``; one ``budget`` is
    shared by every cell, and the cells of one measure share one row
    evaluator.  Verdicts of the default binary bounds are cached across
    calls when ``eps`` is the default and no budget is given.  A
    binary-only measure at m > 2 is refused before any cell runs.
    """
    default = (m, space, n_max, eps, budget) == (2, None, None, DEFAULT_EPS, None)
    rows = [(mid, parse_measure_id(mid)) for mid in measure_ids]
    for _, desc in rows:
        check_arity(desc, m if space is None else space.m)
    verdicts = []
    for mid, desc in rows:
        if default:
            verdicts += _default_binary_verdicts(mid, properties)
            continue
        ev = _Eval(desc, eps, budget)
        for prop in properties:
            sp = space if space is not None else audit_space_policy(desc, prop, m, n_max)
            verdicts.append(_run(ev, parse_property(prop), sp))
    return verdicts


# ---------------------------------------------------------------------------
# averaging preservation


def preservation_spaces(prop: str) -> tuple[AuditSpace, ...]:
    """Default multiclass spaces for the preservation checks.

    m=4 is included because some averaged forms only degenerate there:
    the pooled net-agreement count loses its n-dependence exactly at
    m=4, so its strong-monotonicity failure needs a 4-class space.  The
    baseline grids demand every class predicted at least once
    (``cb_min_col=1``): that is the multiclass counterpart of the
    non-unary condition the binary definition puts on the predicted
    class sizes, and it keeps every one-vs-rest sub-problem away from
    the degenerate both-labelings-constant corner whose resolution is
    an agreement value rather than the chance value.
    """
    prop = parse_property(prop)
    if prop == SMON:
        wide = AuditSpace(m=3, n_max=5, mon_n_max=5, dist_n_max=5, cb_n_max=5, cb_min_col=1)
        return (wide, replace(wide, m=4))
    return (
        AuditSpace(m=3, n_max=5, mon_n_max=5, dist_n_max=5, cb_n_max=5, cb_min_col=1),
        AuditSpace(m=4, n_max=4, mon_n_max=4, dist_n_max=4, cb_n_max=4, cb_min_col=1),
    )


PRESERVED = "preserved"
NOT_PRESERVED = "not_preserved"


@dataclass(frozen=True)
class PreservationVerdict:
    """Whether an averaging scheme preserves a property.

    ``not_preserved`` means some binary measure has the property while its
    averaged form violates it; the violating measure and the inner verdict
    are attached.
    """

    scheme: str
    property: str
    status: str
    bases_checked: tuple[str, ...]
    witness_measure: str | None
    inner: Verdict | None

    @property
    def preserved(self) -> bool:
        return self.status == PRESERVED

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "property": self.property,
            "status": self.status,
            "bases_checked": list(self.bases_checked),
            "witness_measure": self.witness_measure,
            "inner": self.inner.to_dict() if self.inner else None,
        }


#: Properties for which each synthetic probe joins the preservation pool.
#: The probes exist to make specific negative cells concrete (the net
#: count for strong monotonicity, the agreement indicator for minimal
#: agreement); elsewhere the pool is the public registry.
_PROBE_PROPERTIES = {"netagree": (SMON,), "anyagree": (MIN,)}


def _preservation_pool(prop: str) -> list[str]:
    # Probes come first so that the cells they were built for are
    # witnessed by them rather than by whichever registry measure
    # happens to degrade earlier in canonical order.
    ids = [mid for mid in AUDIT_ONLY_IDS if prop in _PROBE_PROPERTIES.get(mid, ())]
    return ids + list(CANONICAL_IDS)


def _preservation_bases(prop: str) -> list[MeasureDescriptor]:
    return [
        parse_measure_id(mid)
        for mid in _preservation_pool(prop)
        if _default_binary_verdicts(mid, (prop,))[0].satisfied
    ]


def check_averaging_preservation(
    scheme: str,
    prop: str,
    spaces=None,
    eps: float = DEFAULT_EPS,
    budget: Budget | None = None,
) -> PreservationVerdict:
    """Check whether one averaging scheme preserves one property.

    Every registry measure whose binary form has the property is averaged
    and re-audited over the given multiclass spaces; the first violation
    settles the cell.  ``budget`` is charged by those multiclass
    re-audits only: the binary verdicts that pick the measures come from
    the cross-call cache and are never charged.
    """
    prop = parse_property(prop)
    if spaces is None:
        spaces = preservation_spaces(prop)
    bases = _preservation_bases(prop)
    for base in bases:
        ev = _Eval(with_scheme(base, scheme), eps, budget)
        for space in spaces:
            verdict = _run(ev, prop, space)
            if not verdict.satisfied:
                return PreservationVerdict(
                    scheme,
                    prop,
                    NOT_PRESERVED,
                    tuple(b.measure_id for b in bases),
                    base.measure_id,
                    verdict,
                )
    return PreservationVerdict(
        scheme, prop, PRESERVED, tuple(b.measure_id for b in bases), None, None
    )


def preservation_grid(
    schemes, props, eps: float, budget: Budget | None
) -> list[PreservationVerdict]:
    """:func:`check_averaging_preservation` for every scheme and property,
    scheme-major.

    The binary verdicts that pick the bases of every property are filled
    first, measure-major: one row evaluator per base measure serves all
    its missing cells and is dropped before the next measure.
    """
    props = [parse_property(prop) for prop in props]
    pools = {prop: _preservation_pool(prop) for prop in props}
    for mid in AUDIT_ONLY_IDS + CANONICAL_IDS:
        _default_binary_verdicts(mid, [prop for prop in props if mid in pools[prop]])
    return [
        check_averaging_preservation(scheme, prop, None, eps, budget)
        for scheme in schemes
        for prop in props
    ]


# ---------------------------------------------------------------------------
# joint impossibility


def corroborate_impossibility(measure_ids=CANONICAL_IDS) -> dict:
    """Check that no audited measure is simultaneously monotone, a
    distance, and constant-baseline: each one violates at least one of
    the three, with a witness."""
    per_measure = {}
    all_consistent = True
    for mid in measure_ids:
        verdicts = dict(zip((MON, DIST, CB), _default_binary_verdicts(mid, (MON, DIST, CB))))
        has_all = all(v.satisfied for v in verdicts.values())
        if has_all:
            all_consistent = False
        per_measure[mid] = {
            "mon": verdicts[MON].status,
            "dist": verdicts[DIST].status,
            "cb": verdicts[CB].status,
            "violates": [p for p, v in verdicts.items() if not v.satisfied],
            "witnesses": {
                p: v.witness for p, v in verdicts.items() if v.witness is not None
            },
        }
    return {
        "measures": per_measure,
        "no_measure_has_all_three": all_consistent,
    }
