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

``acb`` evaluates an exact measure (not an audit-only probe) on the int
matrix ``(a_i * b_j)``, n times ``expected_matrix(a, b)``, where the
kernels take their cheap int path.  These measures are scale-free, so a
Fraction there is the value on ``expected_matrix(a, b)`` (a rational has
one canonical form); any other value is recomputed on
``expected_matrix(a, b)`` itself.

The ``dist`` scan reads labeling triples (A, B, C) in ``itertools.product``
order.  Its float screen and the exact confirmation of each hit see a
triple only through its three confusion matrices, which permuting the
positions keeps, so the first violation lies on the first pair of the
matrix of (A, B).  Each level visits one such start pair per matrix (A
sorted, B ascending within each class block of A), screens every C at
once and confirms every float hit in order.  ``checked`` and the budget
still count every labeling pair and triple.

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
so ``checked`` and the witness are always those of the scan of every
matrix.  Averaged rows are identical by construction: micro, macro and
weighted values depend only on the multiset of the one-vs-all class
keys, which relabeling permutes, so their levels are taken as identical
without evaluating a member.  Native rows (no scheme) are checked member
by member, so on them ``csym`` makes one identity test per matrix and
compares only the representatives with their relabelings.  Binary ``f``
and ``jaccard`` are the rows of the default grids whose orbits are not
identical.

Every comparison of two matrices goes through
:meth:`clfmeasures.measures.Evaluator.compare` at the row's ``eps``, the
comparison that ``distinguish``, ``compare`` and ``rank`` make too.  A
row whose measure has an order key (:class:`clfmeasures.measures.OrderKey`:
``cd`` and ``cdprime``, strictly decreasing functions of ``cc``) compares
the exact ``cc`` values first.  A gap wider than the key's slope bound
times ``eps``, plus a float-error slack, is decided on the key; exactly
equal keys are a tie; only the rest, the near-ties inside the ``eps``
window, are compared on the angles.  So every verdict is the one the
angles give, and such a row computes an angle only where a value is
read: near-ties, witnesses, the ``dist`` float screen with its exact
confirmation, and the ``cb`` expectation sums.  Its orbits are identical
when their keys are, as the angle is computed from the key alone.

Every scan reads a level through one door, :meth:`_Eval.level`, which
charges the budget before any of the level's fields is built; no charge
is refunded when a violation stops a scan.  One state is

* each matrix of a level of a value or edit space (``smon``'s moves add
  a unit, so it also reads the level above each level it scans);
* each of the ``m**n`` labelings of a ``dist`` level;
* each margin pair of the ``cb``/``acb`` grid;
* each state of a ``cb`` expectation table.

Values are memoized per row of the audit grid, on one
:class:`clfmeasures.measures.Evaluator` per measure: :func:`audit_grid`
runs every property of one measure on it, and
:func:`check_averaging_preservation` every space of one averaged measure,
so a matrix shared by several checks (and by the ``cb`` expectation
tables) is evaluated once; a keyed row keeps the keys of its matrices
(the ``acb`` lattice matrices included) in a key memo alongside.  The
row also keeps its ``sym`` and ``max`` outcomes per space, which
``dist`` reads as its prerequisites, replaying the charges they made.
An averaged measure's evaluator also keeps its binary class values,
keyed on the counts that fix each one-vs-all matrix, so a class seen in
one matrix of a space is not evaluated again in another.  The row
evaluator adds only the comparison tolerance, the enumeration budget
and witness rendering.  The memos are dropped with their row.  Kept for the life of the process are the binary
verdicts that the preservation and impossibility checks read
(``_default_verdicts``); the audit levels (the LRU cache ``_level``),
each with the fields its scans read: matrices built over the blocks of
``core._block``, margins set, one object per matrix shared by both row
floors, by the orbits and by the ``dist`` pairs (about 72 bytes per
matrix on top of its entries, 92,377 matrices for the m = 3 edit walks
up to n = 10); the row fills of the enumerator (``core._row_fills``); the
chance-expectation tables of ``baselines._tables`` (at most
``TABLE_MATRICES`` matrices); the parsed descriptors of
``measures.parse_measure_id``; the angles of ``cd`` and ``cdprime``
(``measures._ANGLES``, keyed on the transform, ``values.value_key`` of
``cc`` and ``mp.prec``, at most ``_ANGLE_MEMO_SIZE`` of them, oldest
dropped first); and the roots of ``values._root_mpf`` (an LRU cache
keyed on radicand, index and ``mp.prec``).
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, cached_property, lru_cache, partial, reduce

from .baselines import _expectation, is_unary
from .core import (
    Budget,
    ConfusionMatrix,
    _block,
    _with_margins,
    compositions,
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

#: Float slack of the ``dist`` screens (distance zero, triangle); every
#: candidate violation is confirmed in exact or high-precision arithmetic.
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

    At m = 4, the value-comparison spaces and the edit walks reach n = 5:
    the first level that holds a diagonal matrix is n = 4, and a one-level
    space compares no two levels, so it cannot show the known ``kappa``/
    ``min`` and ``cc``/``mon`` violations.  From m = 5 on, n <= 4, except
    that a value-comparison space reaches n = m to hold a diagonal matrix
    (an n = 6 level at m = 5 already holds about 594k matrices).
    """
    if m == 2:
        return BINARY_DEFAULT_SPACE
    if m == 3:
        return MULTICLASS_DEFAULT_SPACE
    if m == 4:
        return AuditSpace(m=4, n_max=5, mon_n_max=5, dist_n_max=4, cb_n_max=4)
    return AuditSpace(m=m, n_max=m, mon_n_max=4, dist_n_max=4, cb_n_max=4)


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
    """Row evaluator: one measure's memoized values, with the comparison
    tolerance, budget and witnesses.

    One instance serves every property audited for its measure (a row of
    the audit grid) and is dropped when the row is done, so no value
    outlives the audit or crosses a change of working precision.
    ``budget`` (None: unlimited) is charged as :func:`check_property` says.
    Every comparison passes the row's ``eps`` to :meth:`compare`.
    """

    def __init__(self, desc: MeasureDescriptor, eps: float, budget: Budget | None):
        super().__init__(desc)
        self.eps = eps
        self.budget = budget
        self._identical_levels: dict = {}
        self._outcomes: dict = {}
        self._charges: list | None = None

    def orbits_identical(self, level: _Level) -> bool:
        """Whether every orbit of ``level`` has one identical value on all
        its members (:func:`clfmeasures.values.value_identical`).

        True by construction for an averaged row (a descriptor with a
        scheme), which evaluates nothing: its extender reads the classes
        in canonical order (:mod:`clfmeasures.averaging`), so its value
        depends only on the multiset of the one-vs-all keys
        ``(a_i, b_i, c_ii)`` and on ``(m, n, diagonal_sum)``, and
        relabeling the classes permutes the keys.  A native row is checked
        member by member, on the first call per level, and the answer is
        kept with the row.  A keyed row checks its order keys: the angle
        is memoized on the key's representation and the precision
        (:class:`clfmeasures.measures.OrderKey`), so identical keys give
        bit-identical values.
        """
        if self.desc.scheme is not None:
            return True
        same = self._identical_levels.get(level)
        if same is None:
            same = self._identical_levels[level] = all(map(self._orbit_identical, level.orbits))
        return same

    def _orbit_identical(self, orbit) -> bool:
        if self._order is None:
            first, *rest = map(self.value, orbit)
        else:
            first, *rest = (self.key(C)[0] for C in orbit)
        return all(value_identical(v, first) for v in rest)

    def charge(self, states: int = 1) -> None:
        if self._charges is not None:
            self._charges.append(states)
        if self.budget is not None:
            self.budget.charge(states)

    def level(self, m: int, n: int, min_row: int, states: int | None = None) -> _Level:
        """The level ``(m, n, min_row)``, charged ``states`` (default: its ``size``)."""
        level = _level(m, n, min_row)
        self.charge(level.size if states is None else states)
        return level

    def outcome(self, prop: str, space: AuditSpace, check):
        """``check(self, space)``, kept per ``(prop, space)`` with the row.

        A kept outcome replays the charges its check made, in order, so
        the budget reads as if the check ran again.
        """
        kept = self._outcomes.get((prop, space))
        if kept is None:
            self._charges = []
            kept = self._outcomes[prop, space] = check(self, space), self._charges
            self._charges = None
        else:
            for states in kept[1]:
                self.charge(states)
        return kept[0]

    def witness(self, kind: str, matrices, **extra) -> dict:
        values = [self.value(C) for C in matrices]
        return {
            "kind": kind,
            "matrices": [_fmt_matrix(C) for C in matrices],
            "values": [value_str(v) for v in values],
            "value_floats": [as_float(v) for v in values],
            **extra,
        }


class _Level:
    """One sample size (level) of a space: the m x m integer matrices of
    total n with row sums >= ``min_row``.

    ``size`` is counted at construction; the other fields are built on
    first read and kept, so :meth:`_Eval.level` charges ``size`` first.
    """

    def __init__(self, m: int, n: int, min_row: int):
        self.m, self.n, self.min_row = m, n, min_row
        self.size = sum(
            math.prod(math.comb(a + m - 1, m - 1) for a in rows)
            for rows in compositions(n, m, min_part=min_row)
        )

    @cached_property
    def matrices(self) -> tuple[ConfusionMatrix, ...]:
        """The matrices in space order, margins set.  Those of one row-sum
        composition are built once (``core._block``), so the ``min_row = 1``
        level holds the ``min_row = 0`` level's objects, and neither builds
        a composition it does not contain."""
        rows = compositions(self.n, self.m, min_part=self.min_row)
        return tuple(itertools.chain.from_iterable(map(_block, rows)))

    @cached_property
    def orbits(self) -> tuple:
        """The orbits under relabeling the classes (simultaneous row and
        column permutation): tuples of the level's own matrices in space
        order, so the first member is the representative, ordered by
        representative."""
        matrices = self.matrices
        position = {C.entries: k for k, C in enumerate(matrices)}
        perms = list(itertools.permutations(range(self.m)))
        marked = [False] * len(matrices)
        orbits = []
        for k, C in enumerate(matrices):
            if marked[k]:
                continue
            e = C.entries
            members = sorted({position[tuple(tuple(e[i][j] for j in p) for i in p)] for p in perms})
            for x in members:
                marked[x] = True
            orbits.append(tuple(matrices[x] for x in members))
        return tuple(orbits)

    @cached_property
    def pairs(self) -> tuple:
        """The labeling pairs of a ``dist`` level (``min_row = 0``),
        indexed by their matrices: ``(labelings, rows, starts)``, the m**n
        labelings in ``itertools.product`` order; ``rows[p][q]``, the index
        in ``matrices`` of the matrix of labelings p (true) and q; and, in
        product order, one start pair ``(p, q, k)`` per matrix k: its first
        pair, p sorted and q ascending within each class block of p."""
        m, n, matrices = self.m, self.n, self.matrices
        # A matrix's key: its cells as digits in base n + 1.
        weights = [[(n + 1) ** (i * m + j) for j in range(m)] for i in range(m)]
        index = {
            sum(x * w for row, wrow in zip(C.entries, weights) for x, w in zip(row, wrow)): k
            for k, C in enumerate(matrices)
        }
        labelings = tuple(itertools.product(range(m), repeat=n))
        rows = []
        for labels in labelings:
            keys = [0]  # then keys[q]: the key of the matrix of labels and labeling q
            for i in labels:
                keys = [key + w for key in keys for w in weights[i]]
            rows.append(tuple(map(index.__getitem__, keys)))

        def position(labels) -> int:
            return reduce(lambda pos, x: pos * m + x, labels, 0)

        starts = tuple(sorted(
            (
                position(i for i, ai in enumerate(C.a) for _ in range(ai)),
                position(j for row in C.entries for j, x in enumerate(row) for _ in range(x)),
                k,
            )
            for k, C in enumerate(matrices)
        ))
        return labelings, tuple(rows), starts


#: The one level object of ``(m, n, min_row)``, with the fields it has
#: built; the 4096 most recently used are kept.
_level = lru_cache(maxsize=4096)(_Level)


def _edit(C: ConfusionMatrix, decrement=None, increment=None) -> ConfusionMatrix:
    """C with one unit moved, removed or added.

    Callers decrement only a positive cell of a matrix without a unary
    margin, so the result is never empty and needs no validation.
    """
    cells = [list(row) for row in C.entries]
    a, b = list(C.a), list(C.b)
    n, diagonal_sum = C.n, C.diagonal_sum
    for ij, unit in ((decrement, -1), (increment, 1)):
        if ij is not None:
            i, j = ij
            cells[i][j] += unit
            a[i] += unit
            b[j] += unit
            n += unit
            diagonal_sum += unit * (i == j)
    return _with_margins(tuple(map(tuple, cells)), tuple(a), tuple(b), n, diagonal_sum)


# ---------------------------------------------------------------------------
# extremal agreement


def _check_extremal(ev: _Eval, space: AuditSpace, at_max: bool):
    """Two :func:`_scan` passes against ``ref``, the first target matrix
    (diagonal at max, zero-diagonal at min): ``ref`` to every other target,
    which must equal it, then every other matrix to ``ref``, which must
    beat it strictly.  ``checked`` counts ``ref`` too."""
    target = ConfusionMatrix.is_diagonal if at_max else ConfusionMatrix.is_zero_diagonal
    kind = "diagonal" if at_max else "zero_diagonal"
    matrices = [C for n in range(1, space.n_max + 1) for C in ev.level(space.m, n, 1).matrices]
    targets = [C for C in matrices if target(C)]
    if not targets:
        raise RuntimeError(f"audit space contains no {kind} matrix")
    ref = targets[0]
    differ = [(C, f"{kind}_values_differ", {}) for C in targets[1:]]
    status, witness, checked = _scan(ev, [(ref, 1)], lambda C: differ, bool)
    if status == SATISFIED:
        which = "reaches_max_off_diagonal" if at_max else "reaches_min_off_zero_diagonal"
        to_ref = [(ref, which, {})]
        others = ((C, 1) for C in matrices if not target(C))
        worse = (lambda side: side <= 0) if at_max else (lambda side: side >= 0)
        status, witness, sub = _scan(ev, others, lambda C: to_ref, worse)
        checked += sub
    return status, witness, checked + 1


_check_max = partial(_check_extremal, at_max=True)
_check_min = partial(_check_extremal, at_max=False)


# ---------------------------------------------------------------------------
# neighbour properties: symmetry and monotonicity


def _scan(ev: _Eval, starts, moves, worse):
    """Compare each start matrix C with its neighbours.

    ``starts`` gives ``(C, weight)`` pairs, where C stands for ``weight``
    matrices whose checks come out as C's do.  ``moves(C)`` gives C's
    neighbours as ``(Ct, kind, extra)``.  Each counts ``weight`` checks;
    the first with ``worse(compare(Ct, C))`` is the witness ``kind`` over
    ``[C, Ct]`` with the ``extra`` fields.  sym and csym pass ``bool``:
    any difference is a violation.
    """
    checked = 0
    for C, weight in starts:
        for Ct, kind, extra in moves(C):
            checked += weight
            if worse(ev.compare(Ct, C, ev.eps)):
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
    Otherwise, or on a violation, the level is rescanned matrix by matrix
    in space order, so ``checked`` and the witness are those of the full
    scan.  On entering level n, the door hands out every level up to
    ``n + max(reach)`` the scan does not yet hold.  (smon never reads level
    0: every matrix of level 1 has a unary margin, so it holds no start.)
    """
    checked = 0
    levels = {}  # the levels n_lo, n_lo + 1, ... the door has handed out
    for n in range(n_lo, n_hi + 1):
        for k in range(n_lo + len(levels), n + max(reach) + 1):
            levels[k] = ev.level(m, k, min_row)
        level = levels[n]
        starts = [(C, len(orbit)) for orbit in level.orbits if keep(C := orbit[0])]
        if starts and all(ev.orbits_identical(levels[n + d]) for d in reach):
            status, _, sub = _scan(ev, starts, moves, worse)
            if status == SATISFIED:
                checked += sub
                continue
        full = ((C, 1) for C in level.matrices if keep(C))
        status, witness, sub = _scan(ev, full, moves, worse)
        checked += sub
        if status == VIOLATED:
            return status, witness, checked
    return SATISFIED, None, checked


def _check_sym(ev: _Eval, space: AuditSpace):
    starts = ((C, 1) for n in range(1, space.n_max + 1) for C in ev.level(space.m, n, 1).matrices)
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


def _check_constant_over_margins(ev: _Eval, space: AuditSpace, point, differ, value):
    """The first margin pair whose point ``differ``s from the first pair's.

    ``point(a, b)`` is built once per pair, in grid order, and
    ``value(point)`` is the value a witness shows.
    """
    ref = None
    checked = 0
    for n, a, b in _margin_grid(ev, space):
        p = point(a, b)
        checked += 1
        if ref is None:
            ref = (n, a, b, p)
        elif differ(p, ref[3]):
            first, second = value(ref[3]), value(p)
            witness = {
                "kind": "constant_depends_on_margins",
                "first": {"n": ref[0], "a": list(ref[1]), "b": list(ref[2]),
                          "value": value_str(first), "value_float": as_float(first)},
                "second": {"n": n, "a": list(a), "b": list(b),
                           "value": value_str(second), "value_float": as_float(second)},
            }
            return VIOLATED, witness, checked
    return SATISFIED, None, checked


def _check_cb(ev: _Eval, space: AuditSpace):
    expectation = partial(_expectation, ev.value, method="matrices", budget=ev.budget)

    def differ(u, v) -> bool:
        return value_cmp(u, v, ev.eps) != 0

    return _check_constant_over_margins(ev, space, expectation, differ, lambda v: v)


def _check_acb(ev: _Eval, space: AuditSpace):
    """The point of a margin pair is its lattice matrix (:func:`_lattice`),
    compared through :meth:`_Eval.compare`, so a keyed row reads the
    lattice's key from its key memo; the value, :func:`_acb_value`, is
    computed where that comparison or a witness reads it."""
    margins = {}  # lattice -> its margin pair

    def point(a, b) -> ConfusionMatrix:
        lattice = _lattice(a, b)
        margins[lattice] = a, b
        return lattice

    value = cache(lambda lattice: _acb_value(ev.desc, lattice, *margins[lattice]))

    def differ(L1, L2) -> bool:
        return ev.compare(L1, L2, ev.eps, value) != 0

    return _check_constant_over_margins(ev, space, point, differ, value)


def _lattice(a: tuple, b: tuple) -> ConfusionMatrix:
    """The int matrix ``(a_i * b_j)``, n times ``expected_matrix(a, b)``,
    margins set."""
    n = sum(a)
    entries = tuple(tuple(ai * bj for bj in b) for ai in a)
    margins = tuple(ai * n for ai in a), tuple(bj * n for bj in b)
    return _with_margins(entries, *margins, n * n, sum(map(operator.mul, a, b)))


def _acb_value(desc: MeasureDescriptor, lattice: ConfusionMatrix, a: tuple, b: tuple):
    """The value of ``expected_matrix(a, b)``, ``lattice`` its
    :func:`_lattice`.

    An exact scale-free measure is evaluated on the lattice; a Fraction
    there is the value (see the module docstring).
    """
    if desc.exact and not desc.audit_only:
        value = evaluate(desc, lattice)
        if type(value) is Fraction:
            return value
    return evaluate(desc, expected_matrix(a, b))


# ---------------------------------------------------------------------------
# distance


def _confirm_triangle(ev: _Eval, c_max, ac, ab, bc) -> bool:
    """Exact (or high-precision) confirmation of a float triangle hit on
    the matrices of (A, C), (A, B) and (B, C)."""
    # d(A,C) > d(A,B) + d(B,C)  <=>  v_AB + v_BC > v_AC + c_max
    lhs = value_sum([ev.oriented(ab), ev.oriented(bc)])
    rhs = value_sum([ev.oriented(ac), c_max])
    return value_cmp(lhs, rhs, DIST_TOL) > 0


def _check_dist(ev: _Eval, space: AuditSpace):
    """sym and max, read from the row when it already ran them, then the
    distance-zero and triangle scans of the labeling triples."""
    checked = 0
    for prereq in (SYM, MAX):
        status, witness, sub = _CHECKS[prereq](ev, space)
        checked += sub
        if status == VIOLATED:
            return VIOLATED, {"kind": f"prerequisite_{prereq}_failed", "inner": witness}, checked

    # The oriented best value; diagonal matrices all share it (max holds).
    m = space.m
    c_max = ev.oriented(
        ConfusionMatrix(tuple(tuple(int(i == j) for j in range(m)) for i in range(m)))
    )
    c_max_f = as_float(c_max)

    for n in range(1, space.dist_n_max + 1):
        level = ev.level(m, n, 0, states=m**n)
        (labelings, rows, starts), matrices = level.pairs, level.matrices
        dist = [c_max_f - as_float(ev.oriented(C)) for C in matrices]
        D = [list(map(dist.__getitem__, row)) for row in rows]
        L = len(rows)
        checked += L * L

        # Identity of indiscernibles: distance zero only between equal labelings.
        for a, b, k in starts:
            if a != b and dist[k] <= DIST_TOL and value_cmp(
                ev.oriented(matrices[k]), c_max, DIST_TOL
            ) >= 0:
                w = ev.witness(
                    "distinct_labelings_at_distance_zero",
                    [matrices[k]],
                    labelings=[list(labelings[a]), list(labelings[b])],
                )
                return VIOLATED, w, checked

        def slack(a: int, b: int):
            """d(A, C) - (d(A, B) + d(B, C)) in floats, for every C."""
            Da = D[a]
            return map(operator.sub, Da, map(operator.add, itertools.repeat(Da[b]), D[b]))

        # The triangle inequality: a float screen of every C (a nan slack
        # never hits), then every hit in order is confirmed.
        for a, b, _ in starts:
            if max(slack(a, b)) - DIST_TOL <= 0:
                continue
            for c, s in enumerate(slack(a, b)):
                if not s - DIST_TOL > 0:
                    continue
                mats = [matrices[rows[x][y]] for x, y in ((a, c), (a, b), (b, c))]
                if _confirm_triangle(ev, c_max, *mats):
                    w = ev.witness(
                        "triangle_violation",
                        mats,
                        labelings=[list(labelings[x]) for x in (a, b, c)],
                        n=n,
                    )
                    return VIOLATED, w, checked + (a + 1) * L * L
        checked += L**3
    return SATISFIED, None, checked


# ---------------------------------------------------------------------------
# entry points


#: ``check(ev, space) -> (status, witness, checked)`` per property; ``max``
#: and ``sym`` are kept on the row (:meth:`_Eval.outcome`) for ``dist``.
_CHECKS = {
    MAX: lambda ev, space: ev.outcome(MAX, space, _check_max),
    MIN: _check_min,
    SYM: lambda ev, space: ev.outcome(SYM, space, _check_sym),
    CSYM: _check_csym,
    DIST: _check_dist,
    MON: _check_mon,
    SMON: _check_smon,
    CB: _check_cb,
    ACB: _check_acb,
}


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
    is charged a whole sample size (level) before any of it is built, with
    no refund when a violation stops the scan.  One state is

    * each matrix of a level of a value or edit space (for ``smon`` also
      the level above, which its moves reach);
    * each of the ``m**n`` labelings of a ``dist`` level;
    * each margin pair of ``cb``/``acb``;
    * each state of a ``cb`` expectation table.

    ``dist`` also pays for its ``sym`` and ``max`` prerequisites, level by
    level as they do, whether it runs them or reuses them from the row.
    """
    desc = parse_measure_id(desc) if isinstance(desc, str) else desc
    prop = parse_property(prop)
    if space is None:
        space = audit_space_policy(desc, prop, m=2)
    check_arity(desc, space.m)
    return _run(_Eval(desc, eps, budget), prop, space)


def _run(ev: _Eval, prop: str, space: AuditSpace) -> Verdict:
    """Audit the parsed property ``prop`` of ``ev``'s measure on ``ev``.

    The caller has checked that the measure has a value at ``space.m``.
    """
    status, witness, checked = _CHECKS[prop](ev, space)
    return Verdict(ev.desc.measure_id, prop, status, space.describe(), witness, checked)


#: Verdicts of the default binary bounds, kept for the life of the
#: process: (measure id, property) -> Verdict.
_default_verdicts: dict = {}


def _default_binary_verdicts(measure_id: str, props) -> list[Verdict]:
    """The cached verdicts of one measure's cells at the default binary
    bounds.

    Missing cells are one :func:`audit_grid` row at the default ``eps``
    without a budget.
    """
    props = [parse_property(prop) for prop in props]
    missing = [prop for prop in dict.fromkeys(props) if (measure_id, prop) not in _default_verdicts]
    for prop, verdict in zip(missing, audit_grid([measure_id], missing)):
        _default_verdicts[measure_id, prop] = verdict
    return [_default_verdicts[measure_id, prop] for prop in props]


def audit_grid(
    measure_ids=CANONICAL_IDS,
    properties=ALL_PROPERTIES,
    m: int = 2,
    eps: float = DEFAULT_EPS,
    n_max: int | None = None,
    budget: Budget | None = None,
) -> list[Verdict]:
    """Run the measure-by-property audit grid, measure-major.

    Each cell runs over ``audit_space_policy(desc, prop, m, n_max)``; one
    ``budget`` is shared by every cell, and the cells of one measure share
    one row evaluator.  A binary-only measure at m > 2 is refused before
    any cell runs.
    """
    descs = [parse_measure_id(mid) for mid in measure_ids]
    for desc in descs:
        check_arity(desc, m)
    props = [parse_property(prop) for prop in properties]
    verdicts = []
    for desc in descs:
        ev = _Eval(desc, eps, budget)
        verdicts += [_run(ev, prop, audit_space_policy(desc, prop, m, n_max)) for prop in props]
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
    m3 = AuditSpace(m=3, n_max=5, mon_n_max=5, dist_n_max=5, cb_n_max=5, cb_min_col=1)
    if parse_property(prop) == SMON:
        return m3, replace(m3, m=4)
    return m3, AuditSpace(m=4, n_max=4, mon_n_max=4, dist_n_max=4, cb_n_max=4, cb_min_col=1)


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
    ids = tuple(b.measure_id for b in bases)
    for base in bases:
        ev = _Eval(with_scheme(base, scheme), eps, budget)
        for space in spaces:
            verdict = _run(ev, prop, space)
            if not verdict.satisfied:
                return PreservationVerdict(
                    scheme, prop, NOT_PRESERVED, ids, base.measure_id, verdict
                )
    return PreservationVerdict(scheme, prop, PRESERVED, ids, None, None)


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
        all_consistent &= not all(v.satisfied for v in verdicts.values())
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
