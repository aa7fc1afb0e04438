"""Order consistency between measures: when do two measures rank the same
pair of predictions differently?

Two measures are consistent on a triplet (truth, prediction 1,
prediction 2) when they produce the same relation symbol (<, =, >)
between the two predictions, after orientation normalization.  A pair of
measures is indistinguishable at sample size n when it is consistent on
every triplet of binary labelings of n elements in which each labeling
uses both classes.

The triplet space collapses: a measure sees a prediction only through
the confusion matrix, truths with equal class sizes generate the same
matrix sets, and every matrix with the truth's row sums is realized by
some prediction.  Distinguishability at n is therefore decided by
comparing matrix pairs that share row sums, a few hundred pairs instead
of a billion triplets; the tests cross-validate it against a direct
enumeration over labeling triplets at small n.  Witnesses are reported
as concrete triplets.

Every relation is :meth:`clfmeasures.measures.Evaluator.compare`, the
comparison the property audit makes: ``cd`` and ``cdprime`` are ranked
on their exact ``cc`` values wherever those settle the relation, with
the verdicts their angles give.  Every call that compares many matrices
holds one :class:`clfmeasures.measures.Evaluator` per measure, so each
matrix is evaluated (and keyed) at most once per measure and call, and
:func:`indistinguishable_groups` builds each list of shared-margin
matrices, and relates each matrix pair under each measure, once for all
its measure pairs.  Values are not kept between
calls; the matrices are, since :func:`margin_matrices` filters the
per-process blocks of ``core._block`` that the audit levels share.
A budget is charged once per matrix pair for each measure pair compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Sequence

from .core import (
    Budget,
    ConfusionMatrix,
    Labeling,
    _block,
    build_confusion,
)
from .measures import (
    CONSISTENCY_IDS,
    Evaluator,
    MeasureDescriptor,
    parse_measure_id,
)
from .values import DEFAULT_EPS, as_float, value_str

CONSISTENT = "consistent"
INCONSISTENT = "inconsistent"

_REL_SYMBOL = {-1: "<", 0: "=", 1: ">"}


@dataclass(frozen=True)
class Triplet:
    """One truth with two competing predictions over the same elements."""

    truth: Labeling
    pred1: Labeling
    pred2: Labeling

    def __post_init__(self):
        if not (len(self.truth) == len(self.pred1) == len(self.pred2)):
            raise ValueError("labelings must have equal length")
        if not (self.truth.m == self.pred1.m == self.pred2.m):
            raise ValueError("labelings must share the class universe")

    @property
    def n(self) -> int:
        return len(self.truth)

    @property
    def m(self) -> int:
        return self.truth.m

    def matrices(self) -> tuple[ConfusionMatrix, ConfusionMatrix]:
        return (
            build_confusion(self.truth, self.pred1),
            build_confusion(self.truth, self.pred2),
        )

    def to_dict(self) -> dict:
        return {
            "truth": list(self.truth.labels),
            "pred1": list(self.pred1.labels),
            "pred2": list(self.pred2.labels),
        }


def triplet_from_labels(truth, pred1, pred2, m: int = 2) -> Triplet:
    """Build a triplet from plain label sequences."""
    return Triplet(
        Labeling(tuple(truth), m), Labeling(tuple(pred1), m), Labeling(tuple(pred2), m)
    )


def _descriptor(measure) -> MeasureDescriptor:
    return parse_measure_id(measure) if isinstance(measure, str) else measure


def relation_sign(
    measure, C1: ConfusionMatrix, C2: ConfusionMatrix, eps: float = DEFAULT_EPS
) -> int:
    """-1/0/+1 as the measure ranks C1 below/equal to/above C2.

    Dissimilarities are orientation-flipped first, so +1 always means
    "prefers the first prediction".
    """
    return Evaluator(_descriptor(measure)).compare(C1, C2, eps)


def triplet_verdict(m1, m2, t: Triplet, eps: float = DEFAULT_EPS) -> str:
    """Whether two measures agree on the relation between the predictions."""
    C1, C2 = t.matrices()
    r1 = relation_sign(m1, C1, C2, eps)
    r2 = relation_sign(m2, C1, C2, eps)
    return CONSISTENT if r1 == r2 else INCONSISTENT


# ---------------------------------------------------------------------------
# distinguishability via shared-margin matrix pairs


def margin_matrices(n: int, a1: int) -> list[ConfusionMatrix]:
    """All 2x2 matrices with row sums (n - a1, a1) and both predicted
    classes non-empty, ordered by (hits, false alarms), margins set."""
    if not 1 <= a1 <= n - 1:
        raise ValueError("true class sizes must both be positive")
    # The prediction uses both classes.
    mats = [C for C in _block((n - a1, a1)) if 0 < C.b[1] < n]
    mats.sort(key=lambda C: (C[1, 1], C[0, 1]))
    return mats


def margin_matrix_pairs(
    n: int, budget: Budget | None = None
) -> Iterator[tuple[ConfusionMatrix, ConfusionMatrix]]:
    """All unordered pairs of distinct matrices sharing row sums, n fixed.

    Exactly the comparisons a triplet at size n can pose: two predictions
    against one truth share the truth's class sizes and nothing else.
    Each list of :func:`margin_matrices` is built when the walk reaches it.
    """
    if n < 2:
        raise ValueError("need n >= 2 for two-class labelings")
    for a1 in range(1, n):
        for C1, C2 in combinations(margin_matrices(n, a1), 2):
            if budget is not None:
                budget.charge()
            yield C1, C2


def realize_triplet(C1: ConfusionMatrix, C2: ConfusionMatrix) -> Triplet:
    """A concrete triplet whose two confusion matrices are C1 and C2.

    Requires equal row sums.  The truth lists class 0 first; each
    prediction marks its false alarms and hits at the start of the
    respective block.
    """
    if C1.m != 2 or C2.m != 2:
        raise ValueError("triplet realization is for binary matrices")
    if C1.a != C2.a:
        raise ValueError("matrices must share row sums (one common truth)")
    a0, a1 = C1.a
    truth = (0,) * a0 + (1,) * a1

    def pred(C: ConfusionMatrix) -> tuple[int, ...]:
        c01, c11 = C[0, 1], C[1, 1]
        block0 = (1,) * c01 + (0,) * (a0 - c01)
        block1 = (1,) * c11 + (0,) * (a1 - c11)
        return block0 + block1

    return triplet_from_labels(truth, pred(C1), pred(C2))


@dataclass(frozen=True)
class DistinguishingWitness:
    """A matrix pair (and realized triplet) where two measures disagree."""

    measure_1: str
    measure_2: str
    n: int
    matrix_1: ConfusionMatrix
    matrix_2: ConfusionMatrix
    relation_1: int
    relation_2: int
    triplet: Triplet
    values: dict[str, tuple[str, str]]  # measure -> (value on C1, value on C2)

    def to_dict(self) -> dict:
        return {
            "measures": [self.measure_1, self.measure_2],
            "n": self.n,
            "matrix_1": [[str(x) for x in row] for row in self.matrix_1.entries],
            "matrix_2": [[str(x) for x in row] for row in self.matrix_2.entries],
            "relation_1": _REL_SYMBOL[self.relation_1],
            "relation_2": _REL_SYMBOL[self.relation_2],
            "triplet": self.triplet.to_dict(),
            "values": {k: list(v) for k, v in self.values.items()},
        }


class _Walk:
    """The shared-margin matrix pairs at one n and each measure's relation
    on them, both extended only as far as a walk reaches.

    Every walk reads the pairs from the start, so each (measure, pair)
    relation is computed once, by the first walk that reaches it.
    """

    def __init__(self, evs: Sequence[Evaluator], n: int, eps: float):
        if n < 2:
            raise ValueError("need n >= 2 for two-class labelings")
        self.evs = evs
        self.eps = eps
        self._more = margin_matrix_pairs(n)
        self.pairs: list[tuple[ConfusionMatrix, ConfusionMatrix]] = []
        self.relations: list[list[int]] = [[] for _ in evs]

    def _relation(self, i: int, k: int) -> int:
        row = self.relations[i]
        if k == len(row):
            row.append(self.evs[i].compare(*self.pairs[k], self.eps))
        return row[k]

    def _reached(self, k: int) -> bool:
        """Whether pair ``k`` exists; the first walk to reach it adds it."""
        if k == len(self.pairs):
            pair = next(self._more, None)
            if pair is None:
                return False
            self.pairs.append(pair)
        return True

    def first_difference(self, i: int, j: int, budget: Budget | None) -> int | None:
        """Index of the first pair measures ``i`` and ``j`` rank differently,
        or None; ``budget`` is charged one state per pair walked."""
        k = 0
        while self._reached(k):
            if budget is not None:
                budget.charge()
            if self._relation(i, k) != self._relation(j, k):
                return k
            k += 1
        return None


def distinguishing_pair(
    m1, m2, n: int, eps: float = DEFAULT_EPS, budget: Budget | None = None
) -> DistinguishingWitness | None:
    """First shared-margin matrix pair on which the measures disagree."""
    ev1, ev2 = Evaluator(_descriptor(m1)), Evaluator(_descriptor(m2))
    walk = _Walk((ev1, ev2), n, eps)
    k = walk.first_difference(0, 1, budget)
    if k is None:
        return None
    (C1, C2), r1, r2 = walk.pairs[k], walk.relations[0][k], walk.relations[1][k]
    return DistinguishingWitness(
        measure_1=ev1.desc.measure_id,
        measure_2=ev2.desc.measure_id,
        n=n,
        matrix_1=C1,
        matrix_2=C2,
        relation_1=r1,
        relation_2=r2,
        triplet=realize_triplet(C1, C2),
        values={
            ev.desc.measure_id: (value_str(ev.oriented(C1)), value_str(ev.oriented(C2)))
            for ev in (ev1, ev2)
        },
    )


def indistinguishable_at(
    m1, m2, n: int, eps: float = DEFAULT_EPS, budget: Budget | None = None
) -> bool:
    return distinguishing_pair(m1, m2, n, eps, budget) is None


def indistinguishable_groups(
    n: int,
    measures: Sequence = CONSISTENCY_IDS,
    eps: float = DEFAULT_EPS,
    budget: Budget | None = None,
) -> tuple[tuple[str, ...], ...]:
    """Partition of the measures into order-identical groups at size n.

    Groups are grown greedily in input order and a candidate joins only
    when indistinguishable from every current member, so the result is a
    well-defined partition even if pairwise indistinguishability failed
    to be transitive (on this registry it is transitive at every n).

    Every measure pair walks the shared-margin matrix pairs in order up to
    its first difference, and ``budget`` is charged one state per matrix
    pair walked.  The walks share one list of matrix pairs and one row of
    relations per measure, each extended by the first walk that reaches
    its end, so a measure relates a matrix pair at most once however many
    measure pairs walk past it.
    """
    evs = [Evaluator(_descriptor(m)) for m in measures]
    walk = _Walk(evs, n, eps)
    pair_ok = {
        (i, j): walk.first_difference(i, j, budget) is None
        for i, j in combinations(range(len(evs)), 2)
    }
    groups: list[list[int]] = []
    for i in range(len(evs)):
        for group in groups:
            if all(pair_ok[(min(i, j), max(i, j))] for j in group):
                group.append(i)
                break
        else:
            groups.append([i])
    return tuple(tuple(evs[i].desc.measure_id for i in group) for group in groups)


# ---------------------------------------------------------------------------
# shipped discriminating triplets

#: Six ten-element triplets that jointly separate every pair of the
#: order-consistency measures; found by search over n=10.
KNOWN_DISCRIMINATING_TRIPLETS: tuple[Triplet, ...] = (
    triplet_from_labels(
        (1, 1, 1, 0, 1, 1, 0, 1, 1, 0),
        (1, 1, 1, 0, 1, 0, 1, 1, 1, 1),
        (1, 0, 0, 1, 0, 1, 0, 1, 1, 0),
    ),
    triplet_from_labels(
        (0, 1, 1, 1, 1, 0, 1, 1, 0, 1),
        (1, 0, 0, 1, 0, 1, 0, 1, 1, 0),
        (0, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    ),
    triplet_from_labels(
        (0, 0, 0, 0, 1, 1, 1, 0, 1, 0),
        (1, 1, 1, 1, 1, 1, 1, 1, 0, 1),
        (0, 1, 1, 1, 1, 0, 1, 1, 0, 1),
    ),
    triplet_from_labels(
        (0, 1, 1, 1, 1, 0, 1, 1, 0, 1),
        (1, 1, 1, 1, 1, 1, 1, 1, 0, 1),
        (0, 1, 0, 1, 1, 1, 1, 1, 0, 1),
    ),
    triplet_from_labels(
        (0, 0, 0, 0, 1, 1, 1, 0, 1, 0),
        (0, 1, 1, 0, 0, 1, 0, 0, 0, 1),
        (0, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    ),
    triplet_from_labels(
        (1, 1, 1, 1, 1, 1, 1, 1, 0, 1),
        (1, 1, 1, 0, 1, 1, 0, 1, 1, 0),
        (0, 1, 1, 0, 0, 1, 0, 0, 0, 1),
    ),
)

#: Which shipped triplet separates each measure pair (0-based index).
DISCRIMINATING_TRIPLET_INDEX: dict[frozenset, int] = {
    frozenset(pair): idx
    for pair, idx in {
        ("acc", "ba"): 0,
        ("acc", "f:beta=1"): 1,
        ("acc", "kappa"): 5,
        ("acc", "ce"): 5,
        ("acc", "gm:r=1"): 0,
        ("acc", "cc"): 4,
        ("acc", "sba"): 4,
        ("ba", "f:beta=1"): 0,
        ("ba", "kappa"): 0,
        ("ba", "ce"): 0,
        ("ba", "gm:r=1"): 2,
        ("ba", "cc"): 2,
        ("ba", "sba"): 0,
        ("f:beta=1", "kappa"): 1,
        ("f:beta=1", "ce"): 1,
        ("f:beta=1", "gm:r=1"): 0,
        ("f:beta=1", "cc"): 1,
        ("f:beta=1", "sba"): 1,
        ("kappa", "ce"): 3,
        ("kappa", "gm:r=1"): 0,
        ("kappa", "cc"): 2,
        ("kappa", "sba"): 2,
        ("ce", "gm:r=1"): 0,
        ("ce", "cc"): 2,
        ("ce", "sba"): 2,
        ("gm:r=1", "cc"): 4,
        ("gm:r=1", "sba"): 0,
        ("cc", "sba"): 3,
    }.items()
}


def discriminating_triplet_for(m1, m2) -> tuple[int, Triplet]:
    """The shipped triplet separating two of the consistency measures."""
    key = frozenset((_descriptor(m1).measure_id, _descriptor(m2).measure_id))
    if key not in DISCRIMINATING_TRIPLET_INDEX:
        raise KeyError(f"no shipped triplet for pair {sorted(key)}")
    idx = DISCRIMINATING_TRIPLET_INDEX[key]
    return idx, KNOWN_DISCRIMINATING_TRIPLETS[idx]


# ---------------------------------------------------------------------------
# inconsistency rates over explicit comparisons


@dataclass(frozen=True)
class PairwiseReport:
    """Inconsistency counts per measure pair over a list of comparisons.

    Rates are symmetric in the pair; a measure against itself is not
    reported.  ``eps_sensitive`` counts comparisons whose verdict for the
    pair differs between eps/10 and 10*eps.
    """

    measures: tuple[str, ...]
    comparisons: int
    eps: float
    inconsistent: dict
    eps_sensitive: dict

    def _key(self, m1, m2) -> tuple[str, str]:
        i1 = self.measures.index(_descriptor(m1).measure_id)
        i2 = self.measures.index(_descriptor(m2).measure_id)
        if i1 == i2:
            raise ValueError("inconsistency of a measure with itself is undefined")
        if i1 > i2:
            i1, i2 = i2, i1
        return (self.measures[i1], self.measures[i2])

    def count(self, m1, m2) -> int:
        return self.inconsistent[self._key(m1, m2)]

    def rate(self, m1, m2) -> Fraction:
        return Fraction(self.count(m1, m2), self.comparisons)

    def to_dict(self) -> dict:
        return {
            "measures": list(self.measures),
            "comparisons": self.comparisons,
            "eps": self.eps,
            "pairs": [
                {
                    "pair": list(pair),
                    "inconsistent": count,
                    "rate": str(Fraction(count, self.comparisons)),
                    "percent": f"{100 * count / self.comparisons:.1f}",
                    "eps_sensitive": self.eps_sensitive[pair],
                }
                for pair, count in self.inconsistent.items()
            ],
        }


def pairwise_inconsistency(
    measures: Sequence,
    comparisons: Sequence[tuple[ConfusionMatrix, ConfusionMatrix]],
    eps: float = DEFAULT_EPS,
) -> PairwiseReport:
    """How often each measure pair ranks the given comparisons differently.

    ``comparisons`` holds (matrix, matrix) pairs, each understood as two
    predictions against one truth (so both matrices of a pair should
    share row sums, though only evaluability is enforced).
    """
    descs = [_descriptor(m) for m in measures]
    if len(descs) < 2:
        raise ValueError("need at least two measures")
    if len({d.measure_id for d in descs}) != len(descs):
        raise ValueError("duplicate measures in the list")
    comparisons = list(comparisons)
    if not comparisons:
        raise ValueError("no comparisons given")
    sizes = {C.m for pair in comparisons for C in pair}
    if len(sizes) != 1:
        raise ValueError(f"comparisons mix class counts: {sorted(sizes)}")
    evs = [Evaluator(d) for d in descs]
    eps_levels = (eps / 10, eps, eps * 10)
    ids = tuple(d.measure_id for d in descs)
    inconsistent = {
        (ids[i], ids[j]): 0 for i, j in combinations(range(len(ids)), 2)
    }
    sensitive = dict.fromkeys(inconsistent, 0)
    for C1, C2 in comparisons:
        rels = [tuple(ev.compare(C1, C2, e) for e in eps_levels) for ev in evs]
        for i, j in combinations(range(len(descs)), 2):
            key = (ids[i], ids[j])
            if rels[i][1] != rels[j][1]:
                inconsistent[key] += 1
            if (rels[i][0] != rels[j][0]) != (rels[i][2] != rels[j][2]):
                sensitive[key] += 1
    return PairwiseReport(
        measures=ids,
        comparisons=len(comparisons),
        eps=eps,
        inconsistent=inconsistent,
        eps_sensitive=sensitive,
    )


# ---------------------------------------------------------------------------
# ranking models


@dataclass(frozen=True)
class RankedModel:
    name: str
    value: str
    value_float: float
    rank: int

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "value_float": self.value_float,
            "rank": self.rank,
        }


@dataclass(frozen=True)
class MeasureRanking:
    measure_id: str
    entries: tuple[RankedModel, ...]

    def to_dict(self) -> dict:
        return {
            "measure": self.measure_id,
            "ranking": [e.to_dict() for e in self.entries],
        }


def rank_models(
    measures: Sequence,
    matrices: Sequence[ConfusionMatrix],
    names: Sequence[str] | None = None,
    eps: float = DEFAULT_EPS,
) -> list[MeasureRanking]:
    """Rank predictions against one truth under each measure.

    ``matrices`` are the predictions' confusion matrices against the
    truth, one per model.

    Competition ranking: tied models share the best rank of the tie, and
    the next model's rank counts everyone above it.  Entries come out
    sorted by rank, input order within ties.
    """
    if not matrices:
        raise ValueError("no predictions given")
    if names is None:
        names = [f"model_{i + 1}" for i in range(len(matrices))]
    names = list(names)
    if len(names) != len(matrices):
        raise ValueError("names and predictions differ in length")
    out = []
    for measure in measures:
        ev = Evaluator(_descriptor(measure))
        values = [ev.oriented(C) for C in matrices]
        ranks = [1 + sum(ev.compare(D, C, eps) > 0 for D in matrices) for C in matrices]
        order = sorted(range(len(values)), key=lambda i: (ranks[i], i))
        out.append(
            MeasureRanking(
                measure_id=ev.desc.measure_id,
                entries=tuple(
                    RankedModel(
                        name=names[i],
                        value=value_str(values[i]),
                        value_float=as_float(values[i]),
                        rank=ranks[i],
                    )
                    for i in order
                ),
            )
        )
    return out
