"""The memoized evaluator: one memo per measure, shared by its uses.

``audit_grid`` and ``check_averaging_preservation`` run every property
of one measure on one row evaluator; these tests hold them to fresh
per-cell ``check_property`` calls, pin that a matrix is evaluated once
per row (and once per measure in ``indistinguishable_groups``), and that
no evaluator outlives the call that made it.  The ``dist`` pair index is
held to ``build_confusion`` on every labeling pair.
"""

import gc
import itertools

import pytest

from clfmeasures import (
    AuditSpace,
    Budget,
    EnumerationBudgetExceeded,
    audit_grid,
    check_averaging_preservation,
    check_property,
    parse_measure_id,
)
from clfmeasures import baselines, measures, properties
from clfmeasures.cli import MULTICLASS_IDS
from clfmeasures.core import ConfusionMatrix, Labeling, build_confusion
from clfmeasures.inconsistency import indistinguishable_groups, pairwise_inconsistency
from clfmeasures.measures import CANONICAL_IDS, SCHEMES, with_scheme
from clfmeasures.properties import ALL_PROPERTIES, audit_space_policy


def _per_cell(measure_ids, props, m, n_max, budget=None):
    out = []
    for mid in measure_ids:
        desc = parse_measure_id(mid)
        for prop in props:
            space = audit_space_policy(desc, prop, m, n_max)
            out.append(check_property(desc, prop, space, budget=budget))
    return out


def _dicts(verdicts):
    return [v.to_dict() for v in verdicts]


class TestAgainstFreshCells:
    def test_binary_registry(self):
        got = audit_grid(CANONICAL_IDS, ALL_PROPERTIES, n_max=5)
        assert _dicts(got) == _dicts(_per_cell(CANONICAL_IDS, ALL_PROPERTIES, 2, 5))

    def test_multiclass_registry(self):
        got = audit_grid(MULTICLASS_IDS, ALL_PROPERTIES, m=3, n_max=4)
        assert _dicts(got) == _dicts(_per_cell(MULTICLASS_IDS, ALL_PROPERTIES, 3, 4))

    def test_averaged_registry(self):
        ids = [
            with_scheme(parse_measure_id(mid), scheme).measure_id
            for mid in CANONICAL_IDS
            for scheme in SCHEMES
        ]
        props = ("min", "mon", "smon", "cb", "acb")
        got = audit_grid(ids, props, m=3, n_max=3)
        assert _dicts(got) == _dicts(_per_cell(ids, props, 3, 3))

    @pytest.mark.parametrize("limit", [1, 40, 700, 5_000, 10**6])
    def test_budgeted(self, limit):
        ids, props = ("kappa", "cc:macro"), ("max", "cb", "mon", "dist", "acb")

        def outcome(run):
            budget = Budget(limit)
            try:
                result = _dicts(run(budget))
            except EnumerationBudgetExceeded:
                result = "exceeded"
            return result, budget.used

        grid = outcome(lambda b: audit_grid(ids, props, m=3, n_max=4, budget=b))
        cells = outcome(lambda b: _per_cell(ids, props, 3, 4, budget=b))
        assert grid == cells

    def test_preservation_spaces_share_one_row(self):
        spaces = (
            AuditSpace(m=3, n_max=3, mon_n_max=3, dist_n_max=3, cb_n_max=3, cb_min_col=1),
            AuditSpace(m=4, n_max=4, mon_n_max=4, dist_n_max=3, cb_n_max=4, cb_min_col=1),
        )
        for scheme, prop in (("weighted", "mon"), ("macro", "cb"), ("micro", "sym")):
            got = check_averaging_preservation(scheme, prop, spaces)
            for base in got.bases_checked:
                averaged = with_scheme(parse_measure_id(base), scheme)
                fresh = [check_property(averaged, prop, s) for s in spaces]
                first_bad = next((v for v in fresh if not v.satisfied), None)
                if base == got.witness_measure:
                    assert got.inner == first_bad
                    break
                assert first_bad is None


def _record_evaluations(monkeypatch, seen):
    """Record ``(measure id, entries)`` of every int matrix evaluated."""
    evaluate = measures.evaluate

    def recording(desc, C):
        if all(type(x) is int for row in C.entries for x in row):
            seen.append((desc.measure_id, C.entries))
        return evaluate(desc, C)

    for module in (measures, properties, baselines):
        monkeypatch.setattr(module, "evaluate", recording)


def test_each_int_matrix_is_evaluated_once(monkeypatch):
    # On both keyed rows, the angle and its cc key (the acb lattices
    # included) go through the row's memos.
    seen = []
    _record_evaluations(monkeypatch, seen)
    for mid in ("cd", "cdprime"):
        seen.clear()
        audit_grid([mid], ALL_PROPERTIES, n_max=5)
        assert {m for m, _ in seen} == {mid, "cc"}
        assert len(seen) == len(set(seen))


def test_groups_evaluate_each_matrix_once_per_measure(monkeypatch):
    seen = []
    _record_evaluations(monkeypatch, seen)
    indistinguishable_groups(10)
    assert len({mid for mid, _ in seen}) == 8
    assert len(seen) == len(set(seen))


def _live_evaluators() -> int:
    return sum(isinstance(x, measures.Evaluator) for x in gc.get_objects())


def _comparisons():
    pairs = [((4, 1), (2, 3)), ((3, 2), (1, 4)), ((5, 0), (0, 5))]
    C = [ConfusionMatrix(e) for e in pairs]
    return [(C[0], C[1]), (C[1], C[2]), (C[0], C[2])]


@pytest.mark.parametrize(
    "run",
    [
        lambda: audit_grid(["cd", "cc"], ALL_PROPERTIES, n_max=4),
        lambda: audit_grid(["cc:weighted", "acc"], ("mon", "cb", "dist"), m=3, n_max=3),
        lambda: check_averaging_preservation(
            "macro", "cb", [AuditSpace(m=3, n_max=3, cb_n_max=3, cb_min_col=1)]
        ),
        lambda: indistinguishable_groups(8),
        lambda: pairwise_inconsistency(["acc", "ce", "cc:macro"], _comparisons()),
    ],
    ids=["binary", "multiclass", "preservation", "groups", "pairwise"],
)
def test_no_evaluator_outlives_its_call(run):
    gc.collect()
    run()
    # No collection here: each row must be freed by reference counting
    # as soon as it is done, not at some later collection.
    assert _live_evaluators() == 0


@pytest.mark.parametrize(
    "m, n",
    [(m, n) for m in (2, 3) for n in range(1, 6)] + [(2, 6), (6, 3)],
)
def test_dist_level_rows_match_build_confusion(m, n):
    # (6, 3) has matrix keys beyond 2**63: (n + 1)**(m * m) = 4**36.
    labelings, rows, starts = properties._level(m, n, 0).pairs
    level = [C.entries for C in properties._level(m, n, 0).matrices]
    assert labelings == tuple(itertools.product(range(m), repeat=n))
    first = {}
    for p, a in enumerate(labelings):
        for q, b in enumerate(labelings):
            k = rows[p][q]
            assert level[k] == build_confusion(Labeling(a, m), Labeling(b, m)).entries
            first.setdefault(k, (p, q))
    # One start pair per matrix: its first pair in product order.
    assert starts == tuple(sorted((p, q, k) for k, (p, q) in first.items()))
    assert len(starts) == len(level)
