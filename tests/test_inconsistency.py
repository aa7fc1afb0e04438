"""Order consistency: distinguishability by n, shipped triplets, rankings."""

from fractions import Fraction
from functools import cache, partial
from itertools import combinations

import pytest

from clfmeasures import (
    Budget,
    ConfusionMatrix,
    EnumerationBudgetExceeded,
    evaluate,
    parse_measure_id,
    value_cmp,
)
from clfmeasures import inconsistency
from clfmeasures.core import Labeling, build_confusion
from clfmeasures.dataio import LabelingPair
from clfmeasures.inconsistency import (
    CONSISTENT,
    INCONSISTENT,
    DISCRIMINATING_TRIPLET_INDEX,
    KNOWN_DISCRIMINATING_TRIPLETS,
    DistinguishingWitness,
    discriminating_triplet_for,
    distinguishing_pair,
    indistinguishable_at,
    indistinguishable_groups,
    margin_matrices,
    margin_matrix_pairs,
    pairwise_inconsistency,
    rank_models,
    realize_triplet,
    relation_sign,
    triplet_from_labels,
    triplet_verdict,
)
from clfmeasures.measures import CONSISTENCY_IDS, Evaluator
from clfmeasures.orders import rate_matrix
from clfmeasures.values import root_value
from reference_triplets import distinguishing_triplet_bruteforce

HALF = Fraction(1, 2)

# Greedy partition of the consistency measures into order-identical
# groups, by sample size.  The collapse pattern is the point: everything
# is one group at n=2 and the groups dissolve one split at a time until
# nothing is left by n=9.
EXPECTED_GROUPS = {
    2: (("acc", "ba", "f:beta=1", "kappa", "ce", "gm:r=1", "cc", "sba"),),
    3: (("acc", "ba", "kappa", "gm:r=1", "cc", "sba"), ("f:beta=1",), ("ce",)),
    4: (("acc",), ("ba", "kappa", "gm:r=1", "cc", "sba"), ("f:beta=1",), ("ce",)),
    5: (("acc",), ("ba", "kappa", "gm:r=1", "cc", "sba"), ("f:beta=1",), ("ce",)),
    6: (("acc",), ("ba",), ("f:beta=1",), ("kappa",), ("ce",), ("gm:r=1", "cc", "sba")),
    7: (("acc",), ("ba",), ("f:beta=1",), ("kappa",), ("ce",), ("gm:r=1", "cc", "sba")),
    8: (("acc",), ("ba",), ("f:beta=1",), ("kappa",), ("ce",), ("gm:r=1",), ("cc", "sba")),
    9: tuple((mid,) for mid in CONSISTENCY_IDS),
    10: tuple((mid,) for mid in CONSISTENCY_IDS),
}


class TestMarginReduction:
    def test_margin_matrices_cover_predictions(self):
        mats = margin_matrices(4, 1)
        assert all(C.a == (3, 1) for C in mats)
        assert all(0 < C.b[1] < 4 for C in mats)
        # c11 in {0, 1} x c01 in {0..3}, minus both-empty and all-positive
        assert len(mats) == 6

    def test_margin_matrices_carry_recomputed_margins(self):
        for n in range(2, 9):
            for a1 in range(1, n):
                for C in margin_matrices(n, a1):
                    V = ConfusionMatrix(C.entries)
                    assert (C.a, C.b, C.n, C.diagonal_sum) == (V.a, V.b, V.n, V.diagonal_sum)

    def test_margin_matrices_validation(self):
        with pytest.raises(ValueError):
            margin_matrices(4, 0)
        with pytest.raises(ValueError):
            margin_matrices(4, 4)

    def test_pair_budget(self):
        with pytest.raises(EnumerationBudgetExceeded):
            list(margin_matrix_pairs(6, budget=Budget(5)))

    def test_groups_build_each_list_once_and_only_when_reached(self, monkeypatch):
        built = []

        def matrices(n, a1):
            built.append((n, a1))
            return margin_matrices(n, a1)

        monkeypatch.setattr(inconsistency, "margin_matrices", matrices)
        assert indistinguishable_groups(8) == EXPECTED_GROUPS[8]
        assert built == [(8, a1) for a1 in range(1, 8)]
        built.clear()
        # The first list holds thousands of pairs: the budget stops the
        # first measure pair inside it, before any other list is built.
        with pytest.raises(EnumerationBudgetExceeded):
            indistinguishable_groups(400, budget=Budget(50))
        assert built == [(400, 1)]

    def test_realize_triplet_round_trip(self):
        for n in (3, 5, 7):
            for C1, C2 in margin_matrix_pairs(n):
                t = realize_triplet(C1, C2)
                assert t.matrices() == (C1, C2)

    def test_realize_triplet_validation(self):
        with pytest.raises(ValueError):
            realize_triplet(
                ConfusionMatrix(((2, 0), (0, 1))),
                ConfusionMatrix(((1, 0), (0, 2))),
            )
        diag3 = ConfusionMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        with pytest.raises(ValueError):
            realize_triplet(diag3, diag3)

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_bruteforce_oracle(self, n):
        # The shared-margin reduction must agree with direct enumeration
        # over labeling triplets on every measure pair.
        for m1, m2 in combinations(CONSISTENCY_IDS, 2):
            fast = indistinguishable_at(m1, m2, n)
            slow = distinguishing_triplet_bruteforce(m1, m2, n) is None
            assert fast == slow, (m1, m2, n)


class TestGroups:
    @pytest.mark.parametrize("n", sorted(EXPECTED_GROUPS))
    def test_partition_by_size(self, n):
        assert indistinguishable_groups(n) == EXPECTED_GROUPS[n]

    def test_monotone_transforms_indistinguishable(self):
        # Order-identical pairs stay fused at every probed size: J is a
        # monotone transform of F1 and cd of cc.
        for n in range(2, 9):
            assert indistinguishable_at("jaccard", "f:beta=1", n)
            assert indistinguishable_at("cd", "cc", n)

    def test_distinguishing_witness_shape(self):
        w = distinguishing_pair("acc", "ba", 4)
        assert isinstance(w, DistinguishingWitness)
        assert w.n == 4
        assert w.relation_1 != w.relation_2
        assert w.matrix_1.a == w.matrix_2.a
        t = w.triplet
        assert t.matrices() == (w.matrix_1, w.matrix_2)
        d = w.to_dict()
        assert d["measures"] == ["acc", "ba"]
        assert d["relation_1"] != d["relation_2"]

    def test_cc_sba_fused_below_nine(self):
        assert indistinguishable_at("cc", "sba", 8)
        assert not indistinguishable_at("cc", "sba", 9)

    @pytest.mark.parametrize("measures", [(), ("acc",), ("acc", "ba")])
    def test_sample_size_checked_before_the_walk(self, measures):
        # Fewer than two measures walk no pair, so n is checked up front.
        with pytest.raises(ValueError, match="n >= 2"):
            indistinguishable_groups(1, measures)


class _RecordingBudget(Budget):
    """A budget that records every charge with the number of shared-margin
    lists built when it was made."""

    def __init__(self, built):
        super().__init__(10**9)
        self.built = built
        self.charges = []

    def charge(self, amount: int = 1) -> None:
        self.charges.append((amount, len(self.built)))
        super().charge(amount)


def _pairwise_first_difference(ev1, ev2, n, eps, budget, matrices):
    """The walk each measure pair made on its own: every pair of the lists
    ``matrices(a1)`` in order, charged first, both measures related
    afresh, up to the first difference."""
    for a1 in range(1, n):
        for C1, C2 in combinations(matrices(a1), 2):
            budget.charge()
            r1 = value_cmp(ev1.oriented(C1), ev1.oriented(C2), eps)
            r2 = value_cmp(ev2.oriented(C1), ev2.oriented(C2), eps)
            if r1 != r2:
                return C1, C2, r1, r2
    return None


def _pairwise_groups(n, measures, eps, budget):
    """Greedy groups from one independent walk per measure pair."""
    evs = [Evaluator(parse_measure_id(m)) for m in measures]
    matrices = cache(partial(inconsistency.margin_matrices, n))
    pair_ok = {
        (i, j): _pairwise_first_difference(evs[i], evs[j], n, eps, budget, matrices) is None
        for i, j in combinations(range(len(evs)), 2)
    }
    groups = []
    for i in range(len(evs)):
        for group in groups:
            if all(pair_ok[(min(i, j), max(i, j))] for j in group):
                group.append(i)
                break
        else:
            groups.append([i])
    return tuple(tuple(evs[i].desc.measure_id for i in group) for group in groups)


WALK_IDS = CONSISTENCY_IDS + ("cd", "cdprime", "ce:macro")
WALK_EPS = (0.0, 1e-12, 0.05)


def _assert_walk_like_pairwise(monkeypatch, n, eps):
    built = []

    def matrices(n, a1):
        built.append((n, a1))
        return margin_matrices(n, a1)

    monkeypatch.setattr(inconsistency, "margin_matrices", matrices)
    expected_budget = _RecordingBudget(built)
    expected = _pairwise_groups(n, WALK_IDS, eps, expected_budget)
    built.clear()
    budget = _RecordingBudget(built)
    assert indistinguishable_groups(n, WALK_IDS, eps, budget) == expected
    assert budget.charges == expected_budget.charges


class TestSharedWalk:
    """The groups' shared walk against one walk per measure pair."""

    @pytest.mark.parametrize("eps", WALK_EPS)
    @pytest.mark.parametrize("n", range(2, 10))
    def test_groups_and_charges_match_pairwise_walks(self, monkeypatch, n, eps):
        _assert_walk_like_pairwise(monkeypatch, n, eps)

    @pytest.mark.slow
    @pytest.mark.parametrize("eps", WALK_EPS)
    @pytest.mark.parametrize("n", range(10, 13))
    def test_groups_and_charges_match_pairwise_walks_to_12(self, monkeypatch, n, eps):
        _assert_walk_like_pairwise(monkeypatch, n, eps)

    @pytest.mark.parametrize("m1, m2", [("acc", "ba"), ("cc", "sba"), ("cd", "cc"), ("ce", "ce:macro")])
    @pytest.mark.parametrize("n", [4, 8, 9])
    def test_witness_is_the_pairwise_first_difference(self, m1, m2, n):
        evs = [Evaluator(parse_measure_id(m)) for m in (m1, m2)]
        expected_budget, budget = Budget(10**9), Budget(10**9)
        expected = _pairwise_first_difference(
            *evs, n, 1e-12, expected_budget, partial(margin_matrices, n)
        )
        w = distinguishing_pair(m1, m2, n, 1e-12, budget)
        got = None if w is None else (w.matrix_1, w.matrix_2, w.relation_1, w.relation_2)
        assert got == expected
        assert budget.used == expected_budget.used

    def test_each_relation_is_computed_once(self, monkeypatch):
        seen = []
        compare = Evaluator.compare

        def recording(ev, C1, C2, eps, value=None):
            seen.append((ev.desc.measure_id, C1.entries, C2.entries))
            return compare(ev, C1, C2, eps, value)

        monkeypatch.setattr(Evaluator, "compare", recording)
        for n in range(2, 10):
            seen.clear()
            indistinguishable_groups(n, WALK_IDS)
            assert seen and len(seen) == len(set(seen)), n


class TestShippedTriplets:
    def test_six_triplets_of_ten(self):
        assert len(KNOWN_DISCRIMINATING_TRIPLETS) == 6
        for t in KNOWN_DISCRIMINATING_TRIPLETS:
            assert len(t.truth) == 10
            assert t.m == 2

    def test_index_covers_all_pairs(self):
        pairs = set(map(frozenset, combinations(CONSISTENCY_IDS, 2)))
        assert set(DISCRIMINATING_TRIPLET_INDEX) == pairs
        assert len(pairs) == 28

    @pytest.mark.parametrize("m1,m2", list(combinations(CONSISTENCY_IDS, 2)))
    def test_every_pair_separated(self, m1, m2):
        idx, t = discriminating_triplet_for(m1, m2)
        assert t is KNOWN_DISCRIMINATING_TRIPLETS[idx]
        assert triplet_verdict(m1, m2, t) == INCONSISTENT

    def test_unknown_pair_raises(self):
        with pytest.raises(KeyError):
            discriminating_triplet_for("acc", "cd")

    def test_acc_ba_triplet_values(self):
        _, t = discriminating_triplet_for("acc", "ba")
        C1, C2 = t.matrices()
        assert evaluate(parse_measure_id("acc"), C1) == Fraction(7, 10)
        assert evaluate(parse_measure_id("acc"), C2) == Fraction(3, 5)
        assert evaluate(parse_measure_id("ba"), C1) == Fraction(25, 42)
        assert evaluate(parse_measure_id("ba"), C2) == Fraction(13, 21)
        assert relation_sign("acc", C1, C2) == 1
        assert relation_sign("ba", C1, C2) == -1

    def test_gm_triplet_values(self):
        _, t = discriminating_triplet_for("acc", "gm:r=1")
        C1, C2 = t.matrices()
        gm = parse_measure_id("gm:r=1")
        assert evaluate(gm, C1) == Fraction(8, 37)
        assert evaluate(gm, C2) == Fraction(5, 23)

    def test_cc_sba_triplet_values(self):
        _, t = discriminating_triplet_for("cc", "sba")
        C1, C2 = t.matrices()
        cc = parse_measure_id("cc")
        sba = parse_measure_id("sba")
        assert value_cmp(evaluate(cc, C1), root_value(Fraction(1, 54), 756, 2)) == 0
        assert evaluate(cc, C2) == Fraction(11, 21)
        assert evaluate(sba, C1) == Fraction(7, 9)
        assert evaluate(sba, C2) == Fraction(16, 21)
        assert relation_sign("cc", C1, C2) == -1
        assert relation_sign("sba", C1, C2) == 1

    def test_dissimilarity_orientation_in_relations(self):
        _, t = discriminating_triplet_for("cc", "sba")
        C1, C2 = t.matrices()
        # cd flips under orientation, so its relation matches cc's
        assert relation_sign("cd", C1, C2) == relation_sign("cc", C1, C2)


class TestPairwise:
    def test_acc_vs_ba_counts(self):
        comparisons = list(margin_matrix_pairs(5))
        report = pairwise_inconsistency(["acc", "ba"], comparisons)
        assert report.comparisons == len(comparisons)
        count = report.count("acc", "ba")
        assert 0 < count < len(comparisons)
        assert report.rate("acc", "ba") == Fraction(count, len(comparisons))
        assert report.rate("ba", "acc") == report.rate("acc", "ba")
        d = report.to_dict()
        assert d["pairs"][0]["pair"] == ["acc", "ba"]

    def test_consistent_pair_counts_zero(self):
        comparisons = list(margin_matrix_pairs(5))
        report = pairwise_inconsistency(["cc", "cd"], comparisons)
        assert report.count("cc", "cd") == 0

    def test_exact_values_ignore_eps(self):
        # Rational measures compare exactly at every eps, so a 5e-12
        # accuracy gap still outranks the constant anyagree and the
        # verdict is not eps-sensitive.
        C1 = rate_matrix(Fraction(1, 4), HALF, HALF)
        C2 = rate_matrix(Fraction(1, 4) + Fraction(25, 10**13), HALF, HALF)
        report = pairwise_inconsistency(["acc", "anyagree"], [(C1, C2)])
        assert report.count("acc", "anyagree") == 1
        assert report.eps_sensitive[("acc", "anyagree")] == 0

    def test_eps_sensitivity(self):
        # cd is float-valued, so its relation obeys the eps ladder: a
        # joint-rate nudge of 2.5e-12 moves cd by about 4*that/pi, which
        # reads as a strict relation at eps/10 but a tie at 10*eps.
        # Exact cc always sees the strict relation, so the pair verdict
        # flips between the ladder's ends.
        C1 = rate_matrix(Fraction(1, 4), HALF, HALF)
        C2 = rate_matrix(Fraction(1, 4) + Fraction(25, 10**13), HALF, HALF)
        report = pairwise_inconsistency(["cc", "cd"], [(C1, C2)])
        assert report.count("cc", "cd") == 0
        assert report.eps_sensitive[("cc", "cd")] == 1

    def test_validation(self):
        comparisons = list(margin_matrix_pairs(3))
        with pytest.raises(ValueError):
            pairwise_inconsistency(["acc"], comparisons)
        with pytest.raises(ValueError):
            pairwise_inconsistency(["acc", "acc"], comparisons)
        with pytest.raises(ValueError):
            pairwise_inconsistency(["acc", "ba"], [])
        mixed = [
            (
                ConfusionMatrix(((1, 0), (0, 1))),
                ConfusionMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1))),
            )
        ]
        with pytest.raises(ValueError):
            pairwise_inconsistency(["acc", "ba"], mixed)

    def test_self_rate_undefined(self):
        report = pairwise_inconsistency(["acc", "ba"], list(margin_matrix_pairs(3)))
        with pytest.raises(ValueError):
            report.count("acc", "acc")


class TestRankModels:
    TRUTH = Labeling((0, 0, 1, 1, 1), 2)
    PREDS = [Labeling(p, 2) for p in ((0, 0, 1, 1, 0), (1, 0, 1, 1, 1), (0, 0, 1, 1, 1))]
    MATRICES = list(map(build_confusion, [TRUTH] * len(PREDS), PREDS))

    def test_competition_ranking_with_tie(self):
        (ranking,) = rank_models(["acc"], self.MATRICES, names=["A", "B", "C"])
        assert ranking.measure_id == "acc"
        by_name = {e.name: e for e in ranking.entries}
        assert by_name["C"].rank == 1
        assert by_name["A"].rank == 2
        assert by_name["B"].rank == 2
        assert [e.name for e in ranking.entries] == ["C", "A", "B"]
        assert by_name["A"].value == "4/5"

    def test_measures_rank_differently(self):
        rankings = rank_models(["acc", "ba"], self.MATRICES)
        by_measure = {r.measure_id: r for r in rankings}
        acc_ranks = {e.name: e.rank for e in by_measure["acc"].entries}
        ba_ranks = {e.name: e.rank for e in by_measure["ba"].entries}
        assert acc_ranks["model_1"] == acc_ranks["model_2"]
        assert ba_ranks["model_1"] < ba_ranks["model_2"]

    def test_dissimilarity_ranks_like_similarity(self):
        rankings = rank_models(["cc", "cd"], self.MATRICES)
        orders = [[e.name for e in r.entries] for r in rankings]
        assert orders[0] == orders[1]

    def test_counted_matrices_rank_as_their_labelings(self):
        # The matrices the CLI ranks are counted per distinct row of a
        # labels file; they rank as the matrices of the labelings.
        counted = [LabelingPair(self.TRUTH, p, "01").matrix() for p in self.PREDS]
        ids = ["acc", "ba", "cc", "cd"]
        assert rank_models(ids, counted) == rank_models(ids, self.MATRICES)

    def test_validation(self):
        with pytest.raises(ValueError):
            rank_models(["acc"], [])
        with pytest.raises(ValueError):
            rank_models(["acc"], self.MATRICES, names=["only-one"])

    def test_serialization(self):
        (ranking,) = rank_models(["kappa"], self.MATRICES)
        d = ranking.to_dict()
        assert d["measure"] == "kappa"
        assert len(d["ranking"]) == 3
        assert {"name", "value", "value_float", "rank"} <= set(d["ranking"][0])


class TestTripletBasics:
    def test_verdict_consistent(self):
        t = triplet_from_labels((0, 1, 1), (0, 1, 1), (1, 1, 1))
        assert triplet_verdict("acc", "ba", t) == CONSISTENT

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            triplet_from_labels((0, 1), (0, 1, 1), (1, 1, 1))
