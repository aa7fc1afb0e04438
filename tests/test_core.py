"""Matrices, labelings, and enumeration plumbing."""

import copy
import itertools
import math
import pickle
import random
import types
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clfmeasures
from clfmeasures import baselines, properties
from clfmeasures.core import (
    Budget,
    ConfusionMatrix,
    EnumerationBudgetExceeded,
    Labeling,
    build_confusion,
    compositions,
    confusion_matrix,
    enumerate_confusion_matrices,
    enumerate_entries,
    enumerate_labelings,
    expected_matrix,
    multinomial,
    one_vs_all,
    permute_classes,
    transpose,
)
from clfmeasures.averaging import micro_counts
from clfmeasures.dataio import LabelingPair
from clfmeasures.inconsistency import margin_matrices, pairwise_inconsistency, rank_models
from clfmeasures.orders import lattice_matrix, rate_matrix


class TestConfusionMatrix:
    def test_margins(self):
        C = confusion_matrix([[4, 1], [2, 3]])
        assert C.m == 2
        assert C.n == 10
        assert C.a == (5, 5)
        assert C.b == (6, 4)
        assert C.diagonal_sum == 7

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            confusion_matrix([[1, -1], [0, 2]])

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            confusion_matrix([[1, 2], [3]])

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            confusion_matrix([[0, 0], [0, 0]])

    def test_rejects_non_integer_float(self):
        with pytest.raises(ValueError):
            confusion_matrix([[1.5, 0], [0, 1]])

    def test_accepts_integral_floats_and_strings(self):
        C = confusion_matrix([[2.0, "1/2"], ["1", Fraction(1, 2)]])
        assert C[0, 0] == 2
        assert C[0, 1] == Fraction(1, 2)
        assert C.n == 4

    @pytest.mark.parametrize(
        "entries",
        [
            ((0.1, 0.2), (0.3, 0.4)),
            ((2.0, 1), (0, 1)),
            ((True, False), (False, True)),
            ((1, 0), (0, True)),
            ((Decimal(1), 0), (0, 1)),
        ],
        ids=["floats", "integral-float", "bools", "one-bool", "decimal"],
    )
    def test_constructor_refuses_inexact_entry_types(self, entries):
        with pytest.raises(ValueError, match="not an int or a Fraction.*confusion_matrix"):
            ConfusionMatrix(entries)

    def test_slotted_matrices_copy_and_pickle(self):
        matrices = [
            confusion_matrix([[1, 2], [3, 4]]),
            confusion_matrix([["1/2", 0, 1], [0, 2, 0], [1, 1, "3/4"]]),
            transpose(confusion_matrix([[0, 1], [2, 0]])),
            expected_matrix((2, 1), (1, 2)),
            properties._level(3, 4, 0).matrices[17],
        ]
        for C in matrices:
            assert not hasattr(C, "__dict__")
            for copied in (pickle.loads(pickle.dumps(C)), copy.deepcopy(C), copy.copy(C)):
                assert type(copied) is ConfusionMatrix
                assert copied == C and hash(copied) == hash(C)
                assert _margins(copied) == _margins(ConfusionMatrix(C.entries))

    def test_diagonal_predicates(self):
        assert confusion_matrix([[2, 0], [0, 3]]).is_diagonal()
        assert confusion_matrix([[0, 2], [3, 0]]).is_zero_diagonal()
        C = confusion_matrix([[1, 1], [1, 1]])
        assert not C.is_diagonal() and not C.is_zero_diagonal()

        def written_out(C):
            cells = range(C.m)
            diagonal = all(C[i, j] == 0 for i in cells for j in cells if i != j)
            return diagonal, all(C[i, i] == 0 for i in cells)

        levels = [(2, n) for n in range(1, 9)] + [(3, n) for n in range(1, 6)]
        matrices = [C for m, n in levels for C in properties._level(m, n, 0).matrices]
        matrices += [
            expected_matrix(a, b)
            for m, n in [(2, 4), (3, 3)]
            for a in compositions(n, m)
            for b in compositions(n, m)
        ]
        seen = set()
        for C in matrices:
            flags = (C.is_diagonal(), C.is_zero_diagonal())
            assert flags == written_out(C), C.entries
            seen.add((flags, type(C.n)))
        # Both predicates answer both ways on int and on Fraction matrices.
        for kind in (int, Fraction):
            assert {f for f, t in seen if t is kind} == {
                (True, False), (False, True), (False, False)
            }

    def test_list_input_is_stored_as_tuples(self):
        rows = [[1, 2], [3, 4]]
        C = ConfusionMatrix(rows)
        assert C.entries == ((1, 2), (3, 4)) and all(type(r) is tuple for r in C.entries)
        assert C == confusion_matrix(rows) and hash(C) == hash(confusion_matrix(rows))
        L = Labeling([0, 1, 1], 2)
        assert L.labels == (0, 1, 1)
        assert L == Labeling((0, 1, 1), 2) and hash(L) == hash(Labeling((0, 1, 1), 2))
        D = ConfusionMatrix([[2, 1], [3, 4]])
        ranking = rank_models(["acc"], [C, D], names=["c", "d"])[0]
        assert [e.name for e in ranking.entries] == ["d", "c"]
        report = pairwise_inconsistency(["acc", "ba"], [(C, D)])
        assert report.comparisons == 1


class TestTransforms:
    def test_transpose_involution(self):
        C = confusion_matrix([[4, 1, 0], [2, 3, 1], [0, 0, 5]])
        assert transpose(transpose(C)) == C
        assert transpose(C).a == C.b
        assert transpose(C).b == C.a

    def test_permute_classes_identity(self):
        C = confusion_matrix([[4, 1], [2, 3]])
        assert permute_classes(C, (0, 1)) == C

    def test_permute_classes_swap(self):
        C = confusion_matrix([[4, 1], [2, 3]])
        P = permute_classes(C, (1, 0))
        assert P.entries == ((3, 2), (1, 4))

    def test_permute_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            permute_classes(confusion_matrix([[1, 0], [0, 1]]), (0, 0))

    def test_one_vs_all(self):
        C = confusion_matrix([[0, 1, 0], [0, 0, 1], [2, 0, 0]])
        # class 1 of the 2x2 is class i: ((tn, fp), (fn, tp))
        assert one_vs_all(C, 0) == confusion_matrix([[1, 2], [1, 0]])
        # counts always rebuild the full total
        for i in range(3):
            B = one_vs_all(C, i)
            assert B.n == C.n

    def test_expected_matrix(self):
        E = expected_matrix((2, 1), (1, 2))
        assert E.entries == (
            (Fraction(2, 3), Fraction(4, 3)),
            (Fraction(1, 3), Fraction(2, 3)),
        )
        assert E.a == (2, 1)
        assert E.b == (1, 2)

    @pytest.mark.parametrize(
        "a, b", [((3, -1), (1, 1)), ((1, 1), (3, -1)), ((2, 0), (-1, 3))]
    )
    def test_expected_matrix_rejects_negative_sizes(self, a, b):
        with pytest.raises(ValueError):
            expected_matrix(a, b)


MARGINS = ("a", "b", "n", "diagonal_sum")


def _margins(C):
    """``(a, b, n, diagonal_sum)`` with the type of every number."""
    typed = lambda x: (x, type(x))  # noqa: E731
    return (
        tuple(map(typed, C.a)),
        tuple(map(typed, C.b)),
        typed(C.n),
        typed(C.diagonal_sum),
    )


def _sample_matrices(m, kind, rng):
    """Square matrices of side m with int, Fraction or mixed entries,
    including empty rows and columns and integral Fractions."""
    pick = {
        "int": lambda: rng.choice((0, 0, 1, 2, 5)),
        "fraction": lambda: Fraction(rng.choice((0, 0, 1, 3, 4)), rng.choice((1, 2, 3))),
        "mixed": lambda: rng.choice((0, 2, Fraction(0), Fraction(3), Fraction(1, 2))),
    }[kind]
    for _ in range(12):
        rows = [[pick() for _ in range(m)] for _ in range(m)]
        if sum(map(sum, rows)) > 0:
            yield confusion_matrix(rows)


def _written_out_margins(e):
    """Row sums, column sums, total and diagonal sum, each summed from 0."""
    cells = range(len(e))
    a = tuple(sum(e[i][j] for j in cells) for i in cells)
    b = tuple(sum(e[i][j] for i in cells) for j in cells)
    return a, b, sum(a), sum(e[i][i] for i in cells)


def _typed(margins):
    a, b, n, diagonal_sum = margins
    typed = lambda x: (x, type(x))  # noqa: E731
    return tuple(map(typed, a)), tuple(map(typed, b)), typed(n), typed(diagonal_sum)


def _built_by(constructor):
    """Matrices that one constructor builds from small inputs."""
    rng = random.Random(constructor)
    samples = [C for m in (1, 2, 3) for kind in ("int", "fraction", "mixed")
               for C in _sample_matrices(m, kind, rng)]
    margins = [((2, 1, 1), (1, 2, 1)), ((3, 0), (1, 2)), ((1, 2), (2, 1))]
    rates = [(Fraction(1, 4), Fraction(1, 2), Fraction(1, 3)), (0, 1, 0), (1, 1, 1)]
    if constructor == "ConfusionMatrix":
        yield from (ConfusionMatrix(C.entries) for C in samples)
        yield ConfusionMatrix([[1, 2], [3, 4]])
    elif constructor == "confusion_matrix":
        yield confusion_matrix([[2.0, "1/2"], ["1", Fraction(1, 2)]])
        yield confusion_matrix([[0, 0, 1], [0, "3", 0], [0, 0, 0]])
    elif constructor == "build_confusion":
        for m in (1, 2, 3):
            for truth in enumerate_labelings(3, m):
                yield build_confusion(truth, Labeling((0, m - 1, 0), m))
    elif constructor == "transpose":
        yield from map(transpose, samples)
    elif constructor == "permute_classes":
        for C in samples:
            for perm in itertools.permutations(range(C.m)):
                yield permute_classes(C, perm)
    elif constructor == "one_vs_all":
        yield from (one_vs_all(C, i) for C in samples for i in range(C.m))
    elif constructor == "micro_counts":
        yield from map(micro_counts, samples)
    elif constructor == "expected_matrix":
        yield from (expected_matrix(a, b) for a, b in margins)
    elif constructor == "rate_matrix":
        yield from (rate_matrix(*r) for r in rates)
    elif constructor == "lattice_matrix":
        yield from (lattice_matrix(*map(Fraction, r), 12) for r in rates)
    elif constructor == "enumerate_confusion_matrices":
        for a, b in margins:
            yield from (C for C, _ in enumerate_confusion_matrices(a, b))
    elif constructor in ("table_matrices", "table_labelings"):
        method = constructor.split("_")[1]
        for a, b in margins:
            yield from (C for C, _ in baselines._table(a, b, method, None)[0])
    elif constructor == "LabelingPair.matrix":
        truth, pred = Labeling((0, 1, 1, 2), 3), Labeling((2, 1, 0, 0), 3)
        yield LabelingPair(truth, pred, ("x", "y", "z")).matrix()
        yield LabelingPair(Labeling((0, 0), 2), Labeling((0, 0), 2), ("x", "y")).matrix()
    elif constructor == "margin_matrices":
        yield from (C for n in range(2, 7) for a1 in range(1, n) for C in margin_matrices(n, a1))
    elif constructor == "_Walk.targets":
        # The matrices the csym, mon and smon walks reach from level 3.
        for walk in properties._WALKS.values():
            levels = {n: properties._level(3, n, walk.min_row) for n in (2, 3, 4)}
            for C in levels[3].matrices:
                yield from walk.targets(C, levels)


class TestPresetMargins:
    """Reductions preset the margins they know; a matrix rebuilt from the
    same entries computes them, and both must agree in value and type."""

    @pytest.mark.parametrize("kind", ["int", "fraction", "mixed"])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_reductions_match_recomputed_margins(self, m, kind):
        rng = random.Random(f"{m}-{kind}")
        for C in _sample_matrices(m, kind, rng):
            reduced = [one_vs_all(C, i) for i in range(m)] + [micro_counts(C)]
            for B in reduced:
                assert _margins(B) == _margins(ConfusionMatrix(B.entries)), C.entries

    def test_expected_matrix_margins(self):
        for a, b in [((2, 1), (1, 2)), ((0, 3, 1), (2, 2, 0)), ((5,), (5,))]:
            E = expected_matrix(a, b)
            assert _margins(E) == _margins(ConfusionMatrix(E.entries))

    @pytest.mark.parametrize("m, n_max", [(2, 12), (3, 6), (4, 4)])
    def test_level_matrices_carry_recomputed_margins(self, m, n_max):
        for min_row in (0, 1):
            for n in range(1, n_max + 1):
                for C in properties._level(m, n, min_row).matrices:
                    # Set at construction: the slots read without the lazy fill.
                    for name in MARGINS:
                        getattr(ConfusionMatrix, name).__get__(C)
                    assert _margins(C) == _margins(ConfusionMatrix(C.entries)), C.entries

    @pytest.mark.parametrize(
        "constructor",
        [
            "ConfusionMatrix", "confusion_matrix", "build_confusion", "transpose",
            "permute_classes", "one_vs_all", "micro_counts", "expected_matrix",
            "rate_matrix", "lattice_matrix", "enumerate_confusion_matrices",
            "table_matrices", "table_labelings", "LabelingPair.matrix",
            "margin_matrices", "_Walk.targets",
        ],
    )
    def test_every_constructor_sets_the_margin_slots(self, constructor):
        built = list(_built_by(constructor))
        assert built
        for C in built:
            # Read through the slot descriptors: an empty slot raises.
            slots = tuple(getattr(ConfusionMatrix, name).__get__(C) for name in MARGINS)
            assert _typed(slots) == _typed(_written_out_margins(C.entries)), C.entries

    @pytest.mark.parametrize("m, n_max", [(2, 12), (3, 6), (4, 4)])
    def test_level_order_and_floors(self, m, n_max):
        for n in range(1, n_max + 1):
            for min_row in (0, 1):
                reference = [
                    e for a in compositions(n, m, min_part=min_row) for e, _ in enumerate_entries(a)
                ]
                assert [C.entries for C in properties._level(m, n, min_row).matrices] == reference
            # The min_row = 1 level is made of the min_row = 0 level's objects.
            full = {id(C) for C in properties._level(m, n, 0).matrices}
            assert all(id(C) in full for C in properties._level(m, n, 1).matrices)


class TestBuildConfusion:
    def test_counts(self):
        t = Labeling((1, 1, 0), 2)
        p = Labeling((1, 1, 1), 2)
        C = build_confusion(t, p)
        assert C.entries == ((0, 1), (0, 2))

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            build_confusion(Labeling((0, 1), 2), Labeling((0,), 2))

    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.integers(min_value=0, max_value=2), min_size=n, max_size=n
                ),
                st.lists(
                    st.integers(min_value=0, max_value=2), min_size=n, max_size=n
                ),
            )
        )
    )
    def test_row_sums_are_true_class_sizes(self, pair):
        t_labels, p_labels = pair
        t = Labeling(tuple(t_labels), 3)
        p = Labeling(tuple(p_labels), 3)
        C = build_confusion(t, p)
        for i in range(3):
            assert C.a[i] == sum(1 for x in t_labels if x == i)
            assert C.b[i] == sum(1 for x in p_labels if x == i)


class TestEnumeration:
    def test_compositions_count(self):
        for n, m in [(5, 2), (6, 3), (4, 4)]:
            got = list(compositions(n, m))
            assert len(got) == math.comb(n + m - 1, m - 1)
            assert got == sorted(got)
            assert all(sum(c) == n for c in got)

    def test_compositions_min_part(self):
        got = list(compositions(5, 3, min_part=1))
        assert len(got) == math.comb(4, 2)
        assert all(min(c) >= 1 for c in got)

    @staticmethod
    def _recursive_compositions(n, m, min_part):
        """The former recursive enumeration, kept as the reference order."""
        if m == 1:
            return [(n,)] if n >= min_part else []
        return [
            (first,) + rest
            for first in range(min_part, n - min_part * (m - 1) + 1)
            for rest in TestEnumeration._recursive_compositions(n - first, m - 1, min_part)
        ]

    def test_compositions_match_recursion(self):
        for n in range(9):
            for m in range(1, 6):
                for min_part in range(3):
                    got = list(compositions(n, m, min_part))
                    assert got == self._recursive_compositions(n, m, min_part), (n, m, min_part)

    def test_compositions_of_many_parts(self):
        # Deeper than the recursion limit: the enumeration nests no call per part.
        assert next(compositions(5, 3000)) == (0,) * 2999 + (5,)
        assert sum(1 for _ in compositions(1, 3000)) == 3000
        assert list(compositions(3000, 3000, min_part=1)) == [(1,) * 3000]

    def test_multinomial(self):
        assert multinomial(5, (2, 3)) == 10
        assert multinomial(6, (2, 2, 2)) == 90
        with pytest.raises(ValueError):
            multinomial(5, (2, 2))

    def test_labelings_full_space(self):
        got = list(enumerate_labelings(3, 2))
        assert len(got) == 2**3
        seqs = [l.labels for l in got]
        assert seqs == sorted(seqs)

    def test_labelings_with_class_sizes(self):
        got = list(enumerate_labelings(5, 2, class_sizes=(2, 3)))
        assert len(got) == multinomial(5, (2, 3))
        assert all(l.labels.count(0) == 2 and l.labels.count(1) == 3 for l in got)

    @staticmethod
    def _recursive_labelings(n, m, class_sizes):
        """The former recursive enumeration, kept as the reference order."""
        remaining = list(class_sizes)

        def rec(partial):
            if len(partial) == n:
                yield tuple(partial)
                return
            for c in range(m):
                if remaining[c] > 0:
                    remaining[c] -= 1
                    partial.append(c)
                    yield from rec(partial)
                    partial.pop()
                    remaining[c] += 1

        return list(rec([]))

    def test_labelings_with_class_sizes_match_recursion(self):
        for m in (1, 2, 3):
            for n in range(1, 8):
                for sizes in compositions(n, m):
                    budget = Budget(10**6)
                    got = [l.labels for l in enumerate_labelings(n, m, sizes, budget)]
                    assert got == self._recursive_labelings(n, m, sizes), sizes
                    assert budget.used == len(got) == multinomial(n, sizes)

    def test_labelings_with_class_sizes_budget(self):
        sizes = (2, 1, 2)
        count = multinomial(5, sizes)
        assert len(list(enumerate_labelings(5, 3, sizes, Budget(count)))) == count
        with pytest.raises(EnumerationBudgetExceeded):
            list(enumerate_labelings(5, 3, sizes, Budget(count - 1)))

    def test_labelings_with_negative_class_size(self):
        with pytest.raises(ValueError, match="non-negative"):
            list(enumerate_labelings(2, 2, class_sizes=(3, -1)))

    def test_matrix_multiplicities_cover_all_labelings(self):
        # summed multiplicities must count every prediction labeling
        for a, b in [((2, 3), None), ((2, 2, 2), None), ((1, 2, 3), None)]:
            n, m = sum(a), len(a)
            for sizes in compositions(n, m):
                total = sum(
                    cnt for _, cnt in enumerate_confusion_matrices(a, sizes)
                )
                assert total == multinomial(n, sizes)

    def test_matrix_margins_respected(self):
        a, b = (3, 2), (2, 3)
        for C, cnt in enumerate_confusion_matrices(a, b):
            assert C.a == a
            assert C.b == b
            assert cnt >= 1

    def test_matrix_budget_charged_per_matrix(self):
        with pytest.raises(EnumerationBudgetExceeded):
            list(enumerate_confusion_matrices((2, 2), (2, 2), budget=Budget(2)))

    def test_budget_enforced(self):
        budget = Budget(3)
        with pytest.raises(EnumerationBudgetExceeded):
            list(enumerate_labelings(4, 2, budget=budget))

    def test_budget_positive(self):
        with pytest.raises(ValueError):
            Budget(0)


class TestLabeling:
    def test_out_of_range_label(self):
        with pytest.raises(ValueError):
            Labeling((0, 2), 2)

    @pytest.mark.parametrize(
        "labels, bad",
        [((0, 2), "[2]"), ((-1, 0, 5, 1, 2, 3, 4, 6, 7), "[-1, 5, 2, 3, 4]")],
    )
    def test_out_of_range_message(self, labels, bad):
        with pytest.raises(ValueError, match=rf"^labels out of range for m=2: \{bad}$"):
            Labeling(labels, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Labeling((), 2)


def _brute_force_entries(a):
    """Every m x m matrix with row sums a, lexicographic, with
    prod_i multinomial(a_i, row_i) as multiplicity."""
    m = len(a)
    ranges = [range(a[i] + 1) for i in range(m) for _ in range(m)]
    out = []
    for flat in itertools.product(*ranges):
        rows = tuple(tuple(flat[i * m:(i + 1) * m]) for i in range(m))
        if tuple(map(sum, rows)) != tuple(a):
            continue
        count = 1
        for ai, row in zip(a, rows):
            count *= multinomial(ai, row)
        out.append((rows, count))
    return out


def _column_sums(entries):
    return tuple(map(sum, zip(*entries)))


class TestEnumerateEntries:
    """The one matrix enumerator, against a brute-force product filter."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_brute_force(self, m):
        for n in range(1, 6):
            for a in compositions(n, m):
                expected = _brute_force_entries(a)
                assert list(enumerate_entries(a)) == expected, a
                for b in compositions(n, m):
                    fixed = [(e, k) for e, k in expected if _column_sums(e) == b]
                    assert list(enumerate_entries(a, b)) == fixed, (a, b)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_multiplicities_count_labelings(self, m):
        for n in range(1, 6):
            for a in compositions(n, m):
                assert sum(k for _, k in enumerate_entries(a)) == m**n
                for b in compositions(n, m):
                    total = sum(k for _, k in enumerate_entries(a, b))
                    assert total == multinomial(n, b)

    def test_wrapper_keeps_order_and_counts(self):
        a, b = (2, 1, 2), (1, 3, 1)
        wrapped = [(C.entries, k) for C, k in enumerate_confusion_matrices(a, b)]
        assert wrapped == list(enumerate_entries(a, b))

    def test_zero_row(self):
        assert list(enumerate_entries((0, 2), None)) == [
            (((0, 0), (0, 2)), 1),
            (((0, 0), (1, 1)), 2),
            (((0, 0), (2, 0)), 1),
        ]


def test_package_exports_every_public_name():
    """``__all__`` is sorted, lists each name once, and is exactly the
    package's public names other than its submodules."""
    exported = clfmeasures.__all__
    assert exported == sorted(set(exported))
    public = {
        name
        for name, obj in vars(clfmeasures).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert set(exported) == public
