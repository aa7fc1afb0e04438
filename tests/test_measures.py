"""Measure registry and evaluation semantics."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from clfmeasures import measures
from clfmeasures.core import confusion_matrix, transpose
from clfmeasures.measures import (
    AUDIT_ONLY_IDS,
    CANONICAL_IDS,
    DISSIMILARITY,
    SCHEMES,
    SIMILARITY,
    MeasureArityError,
    MeasureParseError,
    _ANGLE_MEMO_SIZE,
    _cc_as_mpf,
    evaluate,
    matthews_cc,
    oriented,
    parse_measure_id,
    with_scheme,
)
from clfmeasures.values import (
    Root, root_value, to_mpf, value_str, values_equal, working_precision,
)

REFERENCE = confusion_matrix([[4, 1], [2, 3]])  # c11=3 c10=2 c01=1 c00=4


def ev(measure_id, C):
    return evaluate(parse_measure_id(measure_id), C)


class TestReferenceMatrix:
    """One 2x2 matrix, every value worked out by hand."""

    CASES = {
        "acc": Fraction(7, 10),
        "ba": Fraction(7, 10),
        "sba": Fraction(169, 240),
        "kappa": Fraction(2, 5),
        "gm:r=1": Fraction(20, 49),
        "gm:r=-1": Fraction(49, 120),
        "f:beta=1": Fraction(2, 3),
        "f:beta=2": Fraction(5, 8),
        "jaccard": Fraction(1, 2),
    }

    @pytest.mark.parametrize("mid,expect", sorted(CASES.items()))
    def test_rational_cases(self, mid, expect):
        assert ev(mid, REFERENCE) == expect

    def test_cc_is_inverse_sqrt_six(self):
        v = ev("cc", REFERENCE)
        assert isinstance(v, Root)
        assert v == root_value(Fraction(1, 6), 6, 2)

    def test_cd_is_arccos_of_cc(self):
        with mp.workdps(30):
            expect = mpmath.acos(1 / mpmath.sqrt(6)) / mpmath.pi
        assert values_equal(ev("cd", REFERENCE), expect, eps=1e-20)

    def test_cdprime_is_chord_length(self):
        v = ev("cdprime", REFERENCE)
        # sqrt(2 * (1 - 1/sqrt(6))) stays a float; check numerically
        expect = math.sqrt(2 * (1 - 1 / math.sqrt(6)))
        assert values_equal(v, expect, eps=1e-12)


class TestConfusionEntropy:
    def test_total_confusion_is_one(self):
        assert values_equal(ev("ce", confusion_matrix([[0, 6], [6, 0]])), 1)

    def test_can_exceed_one(self):
        # (5/6) * log2(12/5), the near-total-confusion spike
        with mp.workdps(30):
            expect = Fraction(5, 6) * mpmath.log(Fraction(12, 5)) / mpmath.log(2)
        v = ev("ce", confusion_matrix([[1, 5], [5, 1]]))
        assert values_equal(v, expect, eps=1e-20)

    def test_diagonal_is_zero(self):
        assert values_equal(ev("ce", confusion_matrix([[3, 0], [0, 2]])), 0)

    def test_single_off_diagonal_cell(self):
        # only c01=1 confuses; reference classes contribute log2(1/1) and
        # log2(1/5), so CE = log2(5) / 6
        with mp.workdps(30):
            expect = mpmath.log(5) / mpmath.log(2) / 6
        v = ev("ce", confusion_matrix([[0, 1], [0, 2]]))
        assert values_equal(v, expect, eps=1e-20)

    def test_multiclass_base_covers_range(self):
        # m=3 uses log base 4; the all-off-diagonal uniform matrix stays <= 1
        C = confusion_matrix([[0, 2, 2], [2, 0, 2], [2, 2, 0]])
        v = ev("ce", C)
        assert values_equal(v, 1, eps=1e-12)


class TestCorrelationClamp:
    @pytest.mark.parametrize(
        "entries, cc", [(((3, 0), (0, 2)), 1), (((0, 3), (2, 0)), -1)]
    )
    def test_extremes_keep_value_and_type(self, entries, cc):
        C = confusion_matrix(entries)
        for dps in (15, 30, 40):
            with mp.workdps(dps):
                x = _cc_as_mpf(C)
                assert type(x) is mpmath.mpf and x == cc
        with mp.workdps(30):
            assert ev("cd", C) == (0 if cc == 1 else 1)
            assert ev("cdprime", C) == (0 if cc == 1 else 2)


class TestAngleMemo:
    """``cd`` and ``cdprime``, whose angles are memoized on the ``cc``
    value and the precision, against the formulas written out, bit for
    bit: ``acos(x) / pi`` and ``sqrt(2 * (1 - x))`` for x the mpf of cc
    clamped to [-1, 1], at the working precision."""

    FORMULAS = {
        "cd": lambda x: mpmath.acos(x) / mpmath.pi,
        "cdprime": lambda x: mpmath.sqrt(2 * (1 - x)),
    }

    @classmethod
    def reference(cls, mid, C):
        with working_precision():
            x = to_mpf(matthews_cc(C))
            return cls.FORMULAS[mid](max(mpmath.mpf(-1), min(mpmath.mpf(1), x)))

    @staticmethod
    def matrices(rng, count):
        """Random int and Fraction matrices at m = 2..4, with repeats."""
        out = []
        for _ in range(count):
            m = rng.randint(2, 4)
            rows = [[rng.randint(0, 5) for _ in range(m)] for _ in range(m)]
            rows[0][0] += 1  # never all zero
            if rng.random() < 0.3:
                den = rng.randint(2, 7)
                rows = [[Fraction(c, den) for c in row] for row in rows]
            out.append(confusion_matrix(rows))
        return out + rng.sample(out, count // 4)

    @pytest.mark.parametrize("seed", range(2))
    def test_bit_identical_across_precisions_and_eviction(self, seed):
        rng = random.Random(seed)
        measures._ANGLES.clear()
        # Enough distinct cc values, two transforms and three precisions
        # to fill the memo past its bound, so early angles are dropped
        # and computed again.
        mats = self.matrices(rng, 300)
        for C in mats + mats:
            # Each matrix at every precision in a new order: an angle
            # cached at one precision and served at another shows.
            for dps in rng.sample((15, 40, 60), 3):
                with mp.workdps(dps):
                    for mid in self.FORMULAS:
                        got = ev(mid, C)
                        want = self.reference(mid, C)
                        assert type(got) is mpmath.mpf
                        assert got._mpf_ == want._mpf_, (mid, dps, C.entries)
        assert len(measures._ANGLES) == _ANGLE_MEMO_SIZE


class TestSingularities:
    def test_all_mass_on_diagonal_cell(self):
        C = confusion_matrix([[2, 0], [0, 0]])
        assert ev("cc", C) == 1
        assert ev("kappa", C) == 1
        assert ev("jaccard", C) == 1
        assert ev("f:beta=1", C) == 1
        assert ev("gm:r=1", C) == 1
        assert ev("ba", C) == Fraction(1, 2)  # absent class scores b_i/n = 0

    def test_all_mass_on_off_diagonal_cell(self):
        C = confusion_matrix([[0, 2], [0, 0]])
        assert ev("cc", C) == -1
        assert ev("gm:r=-1", C) == -1
        assert ev("kappa", C) == 0
        assert ev("jaccard", C) == 0

    def test_one_constant_margin_zeroes_correlation(self):
        C = confusion_matrix([[1, 1], [0, 0]])
        assert ev("cc", C) == 0
        assert ev("gm:r=1", C) == 0

    def test_empty_class_uses_margin_substitute(self):
        # a1 = 0: the c11/a1 summand becomes b1/n
        C = confusion_matrix([[1, 1], [0, 0]])
        assert ev("ba", C) == Fraction(1, 2)  # (1/2)(1/2 + 1/2)
        assert ev("sba", C) == Fraction(1, 2)


class TestIdentities:
    def binary_matrices(self, n_max):
        for n in range(1, n_max + 1):
            for c11 in range(n + 1):
                for c10 in range(n - c11 + 1):
                    for c01 in range(n - c11 - c10 + 1):
                        c00 = n - c11 - c10 - c01
                        yield confusion_matrix([[c00, c01], [c10, c11]])

    def test_sba_symmetrizes_ba(self):
        for C in self.binary_matrices(5):
            lhs = ev("sba", C)
            rhs = Fraction(1, 2) * (ev("ba", C) + ev("ba", transpose(C)))
            assert lhs == rhs, C.entries

    def test_harmonic_gm_is_affine_sba(self):
        # GM at r=-1 equals 2*SBA - 1 except when both margins are constant
        for C in self.binary_matrices(6):
            both_constant = 0 in C.a and 0 in C.b
            if both_constant:
                continue
            assert ev("gm:r=-1", C) == 2 * ev("sba", C) - 1, C.entries

    def test_gm_approaches_cc_at_tiny_r(self):
        import random

        rng = random.Random(181)
        desc_gm = parse_measure_id("gm:r=1e-9")
        desc_cc = parse_measure_id("cc")
        checked = 0
        for _ in range(200):
            cells = [rng.randrange(8) for _ in range(4)]
            if sum(cells) == 0:
                continue
            C = confusion_matrix([cells[:2], cells[2:]])
            if 0 in C.a or 0 in C.b:
                continue  # correlation undefined, resolution rules differ in form
            g = evaluate(desc_gm, C)
            c = evaluate(desc_cc, C)
            assert values_equal(g, c, eps=1e-6), C.entries
            checked += 1
        assert checked > 100

    @pytest.mark.parametrize("r", ["1e-30", "-1e-30", "1e-400"])
    def test_gm_tiny_r_keeps_precision(self, r):
        for rows in ([[4, 1], [2, 3]], [[7, 0], [2, 1]], [[1, 5], [6, 2]]):
            C = confusion_matrix(rows)
            with mp.workdps(40):
                g = to_mpf(ev(f"gm:r={r}", C))
                c = to_mpf(ev("cc", C))
                assert abs(g - c) < 1e-20, rows
            assert -1 <= g <= 1, rows

    @pytest.mark.parametrize(
        "r", [Fraction(1, 1000), Fraction(1, 2), Fraction(5, 2), -0.5], ids=str
    )
    def test_gm_fractional_r_matches_power_mean(self, r):
        # Against ((x**r + y**r) / 2)**(1/r) at 60 digits.
        (c00, c01), (c10, c11) = rows = [[4, 1], [2, 3]]
        n, a1, b1 = 10, c10 + c11, c01 + c11
        x, y = a1 * (n - a1), b1 * (n - b1)
        got = ev(f"gm:r={r}", confusion_matrix(rows))
        with mp.workdps(60):
            rr = to_mpf(r)
            mean = ((mpmath.mpf(x) ** rr + mpmath.mpf(y) ** rr) / 2) ** (1 / rr)
            expect = (n * c11 - a1 * b1) / mean
            assert abs(to_mpf(got) - expect) < 1e-25

    @pytest.mark.parametrize("alpha", [2, 3, 5])
    @pytest.mark.parametrize("mid", sorted(CANONICAL_IDS))
    def test_scale_invariance(self, mid, alpha):
        C = REFERENCE
        S = confusion_matrix([[alpha * x for x in row] for row in C.entries])
        assert values_equal(ev(mid, C), ev(mid, S), eps=1e-12)

    def test_fbeta_interpolates(self):
        # beta -> 0 approaches precision, beta -> inf approaches recall
        C = REFERENCE  # precision 3/4, recall 3/5
        assert ev("f:beta=0.01", C) < ev("f:beta=1", C) < ev("f:beta=100", C) or (
            ev("f:beta=0.01", C) > ev("f:beta=1", C) > ev("f:beta=100", C)
        )
        near_p = ev("f:beta=0.01", C)
        near_r = ev("f:beta=100", C)
        assert abs(float(near_p) - 0.75) < 0.01
        assert abs(float(near_r) - 0.6) < 0.01


class TestMulticlass:
    FIXTURE = confusion_matrix([[2, 0, 0], [1, 1, 0], [0, 1, 1]])
    # n=6, S=4, a=(2,2,2), b=(3,2,1)

    def test_acc(self):
        assert ev("acc", self.FIXTURE) == Fraction(2, 3)

    def test_ba(self):
        assert ev("ba", self.FIXTURE) == Fraction(1, 3) * (
            Fraction(2, 2) + Fraction(1, 2) + Fraction(1, 2)
        )

    def test_kappa(self):
        # (nS - sum a_i b_i) / (n^2 - sum a_i b_i) = (24-12)/(36-12)
        assert ev("kappa", self.FIXTURE) == Fraction(1, 2)

    def test_cc(self):
        # (nS - sum b_i a_i) / sqrt((n^2 - sum b^2)(n^2 - sum a^2))
        num = 6 * 4 - (3 * 2 + 2 * 2 + 1 * 2)
        rad = (36 - (9 + 4 + 1)) * (36 - 12)
        assert ev("cc", self.FIXTURE) == root_value(Fraction(num, rad), rad, 2)

    def test_sba(self):
        ba_t = ev("ba", transpose(self.FIXTURE))
        assert ev("sba", self.FIXTURE) == Fraction(1, 2) * (
            ev("ba", self.FIXTURE) + ba_t
        )

    def test_binary_only_measures_reject_m3(self):
        for mid in ("f:beta=1", "jaccard", "gm:r=1"):
            with pytest.raises(MeasureArityError):
                ev(mid, self.FIXTURE)

    def test_schemes_extend_binary_measures(self):
        micro = evaluate(with_scheme(parse_measure_id("f:beta=1"), "micro"), self.FIXTURE)
        macro = evaluate(with_scheme(parse_measure_id("f:beta=1"), "macro"), self.FIXTURE)
        assert micro == Fraction(2, 3)  # micro-F1 = S/n
        assert isinstance(macro, Fraction)


class TestParseGrammar:
    def test_canonical_ids_round_trip(self):
        for mid in CANONICAL_IDS:
            assert parse_measure_id(mid).measure_id == mid

    def test_defaults(self):
        assert parse_measure_id("f").measure_id == "f:beta=1"
        assert parse_measure_id("gm").measure_id == "gm:r=1"

    def test_scheme_suffix(self):
        d = parse_measure_id("f:beta=2:macro")
        assert d.scheme == "macro"
        assert d.beta == Fraction(2)

    def test_unknown_name(self):
        with pytest.raises(MeasureParseError):
            parse_measure_id("nope")

    def test_unknown_parameter(self):
        with pytest.raises(MeasureParseError):
            parse_measure_id("acc:r=1")

    def test_bad_parameter_value(self):
        with pytest.raises(MeasureParseError):
            parse_measure_id("f:beta=abc")

    def test_duplicate_scheme(self):
        with pytest.raises(MeasureParseError):
            parse_measure_id("acc:micro:macro")

    @pytest.mark.parametrize(
        "measure_id",
        ["f:beta=1/0", "gm:r=1/0", "f:beta=inf", "f:beta=-inf", "gm:r=nan", "gm:r=inf",
         "gm:r=1e400", "gm:r=-65", "gm:r=129/2"],
    )
    def test_non_finite_or_unbounded_numbers_rejected(self, measure_id):
        with pytest.raises(MeasureParseError):
            parse_measure_id(measure_id)

    @pytest.mark.parametrize("r, expected", [("64", 64), ("-64", -64), ("127/2", Fraction(127, 2))])
    def test_gm_r_bound_is_inclusive(self, r, expected):
        assert parse_measure_id(f"gm:r={r}").r == expected

    def test_gm_zero_r_rejected(self):
        with pytest.raises(MeasureParseError):
            parse_measure_id("gm:r=0")


class TestOrientation:
    def test_dissimilarities_flip(self):
        # oriented values must rank "better" as larger for every measure
        good = confusion_matrix([[5, 0], [0, 5]])
        bad = confusion_matrix([[0, 5], [5, 0]])
        for mid in CANONICAL_IDS:
            d = parse_measure_id(mid)
            g = oriented(d, evaluate(d, good))
            b = oriented(d, evaluate(d, bad))
            assert value_str(g) != value_str(b)
            from clfmeasures.values import value_cmp

            assert value_cmp(g, b) > 0, mid


@given(
    st.lists(st.integers(min_value=0, max_value=9), min_size=4, max_size=4).filter(
        lambda c: sum(c) > 0
    )
)
@settings(max_examples=200)
def test_sba_transpose_symmetry_property(cells):
    C = confusion_matrix([cells[:2], cells[2:]])
    assert ev("sba", C) == ev("sba", transpose(C))


@given(
    st.lists(st.integers(min_value=0, max_value=9), min_size=4, max_size=4).filter(
        lambda c: sum(c) > 0
    )
)
@settings(max_examples=200)
def test_cc_transpose_symmetry_property(cells):
    C = confusion_matrix([cells[:2], cells[2:]])
    assert values_equal(ev("cc", C), ev("cc", transpose(C)))


BIN, MC = "binary", "multiclass"
SIM, DIS = SIMILARITY, DISSIMILARITY


class TestRegistryPinned:
    """The registry as it read before the measures became one table.

    Each row is ``(measure_id, label, arity, orientation, exact,
    audit_only, scheme)`` of a parsed id: the canonical and audit-only
    ids, ``cdprime``, four more parameter values, and each of those with
    every averaging scheme.
    """

    ROWS = (
    ("f:beta=1", "F1", BIN, SIM, True, False, None),
    ("jaccard", "Jaccard index", BIN, SIM, True, False, None),
    ("cc", "correlation coefficient", MC, SIM, True, False, None),
    ("acc", "accuracy", MC, SIM, True, False, None),
    ("ba", "balanced accuracy", MC, SIM, True, False, None),
    ("kappa", "Cohen's kappa", MC, SIM, True, False, None),
    ("ce", "confusion entropy", MC, DIS, False, False, None),
    ("sba", "symmetric balanced accuracy", MC, SIM, True, False, None),
    ("gm:r=1", "GM(r=1)", BIN, SIM, True, False, None),
    ("cd", "correlation distance", MC, DIS, False, False, None),
    ("netagree", "net agreement", BIN, SIM, True, True, None),
    ("anyagree", "any-agreement indicator", BIN, SIM, True, True, None),
    ("cdprime", "chordal distance", MC, DIS, False, False, None),
    ("f:beta=2", "F(beta=2)", BIN, SIM, True, False, None),
    ("f:beta=1/2", "F(beta=1/2)", BIN, SIM, True, False, None),
    ("gm:r=-2", "GM(r=-2)", BIN, SIM, True, False, None),
    ("gm:r=1/2", "GM(r=1/2)", BIN, SIM, False, False, None),
    ("f:beta=1:micro", "F1, micro", MC, SIM, True, False, "micro"),
    ("f:beta=1:macro", "F1, macro", MC, SIM, True, False, "macro"),
    ("f:beta=1:weighted", "F1, weighted", MC, SIM, True, False, "weighted"),
    ("jaccard:micro", "Jaccard index, micro", MC, SIM, True, False, "micro"),
    ("jaccard:macro", "Jaccard index, macro", MC, SIM, True, False, "macro"),
    ("jaccard:weighted", "Jaccard index, weighted", MC, SIM, True, False, "weighted"),
    ("cc:micro", "correlation coefficient, micro", MC, SIM, True, False, "micro"),
    ("cc:macro", "correlation coefficient, macro", MC, SIM, False, False, "macro"),
    ("cc:weighted", "correlation coefficient, weighted", MC, SIM, False, False, "weighted"),
    ("acc:micro", "accuracy, micro", MC, SIM, True, False, "micro"),
    ("acc:macro", "accuracy, macro", MC, SIM, True, False, "macro"),
    ("acc:weighted", "accuracy, weighted", MC, SIM, True, False, "weighted"),
    ("ba:micro", "balanced accuracy, micro", MC, SIM, True, False, "micro"),
    ("ba:macro", "balanced accuracy, macro", MC, SIM, True, False, "macro"),
    ("ba:weighted", "balanced accuracy, weighted", MC, SIM, True, False, "weighted"),
    ("kappa:micro", "Cohen's kappa, micro", MC, SIM, True, False, "micro"),
    ("kappa:macro", "Cohen's kappa, macro", MC, SIM, True, False, "macro"),
    ("kappa:weighted", "Cohen's kappa, weighted", MC, SIM, True, False, "weighted"),
    ("ce:micro", "confusion entropy, micro", MC, DIS, False, False, "micro"),
    ("ce:macro", "confusion entropy, macro", MC, DIS, False, False, "macro"),
    ("ce:weighted", "confusion entropy, weighted", MC, DIS, False, False, "weighted"),
    ("sba:micro", "symmetric balanced accuracy, micro", MC, SIM, True, False, "micro"),
    ("sba:macro", "symmetric balanced accuracy, macro", MC, SIM, True, False, "macro"),
    ("sba:weighted", "symmetric balanced accuracy, weighted", MC, SIM, True, False, "weighted"),
    ("gm:r=1:micro", "GM(r=1), micro", MC, SIM, True, False, "micro"),
    ("gm:r=1:macro", "GM(r=1), macro", MC, SIM, False, False, "macro"),
    ("gm:r=1:weighted", "GM(r=1), weighted", MC, SIM, False, False, "weighted"),
    ("cd:micro", "correlation distance, micro", MC, DIS, False, False, "micro"),
    ("cd:macro", "correlation distance, macro", MC, DIS, False, False, "macro"),
    ("cd:weighted", "correlation distance, weighted", MC, DIS, False, False, "weighted"),
    ("netagree:micro", "net agreement, micro", MC, SIM, True, True, "micro"),
    ("netagree:macro", "net agreement, macro", MC, SIM, True, True, "macro"),
    ("netagree:weighted", "net agreement, weighted", MC, SIM, True, True, "weighted"),
    ("anyagree:micro", "any-agreement indicator, micro", MC, SIM, True, True, "micro"),
    ("anyagree:macro", "any-agreement indicator, macro", MC, SIM, True, True, "macro"),
    ("anyagree:weighted", "any-agreement indicator, weighted", MC, SIM, True, True, "weighted"),
    ("cdprime:micro", "chordal distance, micro", MC, DIS, False, False, "micro"),
    ("cdprime:macro", "chordal distance, macro", MC, DIS, False, False, "macro"),
    ("cdprime:weighted", "chordal distance, weighted", MC, DIS, False, False, "weighted"),
    ("f:beta=2:micro", "F(beta=2), micro", MC, SIM, True, False, "micro"),
    ("f:beta=2:macro", "F(beta=2), macro", MC, SIM, True, False, "macro"),
    ("f:beta=2:weighted", "F(beta=2), weighted", MC, SIM, True, False, "weighted"),
    ("f:beta=1/2:micro", "F(beta=1/2), micro", MC, SIM, True, False, "micro"),
    ("f:beta=1/2:macro", "F(beta=1/2), macro", MC, SIM, True, False, "macro"),
    ("f:beta=1/2:weighted", "F(beta=1/2), weighted", MC, SIM, True, False, "weighted"),
    ("gm:r=-2:micro", "GM(r=-2), micro", MC, SIM, True, False, "micro"),
    ("gm:r=-2:macro", "GM(r=-2), macro", MC, SIM, False, False, "macro"),
    ("gm:r=-2:weighted", "GM(r=-2), weighted", MC, SIM, False, False, "weighted"),
    ("gm:r=1/2:micro", "GM(r=1/2), micro", MC, SIM, False, False, "micro"),
    ("gm:r=1/2:macro", "GM(r=1/2), macro", MC, SIM, False, False, "macro"),
    ("gm:r=1/2:weighted", "GM(r=1/2), weighted", MC, SIM, False, False, "weighted"),
    )

    @pytest.mark.parametrize("row", ROWS, ids=lambda row: row[0])
    def test_descriptor_fields(self, row):
        d = parse_measure_id(row[0])
        assert (d.measure_id, d.label, d.arity, d.orientation, d.exact, d.audit_only,
                d.scheme) == row

    def test_rows_cover_the_pinned_ids(self):
        base = CANONICAL_IDS + AUDIT_ONLY_IDS + (
            "cdprime", "f:beta=2", "f:beta=1/2", "gm:r=-2", "gm:r=1/2"
        )
        ids = base + tuple(f"{mid}:{s}" for mid in base for s in SCHEMES)
        assert [row[0] for row in self.ROWS] == list(ids)

    @pytest.mark.parametrize("row", ROWS, ids=lambda row: row[0])
    def test_separate_descriptors_are_equal(self, row):
        # Built past parse_measure_id's cache; the first one's cached
        # kernel must not enter equality or the hash.
        d1 = parse_measure_id.__wrapped__(row[0])
        d2 = parse_measure_id.__wrapped__(row[0])
        assert d1 is not d2
        d1.kernel
        assert d1 == d2 and hash(d1) == hash(d2)
