"""Audit cells that reuse work: the ``acb`` value on the integer lattice,
``dist`` reading its ``sym``/``max`` prerequisites from the row, and
chance expectations summed in integers.

Each is held to the computation it replaces, written out here: the
measure of ``expected_matrix(a, b)``, a fresh ``check_property`` cell,
and the ``value_sum``/``scale`` sum of every value times its count.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clfmeasures import AuditSpace, Budget, EnumerationBudgetExceeded, check_property
from clfmeasures import properties
from clfmeasures.baselines import canonical_labeling, exact_baseline_expectation, is_unary
from clfmeasures.core import (
    build_confusion,
    compositions,
    confusion_matrix,
    enumerate_confusion_matrices,
    enumerate_labelings,
    expected_matrix,
    multinomial,
)
from clfmeasures.measures import (
    CANONICAL_IDS,
    SCHEMES,
    evaluate,
    parse_measure_id,
    with_scheme,
)
from clfmeasures.properties import (
    BINARY_DEFAULT_SPACE,
    DEFAULT_EPS,
    _acb_value,
    _Eval,
    _lattice,
    _margin_grid,
    _run,
    audit_space_policy,
)
from clfmeasures.values import Root, is_exact, scale, value_str, value_sum

# ---------------------------------------------------------------------------
# acb on the integer lattice

LATTICE_IDS = [
    mid
    for mid in CANONICAL_IDS + ("f:beta=2", "gm:r=-2", "gm:r=-1", "gm:r=2")
    if parse_measure_id(mid).exact and not parse_measure_id(mid).audit_only
]


def _descriptors(m):
    """The lattice ids that have a value at m classes, plain and averaged."""
    plain = [parse_measure_id(mid) for mid in LATTICE_IDS]
    if m == 2:
        return plain
    averaged = [with_scheme(d, scheme) for d in plain for scheme in SCHEMES]
    return [d for d in plain if d.arity == "multiclass"] + averaged


def _same(got, want):
    assert type(got) is type(want)
    assert repr(got) == repr(want)
    assert value_str(got) == value_str(want)


def _check_lattice(m, n_max, min_col):
    space = AuditSpace(m=m, cb_n_max=n_max, cb_min_col=min_col)
    on_lattice = 0
    for desc in _descriptors(m):
        for _, a, b in _margin_grid(_Eval(desc, DEFAULT_EPS, None), space):
            want = evaluate(desc, expected_matrix(a, b))
            lattice = evaluate(desc, confusion_matrix([[x * y for y in b] for x in a]))
            if type(lattice) is Fraction:
                on_lattice += 1
                _same(lattice, want)
            _same(_acb_value(desc, _lattice(a, b), a, b), want)
    assert on_lattice  # the lattice is taken, not only the fallback


class TestAcbLattice:
    @pytest.mark.parametrize("min_col", [0, 1])
    def test_binary_default_grid(self, min_col):
        _check_lattice(2, BINARY_DEFAULT_SPACE.cb_n_max, min_col)

    @pytest.mark.parametrize("min_col", [0, 1])
    @pytest.mark.parametrize("m, n_max", [(3, 5), (4, 4)])
    def test_multiclass_grids(self, m, n_max, min_col):
        _check_lattice(m, n_max, min_col)

    @pytest.mark.slow
    @pytest.mark.parametrize("min_col", [0, 1])
    def test_m3_default_grid(self, min_col):
        _check_lattice(3, 6, min_col)

    def test_root_on_the_lattice_falls_back(self, monkeypatch):
        seen = []

        def planted(desc, C):
            seen.append(C.entries)
            if all(type(x) is int for row in C.entries for x in row):
                return Root(Fraction(1), Fraction(2), 2)
            return evaluate(desc, C)

        monkeypatch.setattr(properties, "evaluate", planted)
        a, b = (2, 1), (1, 2)
        desc = parse_measure_id("acc")
        _same(_acb_value(desc, _lattice(a, b), a, b), evaluate(desc, expected_matrix(a, b)))
        assert seen == [((2, 4), (1, 2)), expected_matrix(a, b).entries]

    def test_fallback_ids_skip_the_lattice(self, monkeypatch):
        seen = []

        def recording(desc, C):
            seen.append(C.entries)
            return evaluate(desc, C)

        monkeypatch.setattr(properties, "evaluate", recording)
        a, b = (2, 1), (1, 2)
        for mid in ("ce", "gm:r=0.5", "netagree"):
            seen.clear()
            _acb_value(parse_measure_id(mid), _lattice(a, b), a, b)
            assert seen == [expected_matrix(a, b).entries]

    def test_rows_of_a_grid_share_its_lattices(self, monkeypatch):
        built = Counter()

        def counting(a, b):
            built[a, b] += 1
            return _lattice(a, b)

        monkeypatch.setattr(properties, "_lattice", counting)
        properties._grid_lattices.cache_clear()
        grids = [AuditSpace(m=3, cb_n_max=4), AuditSpace(m=3, cb_n_max=4, cb_min_col=1),
                 AuditSpace(m=2, cb_n_max=5)]

        def scan(space):
            built.clear()
            checked = [check_property(mid, "acb", space).checked for mid in ("kappa", "ba", "cc")]
            assert checked[0] == checked[1] == checked[2]  # every row reads the whole grid
            return checked[0]

        for space in grids:
            pairs = scan(space)
            assert len(built) == pairs and set(built.values()) == {1}
        # The last two grids are kept; the first is built again.
        assert properties._grid_lattices.cache_info().currsize == 2
        assert scan(grids[2]) and not built
        assert scan(grids[0]) == len(built)
        properties._grid_lattices.cache_clear()


# ---------------------------------------------------------------------------
# dist reads sym and max from the row

REUSE_CASES = [(mid, 2, None) for mid in CANONICAL_IDS] + [
    (mid, 3, 5) for mid in ("acc", "ba", "kappa", "cc")
]


@pytest.mark.parametrize("mid, m, n_max", REUSE_CASES)
def test_dist_after_its_prerequisites(mid, m, n_max):
    desc = parse_measure_id(mid)
    space = audit_space_policy(desc, "dist", m, n_max)
    budget = Budget(10**9)
    ev = _Eval(desc, DEFAULT_EPS, budget)
    for prop in ("max", "min", "sym"):
        _run(ev, prop, audit_space_policy(desc, prop, m, n_max))
    before = budget.used
    got = _run(ev, "dist", space)
    fresh_budget = Budget(10**9)
    fresh = check_property(desc, "dist", space, budget=fresh_budget)
    assert got.to_dict() == fresh.to_dict()
    assert budget.used - before == fresh_budget.used


def test_replayed_charges_stop_where_the_check_stopped():
    """A budget spent inside a reused prerequisite stops at the level
    the prerequisite's own scan stops at."""
    desc, space = parse_measure_id("kappa"), AuditSpace(m=3, n_max=4, dist_n_max=3)
    levels = [properties._level(3, n, 1).size for n in range(1, 5)]
    total = sum(levels)
    # sym and max cells, then dist's own sym, then into its max.
    limits = [3 * total + sum(levels[:k]) + d for k in range(5) for d in (-1, 0, 1)]
    for limit in limits:
        outcomes = []
        for shared in (True, False):
            budget = Budget(limit)
            ev = _Eval(desc, DEFAULT_EPS, budget)
            try:
                for prop in ("sym", "max", "dist"):
                    _run(ev if shared else _Eval(desc, DEFAULT_EPS, budget), prop, space)
                result = "done"
            except EnumerationBudgetExceeded:
                result = "exceeded"
            outcomes.append((result, budget.used))
        assert outcomes[0] == outcomes[1], limit


# ---------------------------------------------------------------------------
# expectations summed in integers

EXPECTATION_IDS = (
    "acc", "ba", "sba", "kappa", "f:beta=1", "jaccard", "gm:r=1", "gm:r=2", "cc", "ce", "cd",
)


def _reference_expectation(desc, a, b, method):
    """Every value times its count, summed the way each value kind needs."""
    if method == "matrices":
        weighted = [(evaluate(desc, C), k) for C, k in enumerate_confusion_matrices(a, b)]
    else:
        truth = canonical_labeling(a)
        counts = Counter(
            build_confusion(truth, pred).entries
            for pred in enumerate_labelings(sum(a), len(a), class_sizes=b)
        )
        weighted = [(evaluate(desc, confusion_matrix(e)), k) for e, k in counts.items()]
    labelings = multinomial(sum(a), b)
    if all(type(v) in (int, Fraction) for v, _ in weighted):
        return sum((Fraction(v) * k for v, k in weighted), Fraction(0)) / labelings
    total = value_sum([scale(v, k) for v, k in weighted])
    if method == "labelings" and not is_exact(total):
        total = value_sum([v for v, k in weighted for _ in range(k)])
    return scale(total, Fraction(1, labelings))


@st.composite
def _margin_pairs(draw):
    m = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 6))
    sizes = st.sampled_from(list(compositions(n, m)))
    a, b = draw(sizes), draw(sizes)
    assume(not (is_unary(a) and is_unary(b)))
    return a, b


@settings(max_examples=60, deadline=None)
@given(
    pair=_margin_pairs(),
    mid=st.sampled_from(EXPECTATION_IDS),
    method=st.sampled_from(["matrices", "labelings"]),
)
def test_expectation_matches_written_out_sum(pair, mid, method):
    a, b = pair
    desc = parse_measure_id(mid)
    assume(desc.arity == "multiclass" or len(a) == 2)
    got = exact_baseline_expectation(desc, a, b, method)
    _same(got, _reference_expectation(desc, a, b, method))
