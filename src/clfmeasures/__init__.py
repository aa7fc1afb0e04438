"""Exact evaluation and axiomatic auditing of classification measures.

The package works on integer confusion matrices (rows index the true
class, columns the predicted class).  Every measure takes a
:class:`ConfusionMatrix`; the binary ones read a 2x2 matrix
``((c00, c01), (c10, c11))`` with class 1 as the positive class, built
with ``confusion_matrix([[c00, c01], [c10, c11]])``.  Arithmetic stays
exact wherever the measure allows: rationals stay ``Fraction``, single
square roots stay symbolic, and only genuinely transcendental measures
fall back to high-precision floats.

Entry points by module:

* :mod:`clfmeasures.core` matrices, labelings, enumeration
* :mod:`clfmeasures.measures` the measure registry and evaluation
* :mod:`clfmeasures.averaging` micro / macro / weighted extensions
* :mod:`clfmeasures.baselines` exact expectations under margin shuffles
* :mod:`clfmeasures.properties` exhaustive property audits
* :mod:`clfmeasures.orders` baseline flatness order, normalizer checks
* :mod:`clfmeasures.inconsistency` measure disagreement analysis
* :mod:`clfmeasures.dataio` file parsing and serialization
* :mod:`clfmeasures.cli` the ``clfmeasures`` command
"""

from .values import (
    DEFAULT_EPS,
    Root,
    Value,
    as_float,
    root_value,
    value_cmp,
    value_str,
    values_equal,
)
from .core import (
    Budget,
    ConfusionMatrix,
    EnumerationBudgetExceeded,
    Labeling,
    build_confusion,
    confusion_matrix,
    enumerate_confusion_matrices,
    enumerate_labelings,
    expected_matrix,
    one_vs_all,
    permute_classes,
    transpose,
)
from .measures import (
    AUDIT_ONLY_IDS,
    CANONICAL_IDS,
    CONSISTENCY_IDS,
    MeasureArityError,
    MeasureDescriptor,
    MeasureParseError,
    evaluate,
    parse_measure_id,
    with_scheme,
)
from .averaging import macro_extend, micro_counts, micro_extend, weighted_extend
from .baselines import exact_baseline_expectation
from .properties import (
    ALL_PROPERTIES,
    AuditSpace,
    Verdict,
    audit_grid,
    check_averaging_preservation,
    check_property,
    corroborate_impossibility,
)
from .orders import (
    BaselineOrderReport,
    baseline_order,
    check_gm_normalizer_conditions,
    gm_normalizer,
    rate_matrix,
)
from .inconsistency import (
    KNOWN_DISCRIMINATING_TRIPLETS,
    Triplet,
    discriminating_triplet_for,
    distinguishing_pair,
    indistinguishable_groups,
    pairwise_inconsistency,
    rank_models,
    triplet_from_labels,
    triplet_verdict,
)
from .dataio import InputError, parse_inputs, read_labels_csv, write_matrix

__version__ = "0.1.0"

__all__ = [
    "ALL_PROPERTIES",
    "AUDIT_ONLY_IDS",
    "AuditSpace",
    "BaselineOrderReport",
    "Budget",
    "CANONICAL_IDS",
    "CONSISTENCY_IDS",
    "ConfusionMatrix",
    "DEFAULT_EPS",
    "EnumerationBudgetExceeded",
    "InputError",
    "KNOWN_DISCRIMINATING_TRIPLETS",
    "Labeling",
    "MeasureArityError",
    "MeasureDescriptor",
    "MeasureParseError",
    "Root",
    "Triplet",
    "Value",
    "Verdict",
    "as_float",
    "audit_grid",
    "baseline_order",
    "build_confusion",
    "check_averaging_preservation",
    "check_gm_normalizer_conditions",
    "check_property",
    "confusion_matrix",
    "corroborate_impossibility",
    "discriminating_triplet_for",
    "distinguishing_pair",
    "enumerate_confusion_matrices",
    "enumerate_labelings",
    "evaluate",
    "exact_baseline_expectation",
    "expected_matrix",
    "gm_normalizer",
    "indistinguishable_groups",
    "macro_extend",
    "micro_counts",
    "micro_extend",
    "one_vs_all",
    "pairwise_inconsistency",
    "parse_inputs",
    "parse_measure_id",
    "permute_classes",
    "rank_models",
    "rate_matrix",
    "read_labels_csv",
    "root_value",
    "transpose",
    "triplet_from_labels",
    "triplet_verdict",
    "value_cmp",
    "value_str",
    "values_equal",
    "weighted_extend",
    "with_scheme",
    "write_matrix",
]
