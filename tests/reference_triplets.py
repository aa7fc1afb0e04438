"""Direct enumeration over labeling triplets: the small-n oracle for the
shared-margin matrix-pair reduction of :mod:`clfmeasures.inconsistency`.

Exponential in n; the tests run it at n <= 5.
"""

from clfmeasures.core import build_confusion, enumerate_labelings
from clfmeasures.inconsistency import Triplet
from clfmeasures.measures import Evaluator, parse_measure_id
from clfmeasures.values import DEFAULT_EPS, value_cmp


def distinguishing_triplet_bruteforce(m1, m2, n: int, eps: float = DEFAULT_EPS):
    """First labeling triplet (lexicographic) where the measures rank the
    two predictions differently, or None.

    Enumerates every two-class labeling of n elements that uses both
    classes, as truth and as each prediction.
    """
    ev1, ev2 = (Evaluator(parse_measure_id(m)) for m in (m1, m2))

    def relation(ev, C1, C2):
        return value_cmp(ev.oriented(C1), ev.oriented(C2), eps)

    labelings = [l for l in enumerate_labelings(n, 2) if 0 < sum(l.labels) < n]
    for truth in labelings:
        for i, p1 in enumerate(labelings):
            C1 = build_confusion(truth, p1)
            for p2 in labelings[i + 1 :]:
                C2 = build_confusion(truth, p2)
                if relation(ev1, C1, C2) != relation(ev2, C1, C2):
                    return Triplet(truth, p1, p2)
    return None
