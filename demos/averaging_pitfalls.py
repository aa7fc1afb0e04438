"""Multiclass averaging does not inherit binary guarantees.

Micro, macro, and weighted averaging each preserve a different subset
of the properties their binary base measures satisfy.  The script
audits a few cells and then works one counterexample by hand: under
weighted averaging, resolving a genuine confusion can lower the
score, because fixing the mistake also shifts weight onto a badly
scored class.
"""

from clfmeasures import (
    ConfusionMatrix,
    as_float,
    check_averaging_preservation,
    evaluate,
    one_vs_all,
    parse_measure_id,
    value_str,
)


def main():
    for scheme in ("micro", "macro", "weighted"):
        for prop in ("min", "cb", "smon"):
            pv = check_averaging_preservation(scheme, prop)
            note = f" (breaks via {pv.witness_measure})" if pv.witness_measure else ""
            print(f"{scheme:>8} / {prop:<4}: {pv.status}{note}")
    print()

    # weighted monotonicity, by hand.  The edit moves one item from a
    # class-1-vs-class-2 confusion onto the diagonal of class 1.
    before = ConfusionMatrix(((0, 0, 0), (1, 0, 0), (0, 3, 0)))
    after = ConfusionMatrix(((0, 0, 0), (1, 1, 0), (0, 2, 0)))
    weighted_cc = parse_measure_id("cc:weighted")
    for name, C in (("before", before), ("after", after)):
        v = evaluate(weighted_cc, C)
        print(f"{name}: {C.entries}  weighted cc = {value_str(v)} ({as_float(v):.4f})")
    print("fixing a mistake lowered the weighted average.")
    print()

    # why: per-class one-vs-rest cc, and the true-class-size weights
    cc = parse_measure_id("cc")
    for name, C in (("before", before), ("after", after)):
        parts = []
        for k in range(C.m):
            sub = one_vs_all(C, k)
            parts.append(f"class{k}: {value_str(evaluate(cc, sub))} (w={C.a[k]}/{C.n})")
        print(f"{name}: " + "; ".join(parts))


if __name__ == "__main__":
    main()
