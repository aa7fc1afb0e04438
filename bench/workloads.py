"""What each workload runs, shared by the worker that runs it and the
checks that verify it.

A workload is a fixed list of operations.  One round runs every
operation once, in a fresh interpreter; a run repeats whole rounds.  The
sizes below are chosen so that one round takes a few seconds on a
2-core machine; ``TINY`` shrinks them for the self-test.

This module imports nothing from the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("audit", "preservation", "baselines", "cli")

CANONICAL_IDS = (
    "f:beta=1", "jaccard", "cc", "acc", "ba", "kappa", "ce", "sba", "gm:r=1", "cd",
)
ALL_PROPERTIES = ("max", "min", "sym", "csym", "dist", "mon", "smon", "cb", "acb")
SCHEMES = ("micro", "macro", "weighted")

#: Multiclass-capable ids (the CLI's multiclass default plus ``cdprime``)
#: and two averaged ids, for ``eval`` on the 4-class file.
MULTICLASS_EVAL_IDS = (
    "acc", "ba", "kappa", "ce", "cc", "sba", "cd", "cdprime",
    "f:beta=1:macro", "cc:weighted",
)

#: Measures whose chance expectation is exactly 0, per class count
#: (``gm`` is binary-only).
ZERO_BASELINE_IDS = {
    2: ("cc", "kappa", "gm:r=-2", "gm:r=-1", "gm:r=1", "gm:r=2"),
    3: ("cc", "kappa"),
}
#: Measures whose chance expectation is exactly 1/m.
INV_M_BASELINE_IDS = ("ba", "sba")
#: Its chance expectation is sum(a_i * b_i) / n^2.
ACC_ID = "acc"

#: (measure, l_max, expected order) for ``baseline_order``: ``cc`` is
#: affine in p_ab at fixed margins, so it reaches any limit; arccos has a
#: vanishing second but not third derivative at 0; the chordal transform
#: already curves at second order.
ORDER_CASES = (("cd", 3, 2), ("cdprime", 2, 1), ("cc", 3, 3))
NORMALIZER_RS = (-2, -1, 1, 2)

#: Labels files for the ``cli`` workload: (name, classes, agreement rate).
#: A model's prediction equals the truth with the agreement rate and is
#: otherwise a uniformly drawn other class.
BINARY_MODELS = (("bin_a", 0.92), ("bin_b", 0.85), ("bin_c", 0.78), ("bin_d", 0.70))
MULTI_MODELS = (
    ("mc_a", 0.90), ("mc_b", 0.80), ("mc_c", 0.70),
    ("mc_d", 0.60), ("mc_e", 0.50), ("mc_f", 0.40),
)
#: True-class shares of the generated truths.
BINARY_TRUTH = (0.65, 0.35)
MULTI_TRUTH = (0.4, 0.3, 0.2, 0.1)

BUDGET_AUDIT = ("--measures", "cc", "--properties", "mon,sym,max", "--budget", "1")
BUDGET_FAULT = (
    "exits 0 instead of 3: properties.check_property passes --budget only to "
    "cb/acb, so the mon/sym/max enumerations ignore it"
)


@dataclass(frozen=True)
class Sizes:
    """Every size a workload depends on."""

    #: ``audit --m 3 --n-max``: the default multiclass windows (n <= 9 for
    #: the edit walks) take about 40 s; n <= 5 keeps the same cells.
    audit_m3_n_max: int = 5
    #: Whether the binary grid runs at its default windows.
    audit_binary: bool = True
    #: Multiclass space of the preservation cells run through the gate
    #: function: (m, n_max).  The default spaces (m=3 n<=5 and m=4 n<=4)
    #: take about 36 s for the three mon cells alone.
    preservation_space: tuple = (3, 4)
    #: Preservation cells run through ``check_averaging_preservation``.
    preservation_cells: tuple = (
        ("micro", "mon"), ("macro", "mon"), ("weighted", "mon"), ("macro", "acb"),
    )
    #: Properties of the ``audit --preservation`` command.
    preservation_cli_properties: tuple = ("min", "smon")
    #: Sample sizes of the baseline margin grid.
    baseline_n: tuple = (2, 5)
    #: Rate-grid steps of ``baseline_order`` (None: its default grid).
    order_steps: int | None = None
    normalizer_steps: int = 20
    #: Rows of each generated labels file.
    rows: int = 100_000
    #: ``distinguish --n`` range.
    distinguish_n: tuple = (2, 12)
    #: Seeded random points per satisfied or preserved audit cell.
    check_points: int = 20


FULL = Sizes()
TINY = Sizes(
    audit_m3_n_max=3,
    audit_binary=False,
    preservation_space=(3, 3),
    preservation_cells=(("weighted", "mon"), ("macro", "acb")),
    preservation_cli_properties=("min",),
    baseline_n=(2, 3),
    order_steps=4,
    normalizer_steps=4,
    rows=300,
    distinguish_n=(2, 5),
    check_points=4,
)


@dataclass(frozen=True)
class Op:
    """One operation: a CLI command, or a call into a gate function."""

    name: str
    kind: str  # "cli" | "preservation" | "expectations" | "order" | "normalizer"
    argv: tuple = ()
    params: dict = field(default_factory=dict)
    expect_rc: int = 0
    known_fault: str | None = None


def compositions(n: int, m: int, min_part: int = 0):
    """All ordered splits of n into m parts >= min_part, lexicographic."""
    if m == 1:
        if n >= min_part:
            yield (n,)
        return
    for first in range(min_part, n - min_part * (m - 1) + 1):
        for rest in compositions(n - first, m - 1, min_part):
            yield (first,) + rest


def margin_pairs(m: int, n_lo: int, n_hi: int):
    """Every (a, b) with n in [n_lo, n_hi] and b not unary."""
    for n in range(n_lo, n_hi + 1):
        for a in compositions(n, m):
            for b in compositions(n, m):
                if max(b) == n:
                    continue
                yield a, b


def expectation_ids(m: int) -> tuple:
    return ZERO_BASELINE_IDS[m] + INV_M_BASELINE_IDS + (ACC_ID,)


def data_paths(data_dir: Path) -> dict:
    return {
        name: data_dir / f"{name}.csv" for name, _ in BINARY_MODELS + MULTI_MODELS
    }


def operations(workload: str, sizes: Sizes, data_dir: Path | None = None) -> list[Op]:
    """The operations of one round, in the order they run."""
    json_out = ("--output", "json", "--no-timestamp")
    if workload == "audit":
        ops = []
        if sizes.audit_binary:
            ops.append(Op("audit_binary", "cli", ("audit",) + json_out))
        ops.append(
            Op(
                "audit_m3",
                "cli",
                ("audit", "--m", "3", "--measures", "acc,ba,kappa,cc",
                 "--n-max", str(sizes.audit_m3_n_max)) + json_out,
            )
        )
        return ops
    if workload == "preservation":
        ops = [
            Op(f"preserve_{scheme}_{prop}", "preservation",
               params={"scheme": scheme, "property": prop})
            for scheme, prop in sizes.preservation_cells
        ]
        ops.append(
            Op(
                "audit_preservation",
                "cli",
                ("audit", "--preservation", "--properties",
                 ",".join(sizes.preservation_cli_properties)) + json_out,
            )
        )
        return ops
    if workload == "baselines":
        ops = [
            Op(f"expect_m{m}_{method}", "expectations",
               params={"m": m, "method": method})
            for m in (2, 3)
            for method in ("matrices", "labelings")
        ]
        ops += [
            Op(f"order_{mid}", "order", params={"measure": mid, "l_max": l_max})
            for mid, l_max, _ in ORDER_CASES
        ]
        ops += [
            Op(f"normalizer_r{r}", "normalizer", params={"r": r}) for r in NORMALIZER_RS
        ]
        return ops
    if workload == "cli":
        files = data_paths(data_dir)
        binary = [str(files[name]) for name, _ in BINARY_MODELS]
        multi = [str(files[name]) for name, _ in MULTI_MODELS]
        lo, hi = sizes.distinguish_n
        return [
            Op("eval_binary", "cli", ("eval", "--labels", binary[1]) + json_out),
            Op(
                "eval_multiclass",
                "cli",
                ("eval", "--labels", multi[1], "--measures",
                 ",".join(MULTICLASS_EVAL_IDS)) + json_out,
            ),
            Op("compare", "cli", ("compare", "--labels", *multi) + json_out),
            Op("rank", "cli", ("rank", "--labels", *binary) + json_out),
            Op("distinguish", "cli",
               ("distinguish", "--n", f"{lo}:{hi}", "--full") + json_out),
            Op("baseline", "cli",
               ("baseline", "--a", "3,3,2", "--b", "2,3,3", "--method", "both")
               + json_out),
            Op("audit_budget", "cli", ("audit",) + BUDGET_AUDIT + json_out,
               expect_rc=3, known_fault=BUDGET_FAULT),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _write_labels(path: Path, truth, m: int, rate: float, rng: random.Random) -> None:
    lines = ["true,pred"]
    for t in truth:
        if rng.random() < rate:
            p = t
        else:
            p = rng.randrange(m - 1)
            p += p >= t
        lines.append(f"{t},{p}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_labels_files(data_dir: Path, seed: int, rows: int) -> None:
    """Write every labels file of the ``cli`` workload from ``seed``."""
    data_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    files = data_paths(data_dir)
    for models, shares in ((BINARY_MODELS, BINARY_TRUTH), (MULTI_MODELS, MULTI_TRUTH)):
        m = len(shares)
        truth = rng.choices(range(m), weights=shares, k=rows)
        for name, rate in models:
            _write_labels(files[name], truth, m, rate, rng)
