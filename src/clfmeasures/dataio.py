"""File formats for labelings and confusion matrices.

Three formats are supported:

* ``labels-csv``: two columns, true label then predicted label, with an
  optional ``true,pred`` header.  Labels are arbitrary strings; the
  alphabet is sorted (numerically when every label parses as an integer,
  lexicographically otherwise) and mapped to 0-based class indices.  The
  mapping travels with the parsed pair so reports can show original
  names.
* ``matrix-json``: a JSON array of array rows.  Entries are integers or
  exact fraction strings like ``"2/3"`` or ``"25e-2"`` (decimal exponent
  at most :data:`MAX_EXPONENT` in magnitude); floats are accepted only
  when integral.  A JSON object with a ``"matrix"`` key is also accepted.
* ``matrix-csv``: the same entries as comma-separated rows.

Writers emit exactly what the readers accept, and the round trip is
exact: fractions never pass through binary floating point.
"""

from __future__ import annotations

import csv
import itertools
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .core import ConfusionMatrix, Labeling, build_confusion

FORMATS = ("labels-csv", "matrix-json", "matrix-csv")

#: Largest magnitude of the decimal exponent of a fraction string such as
#: ``"1e300"``.  ``Fraction`` builds ``10**exponent`` exactly, so a string
#: like ``"1e999999999"`` does not finish in a minute.  4300 matches the
#: interpreter's default limit of 4,300 digits on integer strings.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"e[-+]?(\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


class InputError(ValueError):
    """Malformed or inconsistent input data (CLI exit code 2)."""


@dataclass(frozen=True)
class LabelingPair:
    """A parsed (truth, prediction) pair with its label alphabet."""

    truth: Labeling
    pred: Labeling
    alphabet: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.truth)

    @property
    def m(self) -> int:
        return self.truth.m

    def matrix(self) -> ConfusionMatrix:
        return build_confusion(self.truth, self.pred)

    def mapping(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.alphabet)}

    def with_alphabet(self, alphabet: Sequence[str]) -> "LabelingPair":
        """The same pair indexed by ``alphabet``, a superset of its own."""
        alphabet = tuple(alphabet)
        if alphabet == self.alphabet:
            return self
        index = {name: i for i, name in enumerate(alphabet)}
        remap = [index[name] for name in self.alphabet]
        return LabelingPair(
            Labeling(tuple(map(remap.__getitem__, self.truth.labels)), len(alphabet)),
            Labeling(tuple(map(remap.__getitem__, self.pred.labels)), len(alphabet)),
            alphabet,
        )


def _sorted_alphabet(labels: set[str]) -> tuple[str, ...]:
    try:
        # Names of one integer ("1", "01", "+1") sort by their text, so the
        # order never depends on the set's iteration order.
        return tuple(sorted(labels, key=lambda name: (int(name), name)))
    except ValueError:
        return tuple(sorted(labels))


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from exc


def read_labels_csv(path) -> LabelingPair:
    """Parse a two-column (true, pred) CSV into an aligned labeling pair.

    The alphabet is inferred from the data; :meth:`LabelingPair.with_alphabet`
    re-indexes the pair by a larger one.
    """
    # Rows are streamed: only the two raw field strings of each row are
    # kept, so the reader's row lists are freed as they go and never pile
    # up into collector passes.
    rows = filter(None, csv.reader(_read_text(path).splitlines()))
    first = next(rows, None)
    if first is not None and [c.strip().lower() for c in first] != ["true", "pred"]:
        rows = itertools.chain((first,), rows)
    true, pred = [], []
    for lineno, row in enumerate(rows, 1):
        if len(row) != 2:
            raise InputError(
                f"{path}: row {lineno} has {len(row)} fields, expected 2 (true,pred)"
            )
        true.append(row[0])
        pred.append(row[1])
    if not true:
        raise InputError(f"{path}: no data rows")
    stripped = {raw: raw.strip() for raw in {*true, *pred}}
    names = _sorted_alphabet(set(stripped.values()))
    index = {name: i for i, name in enumerate(names)}
    code = {raw: index[name] for raw, name in stripped.items()}
    m = len(names)
    return LabelingPair(
        Labeling(tuple(map(code.__getitem__, true)), m),
        Labeling(tuple(map(code.__getitem__, pred)), m),
        names,
    )


def _exponent_beyond_bound(text: str) -> bool:
    """Whether ``text`` ends in a decimal exponent above :data:`MAX_EXPONENT`."""
    match = _EXPONENT.search(text)
    if match is None:
        return False
    digits = match[1].replace("_", "").lstrip("0")
    return len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT


def _parse_entry(raw, where: str):
    if isinstance(raw, bool):
        raise InputError(f"{where}: boolean entry")
    if isinstance(raw, int):
        value = raw
    elif isinstance(raw, float):
        if not raw.is_integer():
            raise InputError(
                f"{where}: non-integer float {raw}; use a fraction string like \"2/3\""
            )
        value = int(raw)
    elif isinstance(raw, str):
        if _exponent_beyond_bound(raw):
            raise InputError(
                f"{where}: entry {raw!r} has a decimal exponent beyond {MAX_EXPONENT}"
            )
        try:
            value = Fraction(raw.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{where}: cannot parse entry {raw!r}") from exc
        if value.denominator == 1:
            value = int(value)
    else:
        raise InputError(f"{where}: unsupported entry type {type(raw).__name__}")
    if value < 0:
        raise InputError(f"{where}: negative entry {raw}")
    return value


def _matrix_from_rows(rows, source: str) -> ConfusionMatrix:
    if not isinstance(rows, (list, tuple)) or not rows:
        raise InputError(f"{source}: expected a non-empty array of rows")
    m = len(rows)
    entries = []
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)):
            raise InputError(f"{source}: row {i + 1} is not an array")
        if len(row) != m:
            raise InputError(
                f"{source}: row {i + 1} has {len(row)} entries, expected {m} (square)"
            )
        entries.append(
            tuple(_parse_entry(x, f"{source} row {i + 1}") for x in row)
        )
    try:
        return ConfusionMatrix(tuple(entries))
    except ValueError as exc:
        raise InputError(f"{source}: {exc}") from exc


def read_matrix_json(path) -> ConfusionMatrix:
    text = _read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: JSON nested too deeply") from exc
    if isinstance(doc, dict):
        if "matrix" not in doc:
            raise InputError(f"{path}: JSON object lacks a \"matrix\" key")
        doc = doc["matrix"]
    return _matrix_from_rows(doc, str(path))


def read_matrix_csv(path) -> ConfusionMatrix:
    rows = [row for row in csv.reader(_read_text(path).splitlines()) if row]
    return _matrix_from_rows([[c for c in row] for row in rows], str(path))


def parse_inputs(path, fmt: str):
    """Dispatch on the declared format.

    Returns a :class:`LabelingPair` for ``labels-csv`` and a
    :class:`ConfusionMatrix` for the matrix formats.
    """
    if fmt == "labels-csv":
        return read_labels_csv(path)
    if fmt == "matrix-json":
        return read_matrix_json(path)
    if fmt == "matrix-csv":
        return read_matrix_csv(path)
    raise InputError(f"unknown input format {fmt!r}; expected one of {FORMATS}")


def _entry_repr(x) -> int | str:
    if isinstance(x, Fraction):
        return str(x) if x.denominator != 1 else int(x)
    return int(x)


def matrix_to_json(C: ConfusionMatrix) -> str:
    rows = [[_entry_repr(x) for x in row] for row in C.entries]
    return json.dumps(rows, separators=(", ", ": ")) + "\n"


def matrix_to_csv(C: ConfusionMatrix) -> str:
    lines = [",".join(str(_entry_repr(x)) for x in row) for row in C.entries]
    return "\n".join(lines) + "\n"


def write_matrix(C: ConfusionMatrix, path, fmt: str = "matrix-json") -> None:
    if fmt == "matrix-json":
        text = matrix_to_json(C)
    elif fmt == "matrix-csv":
        text = matrix_to_csv(C)
    else:
        raise InputError(f"cannot write format {fmt!r}")
    Path(path).write_text(text, encoding="utf-8")
