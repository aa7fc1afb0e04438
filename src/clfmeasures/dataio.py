"""File formats for labelings and confusion matrices.

Three formats are supported:

* ``labels-csv``: two columns, true label then predicted label, with an
  optional ``true,pred`` header.  Labels are arbitrary strings; the
  alphabet is sorted (numerically when every label parses as an integer,
  lexicographically otherwise) and mapped to 0-based class indices.  The
  mapping travels with the parsed pair so reports can show original
  names.  The text is split into lines one slice at a time, never into
  one list of all lines, and every non-blank row gets the id of its
  distinct text in one pass.  Only the distinct rows are split and
  decoded; their ids are renumbered into (true, pred) class pairs and
  counted.  A parsed pair keeps one count per distinct class pair and a
  one-byte row id per element (four bytes past 256 distinct rows).
* ``matrix-json``: a JSON array of array rows.  Entries are integers or
  exact fraction strings like ``"2/3"`` or ``"25e-2"`` (decimal exponent
  at most :data:`MAX_EXPONENT` in magnitude); floats are accepted only
  when integral.  A JSON object with a ``"matrix"`` key is also accepted.
* ``matrix-csv``: the same entries as comma-separated rows.

Files are UTF-8; one leading byte-order mark is dropped.  Writers emit
exactly what the readers accept, and the round trip is exact: fractions
never pass through binary floating point.
"""

from __future__ import annotations

import csv
import itertools
import json
import re
from array import array
from collections import Counter
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Sequence

from .core import ConfusionMatrix, Labeling, _margins, _with_margins

FORMATS = ("labels-csv", "matrix-json", "matrix-csv")

#: Largest magnitude of the decimal exponent of a fraction string such as
#: ``"1e300"``.  ``Fraction`` builds ``10**exponent`` exactly, so a string
#: like ``"1e999999999"`` does not finish in a minute.  4300 matches the
#: interpreter's default limit of 4,300 digits on integer strings.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"e[-+]?(\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


class InputError(ValueError):
    """Malformed or inconsistent input data (CLI exit code 2)."""


class LabelingPair:
    """A (truth, prediction) pair with its label alphabet, held as counts.

    ``rows`` are the distinct (true class, predicted class) pairs in order
    of first occurrence, ``counts`` how often each occurs, and ``ids`` the
    index into ``rows`` of every element: ``bytes`` while there are at
    most 256 distinct rows, else an ``array("I")``.  The matrix is built
    from the counts, the two labelings only on first access.
    """

    def __init__(self, truth: Labeling, pred: Labeling, alphabet: Sequence[str]):
        if truth.m != pred.m:
            raise ValueError(f"class count mismatch: {truth.m} vs {pred.m}")
        if len(truth) != len(pred):
            raise ValueError(f"length mismatch: {len(truth)} vs {len(pred)}")
        rows, ids = _number(lambda: zip(truth.labels, pred.labels))
        self._set(*_tally(ids, rows), tuple(alphabet), truth.m)
        self.truth = truth
        self.pred = pred

    @classmethod
    def _from_counts(cls, rows, counts, ids, alphabet, m) -> "LabelingPair":
        pair = object.__new__(cls)
        pair._set(rows, counts, ids, alphabet, m)
        return pair

    def _set(self, rows, counts, ids, alphabet, m) -> None:
        self.rows = rows
        self.counts = counts
        self.ids = ids
        self.alphabet = alphabet
        self.m = m
        self.n = sum(counts)

    @cached_property
    def truth(self) -> Labeling:
        return Labeling(tuple(self._column(0)), self.m)

    @cached_property
    def pred(self) -> Labeling:
        return Labeling(tuple(self._column(1)), self.m)

    def truth_codes(self) -> bytes | tuple[int, ...]:
        """The true class of every element: ``bytes`` while m <= 256."""
        return self._column(0)

    def _column(self, k: int) -> bytes | tuple[int, ...]:
        table = [row[k] for row in self.rows]
        if self.m > 256:
            return tuple(map(table.__getitem__, self.ids))
        if type(self.ids) is bytes:
            return self.ids.translate(bytes(table).ljust(256, b"\0"))
        return bytes(map(table.__getitem__, self.ids))

    def __eq__(self, other):
        if not isinstance(other, LabelingPair):
            return NotImplemented
        # ``rows`` and ``ids`` are a function of the two label sequences.
        return (self.alphabet, self.m, self.rows, self.ids) == (
            other.alphabet, other.m, other.rows, other.ids
        )

    def __hash__(self):
        return hash((self.alphabet, self.m, self.rows, self.counts))

    def __repr__(self):
        return f"LabelingPair(n={self.n}, m={self.m}, alphabet={self.alphabet!r})"

    def matrix(self) -> ConfusionMatrix:
        cells = [[0] * self.m for _ in range(self.m)]
        for (t, p), count in zip(self.rows, self.counts):
            cells[t][p] += count
        # Codes lie in 0..m-1 and every count is positive, so the cells
        # form a valid matrix.
        entries = tuple(map(tuple, cells))
        return _with_margins(entries, *_margins(entries))

    def mapping(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.alphabet)}

    def with_alphabet(self, alphabet: Sequence[str]) -> "LabelingPair":
        """The same pair indexed by ``alphabet``, a superset of its own."""
        alphabet = tuple(alphabet)
        if alphabet == self.alphabet:
            return self
        index = {name: i for i, name in enumerate(alphabet)}
        remap = [index[name] for name in self.alphabet]
        rows = tuple((remap[t], remap[p]) for t, p in self.rows)
        return LabelingPair._from_counts(rows, self.counts, self.ids, alphabet, len(alphabet))


class _Numbering(dict):
    """A dict handing each new key the next id, in order of first lookup."""

    def __missing__(self, key):
        i = self[key] = len(self)
        return i


def _number(keys) -> tuple[list, bytes | array]:
    """The distinct items of ``keys()`` in order of first occurrence, and
    the index among them of every item: ``bytes`` while there are at most
    256 distinct items, else an ``array("I")``.

    ``keys`` gives a fresh iterator each call.  Items are numbered in one
    pass at C level; a 257th distinct item restarts the pass into an
    array, the first 256 keeping their ids.
    """
    numbering = _Numbering()
    try:
        ids = bytes(map(numbering.__getitem__, keys()))
    except ValueError:  # an id of 256 does not fit a byte
        if len(numbering) <= 256:
            raise
        ids = array("I", map(numbering.__getitem__, keys()))
    return list(numbering), ids


def _tally(ids: bytes | array, key_rows: list) -> tuple:
    """``rows``, ``counts`` and ``ids`` of a :class:`LabelingPair`.

    ``ids`` indexes :func:`_number`'s distinct keys, and ``key_rows``
    gives each distinct key's (true, pred) class pair.  Keys of one class
    pair share a row, so ``ids`` is renumbered into rows in one pass.
    """
    index: dict = {}
    remap = [index.setdefault(row, len(index)) for row in key_rows]
    if len(index) < len(remap):
        if type(ids) is bytes:
            ids = ids.translate(bytes(remap).ljust(256, b"\0"))
        else:
            rows = map(remap.__getitem__, ids)
            ids = bytes(rows) if len(index) <= 256 else array("I", rows)
    if type(ids) is bytes:
        counts = tuple(map(ids.count, range(len(index))))
    else:
        tally = Counter(ids)
        counts = tuple(map(tally.__getitem__, range(len(index))))
    return tuple(index), counts, ids


def _sorted_alphabet(labels: set[str]) -> tuple[str, ...]:
    try:
        # Names of one integer ("1", "01", "+1") sort by their text, so the
        # order never depends on the set's iteration order.
        return tuple(sorted(labels, key=lambda name: (int(name), name)))
    except ValueError:
        return tuple(sorted(labels))


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from exc


def _is_header(row) -> bool:
    return [c.strip().lower() for c in row] == ["true", "pred"]


def _split_lines(lines: list[str]) -> list[list[str]]:
    return list(csv.reader(lines))


#: Characters per slice of a labels file's text, which is split into
#: lines one slice at a time; a slice ends just after the first ``"\n"``
#: at or past this length.
SLICE = 1 << 15


def _slices(text: str):
    start = 0
    while start < len(text):
        end = text.find("\n", start + SLICE) + 1 or len(text)
        yield text[start:end]
        start = end


def _lines(text: str):
    """The lines of ``text.splitlines()``, split one slice at a time.

    Each slice but the last ends just after a ``"\n"``, which ends a line
    (with a ``"\r"`` before it, if any), so the slices' lines are the
    text's and no list of all of them exists at once.
    """
    return itertools.chain.from_iterable(map(str.splitlines, _slices(text)))


def _read_rows(lines):
    """The reader's rows over ``str.splitlines`` pieces, each given back
    its line end as ``"\n"``, so a line break inside a quoted field reads
    as ``"\n"``."""
    return csv.reader(map(str.__add__, lines, itertools.repeat("\n")))


def _raise_first_bad_row(path, text: str) -> None:
    """Walk the rows in file order and raise what the first malformed one
    gives: the reader's ``csv.Error`` or a row without two fields."""
    rows = filter(None, _read_rows(_lines(text)))
    first = next(rows, None)
    if first is not None and not _is_header(first):
        rows = itertools.chain((first,), rows)
    for lineno, row in enumerate(rows, 1):
        if len(row) != 2:
            raise InputError(
                f"{path}: row {lineno} has {len(row)} fields, expected 2 (true,pred)"
            )


def read_labels_csv(path) -> LabelingPair:
    """Parse a two-column (true, pred) CSV into an aligned labeling pair.

    The non-blank rows are numbered by distinct text in one pass; only
    distinct rows are split and decoded.  Without a quote character every
    line is one row, so the line is its key.  A quoted field may hold a
    comma or span lines, so then the reader's rows are the keys.  The
    alphabet is inferred from the data; :meth:`LabelingPair.with_alphabet`
    re-indexes the pair by a larger one.
    """
    text = _read_text(path)
    quoted = '"' in text
    fields = list if quoted else _split_lines

    def keys():
        lines = _lines(text)
        return filter(None, map(tuple, _read_rows(lines)) if quoted else lines)

    try:
        first = next(keys(), None)
        skip = first is not None and _is_header(fields([first])[0])
        distinct, ids = _number(lambda: itertools.islice(keys(), skip, None))
        rows = fields(distinct)
    except csv.Error:
        _raise_first_bad_row(path, text)
        raise
    if any(len(row) != 2 for row in rows):
        _raise_first_bad_row(path, text)
    if not rows:
        raise InputError(f"{path}: no data rows")
    stripped = {raw: raw.strip() for row in rows for raw in row}
    names = _sorted_alphabet(set(stripped.values()))
    index = {name: i for i, name in enumerate(names)}
    key_rows = [(index[stripped[t]], index[stripped[p]]) for t, p in rows]
    return LabelingPair._from_counts(*_tally(ids, key_rows), names, len(names))


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
    except ValueError as exc:  # malformed, or an integer past the digit limit
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
