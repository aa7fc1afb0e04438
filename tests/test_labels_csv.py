"""The streaming labels-CSV parser against the row-walk parser it replaced.

``_row_walk_read_labels_csv`` is the earlier ``read_labels_csv``, kept
verbatim as the reference: it keeps every reader row and every
(true, pred) tuple alive before it indexes the labels.  The streaming
parser must give the same pair, or the same error message, on every text.
"""

import csv
import gc
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clfmeasures.core import Labeling
from clfmeasures.dataio import (
    InputError,
    LabelingPair,
    _read_text,
    _sorted_alphabet,
    read_labels_csv,
)


def _row_walk_read_labels_csv(path) -> LabelingPair:
    rows = [row for row in csv.reader(_read_text(path).splitlines()) if row]
    if rows and [c.strip().lower() for c in rows[0]] == ["true", "pred"]:
        rows = rows[1:]
    if not rows:
        raise InputError(f"{path}: no data rows")
    pairs = []
    for lineno, row in enumerate(rows, 1):
        if len(row) != 2:
            raise InputError(
                f"{path}: row {lineno} has {len(row)} fields, expected 2 (true,pred)"
            )
        pairs.append((row[0].strip(), row[1].strip()))
    names = _sorted_alphabet({x for pair in pairs for x in pair})
    index = {name: i for i, name in enumerate(names)}
    m = len(names)
    truth = Labeling(tuple(index[t] for t, _ in pairs), m)
    pred = Labeling(tuple(index[p] for _, p in pairs), m)
    return LabelingPair(truth, pred, names)


def _outcome(read, path):
    try:
        return read(path)
    except Exception as exc:  # the message is compared, whatever the type
        return type(exc).__name__, str(exc)


# Names of one integer with different texts ("1", "01", "+1") and names
# that need quoting: a comma, a doubled quote, line breaks.
INT_NAMES = ("0", "1", "2", "10", "01", "+1", "-3", "007")
STR_NAMES = ("cat", "Dog", "a,b", 'say "hi"', "two\nlines", "cr\r\nlf", "", "true", "pred")
HEADERS = (None, "true,pred", " TRUE , Pred ", '"true","pred"', "true,pred,extra")


def _field(draw, names):
    name = draw(st.sampled_from(names))
    pad = draw(st.sampled_from(("", " ", "  ", "\t")))
    text = pad + name + draw(st.sampled_from(("", " ", "\t ")))
    if any(c in text for c in ',"\r\n') or draw(st.booleans()):
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def labels_texts(draw):
    names = draw(st.sampled_from((INT_NAMES, STR_NAMES, INT_NAMES + STR_NAMES)))
    lines = []
    header = draw(st.sampled_from(HEADERS))
    if header is not None:
        lines.append(header)
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
            continue
        width = draw(st.sampled_from((2, 2, 2, 2, 2, 1, 3)))
        lines.append(",".join(_field(draw, names) for _ in range(width)))
    eol = draw(st.sampled_from(("\n", "\r\n")))
    return eol.join(lines) + draw(st.sampled_from(("", eol, eol + eol)))


@pytest.fixture(scope="module")
def text_file(tmp_path_factory):
    return tmp_path_factory.mktemp("labels") / "labels.csv"


@settings(max_examples=400, deadline=None)
@given(labels_texts())
@example("")
@example("true,pred\n")
@example("\n\ntrue,pred\r\n\r\n")
@example(" TRUE , Pred \n 1 , 2\n2,1\n")
@example('true,pred\n"a,\nb",a\n"c""d",a\n')
@example("true,pred\n0,1\n1\n")
@example("0,1\n1,0,1\n")
@example("01,1\n+1,1\n")
@example("true,pred\n,\n")
@example('true,pred\n""\n')
def test_streaming_parser_matches_row_walk(text_file, text):
    text_file.write_bytes(text.encode("utf-8"))
    expected = _outcome(_row_walk_read_labels_csv, text_file)
    assert _outcome(read_labels_csv, text_file) == expected


def test_integer_names_of_one_value_sort_by_text(tmp_path):
    names = ("1", "01", "+1", "001", "+01", "0001", "2", "02")
    path = tmp_path / "ties.csv"
    path.write_text("".join(f"{name},{name}\n" for name in names))
    assert read_labels_csv(path).alphabet == (
        "+01", "+1", "0001", "001", "01", "1", "02", "2"
    )


def test_parse_starts_no_full_collection(tmp_path):
    """A 100k-row file keeps no per-row container alive, so parsing it
    starts no gen-2 collector pass under the interpreter's default
    thresholds.  The row-walk parser starts one or two."""
    rng = random.Random(3)
    path = tmp_path / "big.csv"
    rows = (f"{rng.randrange(3)},{rng.randrange(3)}" for _ in range(100_000))
    path.write_text("true,pred\n" + "\n".join(rows) + "\n")
    starts = [0, 0, 0]

    def count(phase, info):
        if phase == "start":
            starts[info["generation"]] += 1

    saved = gc.get_threshold()
    gc.set_threshold(700, 10, 10)
    gc.collect()
    gc.callbacks.append(count)
    try:
        pair = read_labels_csv(path)
    finally:
        gc.callbacks.remove(count)
        gc.set_threshold(*saved)
    assert pair.n == 100_000
    assert starts[2] == 0, starts
