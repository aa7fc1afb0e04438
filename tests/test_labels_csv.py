"""The count-based labels-CSV parser against the row-walk parser.

``_row_walk_read_labels_csv`` is an earlier ``read_labels_csv``, kept
as the reference with one change, the line end it gives back to each
``splitlines`` piece: it keeps every reader row and every
(true, pred) tuple alive and builds the two labelings row by row.  The
count-based parser must give the same pair, or the same error message,
on every text, and the pair's matrix, sizes, lazily built labelings and
re-indexed forms must be those of the reference labelings.
"""

import csv
import gc
import json
import random
import tracemalloc
from array import array
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clfmeasures import cli, dataio
from clfmeasures.core import Labeling, build_confusion
from clfmeasures.dataio import (
    InputError,
    LabelingPair,
    _read_text,
    _sorted_alphabet,
    read_labels_csv,
)


def _row_walk_read_labels_csv(path) -> LabelingPair:
    lines = _read_text(path).splitlines()
    rows = [row for row in csv.reader(line + "\n" for line in lines) if row]
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
# The line breaks of ``str.splitlines`` beyond "\n" and "\r\n".  Both
# parsers split the text into lines as ``splitlines`` does, so each of
# these ends a line; inside a quoted field it reads as "\n".
SPLITLINES_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r")
STR_NAMES += tuple(f"x{brk}y" for brk in SPLITLINES_BREAKS)
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
    eol = draw(st.sampled_from(("\n", "\r\n") + SPLITLINES_BREAKS))
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
@example("1,2\n 1,2\n2,1\n1 ,2\n")
@example('a,b\n"a",b\n"a", b\n')
@example('true,pred\x0b1,2\x0b2,1\x0b"x\x0by",2\x0b')
@example('true,pred\x0c1,2\x0c2,1\x0c"x\x0cy",2\x0c')
@example('true,pred\x1c1,2\x1c2,1\x1c"x\x1cy",2\x1c')
@example('true,pred\x1d1,2\x1d2,1\x1d"x\x1dy",2\x1d')
@example('true,pred\x1e1,2\x1e2,1\x1e"x\x1ey",2\x1e')
@example('true,pred\x851,2\x852,1\x85"x\x85y",2\x85')
@example('true,pred\u20281,2\u20282,1\u2028"x\u2028y",2\u2028')
@example('true,pred\u20291,2\u20292,1\u2029"x\u2029y",2\u2029')
@example('true,pred\r1,2\r2,1\r"x\ry",2\r')
def test_streaming_parser_matches_row_walk(text_file, text):
    text_file.write_bytes(text.encode("utf-8"))
    expected = _outcome(_row_walk_read_labels_csv, text_file)
    pair = _outcome(read_labels_csv, text_file)
    assert pair == expected
    if isinstance(expected, LabelingPair):
        _assert_same_pair(pair, expected.truth, expected.pred, expected.alphabet)
        _assert_same_pair(pair, *_reindexed(expected, (*expected.alphabet, "zz", "0")))


def _reindexed(expected: LabelingPair, extra) -> tuple:
    """``expected``'s labelings and alphabet indexed by a superset."""
    alphabet = _sorted_alphabet({*expected.alphabet, *extra})
    remap = [alphabet.index(name) for name in expected.alphabet]
    return (
        Labeling(tuple(remap[x] for x in expected.truth.labels), len(alphabet)),
        Labeling(tuple(remap[x] for x in expected.pred.labels), len(alphabet)),
        alphabet,
    )


def _assert_same_pair(parsed: LabelingPair, truth: Labeling, pred: Labeling, alphabet):
    """``parsed``, re-indexed by ``alphabet``, against the reference labelings."""
    pair = parsed.with_alphabet(alphabet)
    assert pair.alphabet == alphabet
    assert (pair.n, pair.m) == (len(truth), truth.m)
    assert pair.matrix() == build_confusion(truth, pred)
    assert pair.truth == truth and pair.pred == pred
    assert tuple(pair.truth_codes()) == truth.labels
    reference = LabelingPair(truth, pred, alphabet)
    assert pair == reference and hash(pair) == hash(reference)
    if pair.alphabet != parsed.alphabet:
        assert pair != parsed


LINE_CASES = {
    "blank lines before the header": "\n\n\r\n\ntrue,pred\n1,2\n\n2,1\n",
    "blank lines before a data row": "\n\n1,2\n2,1\ntrue,pred\n",
    "crlf": "true,pred\r\n1,2\r\n2,1\r\n\r\n1,2\r\n",
    "no final newline": "true,pred\n1,2\n2,1",
    "no final newline, crlf": "true,pred\r\n1,2\r\n2,1",
    "lone cr and crlf": "true,pred\r1,2\r\n2,1\r\r\n1,1\n",
    "header again as data": "true,pred\n1,2\ntrue,pred\n2,1\n",
    "only a header": "\ntrue,pred\r\n\n",
    "quoted, crlf": 'true,pred\r\n"a\r\nb",1\r\n1,"a\r\nb"\r\n',
}


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 7, 1 << 15])
@pytest.mark.parametrize("text", LINE_CASES.values(), ids=LINE_CASES)
def test_line_cases_at_every_slice_size(text_file, monkeypatch, size, text):
    r"""Whichever line a slice of the text is cut after, ``\r\n`` included,
    the parse is the row walk's."""
    monkeypatch.setattr(dataio, "SLICE", size)
    text_file.write_bytes(text.encode("utf-8"))
    assert list(dataio._lines(text)) == text.splitlines()
    assert _outcome(read_labels_csv, text_file) == _outcome(
        _row_walk_read_labels_csv, text_file
    )


@pytest.mark.parametrize("cut", [-2, -1, 0, 1])
def test_slice_cut_next_to_crlf(tmp_path, cut):
    r"""A ``\r\n`` placed across the default slice boundary stays one break."""
    head = "true,pred\r\n"
    body = "1,0\r\n" * ((dataio.SLICE - len(head)) // 5 - 1)
    filler = "x" * (dataio.SLICE - len(head) - len(body) + cut - 2) + ",1"
    text = head + body + filler + "\r\n" + "1,1\r\n" * 10
    assert text.find("\r\n", len(head) + len(body)) == dataio.SLICE + cut
    assert len(list(dataio._slices(text))) == 2
    assert list(dataio._lines(text)) == text.splitlines()
    path = tmp_path / "crlf.csv"
    path.write_bytes(text.encode("utf-8"))
    assert read_labels_csv(path) == _row_walk_read_labels_csv(path)


def test_256_distinct_rows_with_blank_lines_stay_bytes(tmp_path):
    """Blank lines take no row id, so 256 distinct rows keep one byte each;
    more distinct lines than 256 that decode to at most 256 rows do too."""
    names = [str(k) for k in range(16)]
    rows = [f"{t},{p}" for t in names for p in names]
    path = tmp_path / "blank.csv"
    path.write_text("\n\ntrue,pred\n\n" + "\n\n".join(rows * 2) + "\n\n")
    pair = read_labels_csv(path)
    assert len(pair.rows) == 256 and type(pair.ids) is bytes
    assert pair == _row_walk_read_labels_csv(path)
    path.write_text("".join(f"{t},{p}\n{t}, {p}\n\n" for t in names for p in names))
    pair = read_labels_csv(path)
    assert len(pair.rows) == 256 and type(pair.ids) is bytes
    assert pair == _row_walk_read_labels_csv(path)


def test_more_than_256_distinct_rows_with_blank_lines(tmp_path):
    rng = random.Random(5)
    names = [f"c{k}" for k in range(20)]
    lines = [rng.choice(("", f"{rng.choice(names)},{rng.choice(names)}")) for _ in range(3000)]
    path = tmp_path / "wide.csv"
    path.write_text("\n".join(["", "true,pred", *lines, ""]))
    pair = read_labels_csv(path)
    assert len(pair.rows) > 256 and isinstance(pair.ids, array)
    assert pair == _row_walk_read_labels_csv(path)
    assert sum(pair.counts) == pair.n == sum(map(bool, lines))


def test_parse_peak_memory_is_bounded(tmp_path):
    """A quote-free 100k-row file parses within a third of 7.2 MB, the
    tracemalloc peak of a parser that splits the whole text into one list
    of lines."""
    rng = random.Random(4)
    path = tmp_path / "big.csv"
    rows = (f"{rng.randrange(4)},{rng.randrange(4)}" for _ in range(100_000))
    path.write_text("true,pred\n" + "\n".join(rows) + "\n")
    tracemalloc.start()
    try:
        pair = read_labels_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pair.n == 100_000
    assert peak <= 7.2e6 / 3, peak


@pytest.mark.parametrize("m", [20, 300])
def test_more_than_256_distinct_rows(tmp_path, m):
    """Over 256 distinct rows the row ids take four bytes; over 256
    classes the class codes are ints, not bytes."""
    rng = random.Random(m)
    names = [f"c{k}" for k in range(m)]
    rows = [(rng.choice(names), rng.choice(names)) for _ in range(3000)]
    path = tmp_path / "wide.csv"
    path.write_text("true,pred\n" + "".join(f"{t},{p}\n" for t, p in rows))
    pair = read_labels_csv(path)
    expected = _row_walk_read_labels_csv(path)
    assert len(pair.rows) > 256 and isinstance(pair.ids, array)
    assert pair == expected
    assert isinstance(pair.truth_codes(), bytes if m <= 256 else tuple)
    _assert_same_pair(pair, expected.truth, expected.pred, expected.alphabet)
    _assert_same_pair(pair, *_reindexed(expected, ("a", "zz")))


@pytest.mark.parametrize(
    "first, rows, error",
    [
        ("0,1", ("{big},1", "1"), csv.Error),
        ("0,1", ("1", "{big},1"), InputError),
        ('"0",1', ("{big},1", "1"), csv.Error),
        ('"0",1', ("1", "{big},1"), InputError),
    ],
)
def test_first_malformed_row_wins(tmp_path, first, rows, error):
    """Rows are read in file order, quoted or not: a short row before a
    field over the reader's size limit is reported as the short row, and
    the reverse."""
    big = "x" * (csv.field_size_limit() + 1)
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(("true,pred", first, *rows)).format(big=big) + "\n")
    with pytest.raises(error) as info:
        read_labels_csv(path)
    if error is InputError:
        assert str(info.value) == f"{path}: row 2 has 1 fields, expected 2 (true,pred)"


def test_line_break_inside_quoted_label_is_kept(tmp_path):
    path = tmp_path / "breaks.csv"
    path.write_bytes(b'true,pred\n"two\nlines",1\ntwolines,1\n')
    pair = read_labels_csv(path)
    assert pair.alphabet == ("1", "two\nlines", "twolines")
    assert pair.matrix().entries == ((0, 0, 0), (1, 0, 0), (1, 0, 0))
    path.write_bytes(b'true,pred\n"cr\r\nlf",1\n')
    assert read_labels_csv(path).alphabet == ("1", "cr\nlf")


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


def _write_models(tmp_path, names, count, rows, seed) -> list[str]:
    """``count`` labels files sharing one truth over ``names``; model k
    keeps the true name with probability 0.9 - 0.2 k."""
    rng = random.Random(seed)
    truth = [rng.choice(names) for _ in range(rows)]
    paths = []
    for k in range(count):
        rate = 0.9 - 0.2 * k
        path = tmp_path / f"{names[0]}_{k}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("true", "pred"))
            writer.writerows(
                (t, t if rng.random() < rate else rng.choice(names)) for t in truth
            )
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("output", ["json", "csv", "markdown"])
def test_reports_match_reports_of_row_walk_pairs(tmp_path, monkeypatch, capsys, output):
    binary = _write_models(tmp_path, ("0", "1"), 3, 400, seed=11)
    # Names with a comma and a quote take the reader's quoted path.
    multi = _write_models(tmp_path, ("x", "a,b", 'say "hi"', "10"), 3, 400, seed=12)
    stranger = _write_models(tmp_path, ("1", "0"), 1, 400, seed=13)[0]
    commands = [
        ("eval", "--labels", binary[0]),
        ("eval", "--labels", multi[1]),
        ("compare", "--labels", *binary),
        ("compare", "--labels", *multi),
        ("rank", "--labels", *binary),
        ("rank", "--labels", *multi),
        ("rank", "--labels", *binary, stranger),
    ]

    def reports():
        out = []
        for argv in commands:
            code = cli.main([*argv, "--output", output, "--no-timestamp"])
            out.append((code, *capsys.readouterr()))
        return out

    got = reports()
    monkeypatch.setattr(cli, "read_labels_csv", _row_walk_read_labels_csv)
    assert reports() == got
    assert [code for code, _, _ in got] == [0] * 6 + [2]
    assert got[-1][2] == (
        f"error: {stranger}: true column differs from {binary[0]}; "
        "all models must be scored against one truth\n"
    )
    if output == "json":
        assert json.loads(got[3][1])["m"] == 4
