"""Malformed matrix files end in exit code 0 or 2, never in an internal error.

Hypothesis writes matrix-json and matrix-csv files built from valid and
invalid pieces (ragged rows, integers past the interpreter's 4,300-digit
string limit, ``"1/0"``, ``NaN`` and ``Infinity``, booleans, nested
objects, a missing ``"matrix"`` key, bytes that are not UTF-8) and runs
``clfmeasures eval --matrix`` on them.  Exit code 4 would mean an
exception escaped the input checks.
"""

import contextlib
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clfmeasures.cli import main

#: Integers the interpreter will not convert from a string of digits.
HUGE = "9" * 4301
POWER = "1" + "0" * 5000

BAD_BYTES = (b"\xff", b"\x80", b"\xc3\x28", b"\xed\xa0\x80")

#: Entries that break a matrix-json file, each in its JSON spelling.
JSON_SPECIALS = (
    "-1", "0.0", "2.0", "1.5", "1e400", "-0.0",
    "true", "false", "null", "NaN", "Infinity", "-Infinity",
    HUGE, POWER, f'"{HUGE}"', f'"{POWER}"',
    '"1/0"', '"2/3"', '" 3 "', '"1e400"', '"1e99999"', '"-1/2"', '"x"', '""',
    "{}", '{"matrix": [[1]]}', "[]", "[[1, 2]]",
)

#: Cells that break a matrix-csv file.
CSV_SPECIALS = (
    "-1", "1.5", "2/3", " 3 ", "", "x", '"4"', '"1,2"',
    "1/0", "NaN", "nan", "Infinity", "inf", "true", "True", "False",
    HUGE, POWER, "1e400", "1e99999", "0x10", "1_0",
)


@st.composite
def grids(draw, specials) -> list[list[str]]:
    """A square matrix of small counts with up to two entries replaced by
    ``specials`` and, sometimes, one row made ragged."""
    m = draw(st.integers(1, 4))
    rows = [[str(draw(st.integers(0, 40))) for _ in range(m)] for _ in range(m)]
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, m - 1))] = draw(st.sampled_from(specials))
    if draw(st.integers(0, 3)) == 0:
        row = draw(st.sampled_from(rows))
        if draw(st.booleans()):
            row.append("1")
        else:
            row.pop()
    return rows


def _array(items) -> str:
    return "[" + ", ".join(items) + "]"


@st.composite
def json_documents(draw) -> str:
    """The rows as a bare array, under ``"matrix"`` or under another key."""
    rows = [_array(row) for row in draw(grids(JSON_SPECIALS))]
    if draw(st.integers(0, 5)) == 0:
        rows[draw(st.integers(0, len(rows) - 1))] = draw(
            st.sampled_from(("1", '"row"', "null", "{}"))
        )
    wrap = draw(st.sampled_from((
        "{}", "{}", "{}", '{{"matrix": {}}}', '{{"matrix": {}}}', '{{"rows": {}}}',
        '{{"matrix": {{"matrix": {}}}}}', "[{}]", '{{"matrix": {}, "extra": {{"a": [1, {{}}]}}}}',
    )))
    return wrap.format(_array(rows))


@st.composite
def csv_documents(draw) -> str:
    lines = [",".join(row) for row in draw(grids(CSV_SPECIALS))]
    return "\n".join(lines) + draw(st.sampled_from(("", "\n", "\r\n", "\n\n")))


@st.composite
def with_bad_bytes(draw, texts) -> bytes:
    """The text as UTF-8, sometimes with a byte that is not UTF-8 spliced in."""
    data = draw(texts).encode("utf-8")
    if draw(st.integers(0, 3)) == 0:
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + draw(st.sampled_from(BAD_BYTES)) + data[cut:]
    return data


@pytest.fixture(scope="module")
def matrix_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _eval_exit_code(path) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["eval", "--matrix", str(path), "--no-timestamp"])
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(with_bad_bytes(json_documents()))
@example(b"[[1, 2], [3]]")
@example(f"[[{HUGE}, 1], [2, 3]]".encode())
@example(b'[["1/0", 1], [2, 3]]')
@example(b"[[NaN, 1], [2, Infinity]]")
@example(b"[[true, 1], [2, 3]]")
@example(b'{"rows": [[1, 2], [3, 4]]}')
@example(b'{"matrix": {"matrix": [[1]]}}')
@example(b"[[1, 2], [3, 4\xff]]")
def test_matrix_json_exits_0_or_2(matrix_dir, data):
    path = matrix_dir / "m.json"
    path.write_bytes(data)
    code, err = _eval_exit_code(path)
    assert code in (0, 2), err


@settings(max_examples=150, deadline=None)
@given(with_bad_bytes(csv_documents()))
@example(b"1,2\n3\n")
@example(f"{HUGE},1\n2,3\n".encode())
@example(b"1/0,1\n2,3\n")
@example(b"NaN,1\n2,Infinity\n")
@example(b"true,1\n2,3\n")
@example(b"1,2\n3,\xff4\n")
def test_matrix_csv_exits_0_or_2(matrix_dir, data):
    path = matrix_dir / "m.csv"
    path.write_bytes(data)
    code, err = _eval_exit_code(path)
    assert code in (0, 2), err
