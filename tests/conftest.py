"""Shared fixtures."""

import sys

import pytest


@pytest.fixture
def int_str_limit():
    """``sys.set_int_max_str_digits``, with the limit restored after the
    test.  The limit starts at 4300 digits, the interpreter's default."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield sys.set_int_max_str_digits
    finally:
        sys.set_int_max_str_digits(saved)
