"""The report bytes pinned in ``golden.py``, and the manifest itself."""

import re

import pytest

from golden import MANIFEST, TIERS, output, sha256


@pytest.mark.parametrize(
    "entry",
    [pytest.param(e, id=e.name, marks=[pytest.mark.slow] if e.tier == "slow" else [])
     for e in MANIFEST],
)
def test_pinned(entry, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = sha256(output(entry))
    assert got == entry.digest, f"{entry.name}: {entry.digest} -> {got}"


def test_names_are_unique():
    names = [e.name for e in MANIFEST]
    assert len(set(names)) == len(names)


def test_no_two_entries_run_the_same_thing():
    # An argv names its input files, so one argv over two fixtures would
    # pin two different files under one name.
    runs = [e.run for e in MANIFEST]
    assert len(set(runs)) == len(runs)


def test_digests_are_sha256_hex():
    assert [e.name for e in MANIFEST if not re.fullmatch("[0-9a-f]{64}", e.digest)] == []


def test_tiers_are_valid():
    assert [e.name for e in MANIFEST if e.tier not in TIERS] == []
