"""Byte-identity of every shipped output against committed digests.

A refactor must leave these unchanged. A deliberate change of numbers
regenerates them with `tests/golden/regenerate.py`.
"""
from golden.regenerate import compute, load


def test_outputs_match_golden_digests():
    want = load()
    got = compute()
    assert sorted(got) == sorted(want)
    moved = sorted(k for k in want if got[k] != want[k])
    assert not moved, f"outputs changed: {moved}"
