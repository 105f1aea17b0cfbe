"""The equivalence gate's report of differing certified numbers, on
made-up dumps: every differing entry, with both values and the relative
change."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "certified_diff.py"


@pytest.fixture(scope="module")
def certified_diff():
    spec = importlib.util.spec_from_file_location("certified_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_differing_entry_is_listed(certified_diff):
    old = {"workload": "w", "certified": {"a": "0x1.0p+0", "b": "0x1.8p+1",
                                          "c": None, "gone": 1},
           "ledger": [{"t": 0.5}, {"t": 1.0}, {"t": 2.0}]}
    new = {"workload": "w", "certified": {"a": "0x1.0000000000001p+0",
                                          "b": "0x1.8p+1", "c": "0x1.0p-2",
                                          "added": 2},
           "ledger": [{"t": 0.5}, {"t": 1.5}]}
    assert list(certified_diff.differences(old, new)) == [
        ("certified.a", "0x1.0p+0", "0x1.0000000000001p+0"),
        ("certified.c", None, "0x1.0p-2"),
        ("certified.gone", 1, None),
        ("certified.added", None, 2),
        ("ledger[1].t", 1.0, 1.5),
        ("ledger (length)", 3, 2)]
    assert list(certified_diff.differences(old, old)) == []


def test_relative_change_reads_hex_and_decimal_numbers(certified_diff):
    rel = certified_diff.relative_change
    assert rel("0x1.0p+0", "0x1.0000000000001p+0") == 2.0**-52
    assert rel(2.0, "1.5") == 0.25
    assert rel("-0x1.0p+2", 2) == 1.5
    # not numbers, or no scale to be relative to
    assert rel(None, "0x1.0p-2") is None
    assert rel("abc", "abd") is None
    assert rel(True, False) is None
    assert rel(0.0, 1.0) is None
    assert (certified_diff.describe("certified.a", "0x1.0p+0", "0x1.8p+0")
            == "certified.a: '0x1.0p+0' -> '0x1.8p+0' "
               "(relative change 5.00e-01)")
    assert (certified_diff.describe("failures", [], ["x"])
            == "failures: [] -> ['x']")
