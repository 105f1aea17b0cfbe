"""The paired benchmark driver's summary, on made-up runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(pair, side, run_s, rate, failed=0):
    return {"pair": pair, "side": side, "result": {
        "failed": failed, "attempted": 4,
        "metrics": {"run_s": {"value": run_s}, "rate": {"value": rate}}}}


def test_summary_reads_each_metric_in_its_direction(bench_pairs):
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.0, 2.5, 4.5, 4.0]  # lower in pairs 0, 2 and 4; a tie
    runs = [_run(i, "parent", p, p, failed=i == 0) for i, p in
            enumerate(parent)]
    runs += [_run(i, "change", c, c) for i, c in enumerate(change)]
    runs.append(_run(5, "parent", 9.0, 9.0))  # a pair cut short: ignored
    metrics = [{"name": "run_s", "unit": "s", "better": "lower",
                "bound": 0.25},
               {"name": "rate", "unit": "1/s", "better": "higher",
                "bound": 0.1}]
    got = bench_pairs.summary(runs, metrics)
    run_s, rate = got["metrics"]["run_s"], got["metrics"]["rate"]
    assert run_s["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5}
    assert run_s["change"] == {"median": 2.5, "q1": 2.0, "q3": 4.0, "n": 5}
    assert run_s["ratio"] == 2.5 / 3.0
    assert (run_s["change_won"], run_s["pairs"]) == (3, 5)
    assert rate["change_won"] == 1  # only pair 3 reads higher
    assert got["failed"] == {"parent": {"failed": 1, "attempted": 20},
                             "change": {"failed": 0, "attempted": 20}}
