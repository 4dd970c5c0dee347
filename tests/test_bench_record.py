"""`tools/bench_record.py` on canned benchmark output: it summarizes runs
and pairs as documented and fails on a bad run, without running the
benchmark."""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
B = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(B)

CHANGE, PARENT = Path("change"), Path("parent")


def canned(metrics, correct=True, failed=0):
    """(exit status, stdout) as `perfbench/run.py` prints them: details
    first, a line per metric, the contract JSON last."""
    details = {"machine": {"nproc": 2}, "probe": {"median_us": 140.0}, "wall_s": 30.0}
    contract = {"correct": correct, "attempted": 10, "failed": failed,
                "metrics": {n: {"value": v, "unit": "u"} for n, v in metrics.items()}}
    lines = [json.dumps(details), *(f"{n} {v}" for n, v in metrics.items()), json.dumps(contract)]
    return 0, "\n".join(lines) + "\n"


def fake_run(calls, values):
    """A runner that records each call and answers values(checkout, seed)."""
    def run(checkout, workload, seed, seconds):
        calls.append((checkout, workload, seed))
        return canned(values(checkout, seed))
    return run


def test_pairs_alternate_and_summarize_per_metric():
    def values(checkout, seed):
        gain = 0.0 if checkout == PARENT else -1.0 if seed == 4 else 20.0  # pair 4 lost
        return {"sweep_sent_per_s": 100.0 + seed + gain,
                "setup_s": 1.0 if checkout == CHANGE else (1.0, 3.0)[seed % 2],
                "sweep_bleu": 0.97,
                "sweep_write_ms_p50": 2.0 if checkout == CHANGE else 1.0}

    calls = []
    doc, problems = B.record(["sweep"], list(range(1, 11)), 27, CHANGE, PARENT,
                             run=fake_run(calls, values), log=lambda s: None)
    assert problems == []
    # the parent runs first in odd pairs, second in even ones
    assert [c[0] for c in calls[:4]] == [PARENT, CHANGE, CHANGE, PARENT]
    assert [c[2] for c in calls[:4]] == [1, 1, 2, 2]
    metrics = doc["workloads"]["sweep"]["metrics"]

    rate = metrics["sweep_sent_per_s"]
    assert rate["parent"]["runs"] == [100.0 + s for s in range(1, 11)]
    assert rate["parent"]["median"] == 105.5
    assert rate["change"]["median"] == 125.5
    assert rate["wins"] == 9 and rate["ties"] == 0 and rate["pairs"] == 10
    assert rate["parent"]["iqr_over_median"] == pytest.approx(5.5 / 105.5)
    assert rate["status"] == "better"
    assert metrics["sweep_bleu"]["ties"] == 10 and metrics["sweep_bleu"]["status"] == "within bound"
    assert metrics["setup_s"]["status"] == "unresolved"          # parent IQR/median 2/2 > 0.25
    assert metrics["sweep_write_ms_p50"]["median_gain"] == -1.0
    assert metrics["sweep_write_ms_p50"]["status"] == "worse"
    runs = doc["workloads"]["sweep"]["runs"]
    assert len(runs) == 20 and runs[0] == {"pair": 1, "seed": 1, "side": "parent",
                                           "probe_median_us": 140.0, "wall_s": 30.0,
                                           "problems": []}
    assert doc["machine"] == {"nproc": 2}


def test_without_a_parent_each_metric_gets_its_spread():
    calls = []
    doc, problems = B.record(["train"], [1, 2, 3], 27, CHANGE, None,
                             run=fake_run(calls, lambda c, s: {"train_loss": float(s)}),
                             log=lambda s: None)
    assert problems == [] and [c[0] for c in calls] == [CHANGE] * 3
    loss = doc["workloads"]["train"]["metrics"]["train_loss"]
    assert (loss["median"], loss["min"], loss["max"], loss["runs"]) == (2.0, 1.0, 3.0, [1.0, 2.0, 3.0])
    assert loss["better"] == "lower" and loss["bound"] == 0.1


@pytest.mark.parametrize("answer, problem", [
    (canned({"sweep_bleu": 1.0}, correct=False), "correct: false"),
    (canned({"sweep_bleu": 1.0}, failed=2), "failed: 2"),
    ((1, "Traceback (most recent call last):\n"), "exit status 1, unreadable output"),
])
def test_a_bad_run_fails_the_command(monkeypatch, tmp_path, answer, problem, capsys):
    def run(checkout, workload, seed, seconds):
        return answer if checkout != B.ROOT else canned({"sweep_bleu": 1.0})

    monkeypatch.setattr(B, "run_benchmark", run)
    out = tmp_path / "bench.json"
    assert B.main(["--workloads", "sweep", "--seeds", "7", "--against", str(tmp_path),
                   "--out", str(out)]) == 1
    assert f"problem: sweep seed 7 parent: {problem}" in capsys.readouterr().err
    assert json.loads(out.read_text())["workloads"]["sweep"]["runs"][0]["problems"] == [problem]
    monkeypatch.setattr(B, "run_benchmark", lambda *a: canned({"sweep_bleu": 1.0}))
    assert B.main(["--workloads", "sweep", "--seeds", "7", "--out", str(out)]) == 0


def test_seed_lists():
    assert B.parse_seeds("5") == [5]
    assert B.parse_seeds("101-103,7") == [101, 102, 103, 7]
