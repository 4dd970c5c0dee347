"""The benchmark's output contract, checked on short `train` runs.

`perfbench/run.py` must exit 0 and end with a strict-JSON line that says
`"correct": true` and `"failed": 0` and gives every metric `BENCHMARK.json`
declares a finite value: the end-to-end list untraced, the per-layer list
with `--trace 1`.  A per-layer metric goes missing when the functions the
tracer wraps (module attributes such as `model.forward_full`) stop being
called through those attributes.  Each run takes about 5 s.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name} in benchmark output")


@pytest.mark.parametrize("trace, listed", [(0, "end_to_end"), (1, "per_layer")])
def test_train_run_reports_every_declared_metric(trace, listed):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True, proc.stdout.splitlines()[0][-2000:]
    assert result["failed"] == 0
    metrics = result["metrics"]
    for name in (m["name"] for m in DECLARED[listed]):
        value = metrics.get(name, {}).get("value")
        assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)
    if trace:
        # every traced training function ran, and dev_loss ran the encoder
        counts = [n for n in metrics if n.endswith("calls_per_sent")]
        counts.append("training.dev.encoder_runs_per_sent")
        assert all(metrics[n]["value"] > 0 for n in counts), counts
