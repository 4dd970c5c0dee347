"""Record benchmark runs as one BENCH file: per workload and metric the
median, spread and every run, and against a second checkout the change's
win count over alternating pairs.

    python3 tools/bench_record.py --workloads sweep --seeds 101-110 \\
        --against ../parent --out BENCH_26.json

Each run is `perfbench/run.py --workload W --seed S --seconds N --trace 0`
in a subprocess, one per workload and seed in this checkout.  With
`--against DIR`, each seed is one pair: the same run in DIR (the parent),
first in odd pairs and second in even ones.  A run's first line holds the
machine and the speed probe, its last line the contract JSON.  The file is
written in any case; the exit status is 1 if any run failed, read
`correct: false` or counted failed operations.  Stdlib only.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOTES = (
    "status: 'unresolved' when the parent's IQR/median exceeds the metric's bound, "
    "'worse' when the median is worse by more than the bound, 'better' when the change "
    "wins at least 9 in 10 pairs and its median gains more than the parent's IQR, "
    "else 'within bound'",
    "setup_s spreads wider than its bound in most sets: read it as unresolved",
    "serve_sessions_per_s collapses in whole-run stalls now and then: read the runs, "
    "not only the median",
    "all runs are untraced (--trace 0); traced runs take no speed-probe samples",
)


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: int) -> tuple[int, str]:
    """(exit status, stdout) of one untraced run in ``checkout``; a run
    that hangs counts as a failed one, so the runs before it are kept."""
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=checkout, capture_output=True, text=True, timeout=seconds + 300)
    except subprocess.TimeoutExpired:
        return -1, ""
    return proc.returncode, proc.stdout


def parse_run(status: int, stdout: str) -> tuple[dict, dict, list[str]]:
    """(details, contract, problems) of one run's output."""
    lines = stdout.strip().splitlines()
    try:
        details, contract = json.loads(lines[0]), json.loads(lines[-1])
    except (IndexError, ValueError):
        return {}, {}, [f"exit status {status}, unreadable output"]
    problems = [f"exit status {status}"] if status else []
    if contract.get("correct") is not True:
        problems.append("correct: false")
    if contract.get("failed") != 0:
        problems.append(f"failed: {contract.get('failed')}")
    return details, contract, problems


def spread(values: list[float]) -> dict:
    """Median, min, max, IQR/median and every value, in run order."""
    med = statistics.median(values)
    iqr = None
    if len(values) >= 2 and med:
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = (q3 - q1) / abs(med)
    return {"median": med, "min": min(values), "max": max(values),
            "iqr_over_median": iqr, "runs": values}


def compare(change: list[float], parent: list[float], better: str | None,
            bound: float | None) -> dict:
    """The change against the parent, pair by pair and by median; the
    relative gain is signed so that positive is better."""
    c, p = spread(change), spread(parent)
    sign = {"higher": 1.0, "lower": -1.0}.get(better)
    out = {"change": c, "parent": p, "pairs": len(change)}
    if sign is None or not p["median"]:
        return out
    wins = sum(sign * (a - b) > 0 for a, b in zip(change, parent))
    gain = sign * (c["median"] - p["median"]) / abs(p["median"])
    parent_iqr = p["iqr_over_median"]
    if bound is not None and parent_iqr is not None and parent_iqr > bound:
        status = "unresolved"
    elif bound is not None and gain < -bound:
        status = "worse"
    elif wins >= 0.9 * len(change) and parent_iqr is not None and gain > parent_iqr:
        status = "better"
    else:
        status = "within bound"
    out.update(wins=wins, ties=sum(a == b for a, b in zip(change, parent)),
               median_gain=gain, status=status)
    return out


def git_describe(checkout: Path) -> str | None:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                             cwd=checkout, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def record(workloads: list[str], seeds: list[int], seconds: int, change: Path,
           parent: Path | None, run=None, log=print) -> tuple[dict, list[str]]:
    """Run every workload and seed (pairs with ``parent``) by ``run``,
    `run_benchmark` by default; returns the BENCH document and every
    problem, each naming its run."""
    run = run or run_benchmark
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in declared["end_to_end"]}
    sides = {"change": change} if parent is None else {"change": change, "parent": parent}
    doc = {"seconds": seconds, "seeds": seeds, "machine": None,
           "checkouts": {side: git_describe(d) for side, d in sides.items()},
           "notes": list(NOTES), "workloads": {}}
    problems = []
    for workload in workloads:
        runs, values = [], {side: {} for side in sides}
        for pair, seed in enumerate(seeds, 1):
            order = list(sides)
            if parent is not None and pair % 2 == 1:
                order.reverse()                  # the parent first in odd pairs
            for side in order:
                details, contract, bad = parse_run(*run(sides[side], workload, seed, seconds))
                problems += [f"{workload} seed {seed} {side}: {b}" for b in bad]
                doc["machine"] = doc["machine"] or details.get("machine")
                runs.append({"pair": pair, "seed": seed, "side": side,
                             "probe_median_us": details.get("probe", {}).get("median_us"),
                             "wall_s": details.get("wall_s"), "problems": bad})
                for name, m in contract.get("metrics", {}).items():
                    values[side].setdefault(name, []).append(m["value"])
                log(f"{workload} seed {seed} {side}: " + (", ".join(bad) or "ok"))
        metrics = {}
        for name, change_values in values["change"].items():
            decl = declared.get(name, {})
            entry = {"unit": decl.get("unit"), "better": decl.get("better"),
                     "bound": decl.get("bound")}
            if parent is None:
                entry.update(spread(change_values))
            elif len(values["parent"].get(name, ())) == len(change_values):
                entry.update(compare(change_values, values["parent"][name],
                                     decl.get("better"), decl.get("bound")))
            metrics[name] = entry
        doc["workloads"][workload] = {"runs": runs, "metrics": metrics}
    return doc, problems


def parse_seeds(text: str) -> list[int]:
    """'5', '5,7' or '101-110' (inclusive), comma-joined."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="train,sweep,speech,serve")
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-5"))
    ap.add_argument("--seconds", type=int, default=27)
    ap.add_argument("--against", type=Path, help="a second checkout, such as the parent")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    doc, problems = record(args.workloads.split(","), args.seeds, args.seconds, ROOT,
                           args.against, log=lambda s: print(s, file=sys.stderr, flush=True))
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
