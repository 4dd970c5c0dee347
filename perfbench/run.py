"""simumt benchmark: one seeded command for the train, sweep, speech and
serve workloads.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports `simumt` from `src/`.
Every run sets up (inputs, fixture model, server process) several times and
reports the median as `setup_s`, then measures all four phases, giving the
named workload's phase 40% of the time and interleaving their passes, so
that every run prints every metric.  Timings are scaled to a nominal
machine speed measured alongside the work (see `speed.py`; serve uses an
echo probe, see `workloads.ServePhase`); the unscaled rates are in the
details line.  With `--trace 0` it prints the end-to-end metrics; with
`--trace 1` it wraps the layers' public functions and prints per-layer
metrics, plus each phase's tracing overhead against its untraced passes.
The last line of output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the lines above it record the machine and details.
"""
from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: with two threads on a two-core
# machine, block encodes of 128-256 tokens ran up to 15x slower now and then.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import faulthandler  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / ".out"
sys.path.insert(0, str(HERE))

import test_arith  # noqa: E402
from speed import PROBE_NOMINAL_S, SpeedProbe  # noqa: E402
from tracing import Tracer, median  # noqa: E402

SETUP_REPEATS = 3
MAIN_SHARE = 0.4           # of --seconds, for the named workload's phase
MIN_PASSES = 2
WATCHDOG_S = 170


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "platform": platform.platform(),
        "git_sha": git_sha(),
    }


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def parse_args(argv):
    ap = argparse.ArgumentParser(description="simumt benchmark")
    ap.add_argument("--workload", required=True, choices=("train", "sweep", "speech", "serve"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= 120:
        ap.error("--seconds must be in [1, 120]")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "simumt" / "__init__.py").is_file():
        print(f"simumt sources not found under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # SIGALRM belongs to the speed probe; the watchdog exits from a C thread
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)

    import workloads as W
    from simumt.normalize import default_number_lexicon

    wall0, cpu0, load0 = perf_counter(), cpu_seconds(), os.getloadavg()
    problems = [f"self-test {f}" for f in test_arith.run_all()]

    setup_times, child = [], None
    try:
        for _ in range(SETUP_REPEATS):
            if child is not None:
                child.close()
                child = None
            t0 = perf_counter()
            inputs = W.make_inputs(args.seed)
            params = W.load_fixture()
            default_number_lexicon()      # built on first use, then cached
            child = W.ServerChild(args.seed, OUT_DIR)
            setup_times.append(perf_counter() - t0)

        phases = {
            "train": W.TrainPhase(inputs, None),
            "sweep": W.SweepPhase(inputs, params),
            "speech": W.SpeechPhase(inputs, params),
            "serve": W.ServePhase(inputs, params, child),
        }
        tracer = Tracer() if args.trace else None
        probe = SpeedProbe()
        run_phases(phases, args.workload, args.seconds, tracer, probe)
        for phase in phases.values():
            phase.finish()
    finally:
        report = child.close() if child is not None else None
    faulthandler.cancel_dump_traceback_later()
    if report is not None and tracer is not None:
        tracer.merge(report)

    metrics: dict[str, tuple] = {}
    if tracer is None:
        metrics["setup_s"] = (median(setup_times), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        for phase in phases.values():
            metrics.update(phase.metrics())
    else:
        metrics.update(layer_metrics(tracer, phases, W))
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    for name, (value, _) in metrics.items():
        if value is None:
            problems.append(f"metric {name} has no samples")

    for phase in phases.values():
        problems.extend(phase.problems)
    attempted = sum(sum(p.ops.attempted.values()) for p in phases.values())
    failed = sum(sum(p.ops.failed.values()) for p in phases.values())
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "load_avg_start": load0, "load_avg_end": os.getloadavg(),
        "wall_s": perf_counter() - wall0,
        "cpu_s": cpu_seconds() - cpu0,
        "server_child": report and {k: report[k] for k in ("maxrss_mb", "cpu_s")},
        "setup_s_each": setup_times,
        "probe": probe_details(probe),
        "phases": {name: p.details() for name, p in phases.items()},
        "problems": problems,
    }
    if tracer is not None:
        details["trace_counts"] = zero_counts(tracer, phases)
        details["spans_kept"] = len(tracer.spans)
        details["spans_dropped"] = tracer.dropped
    print(json.dumps(details))
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value!r:>24} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_phases(phases: dict, main: str, seconds: float, tracer, probe) -> None:
    """Interleave passes so each phase gets its share of the time, spread
    over the whole run: the machine's speed drifts over seconds, and a
    phase measured in one stretch would carry whatever drift hit it.

    With a tracer, every other pass of a phase runs untraced, starting with
    the first, so the tracing overhead is measured under the same drift;
    no pass of a traced run is speed-probed.
    """
    others = (1.0 - MAIN_SHARE) / (len(phases) - 1)
    share = {name: MAIN_SHARE if name == main else others for name in phases}
    spent = dict.fromkeys(phases, 0.0)
    t0 = perf_counter()
    while True:
        elapsed = perf_counter() - t0
        short = [n for n, p in phases.items() if p.passes < MIN_PASSES]
        if elapsed >= seconds and not short:
            return
        pool = short if elapsed >= seconds else list(phases)
        name = max(pool, key=lambda n: share[n] * elapsed - spent[n])
        phase = phases[name]
        start = perf_counter()
        if tracer is None:
            phase.run_pass(None, probe)
        else:
            phase.run_pass(tracer if phase.passes % 2 else None, None)
        spent[name] += perf_counter() - start


def probe_details(probe) -> dict:
    times = [e - s for s, e in zip(probe.starts, probe.ends)]
    return {"samples": len(times), "nominal_us": PROBE_NOMINAL_S * 1e6,
            "median_us": median(times) * 1e6 if times else None}


def zero_counts(tracer, phases) -> dict:
    """Counts that read zero on a healthy run, reported here rather than as
    per-layer metrics."""
    return {
        "server.errors": phases["serve"].frames.failed.get("frames", 0),
        "server.sessions_aborted": tracer.counts[("serve", "sessions_aborted")],
        "online.truncated_frac": (tracer.counts[("sweep", "truncated")]
                                  / max(tracer.counts[("sweep", "sentences")], 1)),
    }


def layer_metrics(tracer, phases, W) -> dict:
    out = {}
    out.update(phases["train"].layer_metrics(tracer))
    out.update(W.bucket_metrics(tracer, ("sweep", "speech")))
    for name in ("sweep", "speech", "serve"):
        out.update(phases[name].layer_metrics(tracer))
    traced_s = sum(sum(p.traced_pass_seconds) for p in phases.values())
    layers = tracer.layer_self()
    for layer in ("model", "training", "online", "cascade", "metrics", "server"):
        out[f"{layer}.self_share"] = (layers.get(layer, 0.0) / traced_s or None, "frac")
    for name, p in phases.items():
        out[f"trace.overhead.{name}"] = (
            median(p.traced_pass_seconds) / median(p.pass_seconds) - 1.0, "frac")
    return out


if __name__ == "__main__":
    sys.exit(main())
