"""Serving benchmark: one command, two workloads, every metric by name.

    python3 servebench/run.py --workload {backfill,live} \
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout of the repository; the program is
imported from the checkout's ``src/`` (exit 2 without it).  Inputs are
made from the seed in a child process and cached under ``.servebench/``.

``--trace 0`` measures the end-to-end metrics with no wrappers in
place.  ``--trace 1`` is a separate run that times every call into each
layer and reports the per-layer metrics, the tracing overhead, and the
program's own ``repro.obs`` overhead (collectors on vs off).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the full report (host fingerprint, samples, ratios with their
bases).  Any output mismatch makes the exit status 1.
"""

import params

params.pin_environment()  # before anything loads NumPy

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
#: Fresh-process set-up measurements per run, split between before and
#: after the timed section so they sample the host at both ends of the
#: run; the median is reported.
SETUP_RUNS = 9
#: A closed-loop run takes at least this many timed passes.
MIN_PASSES = 3
#: Rounds of (collectors on, collectors off, traced) overhead probes.
OVERHEAD_ROUNDS = 5
PREPARE_TIMEOUT_S = 840
CHILD_TIMEOUT_S = 120

#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "events_per_s": ("events/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p99_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Per-layer metrics of the traced run: name -> (unit, better).  Time
#: and counts are per pass (one pass = the workload's whole input once;
#: live has one pass).
PER_LAYER = {
    "core.predictor.self_s": ("s/pass", "lower"),
    "core.predictor.calls": ("calls/pass", "lower"),
    "core.predictor.rows_per_call_p50": ("rows", "higher"),
    "core.predictor.ms_per_call_p50": ("ms", "lower"),
    "serve.feature_store.ingest_columns.self_s": ("s/pass", "lower"),
    "serve.feature_store.ingest.self_s": ("s/pass", "lower"),
    "serve.guard.admit.self_s": ("s/pass", "lower"),
    "serve.guard.offered": ("events/pass", "higher"),
    "serve.guard.accepted": ("events/pass", "higher"),
    "serve.guard.diverted": ("events/pass", "lower"),
    "serve.guard.duplicates": ("events/pass", "lower"),
    "serve.guard.accepted_ratio": ("ratio", "higher"),
    "serve.dlq.journal_record.self_s": ("s/pass", "lower"),
    "serve.dlq.journal_lines": ("lines/pass", "lower"),
    "serve.dlq.journal_bytes": ("bytes/pass", "lower"),
    "serve.dlq.divert.self_s": ("s/pass", "lower"),
    "serve.dlq.dlq_lines": ("lines/pass", "lower"),
    "serve.engine.self_s": ("s/pass", "lower"),
    "serve.batching.self_s": ("s/pass", "lower"),
    "serve.batching.queue_wait_p50_ms": ("ms", "lower"),
    "serve.batching.queue_wait_p99_ms": ("ms", "lower"),
    "serve.batching.batch_size_p50": ("rows", "higher"),
    "fleet.whatif.feed.self_s": ("s/pass", "lower"),
    "fleet.whatif.finalize.self_s": ("s/pass", "lower"),
    "fleet.whatif.evaluate.self_s": ("s/pass", "lower"),
    "fleet.health.observe.self_s": ("s/pass", "lower"),
    "fleet.health.view.self_s": ("s/pass", "lower"),
    "fleet.policy.decide.self_s": ("s/pass", "lower"),
    "fleet.policy.decide.calls": ("calls/pass", "lower"),
    "fleet.actions.apply.self_s": ("s/pass", "lower"),
    "fleet.actions.proposed": ("actions/pass", "lower"),
    "fleet.actions.applied": ("actions/pass", "lower"),
    "fleet.actions.rejected": ("actions/pass", "lower"),
    "fleet.actions.applied_ratio": ("ratio", "higher"),
    "fleet.audit.append.self_s": ("s/pass", "lower"),
    "fleet.audit.append.bytes": ("bytes/pass", "lower"),
    "fleet.audit.verify.self_s": ("s/pass", "lower"),
    "setup.import_s": ("s", "lower"),
    "serve.registry.load_s": ("s", "lower"),
    "data.store.open_s": ("s", "lower"),
    "loadgen.idle_s": ("s/pass", "higher"),
    "loadgen.lag_p99_ms": ("ms", "lower"),
    "loadgen.lag_max_ms": ("ms", "lower"),
    "obs.overhead_pct": ("%", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.coverage_pct": ("%", "higher"),
    "trace.engine_outer_pct": ("%", "lower"),
    "trace.spans_per_pass": ("spans/pass", "lower"),
}


# ---------------------------------------------------------------- host
def _steal_ticks() -> int:
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return -1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_snapshot() -> dict:
    """Load and steal now; taken at run start and end."""
    return {"loadavg": list(os.getloadavg()), "steal_ticks": _steal_ticks(), "unix": time.time()}


def host_fingerprint() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# ---------------------------------------------------------------- children
def _child(script: str, args: list, timeout: float) -> str:
    proc = subprocess.run(
        [sys.executable, str(HERE / script), *map(str, args)],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=params.ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"servebench: {script} failed with exit {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def prepare(seed: int, workload: str, seconds: float) -> Path:
    """The workload's inputs for this seed, made in a child if missing."""
    import prepare as prep

    target = prep.workload_dir(params.work_area(), seed, workload, seconds)
    if not target.exists():
        args = ["--seed", seed, "--workload", workload, "--seconds", seconds]
        target = Path(_child("prepare.py", args, PREPARE_TIMEOUT_S))
    return target


def measure_setup(workload: str, seed: int, inputs: Path, scratch: Path, runs: int) -> list:
    import prepare as prep

    model = prep.seed_dir(params.work_area(), seed) / "model"
    args = [
        "--workload", workload, "--inputs", inputs, "--model", model,
        "--scratch", scratch, "--seed", seed,
    ]
    return [json.loads(_child("setup_probe.py", args, CHILD_TIMEOUT_S)) for _ in range(runs)]


# ---------------------------------------------------------------- metrics
def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _finite(value: float) -> float:
    """JSON has no infinity: a lost event's latency reads as 1e12 ms."""
    return value if value == value and abs(value) != float("inf") else 1e12


def end_to_end(workload, passes: list, setups: list) -> tuple[dict, dict]:
    """Medians over the timed passes of each pass's throughput and
    nearest-rank latency percentiles (one pass on ``live``)."""
    from spans import percentile
    from workloads import peak_rss_mb

    windows = [w for p in passes for w in (p.windows or [p.latency_s])]
    p50 = [percentile(w, 50) for w in windows]
    p99 = [percentile(w, 99) for w in windows]
    values = {
        "setup_s": _median([s["setup_s"] for s in setups]),
        "events_per_s": _median([p.events / p.seconds for p in passes]),
        "latency_p50_ms": _finite(_median(p50) * 1e3),
        "latency_p99_ms": _finite(_median(p99) * 1e3),
        "peak_rss_mb": workload.one_pass_rss_mb,
    }
    detail = {
        "passes": len(passes),
        "pass_seconds": [p.seconds for p in passes],
        "pass_events_per_s": [p.events / p.seconds for p in passes],
        "window_latency_p50_ms": [v * 1e3 for v in p50],
        "window_latency_p99_ms": [v * 1e3 for v in p99],
        "window_latency_samples": [len(w) for w in windows],
        "all_latency_p99_ms": _finite(
            percentile([s for p in passes for s in p.latency_s], 99) * 1e3
        ),
        "all_latency_max_ms": _finite(max((s for p in passes for s in p.latency_s), default=0) * 1e3),
        "latency_unit": "scored event" if workload.name == "live" else f"{params.CHUNK_ROWS}-row chunk",
        "setup_runs": setups,
        "run_end_peak_rss_mb": peak_rss_mb(),
    }
    if workload.name == "live":
        detail["idle_share_pct"] = 100.0 * passes[0].idle_s / passes[0].seconds
        detail["lag_p99_ms"] = percentile(passes[0].lag_s, 99) * 1e3
        detail["p99_limit_ms"] = params.LIVE_P99_LIMIT_MS
        detail["p99_limit_met"] = values["latency_p99_ms"] <= params.LIVE_P99_LIMIT_MS
    return values, detail


def per_layer(rec, passes: list, setups: list, overhead: dict) -> tuple[dict, dict]:
    from spans import percentile

    n = max(1, len(passes))
    st = rec.self_times()
    wall = sum(p.wall_s or p.seconds for p in passes)

    def self_s(*names: str) -> float:
        return sum(st.get(k, (0.0, 0))[0] for k in names) / n

    def prefix_s(prefix: str) -> float:
        return sum(v[0] for k, v in st.items() if k.startswith(prefix)) / n

    def calls(name: str) -> float:
        return st.get(name, (0.0, 0))[1] / n

    def count(key: str) -> float:
        return sum(p.counts.get(key, 0) for p in passes) / n

    rows = rec.samples.get("core.predictor.rows", [])
    waits = rec.samples.get("serve.batching.queue_wait", [])
    lags = [s for p in passes for s in p.lag_s]
    offered = count("serve.guard.offered")
    accepted = count("serve.guard.accepted")
    proposed = rec.counts.get("fleet.actions.proposed", 0) / n
    applied = count("fleet.actions.applied")
    # Coverage is of busy time: the generator's idle waits are neither
    # program work nor a gap.  The outermost engine spans' self time is
    # whatever their wrapped calls leave over (chunk reads, bookkeeping,
    # anything unwrapped), so it is its own term, not coverage.
    idle = st.get("loadgen.idle", (0.0, 0))[0]
    outer = rec.root_self_time("serve.engine.")
    busy = wall - idle
    covered = sum(v[0] for v in st.values()) - idle - outer
    m = {
        "core.predictor.self_s": self_s("core.predictor"),
        "core.predictor.calls": calls("core.predictor"),
        "core.predictor.rows_per_call_p50": _median(rows),
        "core.predictor.ms_per_call_p50": _median(rec.call_durations("core.predictor")) * 1e3,
        "serve.feature_store.ingest_columns.self_s": self_s("serve.feature_store.ingest_columns"),
        "serve.feature_store.ingest.self_s": self_s("serve.feature_store.ingest"),
        "serve.guard.admit.self_s": self_s("serve.guard.admit"),
        "serve.guard.offered": offered,
        "serve.guard.accepted": accepted,
        "serve.guard.diverted": count("serve.guard.diverted"),
        "serve.guard.duplicates": count("serve.guard.duplicates"),
        "serve.guard.accepted_ratio": accepted / offered if offered else 0.0,
        "serve.dlq.journal_record.self_s": self_s("serve.dlq.journal_record"),
        "serve.dlq.journal_lines": count("serve.dlq.journal_lines"),
        "serve.dlq.journal_bytes": count("serve.dlq.journal_bytes"),
        "serve.dlq.divert.self_s": self_s("serve.dlq.divert"),
        "serve.dlq.dlq_lines": count("serve.dlq.dlq_lines"),
        "serve.engine.self_s": prefix_s("serve.engine."),
        "serve.batching.self_s": prefix_s("serve.batching."),
        "serve.batching.queue_wait_p50_ms": percentile(waits, 50) * 1e3,
        "serve.batching.queue_wait_p99_ms": percentile(waits, 99) * 1e3,
        "serve.batching.batch_size_p50": _median(rec.samples.get("serve.batching.batch_size", [])),
        "fleet.whatif.feed.self_s": self_s("fleet.whatif.feed"),
        "fleet.whatif.finalize.self_s": self_s("fleet.whatif.finalize"),
        "fleet.whatif.evaluate.self_s": self_s("fleet.whatif.evaluate"),
        "fleet.health.observe.self_s": self_s("fleet.health.observe"),
        "fleet.health.view.self_s": self_s("fleet.health.view"),
        "fleet.policy.decide.self_s": self_s("fleet.policy.decide"),
        "fleet.policy.decide.calls": calls("fleet.policy.decide"),
        "fleet.actions.apply.self_s": self_s("fleet.actions.apply"),
        "fleet.actions.proposed": proposed,
        "fleet.actions.applied": applied,
        "fleet.actions.rejected": count("fleet.actions.rejected"),
        "fleet.actions.applied_ratio": applied / proposed if proposed else 0.0,
        "fleet.audit.append.self_s": self_s("fleet.audit.append"),
        "fleet.audit.append.bytes": count("fleet.audit.append.bytes"),
        "fleet.audit.verify.self_s": self_s("fleet.audit.verify"),
        "setup.import_s": _median([s["setup.import_s"] for s in setups]),
        "serve.registry.load_s": _median([s["serve.registry.load_s"] for s in setups]),
        "data.store.open_s": _median([s["data.store.open_s"] for s in setups]),
        "loadgen.idle_s": self_s("loadgen.idle"),
        "loadgen.lag_p99_ms": percentile(lags, 99) * 1e3,
        "loadgen.lag_max_ms": max(lags, default=0.0) * 1e3,
        "obs.overhead_pct": overhead["obs_pct"],
        "trace.overhead_pct": overhead["trace_pct"],
        "trace.coverage_pct": 100.0 * covered / busy if busy else 0.0,
        "trace.engine_outer_pct": 100.0 * outer / busy if busy else 0.0,
        "trace.spans_per_pass": len(rec) / n,
    }
    shares = {
        k: 100.0 * v[0] / busy
        for k, v in sorted(st.items(), key=lambda kv: -kv[1][0])
        if k != "loadgen.idle"
    }
    detail = {
        "traced_passes": len(passes),
        "timed_wall_s": wall,
        "busy_s": busy,
        "share_of_busy_pct": shares,
        "ratios": {
            "serve.guard.accepted_ratio": {"accepted": accepted, "offered": offered},
            "core.predictor.rows_per_call_p50": {"calls": calls("core.predictor")},
            "fleet.actions.applied_ratio": {"applied": applied, "proposed": proposed},
        },
        "overhead": overhead,
    }
    return m, detail


# ---------------------------------------------------------------- runs
def timed_passes(workload, seconds: float, recorder=None) -> list:
    """Passes until ``seconds`` of timed work (the whole stream on live)."""
    if workload.name == "live":
        return [workload.run_pass(recorder)]
    passes: list = []
    while sum(p.seconds for p in passes) < seconds or len(passes) < MIN_PASSES:
        passes.append(workload.run_pass(recorder))
    return passes


def overhead_probes(workload) -> tuple[dict, list]:
    """Closed-loop passes with collectors on, off, and traced, back to back
    in each round; returns the overheads and the passes (their outputs are
    checked too).  Overheads are medians of per-round ratios, so host
    speed drifting between rounds cancels."""
    from spans import SpanRecorder

    runs: dict[str, list] = {"collectors_on": [], "collectors_off": [], "traced": []}
    for _ in range(OVERHEAD_ROUNDS):
        runs["collectors_on"].append(workload.probe_pass(collectors=True))
        runs["collectors_off"].append(workload.probe_pass(collectors=False))
        runs["traced"].append(workload.probe_pass(SpanRecorder(), collectors=True))
    seconds = {k: [p.seconds for p in v] for k, v in runs.items()}
    rounds = list(zip(seconds["collectors_on"], seconds["collectors_off"], seconds["traced"]))
    overhead = {
        "obs_pct": 100.0 * _median([on / off - 1.0 for on, off, _ in rounds]),
        "trace_pct": 100.0 * _median([tr / on - 1.0 for on, _, tr in rounds]),
        "probe_seconds": seconds,
    }
    return overhead, [p for v in runs.values() for p in v]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=params.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=params.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=params.DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    params.use_checkout_source()

    started = host_snapshot()
    inputs = prepare(args.seed, args.workload, args.seconds)
    run_dir = params.work_area() / f"run-{os.getpid()}"
    try:
        before = SETUP_RUNS - SETUP_RUNS // 2
        setups = measure_setup(args.workload, args.seed, inputs, run_dir / "probe", before)
        import prepare as prep
        from spans import SpanRecorder
        from workloads import WORKLOADS

        model = prep.seed_dir(params.work_area(), args.seed) / "model"
        workload = WORKLOADS[args.workload](inputs, model, run_dir / "scratch", args.seed)
        workload.load_inputs()
        workload.setup()
        warm = workload.warm_up()
        rec = SpanRecorder() if args.trace else None
        passes = timed_passes(workload, args.seconds, rec)
        setups += measure_setup(args.workload, args.seed, inputs, run_dir / "probe", SETUP_RUNS // 2)
        if rec is None:
            metrics, detail = end_to_end(workload, passes, setups)
            units = END_TO_END
        else:
            overhead, probes = overhead_probes(workload)
            warm += probes
            metrics, detail = per_layer(rec, passes, setups, overhead)
            units = PER_LAYER
            rec.save(params.work_area() / "results" / f"{args.workload}-seed{args.seed}.spans.npz")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    checked = [*warm, *passes]
    attempted = sum(p.attempted for p in checked)
    failed = sum(p.failed for p in checked)
    correct = failed == 0
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {**host_fingerprint(), "start": started, "end": host_snapshot()},
        "metrics": metrics,
        "detail": detail,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
    }
    out = params.work_area() / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2))
    print(json.dumps(report))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, (unit, _better) in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
