"""The two serving workloads.

Each workload drives the library calls a CLI handler makes, under the
same ambient ``repro.obs`` Tracer and MetricsRegistry every CLI command
activates, so the program's own observability cost is in the numbers.
Why each workload exists, and which layer it loads, is in README.md.

A workload runs in *passes*.  One pass offers its whole input once
through freshly built program objects and checks the outputs against
the seed's reference; only the calls into the program are timed.  The
objects of the first pass are the ones ``setup()`` built, so set-up is
measured exactly once per process and never inside a pass.
"""

from __future__ import annotations

import copy
import json
import resource
import shutil
import time
from collections import deque
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from types import SimpleNamespace
from typing import Any

import numpy as np

# The CLI's own start-up imports: set-up time includes them, as every
# ``repro-ssd`` command pays them.
import repro.cli  # noqa: F401
from repro.data.io import load_drivetable_npz, load_swaplog_npz
from repro.data.store import load_dataset_store, open_store_columns
from repro.fleet import (
    AuditJournal,
    PolicyRunner,
    evaluate_outcome,
    ground_truth,
    verify_journal,
)
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.serve import (
    AdmissionGuard,
    BatchPolicy,
    DeadLetterQueue,
    EventJournal,
    FeatureStore,
    ModelRegistry,
    ScoringEngine,
    ServeBreaker,
)
from repro.simulator import FleetConfig
from repro.simulator.fleet import FleetTrace

import checks
import params
from loadgen import drive_open_loop, poisson_schedule, spin_wait
from spans import PolicyProxy, SpanRecorder

__all__ = ["WORKLOADS", "Pass", "Workload", "live_objects"]

clock = time.perf_counter
inf = float("inf")


@contextmanager
def obs_collectors():
    """The ambient Tracer + MetricsRegistry a CLI command activates."""
    with obs_tracing.activate(obs_tracing.Tracer()), obs_metrics.activate(
        obs_metrics.MetricsRegistry()
    ):
        yield


def peak_rss_mb() -> float:
    """This process's peak resident set so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Pass:
    """One pass: timed seconds, events completed, output-check tally."""

    seconds: float
    events: int
    attempted: int
    failed: int
    #: Per-request latencies: one per chunk (backfill) or per
    #: scored event (live).
    latency_s: list = field(default_factory=list)
    #: Latency percentiles are taken per window, then the median across
    #: windows is reported.  A closed-loop pass is one window; the live
    #: stream is cut into ``LIVE_WINDOW_S`` windows by due time.
    windows: list = field(default_factory=list)
    #: Layer counts read from the program's outputs after the pass.
    counts: dict = field(default_factory=dict)
    #: ``live`` only: how late each arrival was offered, and the seconds
    #: the generator spent waiting for due times.
    lag_s: list = field(default_factory=list)
    idle_s: float = 0.0
    #: Wall time of everything the pass ran in the program, for trace
    #: coverage (``live`` adds the decision pass after the stream).
    wall_s: float | None = None


class Workload:
    """Runs passes; subclasses supply inputs, objects and checks."""

    name = ""

    def __init__(self, inputs: Path, model_dir: Path, scratch: Path, seed: int):
        self.inputs = inputs
        self.model_dir = model_dir
        self.scratch = scratch
        self.seed = seed
        self.predictor: Any = None
        self._next: Any = None
        self._builds = 0
        #: Peak RSS once set-up and the first full pass are done: what one
        #: ``serve replay`` or ``fleet run`` process peaks at.  Later passes
        #: in the same process add only allocator fragmentation, which
        #: grows with their number (so with host speed) and which a
        #: one-shot CLI run never sees.
        self.one_pass_rss_mb: float | None = None

    # ------------------------------------------------------------ set-up
    def load_inputs(self) -> None:
        """Benchmark-side inputs (references, arrival lists); untimed."""

    def open_inputs(self) -> None:
        """What the program opens before the first event (the store or trace)."""

    def build(self) -> SimpleNamespace:
        """Fresh program objects for one pass."""
        raise NotImplementedError

    def setup(self) -> dict[str, float]:
        """The program's start-up after imports, split by step."""
        t0 = clock()
        self.predictor = ModelRegistry(self.model_dir / "registry").load()
        t1 = clock()
        self.open_inputs()
        t2 = clock()
        self._next = self.build()
        t3 = clock()
        return {
            "serve.registry.load_s": t1 - t0,
            "data.store.open_s": t2 - t1,
            "build_s": t3 - t2,
        }

    def _objects(self) -> SimpleNamespace:
        objs, self._next = self._next, None
        return objs if objs is not None else self.build()

    def _fresh_scratch(self) -> Path:
        """A directory of its own for one build's files (removed after
        its pass, so set-up objects and probes never share a journal)."""
        self._builds += 1
        d = self.scratch / f"build-{self._builds}"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        return d

    # ------------------------------------------------------------ passes
    def run_pass(self, recorder: SpanRecorder | None = None, collectors: bool = True) -> Pass:
        objs = self._objects()
        if recorder is not None:
            self.instrument(objs, recorder)
        try:
            with ExitStack() as stack:
                if collectors:
                    stack.enter_context(obs_collectors())
                return self.timed(objs, recorder)
        finally:
            if hasattr(objs, "dir"):
                shutil.rmtree(objs.dir, ignore_errors=True)
            if self.one_pass_rss_mb is None:
                self.one_pass_rss_mb = peak_rss_mb()

    def warm_up(self) -> list[Pass]:
        """One untimed pass so lazy caches (the flat forest) are full;
        its outputs are checked like any other pass."""
        return [self.run_pass()]

    def probe_pass(self, recorder: SpanRecorder | None = None, collectors: bool = True) -> Pass:
        """One closed-loop pass, for overhead comparisons."""
        return self.run_pass(recorder, collectors)

    def timed(self, objs: SimpleNamespace, recorder: SpanRecorder | None) -> Pass:
        raise NotImplementedError

    def instrument(self, objs: SimpleNamespace, rec: SpanRecorder) -> None:
        instrument_serving(rec, objs.engine)


# ---------------------------------------------------------------- backfill
class Backfill(Workload):
    """Unguarded chunked replay of a packed trace (``serve replay``)."""

    name = "backfill"

    def load_inputs(self) -> None:
        self.reference = np.load(self.inputs / "reference.npy")

    def open_inputs(self) -> None:
        self.records_path = self.inputs / "records.cst"
        self.n_rows = len(open_store_columns(self.records_path, widen=False)["drive_id"])

    def build(self) -> SimpleNamespace:
        return SimpleNamespace(engine=ScoringEngine(self.predictor, store=FeatureStore(), workers=1))

    def timed(self, objs, recorder) -> Pass:
        marks: list[float] = []
        t0 = clock()
        result = objs.engine.replay(
            self.records_path,
            chunk_rows=params.CHUNK_ROWS,
            progress=lambda _n: marks.append(clock()),
        )
        t1 = clock()
        return Pass(
            seconds=t1 - t0,
            events=result.n_events,
            attempted=self.n_rows,
            failed=checks.score_failures(result.probability, self.reference),
            latency_s=np.diff([t0, *marks]).tolist(),
        )


# ---------------------------------------------------------------- live
def live_objects(predictor, scratch: Path) -> SimpleNamespace:
    """``fleet run`` under telemetry chaos: guarded scorer with a DLQ and
    a journal, whose scored-event tap feeds a threshold policy runner."""
    scratch.mkdir(parents=True, exist_ok=True)
    store = FeatureStore()
    dlq = DeadLetterQueue(scratch / "dlq.jsonl")
    journal = EventJournal(scratch / "journal.jsonl")
    guard = AdmissionGuard(store, dlq=dlq, journal=journal, breaker=ServeBreaker())
    audit = AuditJournal(scratch / "audit.jsonl")
    runner = PolicyRunner(params.threshold_ladder(), journal=audit)
    engine = ScoringEngine(
        predictor,
        store=store,
        workers=1,
        guard=guard,
        on_scored=runner.feed,
        batch_policy=BatchPolicy(max_wait_seconds=params.LIVE_MAX_WAIT_S),
    )

    def close() -> None:
        for sink in (dlq, journal, audit):
            sink.close()


    return SimpleNamespace(
        engine=engine,
        guard=guard,
        runner=runner,
        dlq=dlq,
        journal=journal,
        audit=audit,
        close=close,
        dir=scratch,
    )


def close_run(
    objs: SimpleNamespace, trace: FleetTrace, evaluate=evaluate_outcome, verify=verify_journal
):
    """The end of ``fleet run`` and ``fleet audit --verify``: decide over
    the buffered scores into the audit journal, price the outcome against
    the ground truth, close the sinks and verify the journal."""
    outcome = objs.runner.finalize()
    report = evaluate(outcome, ground_truth(trace), objs.runner.policy)
    objs.close()
    return outcome, report, verify(objs.audit.path)


def load_trace(d: Path) -> FleetTrace:
    """A prepared fleet, loaded as ``fleet run`` loads it."""
    return FleetTrace(
        records=load_dataset_store(d / "records.cst"),
        drives=load_drivetable_npz(d / "drives.npz"),
        swaps=load_swaplog_npz(d / "swaps.npz"),
        config=FleetConfig(**json.loads((d / "fleet.json").read_text())),
    )


class Live(Workload):
    """Event-wise guarded scoring of a perturbed stream on a fixed-rate,
    open-loop Poisson schedule; one pass is the whole stream."""

    name = "live"
    #: Closed-loop prefix for the warm-up and the overhead probes.
    PROBE_EVENTS = 3000

    def load_inputs(self) -> None:
        self.records = load_dataset_store(self.inputs / "records.cst")
        self.rows = np.load(self.inputs / "arrival_rows.npy")
        self.garbles = json.loads((self.inputs / "garbles.json").read_text())
        self.due = poisson_schedule(len(self.rows), params.LIVE_RATE, self.seed).tolist()
        self.reference = json.loads((self.inputs / "reference.json").read_text())
        self.reference_probs = np.load(self.inputs / "reference_probs.npy")

    def open_inputs(self) -> None:
        self.trace = load_trace(self.inputs)

    def build(self) -> SimpleNamespace:
        return live_objects(self.predictor, self._fresh_scratch())

    def arrivals(self):
        """The perturbed stream, each arrival built when it is offered."""
        return params.live_arrivals(self.records, self.rows, self.garbles)

    def instrument(self, objs, rec) -> None:
        instrument_serving(rec, objs.engine)
        instrument_runner(rec, objs.runner)
        objs.engine.on_scored = objs.runner.feed

    def warm_up(self) -> list[Pass]:
        return [self.probe_pass()]

    def probe_pass(self, recorder=None, collectors=True) -> Pass:
        """A closed-loop prefix of the stream; unchecked, as the reference
        covers the whole stream only."""
        objs = self.build()
        if recorder is not None:
            self.instrument(objs, recorder)
        with ExitStack() as stack:
            if collectors:
                stack.enter_context(obs_collectors())
            t0 = clock()
            result = objs.engine.replay_events(islice(self.arrivals(), self.PROBE_EVENTS))
            close_run(objs, self.trace)
            seconds = clock() - t0
        shutil.rmtree(objs.dir, ignore_errors=True)
        return Pass(seconds=seconds, events=result.n_events, attempted=0, failed=0)

    def timed(self, objs, recorder) -> Pass:
        wait = spin_wait if recorder is None else recorder.wrap("loadgen.idle", spin_wait)
        loop = drive_open_loop(
            objs.engine, self.arrivals(), self.due, clock=clock, sleep=wait,
            idle_step=params.IDLE_STEP_S,
        )
        evaluate, verify = evaluate_outcome, verify_journal
        if recorder is not None:
            evaluate = recorder.wrap("fleet.whatif.evaluate", evaluate_outcome)
            verify = recorder.wrap("fleet.audit.verify", verify_journal)
        t0 = clock()
        outcome, report, verdict = close_run(objs, self.trace, evaluate, verify)
        finalize_s = clock() - t0
        ref = self.reference
        probs = np.asarray([ev.probability for ev in loop.scored], dtype=np.float64)
        wrong = checks.score_mismatch(probs, self.reference_probs)
        stats = objs.guard.stats
        failed = (
            checks.score_failures(probs, self.reference_probs)
            + abs(stats.dead_lettered - ref["dead_lettered"])
            + abs(stats.duplicates_dropped - ref["duplicates"])
            + int(checks.policy_failed(verdict, outcome.chain, report.to_dict(), ref))
        )
        # Lost or mis-scored events miss every latency limit.
        latency = [inf if bad else s for s, bad in zip(loop.latency_s, wrong)]
        width = params.LIVE_WINDOW_S
        windows: list[list[float]] = [[] for _ in range(max(1, int(self.due[-1] // width)))]
        for s, due in zip(latency, loop.due_s):
            windows[min(int(due // width), len(windows) - 1)].append(s)
        windows[-1] += [inf] * max(0, ref["n_scored"] - len(probs))
        return Pass(
            seconds=loop.elapsed_s,
            events=len(probs) - int(np.count_nonzero(wrong)),
            attempted=len(self.rows),
            failed=failed,
            latency_s=latency,
            windows=windows,
            lag_s=loop.lag_s,
            idle_s=loop.idle_s,
            wall_s=loop.elapsed_s + finalize_s,
            counts={
                **guard_counts(objs.guard, len(self.rows)),
                "serve.dlq.journal_lines": objs.journal.appended,
                "serve.dlq.journal_bytes": objs.journal.path.stat().st_size,
                "serve.dlq.dlq_lines": checks.jsonl_lines(objs.dlq.path),
                "fleet.audit.append.bytes": objs.audit.path.stat().st_size,
                "fleet.actions.applied": outcome.n_actions,
                "fleet.actions.rejected": outcome.n_rejected,
            },
        )


def guard_counts(guard: AdmissionGuard, offered: int) -> dict:
    stats = guard.stats
    return {
        "serve.guard.offered": offered,
        "serve.guard.accepted": stats.admitted,
        "serve.guard.diverted": stats.dead_lettered,
        "serve.guard.duplicates": stats.duplicates_dropped,
    }


WORKLOADS = {w.name: w for w in (Backfill, Live)}


# ---------------------------------------------------------------- tracing
def instrument_serving(rec: SpanRecorder, engine: ScoringEngine) -> None:
    """Time every serving layer the engine calls into."""
    predictor = copy.copy(engine.predictor)  # shares the fitted models
    rec.instrument(
        predictor,
        "predict_proba_matrix",
        "core.predictor",
        after=lambda r, a, k: rec.sample("core.predictor.rows", len(r)),
    )
    engine.predictor = predictor
    store = engine.store
    rec.instrument(store, "ingest_columns", "serve.feature_store.ingest_columns")
    rec.instrument(store, "ingest", "serve.feature_store.ingest")
    guard = engine.guard
    if guard is not None:
        rec.instrument(guard, "admit", "serve.guard.admit")
        if guard.journal is not None:
            rec.instrument(guard.journal, "record", "serve.dlq.journal_record")
        if guard.dlq is not None:
            rec.instrument(guard.dlq, "divert", "serve.dlq.divert")
    for method in ("replay", "submit", "poll", "drain"):
        rec.instrument(engine, method, f"serve.engine.{method}")
    instrument_batcher(rec, engine.batcher)


def instrument_batcher(rec: SpanRecorder, batcher) -> None:
    """Time the micro-batcher and sample each request's queue wait."""
    enqueued: deque[float] = deque()
    add, poll, flush = batcher.add, batcher.poll, batcher.flush

    def traced_add(request):
        enqueued.append(rec.clock())
        with rec.span("serve.batching.add"):
            return add(request)

    def traced_poll():
        with rec.span("serve.batching.poll"):
            return poll()

    def traced_flush():
        with rec.span("serve.batching.flush"):
            batch = flush()
        now = rec.clock()
        for _ in batch:
            rec.sample("serve.batching.queue_wait", now - enqueued.popleft())
        if batch:
            rec.sample("serve.batching.batch_size", len(batch))
        return batch

    batcher.add, batcher.poll, batcher.flush = traced_add, traced_poll, traced_flush


def instrument_runner(rec: SpanRecorder, runner: PolicyRunner) -> None:
    """Time the decision plane: tap, day loop, health, policy, actuator, audit."""
    rec.instrument(runner, "feed", "fleet.whatif.feed")
    rec.instrument(runner, "finalize", "fleet.whatif.finalize")
    rec.instrument(runner.health, "observe", "fleet.health.observe")
    rec.instrument(runner.health, "view", "fleet.health.view")
    rec.instrument(runner.actuator, "apply", "fleet.actions.apply")
    if runner.journal is not None:
        rec.instrument(runner.journal, "append", "fleet.audit.append")
    runner.policy = PolicyProxy(runner.policy, rec)

