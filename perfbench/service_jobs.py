"""The small-job service workload: a closed loop of HTTP clients.

An in-process async :class:`GatewayRunner` fronts a ``SearchService`` with
two process-backend workers and a fresh persistent store.  Two client
threads (the bench box has two cores) each submit a single-search plan
(MNIST on ``pynq-z1``, 20 trials, B=1, spec drawn from 5/8/10 ms), follow
the job's SSE stream to its ``end`` frame and fetch ``/result``, then
submit the next.  Every fourth submission repeats a plan whose job has
already completed, which drives the dedup read path next to the
execute-and-store write path.

The run holds a fixed number of submissions, derived from ``--seconds``
and a nominal rate, so its work counters repeat exactly at one seed.
"""

from __future__ import annotations

import json
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from common import STATE_DIR, Outcome, check_repeat, differences, peak_rss_mb, percentile
from tracer import Tracer

from repro.events import JobCompleted, JobStarted
from repro.plans import ExecutionPolicy, RunPlan, ScenarioPlan, SearchPlan, plan_hash
from repro.service import store as store_mod
from repro.service.client import ServiceClient
from repro.service.gateway import GatewayRunner
from repro.service.journal import JobJournal
from repro.service.pool import WorkerPool
from repro.service.store import ResultStore

WORKERS = 2
CLIENTS = 2
TRIALS = 20
SPECS_MS = (5.0, 8.0, 10.0)
REPEAT_EVERY = 4

#: Submissions per second of ``--seconds`` (the rate the bench box reaches).
NOMINAL_JOBS_PER_S = 30

#: Service start-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Bound on any single wait inside a run, seconds.
WAIT_TIMEOUT = 120.0

#: Coordinator-side layers, as (owner, public call, span name, group key).
SERVICE_LAYERS = (
    (WorkerPool, "run_plan", "pool.run_plan",
     lambda self, plan, *a, **k: plan_hash(plan)),
    (ResultStore, "get_bytes", "store.get_bytes", lambda self, key: key),
    (ResultStore, "put", "store.put", lambda self, key, payload: key),
    (JobJournal, "record", "journal.record",
     lambda self, op, digest, *a, **k: digest),
)

#: Legs of one job's latency, in timeline order (plus the remainder).
LEGS = ("gateway.submit", "job.queue_wait", "job.run", "gateway.result")


@dataclass
class Submission:
    """One client request: a plan, and the earlier one it repeats."""

    plan: RunPlan
    repeat_of: int | None = None
    done: threading.Event = field(default_factory=threading.Event)
    # Client clock readings (perf_counter_ns): request sent, reply read,
    # end frame read, result bytes read.
    sent: int = 0
    accepted: int = 0
    ended: int = 0
    received: int = 0
    deduped: bool = False
    digest: str = ""
    blob: bytes | None = None
    error: str | None = None

    @property
    def latency_ms(self) -> float:
        """Submit to result bytes received."""
        return (self.received - self.sent) / 1e6


def job_count(seconds: int) -> int:
    """Submissions in a run of ``seconds`` at the nominal rate."""
    return max(2 * REPEAT_EVERY, round(seconds * NOMINAL_JOBS_PER_S))


def schedule(seed: int, seconds: int) -> list[Submission]:
    """The run's submissions, in order; the same for the same arguments."""
    rng = np.random.default_rng(seed)
    submissions: list[Submission] = []
    for index in range(job_count(seconds)):
        if index % REPEAT_EVERY == REPEAT_EVERY - 1:
            # Repeat an original at least two submissions back, so with two
            # clients it has normally finished before the repeat is due.
            earlier = [i for i in range(index - 2)
                       if submissions[i].repeat_of is None]
            original = earlier[int(rng.integers(len(earlier)))]
            submissions.append(Submission(submissions[original].plan, original))
            continue
        spec = float(SPECS_MS[int(rng.integers(len(SPECS_MS)))])
        submissions.append(Submission(RunPlan(
            workload="search",
            search=SearchPlan(seed=seed * 100_000 + index, trials=TRIALS),
            scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                                  specs_ms=(spec,)),
            execution=ExecutionPolicy(batch_size=1),
        )))
    return submissions


def _warmup_plan(worker: int) -> RunPlan:
    return RunPlan(
        workload="search",
        search=SearchPlan(seed=worker, trials=1),
        scenario=ScenarioPlan(datasets=("mnist",), devices=("pynq-z1",),
                              specs_ms=(SPECS_MS[0],)),
    )


def start_service(store_dir: Path) -> tuple[GatewayRunner, float]:
    """Gateway start, pool spawn and one warm-up job per worker, timed."""
    started = time.perf_counter()
    runner = GatewayRunner(workers=WORKERS, backend="process",
                           store_dir=str(store_dir)).start()
    try:
        handles = [runner.service.submit(_warmup_plan(w)) for w in range(WORKERS)]
        for handle in handles:
            handle.result(timeout=WAIT_TIMEOUT)
    except BaseException:
        runner.stop()
        raise
    return runner, time.perf_counter() - started


def _serve(client: ServiceClient, submission: Submission,
           submissions: list[Submission]) -> None:
    """Submit, follow the SSE stream to its end, fetch the result."""
    if submission.repeat_of is not None:
        submissions[submission.repeat_of].done.wait(WAIT_TIMEOUT)
    submission.sent = time.perf_counter_ns()
    reply = client.submit(submission.plan)
    submission.accepted = time.perf_counter_ns()
    submission.deduped = bool(reply["deduped"])
    submission.digest = reply["plan_hash"]
    state = None
    for frame in client.stream_events(reply["job_id"]):
        if frame["event"] == "end":
            state = frame["data"].get("state")
    if state != "done":
        raise RuntimeError(f"job {reply['job_id']} ended {state!r}")
    submission.ended = time.perf_counter_ns()
    submission.blob = client.result_bytes(reply["job_id"])
    submission.received = time.perf_counter_ns()


def _drive(runner: GatewayRunner, submissions: list[Submission]) -> float:
    """Run the closed loop to the end of the schedule; returns its wall."""
    cursor = iter(range(len(submissions)))
    lock = threading.Lock()

    def client_loop() -> None:
        client = ServiceClient(runner.base_url, timeout=WAIT_TIMEOUT,
                               max_retries=0)
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            submission = submissions[index]
            try:
                _serve(client, submission, submissions)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                submission.error = f"{type(exc).__name__}: {exc}"
            finally:
                submission.done.set()

    threads = [threading.Thread(target=client_loop, name=f"client-{n}")
               for n in range(CLIENTS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - started


def _output_errors(submissions: list[Submission]) -> list[str | None]:
    """Per submission, why its output is wrong (None when it is right)."""
    errors: list[str | None] = []
    for submission in submissions:
        if submission.error is not None:
            errors.append(submission.error)
        elif submission.repeat_of is not None:
            first = submissions[submission.repeat_of].blob
            errors.append(None if submission.blob == first else
                          f"repeat of submission {submission.repeat_of} "
                          "returned different bytes")
        else:
            ledger = store_mod.decode_result(submission.plan,
                                             json.loads(submission.blob))
            indices = [t.index for t in ledger.trials]
            # The min-latency fallback may append one trial after the 20.
            errors.append(
                None if indices[:TRIALS] == list(range(TRIALS))
                and len(indices) in (TRIALS, TRIALS + 1)
                else f"ledger holds {len(indices)} trials, not {TRIALS}")
    return errors


def _counters(submissions: list[Submission]) -> dict:
    """Deterministic outcomes: dedup rate and the simulated search results."""
    best, hours = [], []
    for submission in submissions:
        if submission.repeat_of is not None or submission.blob is None:
            continue
        ledger = store_mod.decode_result(submission.plan,
                                         json.loads(submission.blob))
        spec = submission.plan.scenario.specs_ms[0]
        try:
            best.append(ledger.best_valid(spec).accuracy)
        except ValueError:
            pass  # no child met the spec within 20 trials
        hours.append(ledger.simulated_seconds / 3600.0)
    return {
        "jobs": len(submissions),
        "service.dedup_rate": (sum(s.deduped for s in submissions)
                               / len(submissions)),
        "best_valid_accuracy": statistics.fmean(best) if best else 0.0,
        "sim_search_hours": statistics.fmean(hours) if hours else 0.0,
    }


def _one_pass(store_dir: Path, seed: int, seconds: int,
              tracer: Tracer | None, repeats: int
              ) -> tuple[list[Submission], float, list[float], dict]:
    """Start the service ``repeats`` times, keep the last, run the schedule.

    Returns the submissions, the loop's wall time, every start-up time and
    (traced) the bus times at which each executed job started and ended.
    """
    setups = []
    runner = None
    for attempt in range(repeats):
        if runner is not None:
            runner.stop()
        runner, seconds_taken = start_service(store_dir / f"store-{attempt}")
        setups.append(seconds_taken)
    submissions = schedule(seed, seconds)
    lifecycle: dict[str, dict[str, int]] = {}

    def on_event(event) -> None:
        if isinstance(event, (JobStarted, JobCompleted)):
            lifecycle.setdefault(event.plan_hash, {}).setdefault(
                event.type_tag, time.perf_counter_ns())

    try:
        if tracer is not None:
            runner.service.bus.subscribe(on_event)
            for owner, attr, name, key in SERVICE_LAYERS:
                tracer.wrap(owner, attr, name, group=key)
        try:
            wall = _drive(runner, submissions)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        runner.stop()
    return submissions, wall, setups, lifecycle


def _legs(submissions: list[Submission], lifecycle: dict, tracer: Tracer
          ) -> dict[str, list[float]]:
    """Split each job's latency into its legs; record them as spans.

    The legs partition the interval from submit to result bytes: the
    POST round trip, queue wait (reply to ``JobStarted``), run
    (``JobStarted`` to ``JobCompleted``), the wait for the stream's end
    frame and the status probe (``other``), and the ``/result`` round trip.
    """
    legs: dict[str, list[float]] = {name: [] for name in (*LEGS, "other")}
    for s in submissions:
        if s.error is not None:
            continue
        spans = [("gateway.submit", s.sent, s.accepted)]
        times = lifecycle.get(s.digest, {})
        if not s.deduped and times:
            start = max(s.accepted, times[JobStarted.type_tag])
            end = max(start, times[JobCompleted.type_tag])
            spans += [("job.queue_wait", s.accepted, start),
                      ("job.run", start, end)]
        spans.append(("gateway.result", s.ended, s.received))
        covered = 0
        for name, begin, end in spans:
            tracer.record(name, begin, end, group_key=s.digest)
            legs[name].append((end - begin) / 1e6)
            covered += end - begin
        legs["other"].append((s.received - s.sent - covered) / 1e6)
    return legs


def run(workload: str, seed: int, seconds: int, trace: bool) -> Outcome:
    """Run the service workload; end-to-end or (traced) per-layer metrics.

    A traced run serves the schedule twice, untraced and then traced, on
    fresh services, to report the tracing overhead and check that both
    passes reproduce the same counters.
    """
    key = f"{workload}-seed{seed}-n{job_count(seconds)}"
    (STATE_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=STATE_DIR / "tmp"))
    try:
        plain, wall, setups, _ = _one_pass(
            scratch / "plain", seed, seconds, None,
            repeats=1 if trace else SETUP_REPEATS)
        rss = peak_rss_mb(include_children=True)
        counters = _counters(plain)
        drift = check_repeat(key, counters)
        tracer = None
        if trace:
            tracer = Tracer()
            traced, traced_wall, _, lifecycle = _one_pass(
                scratch / "traced", seed, seconds, tracer, repeats=1)
            drift += differences("traced pass", counters, _counters(traced))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    errors = _output_errors(plain)
    failed = sum(1 for e in errors if e is not None)
    executed = sum(1 for s in plain if not s.deduped and s.error is None)
    latencies = [s.latency_ms for s in plain if s.error is None]
    if trace:
        metrics = _layer_metrics(traced, lifecycle, tracer, traced_wall, wall,
                                 counters)
        drift += check_repeat(
            f"{key}-calls",
            {k: v for k, v in metrics.items() if k.endswith(".calls")})
    else:
        metrics = {
            "trials_per_s": executed * TRIALS / wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
            "best_valid_accuracy": counters["best_valid_accuracy"],
            "sim_search_hours": counters["sim_search_hours"],
            "jobs_per_s": len(latencies) / wall,
            "job_latency_p50_ms": percentile(latencies, 0.50),
            "job_latency_p95_ms": percentile(latencies, 0.95),
        }
    notes = [f"{len(plain)} jobs ({executed} executed) from {CLIENTS} "
             f"closed-loop clients; latency percentiles over "
             f"{len(latencies)} jobs"]
    notes += [f"failed job {i}: {e}" for i, e in enumerate(errors) if e]
    notes += [f"counter drift: {d}" for d in drift]
    return Outcome(attempted=len(plain), failed=failed,
                   correct=failed == 0 and not drift, metrics=metrics,
                   counters=counters, notes=notes, tracer=tracer)


def _layer_metrics(submissions: list[Submission], lifecycle: dict,
                   tracer: Tracer, traced_wall: float, untraced_wall: float,
                   counters: dict) -> dict[str, float]:
    """Per-leg and coordinator-layer self time, calls and medians."""
    legs = _legs(submissions, lifecycle, tracer)
    totals = tracer.layer_totals()
    metrics: dict[str, float] = {}
    for name in LEGS:
        metrics[f"{name}.self_s"] = sum(legs[name]) / 1e3
        metrics[f"{name}.calls"] = len(legs[name])
        metrics[f"{name}.p50_ms"] = percentile(legs[name], 0.5) if legs[name] else 0.0
    for _, _, name, _ in SERVICE_LAYERS:
        self_s, calls = totals.get(name, (0.0, 0))
        metrics[f"{name}.self_s"] = self_s
        metrics[f"{name}.calls"] = calls
    latencies = [s.latency_ms for s in submissions if s.error is None]
    metrics["job.latency.p50_ms"] = percentile(latencies, 0.5)
    metrics["other.self_s"] = sum(legs["other"]) / 1e3
    metrics["wall_s"] = sum(latencies) / 1e3
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead"] = traced_wall / untraced_wall
    metrics["service.dedup_rate"] = counters["service.dedup_rate"]
    return metrics
