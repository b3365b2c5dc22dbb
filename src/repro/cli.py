"""Command-line interface: regenerate any table/figure from the shell.

::

    python -m repro table1                 # Table 1 (MNIST on PYNQ)
    python -m repro figure6               # Figure 6 (two FPGAs)
    python -m repro figure7               # Figure 7 (three datasets)
    python -m repro figure8               # Figure 8 (scheduler study)
    python -m repro ablations             # reuse + pruning ablations
    python -m repro estimate 5,7,5,7 9,18,18,36 --device pynq-z1
    python -m repro sweep --seeds 0,1,2 --specs 5,2 --shard-workers 4
    python -m repro table1 --dump-plan plan.json   # ...and run it again:
    python -m repro run plan.json
    python -m repro serve --port 8765             # search-as-a-service...
    python -m repro submit plan.json              # ...and a client for it

Every search command lowers its flags onto one declarative
:class:`~repro.plans.RunPlan` executed through
:class:`repro.api.Session` -- ``--dump-plan PATH`` writes that plan as
JSON (the run still happens), and ``repro run PATH`` replays a dumped
plan, reproducing the original run's trial ledgers byte for byte.

Flags are named after :class:`~repro.plans.ExecutionPolicy` fields:
``--batch-size``, ``--eval-workers``, ``--shard-workers``,
``--checkpoint-dir``, ``--checkpoint-every``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.core.architecture import Architecture
from repro.fpga.device import get_device
from repro.fpga.platform import Platform
from repro.latency.estimator import LatencyEstimator
from repro.plans import (
    ExecutionPolicy,
    RunPlan,
    ScenarioPlan,
    SearchPlan,
    load_plan,
    save_plan,
)

#: Commands that lower to a RunPlan (everything but ``estimate``/``run``).
PLAN_COMMANDS = ("table1", "figure6", "figure7", "figure8", "figure9",
                 "ablations", "report", "sweep")


def _add_execution_flags(parser: argparse.ArgumentParser) -> None:
    """The canonical ExecutionPolicy-derived flag set."""
    parser.add_argument("--batch-size", type=int, default=1,
                        help="candidates per controller step; 1 (default) "
                             "reproduces the sequential published "
                             "trajectories, >1 drives the vectorized "
                             "batched runtime")
    parser.add_argument("--eval-workers", type=int, default=None,
                        help="process-pool workers for child evaluation "
                             "(default 1 = in-process; useful with real "
                             "training evaluators)")
    parser.add_argument("--shard-workers", type=int, default=1,
                        help="worker-pool processes for whole search shards "
                             "in campaign mode (default 1 = serial)")
    parser.add_argument("--shard-batch-trials", type=int, default=None,
                        help="batch shards smaller than this many trials "
                             "together per worker dispatch (default: no "
                             "batching); execution-only, never changes "
                             "results")
    parser.add_argument("--checkpoint-dir", default=None,
                        help="snapshot searches under this directory; "
                             "re-running with the same directory resumes "
                             "interrupted searches")
    parser.add_argument("--checkpoint-every", type=int, default=None,
                        help="trials between snapshots (default: ~10 per "
                             "search)")


def _add_search_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0,
                        help="RNG seed for the searches (default 0)")
    parser.add_argument("--trials", type=int, default=None,
                        help="children per search (default: Table 2's 60)")
    _add_execution_flags(parser)
    _add_dump_plan_flag(parser)


def _add_dump_plan_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dump-plan", default=None, metavar="PATH",
                        help="also write this invocation's RunPlan as JSON "
                             "to PATH; `repro run PATH` replays it")


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x]


def _str_list(text: str) -> list[str]:
    return [x for x in text.split(",") if x]


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FNAS (DAC 2019) reproduction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("table1", "Table 1: NAS vs FNAS on MNIST targeting PYNQ"),
        ("figure6", "Figure 6: search time/latency/accuracy on two FPGAs"),
        ("figure7", "Figure 7: accuracy loss & speedup vs TS, 3 datasets"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_search_flags(p)

    p = sub.add_parser("figure8", help="Figure 8: FNAS-Sched vs fixed "
                                       "scheduling over 16 architectures")
    _add_dump_plan_flag(p)

    p = sub.add_parser(
        "figure9",
        help="Figure 9 (extension): separable vs standard Pareto fronts "
             "on bandwidth-rich vs bandwidth-starved DDR devices",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="RNG seed for sampling and surrogates (default 0)")
    p.add_argument("--samples", type=int, default=None,
                   help="architectures sampled per frontier (default 256)")
    p.add_argument("--devices", type=_str_list, default=None,
                   help="comma-separated catalog devices (default "
                        "xc7z020-ddr-wide,xc7z020-ddr-narrow)")
    _add_dump_plan_flag(p)

    p = sub.add_parser("ablations", help="reuse-strategy and early-pruning "
                                         "ablations")
    _add_search_flags(p)

    p = sub.add_parser("report", help="run every experiment and write a "
                                      "markdown reproduction report")
    _add_search_flags(p)
    p.add_argument("--output", default="reproduction_report.md",
                   help="output path (default reproduction_report.md)")

    p = sub.add_parser(
        "sweep",
        help="run a sharded, checkpointed search campaign over a "
             "(dataset x device x seed x spec) grid",
    )
    p.add_argument("--datasets", type=_str_list, default=["mnist"],
                   help="comma-separated Table 2 datasets (default mnist)")
    p.add_argument("--devices", type=_str_list, default=["pynq-z1"],
                   help="comma-separated catalog devices (default pynq-z1)")
    p.add_argument("--seeds", type=_int_list, default=[0],
                   help="comma-separated seeds, one shard set per seed "
                        "(default 0)")
    p.add_argument("--specs", type=_float_list, default=[],
                   help="comma-separated FNAS timing specs in ms; one "
                        "FNAS shard per spec")
    p.add_argument("--include-nas", action="store_true",
                   help="also run the accuracy-only NAS baseline per "
                        "(dataset, device, seed)")
    p.add_argument("--boards", type=int, default=1,
                   help="replicate each device this many times per "
                        "platform (default 1)")
    p.add_argument("--trials", type=int, default=None,
                   help="children per shard (default: Table 2's 60)")
    _add_execution_flags(p)
    _add_dump_plan_flag(p)
    p.add_argument("--output", default=None,
                   help="also write the merged campaign artifact (JSON, "
                        "per-shard ledgers + Pareto frontier) here")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-shard progress lines")

    p = sub.add_parser(
        "run",
        help="execute a RunPlan JSON file written by --dump-plan",
    )
    p.add_argument("plan", help="path to the plan JSON")
    p.add_argument("--output", default=None,
                   help="override the plan's artifact output path")
    p.add_argument("--quiet", action="store_true",
                   help="suppress progress lines")

    p = sub.add_parser(
        "serve",
        help="run the search service: an HTTP JSON endpoint accepting "
             "RunPlan submissions (submit/status/events/result), with "
             "SSE and long-poll event streams and a graceful drain",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8765,
                   help="bind port (default 8765; 0 = ephemeral)")
    p.add_argument("--workers", type=int, default=2,
                   help="service workers = jobs in flight at once "
                        "(default 2)")
    p.add_argument("--backend", choices=("thread", "process"),
                   default="thread",
                   help="job execution backend: 'thread' runs jobs on the "
                        "worker threads (default), 'process' gives each "
                        "running job its own subprocess so GIL-bound "
                        "searches scale with cores")
    p.add_argument("--store-dir", default=None,
                   help="persist the content-addressed result store here "
                        "(default: in-memory only); also enables the "
                        "crash-consistent job journal, so a killed server "
                        "re-queues unfinished jobs on restart")
    p.add_argument("--checkpoint-dir", default=None,
                   help="snapshot jobs whose plans name no checkpoint "
                        "directory under this root (per plan hash), making "
                        "cancel-then-resubmit and crash recovery resume")
    p.add_argument("--lease-seconds", type=float, default=None,
                   help="lease term for jobs claimed by `repro agent` "
                        "workers; a lease not renewed by heartbeat within "
                        "the term expires and the job re-queues (default "
                        "15)")
    p.add_argument("--tenants", default=None, metavar="TENANTS_JSON",
                   help="enable multi-tenant mode from a tenants.json "
                        "config (API keys, per-tenant quotas, fair-share "
                        "weights; see docs/api.md)")
    p.add_argument("--max-pending", type=int, default=None,
                   help="bound on queued jobs before submissions get 503 "
                        "backpressure (default: unbounded)")
    p.add_argument("--max-connections", type=int, default=None,
                   help="cap on concurrently open connections (503 at "
                        "accept beyond it)")
    p.add_argument("--drain-grace", type=float, default=None,
                   help="seconds a graceful drain (POST /shutdown, "
                        "SIGTERM, Ctrl-C) waits for running jobs before "
                        "checkpoint-cancelling them (default: wait "
                        "indefinitely)")

    p = sub.add_parser(
        "agent",
        help="run a federated worker agent against a coordinator: claim "
             "jobs under heartbeat-renewed leases, execute them in "
             "subprocesses, stream results back",
    )
    p.add_argument("--coordinator", default="http://127.0.0.1:8765",
                   help="coordinator base URL (a running `repro serve`; "
                        "default http://127.0.0.1:8765)")
    p.add_argument("--name", default=None,
                   help="agent name for listings/events (default host-pid)")
    p.add_argument("--agent-id", default=None,
                   help="stable agent identity to (re-)register under; "
                        "lets a restarted agent reclaim its journal-"
                        "restored leases (default: coordinator-minted)")
    p.add_argument("--poll-seconds", type=float, default=0.5,
                   help="idle sleep between claim attempts (default 0.5)")
    p.add_argument("--max-jobs", type=int, default=None,
                   help="exit after this many jobs (default: run until "
                        "SIGTERM/SIGINT)")

    p = sub.add_parser(
        "submit",
        help="submit a RunPlan JSON file to a running `repro serve`",
    )
    p.add_argument("plan", help="path to the plan JSON (as written by "
                                "--dump-plan)")
    p.add_argument("--url", default="http://127.0.0.1:8765",
                   help="service base URL (default http://127.0.0.1:8765)")
    p.add_argument("--priority", type=int, default=0,
                   help="queue priority; higher runs first (default 0)")
    p.add_argument("--no-wait", action="store_true",
                   help="return after queueing instead of waiting for the "
                        "result")
    p.add_argument("--timeout", type=float, default=3600.0,
                   help="seconds to wait for the job (default 3600)")
    p.add_argument("--output", default=None,
                   help="write the job's serialized result JSON here")
    p.add_argument("--api-key", default=None,
                   help="tenant API key for a service running with "
                        "--tenants (sent as X-API-Key)")

    p = sub.add_parser(
        "estimate",
        help="estimate one architecture's latency on a device",
    )
    p.add_argument("filter_sizes", help="comma-separated kernel sizes, "
                                        "e.g. 5,7,5,7")
    p.add_argument("filter_counts", help="comma-separated filter counts, "
                                         "e.g. 9,18,18,36")
    p.add_argument("--device", default="pynq-z1",
                   help="catalog device name (default pynq-z1)")
    p.add_argument("--boards", type=int, default=1,
                   help="replicate the device this many times")
    p.add_argument("--input-size", type=int, default=28)
    p.add_argument("--input-channels", type=int, default=1)
    p.add_argument("--simulate", action="store_true",
                   help="use the cycle simulator instead of the "
                        "closed-form analyzer")
    p.add_argument("--energy", action="store_true",
                   help="also report the analytical energy estimate")

    p = sub.add_parser(
        "store",
        help="inspect and maintain a persistent result store",
    )
    store_sub = p.add_subparsers(dest="store_command", required=True)
    g = store_sub.add_parser(
        "gc",
        help="garbage-collect dead whole-plan and shard entries; entries "
             "referenced by non-terminal journal jobs are never removed",
    )
    g.add_argument("--store-dir", required=True,
                   help="the persistent store directory to collect")
    g.add_argument("--journal", default=None,
                   help="job journal whose non-terminal jobs pin entries "
                        "live (default: <store-dir>/journal.jsonl)")
    g.add_argument("--max-age", type=float, default=None,
                   help="remove dead entries at least this many seconds "
                        "old (default: age alone removes nothing)")
    g.add_argument("--max-bytes", type=int, default=None,
                   help="after age expiry, evict dead entries oldest-first "
                        "until the store fits this budget")
    g.add_argument("--dry-run", action="store_true",
                   help="report what would be removed without deleting")
    return parser


def _execution_from_args(args: argparse.Namespace) -> ExecutionPolicy:
    """The execution flags of a parsed command line, as one policy."""
    eval_workers = getattr(args, "eval_workers", None)
    return ExecutionPolicy(
        batch_size=getattr(args, "batch_size", 1),
        eval_workers=1 if eval_workers is None else eval_workers,
        shard_workers=getattr(args, "shard_workers", 1),
        shard_batch_trials=getattr(args, "shard_batch_trials", None),
        checkpoint_dir=getattr(args, "checkpoint_dir", None),
        checkpoint_every=getattr(args, "checkpoint_every", None),
    )


def plan_from_args(args: argparse.Namespace) -> RunPlan:
    """Lower a parsed command line onto its declarative RunPlan."""
    if args.command == "figure8":
        return RunPlan(workload="figure8")
    if args.command == "figure9":
        from repro.experiments.figure9 import FIGURE9_DEVICES, figure9_plan

        devices = (FIGURE9_DEVICES if args.devices is None
                   else tuple(args.devices))
        return figure9_plan(samples=args.samples, seed=args.seed,
                            devices=devices)
    execution = _execution_from_args(args)
    if args.command == "sweep":
        return RunPlan(
            workload="sweep",
            search=SearchPlan(trials=args.trials),
            execution=execution,
            scenario=ScenarioPlan(
                datasets=tuple(args.datasets),
                devices=tuple(args.devices),
                boards=args.boards,
                seeds=tuple(args.seeds),
                specs_ms=tuple(args.specs),
                include_nas=args.include_nas,
            ),
            output=args.output,
        )
    if args.command == "table1":
        from repro.experiments.table1 import table1_plan

        return table1_plan(trials=args.trials, seed=args.seed,
                           execution=execution)
    if args.command == "figure6":
        from repro.experiments.figure6 import figure6_plan

        return figure6_plan(trials=args.trials, seed=args.seed,
                            execution=execution)
    if args.command == "figure7":
        from repro.experiments.figure7 import figure7_plan

        return figure7_plan(trials=args.trials, seed=args.seed,
                            execution=execution)
    if args.command == "report":
        from repro.experiments.report import report_plan

        return report_plan(trials=args.trials, seed=args.seed,
                           execution=execution, output=args.output)
    if args.command == "ablations":
        return RunPlan(
            workload="ablations",
            search=SearchPlan(seed=args.seed, trials=args.trials),
            execution=execution,
        )
    raise ValueError(f"command {args.command!r} does not lower to a plan")


def _print_result(plan: RunPlan, result) -> None:
    """Render a workload result exactly as its command always has."""
    workload = plan.workload
    if workload in ("table1", "figure6", "figure7", "figure9"):
        print(result.format())
    elif workload == "figure8":
        print(result.format())
        print(f"mean improvement: {result.mean_improvement_percent:.2f}%")
    elif workload == "ablations":
        reuse, pruning = result
        print(reuse.format())
        print(pruning.format())
    elif workload == "report":
        if plan.output is None:
            print(f"report generated ({len(result.splitlines())} lines); "
                  "no output path in the plan, nothing written")
        else:
            print(f"wrote {plan.output} ({len(result.splitlines())} lines)")
    elif workload == "sweep":
        print(result.format())
        print(f"wall time: {result.wall_seconds:.2f}s; "
              f"{result.requeued_shards} shard(s) re-queued")
        if plan.output is not None:
            print(f"wrote {plan.output}")
    elif workload == "search":
        print(f"{result.name}: {len(result.trials)} trials, "
              f"best accuracy {100 * result.best().accuracy:.2f}%")
    else:  # paired
        print(f"paired outcome: NAS {len(result.nas.trials)} trials, "
              f"{len(result.fnas)} FNAS spec(s)")


def _execute_plan(plan: RunPlan, quiet: bool = True) -> int:
    """Run a plan through a Session and print its result."""
    from repro.api import Session

    session = Session.from_plan(plan)
    if not quiet:
        def printer(event):
            label = f" {event.scope}" if event.scope else ""
            print(f"[{event.kind}]{label}: {event.message}", file=sys.stderr)
        session.subscribe(printer)
    result = session.run()
    _print_result(plan, result)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    """``repro run plan.json``: replay a dumped plan."""
    try:
        plan = load_plan(args.plan)
        if args.output is not None:
            plan = dataclasses.replace(plan, output=args.output)
        return _execute_plan(plan, quiet=args.quiet)
    except (KeyError, ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: run the HTTP job service until it drains."""
    from repro.service.gateway import run_gateway
    from repro.service.service import SearchService
    from repro.service.tenants import TenantRegistry

    tenants = None
    if args.tenants is not None:
        try:
            tenants = TenantRegistry.load(args.tenants)
        except (OSError, ValueError) as exc:
            print(f"error: bad tenant config {args.tenants}: {exc}",
                  file=sys.stderr)
            return 2
    service_kwargs = {
        "workers": args.workers,
        "store_dir": args.store_dir,
        "checkpoint_dir": args.checkpoint_dir,
        "backend": args.backend,
    }
    if args.lease_seconds is not None:
        service_kwargs["lease_seconds"] = args.lease_seconds
    service = SearchService(**service_kwargs)
    if service.recovered_jobs:
        print(f"recovered {len(service.recovered_jobs)} unfinished "
              "job(s) from the journal: "
              f"{', '.join(service.recovered_jobs)}",
              file=sys.stderr, flush=True)
    for error in service.recovery_errors:
        print(f"journal recovery skipped an entry: {error}",
              file=sys.stderr, flush=True)
    run_gateway(
        host=args.host, port=args.port, service=service,
        tenants=tenants, max_pending=args.max_pending,
        max_connections=args.max_connections,
        drain_grace=args.drain_grace,
    )
    return 0


def _cmd_agent(args: argparse.Namespace) -> int:
    """``repro agent``: serve a coordinator as a federated worker."""
    from urllib.error import URLError

    from repro.service.agent import run_agent
    from repro.service.client import ServiceError

    try:
        jobs = run_agent(
            args.coordinator,
            name=args.name,
            agent_id=args.agent_id,
            poll_seconds=args.poll_seconds,
            max_jobs=args.max_jobs,
        )
    except (ServiceError, URLError, TimeoutError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"agent exiting after {jobs} job(s)", file=sys.stderr, flush=True)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    """``repro submit plan.json``: hand a plan to a running service."""
    from urllib.error import URLError

    from repro.plans import load_plan
    from repro.service.client import ServiceClient, ServiceError

    try:
        plan = load_plan(args.plan)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    client = ServiceClient(args.url, api_key=args.api_key)
    try:
        info = client.submit(plan, priority=args.priority)
        job_id = info["job_id"]
        note = " (cache hit)" if info.get("cached") else (
            " (deduplicated)" if info.get("deduped") else "")
        print(f"job {job_id}: {info['state']}{note} "
              f"[plan {info['plan_hash'][:12]}]")
        if args.no_wait:
            return 0
        info = client.wait(job_id, timeout=args.timeout)
        print(f"job {job_id}: {info['state']}")
        if info["state"] == "done" and args.output is not None:
            try:
                blob = client.result_bytes(job_id)
            except ServiceError as exc:
                if exc.status != 406:  # 406: workload has no result codec
                    raise
                print(f"note: {info['workload']!r} results are not "
                      "serializable; nothing written", file=sys.stderr)
            else:
                from pathlib import Path

                Path(args.output).write_bytes(blob)
                print(f"wrote {args.output} ({len(blob)} bytes)")
        if info["state"] == "failed":
            print(f"error: {info.get('error')}", file=sys.stderr)
            return 1
        return 0 if info["state"] == "done" else 1
    except (ServiceError, URLError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_estimate(args: argparse.Namespace) -> int:
    sizes = [int(x) for x in args.filter_sizes.split(",")]
    counts = [int(x) for x in args.filter_counts.split(",")]
    arch = Architecture.from_choices(
        sizes, counts, input_size=args.input_size,
        input_channels=args.input_channels,
    )
    device = get_device(args.device)
    platform = Platform.replicated(device, args.boards)
    method = "simulate" if args.simulate else "analytical"
    estimate = LatencyEstimator(platform, method=method).estimate(arch)
    print(f"architecture: {arch.describe()}")
    print(f"platform:     {args.boards} x {device.name}")
    print(f"latency:      {estimate.ms:.3f} ms "
          f"({estimate.cycles} cycles, {method})")
    for layer in estimate.design.layers:
        t = layer.tiling
        print(f"  layer {layer.layer_index}: <Tm={t.tm}, Tn={t.tn}, "
              f"Tr={t.tr}, Tc={t.tc}>  PT={layer.processing_time}")
    if args.energy:
        from repro.fpga.energy import EnergyModel

        report = EnergyModel().estimate(estimate.design, estimate.cycles)
        print(f"energy:       {report.total_mj:.2f} mJ "
              f"(compute {report.compute_mj:.2f}, "
              f"memory {report.memory_mj:.2f}, "
              f"static {report.static_mj:.2f})")
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    """``repro store gc``: refcount against the journal, then collect."""
    from pathlib import Path

    from repro.service.journal import JOURNAL_FILENAME, JobJournal
    from repro.service.store import ResultStore, live_store_keys

    store_dir = Path(args.store_dir)
    if not store_dir.is_dir():
        print(f"error: store directory {store_dir} does not exist",
              file=sys.stderr)
        return 2
    journal_path = (Path(args.journal) if args.journal is not None
                    else store_dir / JOURNAL_FILENAME)
    live: frozenset[str] = frozenset()
    if journal_path.exists():
        live = live_store_keys(JobJournal.replay(journal_path))
    report = ResultStore(store_dir).gc(
        live=live,
        max_age_seconds=args.max_age,
        max_bytes=args.max_bytes,
        dry_run=args.dry_run,
    )
    print(report.format())
    return 0


def _print_notes(command: str, execution: ExecutionPolicy) -> None:
    """Pre-run advisory notes (kept from the kwarg-era CLI)."""
    if (command != "sweep" and execution.eval_workers > 1
            and execution.batch_size == 1):
        print("note: --eval-workers only takes effect with --batch-size > 1 "
              "(a batch of one child has nothing to fan out)",
              file=sys.stderr)
    if command == "ablations":
        if execution.eval_workers > 1:
            print("note: --eval-workers does not apply to the ablations "
                  "(surrogate evaluation is in-process)", file=sys.stderr)
        if execution.campaign_mode:
            print("note: checkpoint/shard flags do not apply to the "
                  "ablations (they run in-process, without "
                  "checkpointing)", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "estimate":
        return _cmd_estimate(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "agent":
        return _cmd_agent(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "store":
        return _cmd_store(args)
    try:
        plan = plan_from_args(args)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_notes(args.command, plan.execution)
    if args.dump_plan is not None:
        save_plan(plan, args.dump_plan)
        print(f"wrote plan {args.dump_plan}", file=sys.stderr)
    if args.command == "sweep":
        try:
            return _execute_plan(plan, quiet=args.quiet)
        except (KeyError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return _execute_plan(plan)


if __name__ == "__main__":
    sys.exit(main())
