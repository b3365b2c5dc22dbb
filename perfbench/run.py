"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  ``BENCHMARK.json`` at the root names the
workloads and every metric with its unit and direction.  With
``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1`` it
wraps the layers' public calls in spans and prints the per-layer split,
writing the spans to ``.perfbench/trace/<workload>.npz``.

Standard output holds an environment header, a human-readable report and,
as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The failed fraction of a run is
``failed / attempted``.
"""

from __future__ import annotations

import argparse
import json
import sys

import common

WORKLOAD_MODULES = {
    "mnist-b1-checkpointed": "searches",
    "mobilenet-ddr-b32": "searches",
    "service-small-jobs": "service_jobs",
}


def _load_spec() -> dict:
    path = common.REPO_ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SystemExit(f"perfbench: {path} is missing")
    return json.loads(path.read_text())


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOAD_MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv: list[str]) -> int:
    args = _parse(argv)
    spec = _load_spec()
    common.use_repo_sources()
    module = __import__(WORKLOAD_MODULES[args.workload])
    trace = bool(args.trace)
    env = common.environment(args.workload, args.seed, args.seconds, trace)
    print("# env " + json.dumps(env), flush=True)

    outcome = module.run(args.workload, args.seed, args.seconds, trace)

    declared = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in outcome.metrics]
    if not trace and missing:
        raise SystemExit(f"perfbench: {args.workload} measured no {missing}")
    metrics = {
        m["name"]: {"value": outcome.metrics.get(m["name"], 0),
                    "unit": m["unit"]}
        for m in declared
    }
    if outcome.tracer is not None:
        outcome.tracer.write(
            common.STATE_DIR / "trace" / f"{args.workload}.npz", env)

    arrows = {"higher": "up", "lower": "down"}
    for m in declared:
        print(f"  {m['name']:<34} {metrics[m['name']]['value']:>14.6g} "
              f"{m['unit']:<8} {arrows[m['better']]}")
    print(f"  {'failed_fraction':<34} "
          f"{outcome.failed / outcome.attempted:>14.6g} {'ratio':<8} down")
    for name, value in sorted(outcome.counters.items()):
        print(f"  counter {name} = {value!r}")
    for note in outcome.notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
