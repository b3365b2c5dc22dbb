"""Helpers shared by the benchmark's workloads and entry point."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"

#: Where runs leave state inside the checkout: the counter records that
#: catch drift between runs at one seed, and the traced runs' span files.
STATE_DIR = REPO_ROOT / ".perfbench"


def use_repo_sources() -> None:
    """Make ``import repro`` resolve to this checkout's ``src`` tree."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {SRC_DIR}")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))


@dataclass
class Outcome:
    """What one workload run hands back to the entry point.

    ``metrics`` maps metric names to values (units come from
    ``BENCHMARK.json``); ``counters`` are the deterministic work counts
    that must repeat exactly at one seed; ``notes`` are extra lines for
    the human-readable report; ``tracer`` holds a traced run's spans.
    """

    attempted: int
    failed: int
    correct: bool
    metrics: dict[str, float]
    counters: dict[str, Any]
    notes: list[str] = field(default_factory=list)
    tracer: Any = None


def percentile(samples: list[float], fraction: float) -> float:
    """Percentile of ``samples``, interpolated linearly between ranks."""
    return float(np.percentile(samples, 100.0 * fraction))


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set of this process, plus its largest reaped child."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def source_digest() -> str:
    """SHA-256 over the ``src`` tree, identifying the code measured."""
    digest = hashlib.sha256()
    for path in sorted(SRC_DIR.rglob("*.py")):
        digest.update(str(path.relative_to(SRC_DIR)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str | None:
    """The checkout's commit, or None outside a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(workload: str, seed: int, seconds: int,
                trace: bool) -> dict[str, Any]:
    """The header every output carries."""
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "source_digest": source_digest(),
    }


def check_repeat(key: str, counters: dict[str, Any]) -> list[str]:
    """Compare ``counters`` with the first run of the same code at ``key``.

    The first run of a source tree at a key records its counters; every
    later run must reproduce them exactly.  Returns one message per
    drifted counter.
    """
    path = STATE_DIR / "counters" / source_digest() / f"{key}.json"
    current = json.loads(json.dumps(counters))
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(current, sort_keys=True, indent=1))
        tmp.replace(path)
        return []
    return differences(f"{key} vs first run", json.loads(path.read_text()),
                       current)


def differences(label: str, expected: dict[str, Any],
                actual: dict[str, Any]) -> list[str]:
    """One message per key whose value differs between the two dicts."""
    return [
        f"{label}: {name} was {expected.get(name)!r}, now {actual.get(name)!r}"
        for name in sorted(set(expected) | set(actual))
        if expected.get(name) != actual.get(name)
    ]
