"""Make the benchmark's modules and the repository sources importable."""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import common  # noqa: E402

common.use_repo_sources()
