"""Time import plus construction of one search in a fresh interpreter.

Run by the search workloads as ``python3 setup_probe.py <workload> <seed>``;
prints the seconds from the script's first statement to a search ready
for its first trial.
"""

import sys
import time

if __name__ == "__main__":
    started = time.perf_counter()
    import common

    common.use_repo_sources()
    import searches

    searches.build(searches.WORKLOADS[sys.argv[1]], int(sys.argv[2]))
    print(time.perf_counter() - started)
