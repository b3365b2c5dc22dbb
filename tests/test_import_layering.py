"""Import layering: each entry point loads only the layers it runs.

A search loads neither the service stack, the NumPy trainer and its
datasets, nor the experiment runners; the client verbs load no NumPy;
the packages' lazy exports resolve every name they list; and every
module imports first, whatever a program imports before it.  Each
check runs in a fresh interpreter, since this test process has
already imported most of the package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Modules (and their submodules) a search must leave unloaded.
NOT_ON_SEARCH_PATH = (
    "asyncio",
    "http.server",
    "repro.service",
    "repro.nn",
    "repro.datasets",
    "repro.experiments.ablation",
    "repro.experiments.energy_aware",
    "repro.experiments.figure6",
    "repro.experiments.figure7",
    "repro.experiments.figure8",
    "repro.experiments.figure9",
    "repro.experiments.report",
    "repro.experiments.runner",
    "repro.experiments.sensitivity",
    "repro.experiments.table1",
)

LAZY_PACKAGES = (
    "repro", "repro.core", "repro.experiments", "repro.fpga", "repro.service",
)


def _fresh(code: str, *args: str):
    """Run ``code`` in a new interpreter; return the JSON it prints last."""
    path = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _loaded(modules: list[str], name: str) -> list[str]:
    return [m for m in modules if m == name or m.startswith(name + ".")]


SEARCH = """
import json, sys
import numpy as np
import repro
from repro.api import build_search
from repro.plans import RunPlan, ScenarioPlan, SearchPlan

plan = RunPlan(workload="search", search=SearchPlan(seed=0, trials=2),
               scenario=ScenarioPlan(datasets=("mnist",),
                                     devices=("pynq-z1",), specs_ms=(5.0,)))
result = build_search(plan).run(2, np.random.default_rng(0),
                                checkpoint_every=1,
                                checkpoint_path=sys.argv[1])
assert len(result.trials) == 2
print(json.dumps(sorted(sys.modules)))
"""


def test_search_loads_no_service_trainer_or_runner(tmp_path):
    modules = _fresh(SEARCH, str(tmp_path / "search.json"))
    assert "repro.core.search" in modules
    stray = {name: _loaded(modules, name) for name in NOT_ON_SEARCH_PATH}
    assert not any(stray.values()), stray


@pytest.mark.parametrize("module", ["repro.cli", "repro.service.client"])
def test_client_entry_points_load_no_numpy(module):
    modules = _fresh(f"import json, sys, {module}\n"
                     "print(json.dumps(sorted(sys.modules)))")
    assert module in modules
    assert not _loaded(modules, "numpy")


LOAD_PLAN = """
import json, sys
from repro.plans import load_plan

plan = load_plan(sys.argv[1])
assert plan.workload == "table1"
print(json.dumps(sorted(sys.modules)))
"""


def test_loading_a_plan_imports_no_components(tmp_path):
    # `repro submit` and `repro run` validate a plan before anything
    # else: its registry keys are checked against the static built-in
    # names, not by importing the components.
    from repro.experiments.table1 import table1_plan
    from repro.plans import save_plan

    path = tmp_path / "table1.json"
    save_plan(table1_plan(seed=0), path)
    modules = _fresh(LOAD_PLAN, str(path))
    assert not _loaded(modules, "numpy")
    assert not _loaded(modules, "repro.core")


RESOLVE = """
import importlib, inspect, json, sys

package = importlib.import_module(sys.argv[1])
problems = []
listed = dir(package)
for name in package.__all__:
    if name not in listed:
        problems.append(f"{name} missing from dir()")
    value = getattr(package, name)
    if inspect.isclass(value) or inspect.isfunction(value):
        home = sys.modules[value.__module__]
        if getattr(home, value.__name__, None) is not value:
            problems.append(f"{name} is not {value.__module__}.{name}")
namespace = {}
exec(f"from {sys.argv[1]} import *", namespace)
problems += [f"{name} missing from import *" for name in package.__all__
             if name not in namespace]
try:
    package.no_such_export
except AttributeError:
    pass
else:
    problems.append("an unknown name resolved")
print(json.dumps({"problems": problems, "count": len(package.__all__),
                  "unique": len(set(package.__all__))}))
"""


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_exports_resolve_to_their_defining_objects(package):
    report = _fresh(RESOLVE, package)
    assert report["problems"] == []
    assert report["count"] == report["unique"] > 0


FIRST_IMPORTS = """
import importlib, json, pkgutil, sys

import repro

names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
failures = {}
for name in names:
    # Forget every repro module, so this import alone decides the order.
    for loaded in [m for m in sys.modules if m.split(".")[0] == "repro"]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception as exc:
        failures[name] = f"{type(exc).__name__}: {exc}"
print(json.dumps({"count": len(names), "failures": failures}))
"""


def test_every_module_imports_first():
    # A package __init__ that imports eagerly can hide an import cycle
    # that shows only when a program starts from the other side of it.
    report = _fresh(FIRST_IMPORTS)
    assert report["failures"] == {}
    assert report["count"] > 50
