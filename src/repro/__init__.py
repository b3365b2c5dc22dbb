"""FNAS: FPGA-implementation aware neural architecture search.

A from-scratch reproduction of Jiang et al., "Accuracy vs. Efficiency:
Achieving Both through FPGA-Implementation Aware Neural Architecture
Search" (DAC 2019).

Public API tour:

* ``repro.plans``      -- the declarative RunPlan tree (``SearchPlan``,
  ``ExecutionPolicy``, ``ScenarioPlan``): one serializable description
  of any run, JSON round-trippable.
* ``repro.api``        -- the ``Session`` facade executing plans, with
  progress-event subscription, plus the registry-driven component
  builders.
* ``repro.registry``   -- string-keyed registries for controllers,
  evaluators, estimators, datasets and devices; third-party components
  register via a decorator and become addressable from any plan.
* ``repro.core``       -- architectures, search space, RNN controller,
  the NAS baseline and the FNAS search loop.
* ``repro.fpga``       -- FPGA device models, multi-FPGA platforms and
  the FNAS-Design tiling engine.
* ``repro.taskgraph``  -- the tile-based task graph (FNAS-GG).
* ``repro.scheduling`` -- FNAS-Sched, the fixed-order baseline and the
  cycle-accurate pipeline simulator.
* ``repro.latency``    -- the closed-form FNAS-Analyzer and the
  architecture -> milliseconds estimation facade.
* ``repro.nn``         -- NumPy CNN training substrate.
* ``repro.datasets``   -- synthetic MNIST / CIFAR-10 / ImageNet.
* ``repro.surrogate``  -- calibrated accuracy / search-cost models.
* ``repro.experiments``-- runners that regenerate every table and
  figure of the paper's evaluation.
* ``repro.orchestration`` -- checkpointable, sharded, resumable
  search campaigns (``ShardSpec`` grids, the ``Campaign`` runner and
  its merged Pareto frontier).
"""

from repro.api import Session, run_plan
from repro.events import Event, EventBus
from repro.core import (
    Architecture,
    ConvLayerSpec,
    FnasReward,
    FnasSearch,
    LstmController,
    NasSearch,
    SearchResult,
    SearchSpace,
    SurrogateAccuracyEvaluator,
    TabularController,
    TrainedAccuracyEvaluator,
)
from repro.fpga import (
    PYNQ_Z1,
    XC7A50T,
    XC7Z020,
    XCZU9EG,
    FpgaDevice,
    Platform,
    TilingDesigner,
    get_device,
)
from repro.latency import FnasAnalyzer, LatencyEstimator
from repro.plans import (
    ExecutionPolicy,
    RunPlan,
    ScenarioPlan,
    SearchPlan,
    load_plan,
    plan_hash,
    save_plan,
)
from repro.service import SearchService
from repro.registry import (
    CONTROLLERS,
    DATASETS,
    DEVICES,
    ESTIMATORS,
    EVALUATORS,
    Registry,
)
from repro.scheduling import FixedScheduler, FnasScheduler, PipelineSimulator
from repro.taskgraph import TaskGraphGenerator

__version__ = "2.0.0"

__all__ = [
    "CONTROLLERS",
    "DATASETS",
    "DEVICES",
    "ESTIMATORS",
    "EVALUATORS",
    "Event",
    "EventBus",
    "ExecutionPolicy",
    "Registry",
    "RunPlan",
    "ScenarioPlan",
    "SearchPlan",
    "SearchService",
    "Session",
    "load_plan",
    "plan_hash",
    "run_plan",
    "save_plan",
    "Architecture",
    "ConvLayerSpec",
    "FnasReward",
    "FnasSearch",
    "LstmController",
    "NasSearch",
    "SearchResult",
    "SearchSpace",
    "SurrogateAccuracyEvaluator",
    "TabularController",
    "TrainedAccuracyEvaluator",
    "PYNQ_Z1",
    "XC7A50T",
    "XC7Z020",
    "XCZU9EG",
    "FpgaDevice",
    "Platform",
    "TilingDesigner",
    "get_device",
    "FnasAnalyzer",
    "LatencyEstimator",
    "FixedScheduler",
    "FnasScheduler",
    "PipelineSimulator",
    "TaskGraphGenerator",
    "__version__",
]
