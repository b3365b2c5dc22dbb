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

The names below are exported lazily: ``from repro import X`` imports
only the module that defines ``X``, so a search never loads the
service, the experiment runners or the NumPy trainer.
"""

from repro._lazy import lazy_exports

__version__ = "2.0.0"

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.api": ("Session", "run_plan"),
    "repro.events": ("Event", "EventBus"),
    "repro.plans": (
        "ExecutionPolicy",
        "RunPlan",
        "ScenarioPlan",
        "SearchPlan",
        "load_plan",
        "plan_hash",
        "save_plan",
    ),
    "repro.registry": (
        "CONTROLLERS",
        "DATASETS",
        "DEVICES",
        "ESTIMATORS",
        "EVALUATORS",
        "Registry",
    ),
    "repro.service.service": ("SearchService",),
    "repro.core.architecture": ("Architecture", "ConvLayerSpec"),
    "repro.core.controller": ("LstmController", "TabularController"),
    "repro.core.evaluator": (
        "SurrogateAccuracyEvaluator",
        "TrainedAccuracyEvaluator",
    ),
    "repro.core.reward": ("FnasReward",),
    "repro.core.search": ("FnasSearch", "NasSearch", "SearchResult"),
    "repro.core.search_space": ("SearchSpace",),
    "repro.fpga.device": (
        "PYNQ_Z1",
        "XC7A50T",
        "XC7Z020",
        "XCZU9EG",
        "FpgaDevice",
        "get_device",
    ),
    "repro.fpga.platform": ("Platform",),
    "repro.fpga.tiling": ("TilingDesigner",),
    "repro.latency.analyzer": ("FnasAnalyzer",),
    "repro.latency.estimator": ("LatencyEstimator",),
    "repro.scheduling.fixed_sched": ("FixedScheduler",),
    "repro.scheduling.fnas_sched": ("FnasScheduler",),
    "repro.scheduling.simulator": ("PipelineSimulator",),
    "repro.taskgraph.graph": ("TaskGraphGenerator",),
})
__all__.append("__version__")
