"""Core FNAS machinery: architectures, search space, controller, search.

Exported lazily, so importing one core module (``repro.fpga.tiling``
imports ``repro.core.architecture``) loads no other.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.core.architecture": ("Architecture", "ConvLayerSpec"),
    "repro.core.controller": (
        "Controller",
        "ControllerSample",
        "LstmController",
        "RandomController",
        "TabularController",
    ),
    "repro.core.serialization": (
        "architecture_from_dict",
        "architecture_to_dict",
        "load_architecture",
        "save_architecture",
        "save_search_result",
        "search_result_to_dict",
    ),
    "repro.core.evaluator": (
        "AccuracyEvaluator",
        "EvaluationOutcome",
        "SurrogateAccuracyEvaluator",
        "TrainedAccuracyEvaluator",
    ),
    "repro.core.reward": ("AccuracyBaseline", "FnasReward", "RewardSignal"),
    "repro.core.search": (
        "FnasSearch",
        "NasSearch",
        "SearchResult",
        "TrialRecord",
    ),
    "repro.core.search_space": ("SearchSpace",),
})
