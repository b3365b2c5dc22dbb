"""String-keyed component registries: the substrate of declarative plans.

A :class:`~repro.plans.RunPlan` is pure data -- the components it names
(controller, evaluator, estimator, device) are string keys that resolve
through the registries below.  That indirection is what makes plans
serializable, shippable across processes, and extensible: third-party
code registers a component under a new key and every plan field, CLI
flag and shard spec naming that kind of component can use it
immediately, with no signature widened anywhere.  (Plan *dataset*
fields are the exception: they name Table 2 search-space configs from
:mod:`repro.configs`; the ``DATASETS`` registry below serves the data
generators the ``trained`` evaluator trains on.)

Built-in components register themselves from their defining modules via
the decorator form::

    from repro.registry import CONTROLLERS

    @CONTROLLERS.register("my-controller")
    def _build(space, seed):
        return MyController(space, seed=seed)

Each registry lazily imports its built-in modules on first lookup, so
``CONTROLLERS["lstm"]`` works without the caller importing
``repro.core.controller`` first, and importing :mod:`repro.registry`
itself stays dependency-free (it is a leaf module).  Each registry also
lists its built-in names, so a membership test or :meth:`Registry.require`
on one of them -- what plan validation does -- imports nothing.

Factory contracts (what a registered callable receives):

==============  ========================================================
Registry        Factory signature
==============  ========================================================
``CONTROLLERS`` ``factory(space, seed) -> Controller``
``EVALUATORS``  ``factory(space, config, seed) -> AccuracyEvaluator``
``ESTIMATORS``  ``factory(platform) -> LatencyEstimator``
``DATASETS``    ``factory(train_size=..., val_size=..., seed=...) -> Dataset``
``DEVICES``     registered *values* are :class:`~repro.fpga.device.FpgaDevice`
                instances, not factories
==============  ========================================================
"""

from __future__ import annotations

import difflib
import importlib
from collections.abc import Mapping
from typing import Any, Callable, Iterator


class Registry(Mapping):
    """A named string -> component mapping with decorator registration.

    Behaves as a read-only :class:`~collections.abc.Mapping` (so
    membership tests, iteration and ``sorted(registry)`` all work) and
    raises a :class:`KeyError` that lists the known keys on a miss.

    Parameters:
        kind: human-readable component kind, used in error messages
            (``"controller"``, ``"FPGA device"``, ...).
        builtins: dotted module path -> the names that module registers
            as an import side effect.  The modules are imported lazily
            before the first lookup; the names answer membership tests
            until then.
    """

    def __init__(self, kind: str,
                 builtins: dict[str, tuple[str, ...]] | None = None):
        self._kind = kind
        self._builtins = dict(builtins or {})
        self._builtin_names = frozenset(
            name for names in self._builtins.values() for name in names)
        self._entries: dict[str, Any] = {}
        self._loaded = False

    @property
    def kind(self) -> str:
        """The component kind this registry holds."""
        return self._kind

    def register(
        self, name: str, component: Any = None, replace: bool = False
    ) -> Any:
        """Register ``component`` under ``name``.

        Usable directly (``DEVICES.register("pynq-z1", PYNQ_Z1)``) or as
        a decorator (``@CONTROLLERS.register("lstm")``).  Registering a
        different component under an existing name raises unless
        ``replace=True``; re-registering the identical object is a
        no-op, so module re-imports are harmless.
        """
        if not name or not isinstance(name, str):
            raise ValueError(f"{self._kind} names must be non-empty strings, "
                             f"got {name!r}")
        if component is None:
            def decorator(target: Callable) -> Callable:
                self.register(name, target, replace=replace)
                return target
            return decorator
        existing = self._entries.get(name)
        if existing is not None and existing is not component and not replace:
            raise ValueError(
                f"a different {self._kind} is already registered as "
                f"{name!r}; pass replace=True to override"
            )
        self._entries[name] = component
        return component

    def unregister(self, name: str) -> None:
        """Remove ``name`` (mainly for tests of third-party registration)."""
        self._ensure_loaded()
        if name not in self._entries:
            raise KeyError(self._miss_message(name))
        del self._entries[name]

    def names(self) -> list[str]:
        """Sorted registered names (built-ins included)."""
        self._ensure_loaded()
        return sorted(self._entries)

    def require(self, name: str) -> None:
        """Raise the listing ``KeyError`` of a lookup unless ``name`` is
        registered.  A built-in name passes without importing its module
        (plan validation relies on this); any other name imports the
        built-ins first, so third-party keys still resolve."""
        if name not in self:
            raise KeyError(self._miss_message(name))

    # -- Mapping protocol ----------------------------------------------------

    def __getitem__(self, name: str) -> Any:
        """Look up a component, raising a listing ``KeyError`` on a miss."""
        self._ensure_loaded()
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError(self._miss_message(name)) from None

    def __contains__(self, name: object) -> bool:
        """Membership; a built-in name answers before any import."""
        if not self._loaded and name in self._builtin_names:
            return True
        self._ensure_loaded()
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        """Iterate registered names."""
        self._ensure_loaded()
        return iter(self._entries)

    def __len__(self) -> int:
        """Number of registered components."""
        self._ensure_loaded()
        return len(self._entries)

    def __repr__(self) -> str:
        """``Registry(kind, N entries)`` -- loads built-ins first."""
        return f"Registry({self._kind!r}, {len(self)} entries)"

    # -- internals -----------------------------------------------------------

    def _ensure_loaded(self) -> None:
        if self._loaded:
            return
        # Mark loaded before importing: a built-in module may consult
        # the registry while it is being imported.
        self._loaded = True
        for module in self._builtins:
            importlib.import_module(module)

    def _miss_message(self, name: str) -> str:
        names = self.names()
        known = ", ".join(names)
        hint = ""
        if isinstance(name, str):
            close = difflib.get_close_matches(name, names, n=1)
            if close:
                hint = f" (did you mean {close[0]!r}?)"
        return f"unknown {self._kind} {name!r}{hint}; known: {known}"


#: Controller factories: ``factory(space, seed) -> Controller``.
CONTROLLERS = Registry("controller", {
    "repro.core.controller": ("lstm", "tabular", "random"),
})

#: Evaluator factories: ``factory(space, config, seed) -> AccuracyEvaluator``.
EVALUATORS = Registry("evaluator", {
    "repro.core.evaluator": ("surrogate", "trained"),
})

#: Estimator factories: ``factory(platform) -> LatencyEstimator``.
ESTIMATORS = Registry("latency estimator", {
    "repro.latency.estimator": ("analytical", "simulate"),
})

#: Dataset generators: ``factory(train_size, val_size, seed) -> Dataset``.
DATASETS = Registry("dataset", {
    "repro.datasets.synthetic_mnist": ("mnist",),
    "repro.datasets.synthetic_cifar": ("cifar10",),
    "repro.datasets.synthetic_imagenet": ("imagenet",),
    "repro.datasets.synthetic_mobilenet": ("mobilenet",),
})

#: FPGA devices: registered values are ``FpgaDevice`` instances.
DEVICES = Registry("FPGA device", {
    "repro.fpga.device": ("xc7a50t", "xc7z020", "pynq-z1", "xczu9eg",
                          "xc7z020-ddr-wide", "xc7z020-ddr-narrow"),
})
