"""Component registries: lookup, decorator registration, plan plumbing."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.registry import (
    CONTROLLERS,
    DATASETS,
    DEVICES,
    ESTIMATORS,
    EVALUATORS,
    Registry,
)


class TestBuiltins:
    def test_builtin_entries_load_lazily(self):
        assert set(CONTROLLERS) >= {"lstm", "tabular", "random"}
        assert set(EVALUATORS) >= {"surrogate", "trained"}
        assert set(ESTIMATORS) >= {"analytical", "simulate"}
        assert set(DATASETS) >= {"mnist", "cifar10", "imagenet"}
        assert set(DEVICES) >= {"pynq-z1", "xc7a50t", "xc7z020", "xczu9eg"}

    def test_miss_lists_known_names(self):
        with pytest.raises(KeyError, match="lstm"):
            CONTROLLERS["gru"]

    def test_miss_suggests_the_closest_name(self):
        with pytest.raises(KeyError, match="did you mean 'lstm'"):
            CONTROLLERS["lsmt"]
        with pytest.raises(KeyError, match="did you mean 'pynq-z1'"):
            DEVICES["pynq-z2"]
        with pytest.raises(KeyError,
                           match="did you mean 'xc7z020-ddr-wide'"):
            DEVICES["xc7z020-ddr-wid"]

    def test_miss_with_no_close_name_has_no_hint(self):
        with pytest.raises(KeyError) as excinfo:
            CONTROLLERS["qqqqqqqqqq"]
        assert "did you mean" not in str(excinfo.value)

    def test_static_names_match_what_the_modules_register(self):
        """Each registry lists its built-in names so that validating a
        plan imports nothing; the lists must be what the modules
        register.  Checked in a fresh interpreter, where no test has
        registered anything."""
        code = (
            "import json\n"
            "from repro import registry\n"
            "out = {}\n"
            "for name in ('CONTROLLERS', 'EVALUATORS', 'ESTIMATORS',\n"
            "             'DATASETS', 'DEVICES'):\n"
            "    reg = getattr(registry, name)\n"
            "    listed = {key: module\n"
            "              for module, keys in reg._builtins.items()\n"
            "              for key in keys}\n"
            "    registered = {key: entry.__module__\n"
            "                  for key, entry in reg.items()}\n"
            "    out[name] = [listed, registered]\n"
            "print(json.dumps(out))\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout)
        assert len(report) == 5
        for name, (listed, registered) in report.items():
            # name -> the module that registers it (a device's module is
            # its class's: they are registered where they are defined)
            assert listed == registered, name

    def test_membership_of_a_third_party_name_loads_the_builtins(self):
        registry = Registry("widget", {"repro.fpga.device": ("a-widget",)})
        registry.register("late", object())
        assert "a-widget" in registry  # answered from the static list
        assert "late" in registry
        assert "nope" not in registry
        with pytest.raises(KeyError, match="unknown widget 'nope'"):
            registry.require("nope")
        registry.require("late")


class TestMappingProtocol:
    def test_len_iter_contains(self):
        assert len(DEVICES) >= 4
        assert "pynq-z1" in DEVICES
        assert "virtex" not in DEVICES
        assert sorted(DEVICES) == DEVICES.names()

    def test_items_and_get(self):
        assert DEVICES.get("virtex") is None
        assert dict(DEVICES.items())["pynq-z1"] is DEVICES["pynq-z1"]


class TestThirdPartyRegistration:
    def test_decorator_registration_and_unregister(self):
        registry = Registry("widget")

        @registry.register("one")
        def make_one():
            return 1

        assert registry["one"] is make_one
        registry.unregister("one")
        assert "one" not in registry

    def test_duplicate_name_rejected(self):
        registry = Registry("widget")
        registry.register("w", object())
        with pytest.raises(ValueError, match="already registered"):
            registry.register("w", object())

    def test_same_object_reregistration_is_noop(self):
        registry = Registry("widget")
        sentinel = object()
        registry.register("w", sentinel)
        registry.register("w", sentinel)  # e.g. a module re-import
        assert registry["w"] is sentinel

    def test_replace_overrides(self):
        registry = Registry("widget")
        registry.register("w", 1)
        registry.register("w", 2, replace=True)
        assert registry["w"] == 2

    def test_bad_names_rejected(self):
        registry = Registry("widget")
        with pytest.raises(ValueError, match="non-empty"):
            registry.register("", object())

    def test_registered_device_reaches_plans_and_shards(self):
        """The extension story end to end: a third-party device becomes
        addressable from plan data with no signature changes."""
        from repro.fpga.device import XC7Z020
        from repro.orchestration import ShardSpec
        from repro.plans import ScenarioPlan

        custom = XC7Z020.scaled(0.5, name="half-zynq")
        DEVICES.register("half-zynq", custom)
        try:
            scenario = ScenarioPlan(devices=("half-zynq",))
            assert scenario.devices == ("half-zynq",)
            spec = ShardSpec(dataset="mnist", device="half-zynq",
                             kind="nas", trials=3)
            assert spec.to_plan().scenario.devices == ("half-zynq",)
        finally:
            DEVICES.unregister("half-zynq")

    def test_registered_controller_builds_searches(self):
        """A third-party controller registered under a new key drives a
        real (tiny) search via the plan builders."""
        import numpy as np

        from repro.core.controller import RandomController
        from repro.orchestration import ShardSpec, build_search

        @CONTROLLERS.register("test-random-clone")
        def _factory(space, seed):
            del seed
            return RandomController(space)

        try:
            spec = ShardSpec(dataset="mnist", device="pynq-z1", kind="nas",
                             trials=3, controller="test-random-clone")
            result = build_search(spec).run(3, np.random.default_rng(0))
            assert len(result.trials) == 3
        finally:
            CONTROLLERS.unregister("test-random-clone")
