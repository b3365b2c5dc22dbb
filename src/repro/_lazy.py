"""Lazy package exports (PEP 562) for the ``repro`` package ``__init__``s.

A package lists each exported name once, under the module that defines
it, and imports nothing else::

    __all__, __getattr__, __dir__ = lazy_exports(globals(), {
        "repro.api": ("Session", "run_plan"),
    })

``from repro import Session`` then imports :mod:`repro.api` on first
use, so importing the package costs only what the caller touches.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable


def lazy_exports(
    namespace: dict[str, Any], table: dict[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """Build a package's ``__all__``, ``__getattr__`` and ``__dir__``.

    ``table`` maps each defining module to the names the package
    exports from it.  The first lookup of a name imports its module and
    binds the name in ``namespace`` (the package's globals), so later
    lookups never reach ``__getattr__``; any other name raises
    :class:`AttributeError`, which also lets ``from package import
    submodule`` fall through to the import system.
    """
    origins = {name: module for module, names in table.items()
               for name in names}
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        module = origins.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origins))

    return list(origins), __getattr__, __dir__
