"""Lazy package re-exports (PEP 562).

A package's ``__init__`` names what it re-exports and where each name is
defined; the name's module is imported on first attribute access, then
cached in the package namespace.  Importing a package therefore costs
nothing beyond the package itself, which keeps the serving processes
from loading the training stack (and scipy) they never call.
"""

from __future__ import annotations

import sys
from importlib import import_module


def lazy_exports(package: str, exports: dict[str, str]):
    """``(__getattr__, __dir__)`` for ``package`` re-exporting each
    ``name`` of ``exports`` from the module ``exports[name]``."""
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
