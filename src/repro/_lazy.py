"""Lazy exports for package roots (PEP 562).

A package re-exports names whose modules pull in NumPy or heavy
standard-library modules (the ``*.batch`` kernels, the exporters)
without importing them up front: the package binds the
``__getattr__``/``__dir__`` pair :func:`lazy_exports` returns, and a
name's module is imported on its first attribute access. ``from pkg
import name`` and ``from pkg import *`` go through the same hook, so
the package's ``__all__`` keeps its meaning.
"""

from __future__ import annotations

import importlib
from typing import Callable

__all__ = ["lazy_exports"]


def lazy_exports(
    namespace: dict[str, object], exports: dict[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The module ``__getattr__`` and ``__dir__`` serving *exports*.

    *namespace* is the calling module's ``globals()``; *exports* maps
    each lazy name to the module defining it, relative to the caller's
    package (``".batch"``). A name mapped to the submodule of the same
    name (``"exporters": ".exporters"``) is that module. A resolved
    value is bound into *namespace*, so later lookups skip the hook.
    """
    module_name = namespace["__name__"]
    package = namespace["__package__"]

    def __getattr__(name: str) -> object:
        try:
            source = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {module_name!r} has no attribute {name!r}"
            ) from None
        module = importlib.import_module(source, package)
        value = module if source == f".{name}" else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__
