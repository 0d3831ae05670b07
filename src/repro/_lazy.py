"""Lazy exports for package roots (PEP 562).

A package re-exports names without importing their modules up front:
the package binds the ``__getattr__``/``__dir__`` pair
:func:`lazy_exports` returns, and a name's module is imported on its
first attribute access. ``from pkg import name`` and ``from pkg import
*`` go through the same hook, so the package's ``__all__`` keeps its
meaning, and a command imports only the modules it runs.

Some exported names share their name with the submodule defining them
(``repro.studies.figure3`` is the driver ``figure3`` from
``figure3.py``). Importing such a submodule makes the import system
bind it on the package, which would hide the exported name behind the
module. The package's class therefore becomes :class:`LazyPackage`,
whose ``__setattr__`` lets no submodule replace an ``__all__`` name
the submodule itself defines.
"""

from __future__ import annotations

import importlib
import sys
from types import ModuleType
from typing import Callable

__all__ = ["LazyPackage", "lazy_exports"]


class LazyPackage(ModuleType):
    """A package whose exported names outrank same-named submodules."""

    def __setattr__(self, name: str, value: object) -> None:
        if (
            isinstance(value, ModuleType)
            and value.__name__ == f"{self.__name__}.{name}"
            and name in vars(value)
            and name in self.__dict__.get("__all__", ())
        ):
            return
        super().__setattr__(name, value)


def lazy_exports(
    namespace: dict[str, object], exports: dict[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The module ``__getattr__`` and ``__dir__`` serving *exports*.

    *namespace* is the calling module's ``globals()``; *exports* maps
    each lazy name to the module defining it, relative to the caller's
    package (``".batch"``). A name mapped to the submodule of the same
    name is that submodule's attribute of the name if it defines one
    (``"figure3": ".figure3"``), otherwise the submodule itself
    (``"exporters": ".exporters"``). A resolved value is bound into
    *namespace*, so later lookups skip the hook. The calling module
    becomes a :class:`LazyPackage`.
    """
    module_name = namespace["__name__"]
    package = namespace["__package__"]
    sys.modules[module_name].__class__ = LazyPackage

    def __getattr__(name: str) -> object:
        try:
            source = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {module_name!r} has no attribute {name!r}"
            ) from None
        module = importlib.import_module(source, package)
        if source == f".{name}" and name not in vars(module):
            value = module
        else:
            value = getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__
