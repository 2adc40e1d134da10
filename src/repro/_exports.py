"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package that imports its submodules' public names eagerly makes
every import of any one submodule pay for all of its siblings: a
``batch`` run would load the rule-induction stack only because
``repro.core`` re-exports the builder next to the repository.
:func:`lazy_exports` gives a package a module-level ``__getattr__``
that imports a name's submodule on first access instead, and a
``__dir__`` that lists the names before they are loaded::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "rule": ("MappingRule", "MatchResult"),
    })
"""

from __future__ import annotations

import sys
from typing import Callable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` re-exporting ``exports`` from ``package``.

    ``exports`` maps a submodule, relative to ``package``, to the names
    the package takes from it.  The first read of a name imports its
    submodule and binds the value in the package's namespace, so later
    reads are plain attribute hits.  A name that is a submodule of
    ``package`` is imported, as ``import package.name`` would; any
    other name raises :class:`AttributeError`, which ``from package
    import name`` turns into a submodule import as usual.
    """
    namespace = vars(sys.modules[package])
    origin = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is not None:
            value = getattr(_import(f"{package}.{module}"), name)
            namespace[name] = value
            return value
        # Dunders are probed by copy, pickle, doctest and friends, and
        # are never submodules worth importing (``__main__`` would run).
        if not name.startswith("__"):
            try:
                return _import(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | origin.keys())

    return __getattr__, __dir__


def _import(name: str):
    # The import statement's path, not ``importlib.import_module``: it
    # is the one ``python -X importtime`` reports.
    __import__(name)
    return sys.modules[name]
