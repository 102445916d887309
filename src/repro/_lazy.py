"""Lazy package exports: a PEP 562 module ``__getattr__`` and ``__dir__``.

Every package ``__init__`` re-exports its public names through
:func:`lazy_exports`, so importing a package costs nothing until one of
its names is used, and ``osprof serve`` never loads the simulated
machine::

    __all__ = ["Engine", "seconds"]
    __getattr__, __dir__ = lazy_exports(__name__, {
        ".engine": ("Engine", "seconds"),
    })

A new export goes into that map (and into ``__all__``).
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple

#: Private plumbing: the API reference lists the exports, not this.
__all__: List[str] = []


def lazy_exports(package: str, exports: Dict[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """Return the ``__getattr__`` and ``__dir__`` of *package*.

    *exports* maps a submodule, relative to *package*, to the names it
    defines that the package re-exports.  The first access to a name
    imports its submodule and binds the name in the package, so later
    accesses are plain attribute lookups.
    """
    home = {name: module for module, names in exports.items()
            for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    # Importing a submodule binds it in its package under its own name,
    # so an export named like its submodule (``analysis.compare``) is
    # bound now: later imports of the submodule then leave it alone.
    for name, module in home.items():
        if module == "." + name:
            __getattr__(name)
    return __getattr__, __dir__
