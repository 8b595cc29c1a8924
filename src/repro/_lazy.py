"""Public names of a package that load on first access (:pep:`562`).

A package ``__init__`` that re-exports its submodules' names eagerly
makes every importer of any one submodule pay for all of them, since
Python runs the package ``__init__`` first.  Packages whose submodules
a run may never execute (exploration, fault shrinking, the DEAR
transactors on a stock run) list those names here instead, so
``from repro.dear import StpConfig`` loads :mod:`repro.dear.stp` and no
more, while every ``from <package> import <name>`` keeps working.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_exports(package: str, exports: dict[str, str]) -> Callable[[str], Any]:
    """A module ``__getattr__`` for *package*.

    *exports* maps each lazily loaded public name to the submodule that
    defines it.  The first access imports that submodule and caches the
    value on the package, so later lookups cost nothing.
    """

    def __getattr__(name: str) -> Any:
        submodule = exports.get(name)
        if submodule is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{submodule}"), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
