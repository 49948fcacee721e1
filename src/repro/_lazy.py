"""Lazy package exports (PEP 562).

Each package ``__init__`` names the submodule that defines every
re-exported name and binds what :func:`lazy_exports` returns as its
module ``__getattr__`` and ``__dir__``::

    __getattr__, __dir__ = lazy_exports(__name__, {
        ".forest": ("RandomForestClassifier",),
        ".metrics": ("roc_auc_score", "roc_curve"),
    })

``import repro.ml`` then costs only the ``__init__``; the first access to
``repro.ml.RandomForestClassifier`` (attribute, ``from ... import`` or
star-import) imports ``repro.ml.forest`` and caches the class on the
package, so later lookups are plain attribute reads.

A re-exported name that is also a submodule name (``repro.stats.ecdf``)
must be imported eagerly in the ``__init__``: importing the submodule
binds the module under that name on the package, which would shadow a
lazy entry.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Iterable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, table: Mapping[str, Iterable[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package`` from a ``{".submodule":
    names}`` table."""
    origin = {name: submodule for submodule, names in table.items() for name in names}

    def __getattr__(name: str) -> object:
        try:
            submodule = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(submodule, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(vars(sys.modules[package]).keys() | origin.keys())

    return __getattr__, __dir__
