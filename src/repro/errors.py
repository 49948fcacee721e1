"""The one base class of the errors a command reports in one line.

This module imports nothing, so the CLI can map any library error to
its exit code without loading the subsystem that raised it.  Each
subclass keeps its own builtin base as well (``RuntimeError``,
``ValueError`` or ``OSError``), so existing ``except`` clauses still
catch it.
"""

from __future__ import annotations

__all__ = ["ReproError"]


class ReproError(Exception):
    """A missing, corrupt or rejected input, or a bad configuration.

    The CLI prints ``error: <message>``, then :meth:`detail` when it is
    not None, and exits 2 (DESIGN.md §12).
    """

    def detail(self) -> str | None:
        """Further lines for stderr (a worker traceback, a report)."""
        return None
