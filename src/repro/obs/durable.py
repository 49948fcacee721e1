"""Durable files: one append-only JSONL log, one clock, one atomic write.

Every record file the system keeps — the serving DLQ and accepted-event
journal, the structured event log, the fleet audit journal — is a
:class:`JsonlLog`, and every artifact rewritten in place — manifests,
status heartbeats, checkpoints, models — goes through
:func:`atomic_write`.  Timestamps come from :func:`now`.  The module is
stdlib-only and sits at the bottom of the import graph, so every layer
can use it.

**The log policy** (DESIGN.md §14): a record exists only once its line
ends in ``\\n``.  Appends write one whole line and flush, so a killed
writer leaves whole lines plus, at worst, one unterminated fragment (a
*torn tail*).  Opening a log truncates a torn tail back to the last
newline — even when the fragment happens to parse — records the dropped
byte count on the object and emits one ``log.tail_repaired`` warning,
then resumes ``seq`` from the number of complete records.  Readers
(:func:`read_jsonl`) never modify a file: they skip blank lines and
raise on the first line that does not parse, naming a torn tail as one.
"""

from __future__ import annotations

import json
import os
import time
from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any

__all__ = ["JsonlError", "JsonlLog", "atomic_write", "now", "read_jsonl"]


def now() -> float:
    """Wall-clock seconds, unless ``REPRO_EPOCH`` pins them.

    Golden-file tests and ``obs diff`` comparisons set
    ``REPRO_EPOCH=<unix seconds>`` so otherwise-identical runs do not
    differ in their timestamps.  An unparsable override is ignored (the
    real clock is used) rather than failing the run.
    """
    epoch = os.environ.get("REPRO_EPOCH")
    if epoch is not None:
        try:
            return float(epoch)
        except ValueError:
            pass
    return time.time()


def _fsync_dir(path: Path) -> None:
    """Flush a directory entry so a rename survives power loss."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@contextmanager
def atomic_write(path: str | Path, mode: str = "wb") -> Iterator[IO[Any]]:
    """Write a file atomically: tmp + flush + fsync + rename + dir fsync.

    The target either keeps its previous content or gets the complete
    new content — never a truncated hybrid.  The tmp file
    (``.{name}.tmp.{pid}``) lives next to the target (same filesystem,
    so the final rename is atomic) and is removed on failure.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    fh = open(tmp, mode)
    try:
        yield fh
        fh.flush()
        os.fsync(fh.fileno())
        fh.close()
        os.replace(tmp, path)
        _fsync_dir(path.parent)
    except BaseException:
        fh.close()
        tmp.unlink(missing_ok=True)
        raise


class JsonlError(ValueError):
    """A JSONL record file cannot be read or cut back as asked."""


def _scan(path: Path, keep: int | None = None) -> tuple[int, int, bytes | None, int]:
    """Walk the newline-terminated lines of ``path``.

    Returns ``(records, record_end, last, newline_end)``: the number of
    non-blank complete lines (at most ``keep``), the byte offset just
    past the last of them, that line, and the byte offset just past the
    last newline in the file.
    """
    records = record_end = newline_end = 0
    last = None
    with open(path, "rb") as fh:
        for line in fh:
            if not line.endswith(b"\n"):
                break
            newline_end += len(line)
            if line.strip():
                if records == keep:
                    break
                records += 1
                record_end = newline_end
                last = line
    return records, record_end, last, newline_end


def _cut(path: Path, size: int) -> None:
    """The byte-offset primitive: drop everything past ``size``, durably."""
    with open(path, "r+b") as fh:
        fh.truncate(size)
        os.fsync(fh.fileno())


class JsonlLog:
    """Append-only JSONL file under the one log policy (module docstring).

    ``appended`` is the number of complete records in the file — the
    ``seq`` the next append gets — and ``last_line`` the newest of them
    (``None`` when there is none).  ``repaired`` is the number of torn
    tail bytes dropped on open.  The file is created lazily by the first
    append, or eagerly by :meth:`open`.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.appended = 0
        self.last_line: str | None = None
        self.repaired = 0
        self._fh: IO[bytes] | None = None
        if not self.path.exists():
            return
        self.appended, _, last, end = _scan(self.path)
        self.last_line = None if last is None else last.decode()
        self.repaired = self.path.stat().st_size - end
        if self.repaired:
            _cut(self.path, end)
            from . import eventlog  # eventlog itself writes through JsonlLog

            eventlog.emit(
                "log.tail_repaired",
                f"{self.path}: dropped a torn tail of {self.repaired} byte(s)",
                level="warn",
                path=str(self.path),
                bytes=self.repaired,
            )

    def open(self) -> None:
        """Create the file (and its directory) now, not at the first append."""
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "ab")

    def append(self, record: Mapping[str, Any]) -> None:
        """Write one ``sort_keys`` JSON line and flush it (no fsync).

        Values JSON cannot encode are written as their ``str``.
        """
        line = json.dumps(record, sort_keys=True, default=str) + "\n"
        if self._fh is None:
            self.open()
        self._fh.write(line.encode())
        self._fh.flush()
        self.appended += 1
        self.last_line = line

    def truncate(self, keep: int) -> None:
        """Cut the file back to its first ``keep`` records.

        Shard failover rolls its journal and DLQ back to a checkpoint's
        cut with this before re-appending.  Refuses (:class:`JsonlError`)
        to keep more records than the file holds.
        """
        self.close()
        if not self.path.exists():
            if keep:
                raise JsonlError(
                    f"{self.path} is missing but {keep} record(s) expected"
                )
            return
        records, end, last, _ = _scan(self.path, keep)
        if records < keep:
            raise JsonlError(
                f"{self.path} has {records} record(s), cannot keep {keep}"
            )
        _cut(self.path, end)
        self.appended = keep
        self.last_line = None if last is None else last.decode()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def read_jsonl(
    path: str | Path, error: type[Exception] = JsonlError
) -> Iterator[tuple[int, dict[str, Any]]]:
    """Yield ``(line number, record)`` for each non-blank line of ``path``.

    Never modifies the file.  A missing file raises
    :class:`FileNotFoundError`; the first line that is not a JSON object
    raises ``error`` (each reader keeps its owner's error type) with the
    path and line number, calling an unterminated final line a torn tail.
    """
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                what = (
                    "is not valid JSON"
                    if line.endswith("\n")
                    else "is a torn tail (an append cut short; reopening "
                    "the log repairs it)"
                )
                raise error(f"{path}:{lineno}: line {lineno} {what} ({exc})") from None
            if not isinstance(record, dict):
                raise error(f"{path}:{lineno}: line {lineno} is not a JSON object")
            yield lineno, record
