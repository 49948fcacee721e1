"""The one append-only log, clock and atomic write (repro.obs.durable).

The property at the centre: cut any record file at **every** byte
offset, reopen it through its writer, append, and read it back.  Every
complete record before the cut survives byte-for-byte, ``seq`` stays
contiguous, the audit chain still verifies, and a repair is recorded
exactly when the cut fell inside a line — including a cut just before a
newline, whose fragment parses but is still not a record.
"""

from __future__ import annotations

import json

import pytest

from repro.fleet import AuditEntry, AuditError, AuditJournal, read_journal, verify_journal
from repro.obs import eventlog
from repro.obs.durable import JsonlError, JsonlLog, read_jsonl
from repro.obs.eventlog import EventLog, load_events
from repro.serve import DeadLetterError, DeadLetterQueue, EventJournal


def _audit_entry(i: int) -> AuditEntry:
    return AuditEntry(
        seq=i, ts=float(i), day=i, kind="action", action="watch",
        drive_id=i, prev_status="active", new_status="watched",
        risk=0.5, reason="drill", cost=0.5,
    )


def _event(i: int) -> dict:
    return {"drive_id": i, "age_days": i + 1, "r_5": float(i) / 3}


class _Dlq:
    open = DeadLetterQueue

    @staticmethod
    def append(log, i):
        log.divert("late", f"entry {i}", event=_event(i), drive_id=i, age_days=i + 1)

    @staticmethod
    def seqs(path):
        return [e.seq for e in DeadLetterQueue.read(path)]


class _Journal:
    open = EventJournal

    @staticmethod
    def append(log, i):
        log.record(_event(i))

    @staticmethod
    def seqs(path):
        return [body["seq"] for body in EventJournal.read(path)]


class _EventLog:
    open = EventLog

    @staticmethod
    def append(log, i):
        log.emit("serve.guard.dead_letter", f"entry {i}", level="warn", i=i)

    @staticmethod
    def seqs(path):
        return [body["seq"] for body in load_events(path)]


class _Audit:
    open = AuditJournal

    @staticmethod
    def append(log, i):
        log.append(_audit_entry(i))

    @staticmethod
    def seqs(path):
        assert verify_journal(path).ok
        return [entry.seq for entry in read_journal(path)]


WRITERS = {"dlq": _Dlq, "journal": _Journal, "eventlog": _EventLog, "audit": _Audit}
N_RECORDS = 3


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_torn_tail_at_every_byte_offset(tmp_path, kind):
    writer = WRITERS[kind]
    ref = tmp_path / "ref.jsonl"
    with writer.open(ref) as log:
        for i in range(N_RECORDS):
            writer.append(log, i)
    full = ref.read_bytes()
    ends = [i + 1 for i, byte in enumerate(full) if byte == ord("\n")]
    assert len(ends) == N_RECORDS

    path, sink_path = tmp_path / "cut.jsonl", tmp_path / "sink.jsonl"
    for cut in range(len(full) + 1):
        path.write_bytes(full[:cut])
        kept = [end for end in ends if end <= cut]
        boundary = kept[-1] if kept else 0
        sink_path.unlink(missing_ok=True)
        with EventLog(sink_path) as sink, eventlog.activate(sink):
            with writer.open(path) as log:
                writer.append(log, len(kept))
        data = path.read_bytes()
        assert data[:boundary] == full[:boundary], cut
        assert writer.seqs(path) == list(range(len(kept) + 1)), cut
        assert data.endswith(b"\n") and data.count(b"\n") == len(kept) + 1, cut
        repairs = [r["bytes"] for r in load_events(sink_path)]
        assert repairs == ([cut - boundary] if cut > boundary else []), cut


def test_repair_is_recorded_and_announced(tmp_path):
    path = tmp_path / "dlq.jsonl"
    fragment = '{"seq": 1, "fau'
    path.write_text('{"seq": 0}\n' + fragment)
    events = tmp_path / "events.jsonl"
    with EventLog(events) as sink, eventlog.activate(sink):
        log = JsonlLog(path)
    assert (log.appended, log.repaired) == (1, len(fragment))
    assert path.read_text() == '{"seq": 0}\n'
    (record,) = load_events(events)
    assert (record["kind"], record["level"]) == ("log.tail_repaired", "warn")
    assert (record["path"], record["bytes"]) == (str(path), len(fragment))


def test_blank_lines_are_not_records(tmp_path):
    path = tmp_path / "j.jsonl"
    path.write_text('{"seq": 0}\n\n{"seq": 1}\n\n')
    log = JsonlLog(path)
    assert (log.appended, log.repaired) == (2, 0)
    log.truncate(1)
    assert path.read_text() == '{"seq": 0}\n'
    assert [body for _, body in read_jsonl(path)] == [{"seq": 0}]


def test_append_writes_sorted_keys_and_stringifies_the_rest(tmp_path):
    path = tmp_path / "j.jsonl"
    with JsonlLog(path) as log:
        log.append({"b": 1, "a": tmp_path})
    assert path.read_text() == json.dumps({"a": str(tmp_path), "b": 1}) + "\n"
    assert log.appended == 1


class TestReader:
    def test_torn_tail_is_named_and_left_alone(self, tmp_path):
        path = tmp_path / "dlq.jsonl"
        torn = '{"seq": 0, "fault": "late", "reason": ""}\n{"seq": 1, "fa'
        path.write_text(torn)
        with pytest.raises(DeadLetterError, match="line 2 is a torn tail"):
            DeadLetterQueue.read(path)
        with pytest.raises(JsonlError, match=":2: line 2 is a torn tail"):
            list(read_jsonl(path))
        assert path.read_text() == torn

    def test_torn_audit_journal_is_named_and_left_alone(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        with AuditJournal(path) as journal:
            journal.append(_audit_entry(0))
            journal.append(_audit_entry(1))
        torn = path.read_bytes()[:-5]
        path.write_bytes(torn)
        with pytest.raises(AuditError, match="line 2 is a torn tail"):
            read_journal(path)
        assert path.read_bytes() == torn

    def test_corrupt_whole_line_is_not_a_torn_tail(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text('{"seq": 0}\n{oops\n{"seq": 2}\n')
        with pytest.raises(JsonlError, match="line 2 is not valid JSON"):
            list(read_jsonl(path))
