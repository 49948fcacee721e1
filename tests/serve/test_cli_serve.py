"""End-to-end tests of the ``serve`` CLI family."""

from __future__ import annotations

import io
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import build_parser, main
from repro.obs import load_manifest, validate_manifest

SRC = Path(repro.__file__).resolve().parents[1]


def _serve_run_proc(served, *flags: str) -> subprocess.Popen:
    """``serve run`` in a child process on pipes, as a service runs it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "run",
            "--registry",
            str(served["registry"]),
            *flags,
        ],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )


def _await_banner(proc: subprocess.Popen, timeout: float = 60.0) -> None:
    """Block until ``serve run`` announces its stdin loop on stderr."""
    deadline = time.monotonic() + timeout
    while True:
        ready, _, _ = select.select(
            [proc.stderr], [], [], max(0.0, deadline - time.monotonic())
        )
        assert ready, "serve run did not start"
        line = proc.stderr.readline()
        assert line, f"serve run exited early: {proc.stderr.read()!r}"
        if line.startswith(b"serve run: scoring"):
            return


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """simulate -> train -> publish: the fixture every command needs."""
    root = tmp_path_factory.mktemp("served")
    fleet = root / "fleet"
    model = root / "model.pkl"
    registry = root / "registry"
    assert (
        main(
            [
                "simulate",
                "--out",
                str(fleet),
                "--drives",
                "8",
                "--days",
                "200",
                "--deploy-spread",
                "100",
                "--seed",
                "5",
                "--quiet",
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "train",
                "--trace",
                str(fleet),
                "--model",
                str(model),
                "--lookahead",
                "7",
                "--seed",
                "3",
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "serve",
                "publish",
                "--model",
                str(model),
                "--registry",
                str(registry),
                "--training-manifest",
                str(model) + ".manifest.json",
                "--activate",
            ]
        )
        == 0
    )
    return {"fleet": fleet, "model": model, "registry": registry}


class TestParser:
    def test_serve_subcommands_registered(self):
        parser = build_parser()
        argvs = {
            "replay": ["serve", "replay", "--trace", "x", "--model", "m"],
            "publish": ["serve", "publish", "--model", "m", "--registry", "r"],
            "run": ["serve", "run", "--model", "m"],
            "heal": ["serve", "heal", "--model", "m", "--journal", "j"],
        }
        for subcommand, argv in argvs.items():
            assert parser.parse_args(argv).serve_command == subcommand

    def test_model_and_registry_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "replay", "--trace", "x", "--model", "m", "--registry", "r"]
            )

    def test_execution_flags_shared_across_commands(self):
        parser = build_parser()
        for argv in (
            ["simulate", "--out", "x"],
            ["train", "--trace", "t", "--model", "m"],
            ["score", "--trace", "t", "--model", "m"],
            ["serve", "replay", "--trace", "t", "--model", "m"],
        ):
            args = parser.parse_args(argv + ["-j", "2", "--max-retries", "5"])
            assert args.workers == 2
            assert args.max_retries == 5
            assert args.on_poison == "fail"


class TestPublish:
    def test_registry_layout(self, served):
        registry = served["registry"]
        assert (registry / "registry.json").exists()
        meta = json.loads(
            (registry / "versions" / "v0001" / "meta.json").read_text()
        )
        assert "training_manifest_digest" in meta
        assert (registry / "publish_manifest.json").exists()

    def test_publish_manifest_validates(self, served):
        data = load_manifest(served["registry"] / "publish_manifest.json")
        assert validate_manifest(data) == []
        assert data["command"] == "serve.publish"


class TestReplay:
    def test_replay_from_registry_verifies_parity(
        self, served, tmp_path, capsys
    ):
        out = tmp_path / "scores.jsonl"
        code = main(
            [
                "serve",
                "replay",
                "--trace",
                str(served["fleet"]),
                "--registry",
                str(served["registry"]),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert "bit-for-bit" in capsys.readouterr().out
        lines = [json.loads(s) for s in out.read_text().splitlines()]
        assert lines and set(lines[0]) == {
            "drive_id",
            "age_days",
            "probability",
        }

    def test_replay_from_model_with_workers(self, served, capsys):
        code = main(
            [
                "serve",
                "replay",
                "--trace",
                str(served["fleet"]),
                "--model",
                str(served["model"]),
                "-j",
                "2",
            ]
        )
        assert code == 0

    def test_parallel_parity_runs_on_the_engine_pool(
        self, served, tmp_path, monkeypatch, capsys
    ):
        # The offline parity call scores on the engine's warm workers:
        # one pool, two worker spawns, not a second pool of its own.
        from repro.data.io import load_dataset_npz
        from repro.resilience import supervisor
        from repro.serve.engine import BACKFILL_MIN_ROWS

        records = load_dataset_npz(served["fleet"] / "records.npz")
        assert len(records["drive_id"]) >= BACKFILL_MIN_ROWS
        built = []
        spawned = []
        pool_init = supervisor.SupervisedPool.__init__
        worker_init = supervisor._WorkerHandle.__init__

        def count_pool(pool, *args, **kwargs):
            built.append(pool)
            pool_init(pool, *args, **kwargs)

        def count_worker(handle, *args, **kwargs):
            spawned.append(handle)
            worker_init(handle, *args, **kwargs)

        monkeypatch.setattr(supervisor.SupervisedPool, "__init__", count_pool)
        monkeypatch.setattr(supervisor._WorkerHandle, "__init__", count_worker)
        outs = {}
        for workers in ("2", "1"):
            outs[workers] = tmp_path / f"scores-j{workers}.jsonl"
            code = main(
                [
                    "serve",
                    "replay",
                    "--trace",
                    str(served["fleet"]),
                    "--model",
                    str(served["model"]),
                    "--chunk-rows",
                    str(BACKFILL_MIN_ROWS),
                    "--out",
                    str(outs[workers]),
                    "-j",
                    workers,
                    "--no-manifest",
                ]
            )
            assert code == 0
            assert "bit-for-bit" in capsys.readouterr().out
            if workers == "2":
                assert (len(built), len(spawned)) == (1, 2)
        assert outs["2"].read_bytes() == outs["1"].read_bytes()

    def test_replay_manifest_validates(self, served):
        main(
            [
                "serve",
                "replay",
                "--trace",
                str(served["fleet"]),
                "--registry",
                str(served["registry"]),
            ]
        )
        data = load_manifest(served["fleet"] / "serve_replay_manifest.json")
        assert validate_manifest(data) == []
        assert data["command"] == "serve.replay"
        assert data["results"]["diverged"] == 0
        assert data["results"]["events_per_second"] > 0

    def test_divergence_exits_one(self, served, monkeypatch, capsys):
        # Fabricate a divergence: perturb one online score after replay.
        from repro.serve import ScoringEngine

        original = ScoringEngine.replay

        def skewed(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
            result.probability[0] += 0.5
            return result

        monkeypatch.setattr(ScoringEngine, "replay", skewed)
        code = main(
            [
                "serve",
                "replay",
                "--trace",
                str(served["fleet"]),
                "--registry",
                str(served["registry"]),
                "--no-manifest",
            ]
        )
        assert code == 1
        assert "DIVERGED" in capsys.readouterr().err

    def test_snapshot_then_resume(self, served, tmp_path, capsys):
        snap = tmp_path / "store.npz"
        assert (
            main(
                [
                    "serve",
                    "replay",
                    "--trace",
                    str(served["fleet"]),
                    "--registry",
                    str(served["registry"]),
                    "--snapshot",
                    str(snap),
                    "--snapshot-every",
                    "500",
                    "--no-manifest",
                ]
            )
            == 0
        )
        assert snap.exists()
        code = main(
            [
                "serve",
                "replay",
                "--trace",
                str(served["fleet"]),
                "--registry",
                str(served["registry"]),
                "--restore",
                str(snap),
                "--no-manifest",
            ]
        )
        assert code == 0
        assert "resumed past" in capsys.readouterr().out

    def test_guarded_replay_out_aligns_accepted_rows(
        self, served, tmp_path, capsys
    ):
        # A guarded replay over a sick trace diverts rows; --out must
        # attribute each score to its accepted source row, not zip the
        # shortened probability array against the full trace.
        from repro.data.dataset import DriveDayDataset
        from repro.data.io import load_dataset_npz, save_dataset_npz
        from repro.serve import DeadLetterQueue

        records = load_dataset_npz(served["fleet"] / "records.npz")
        cols = {k: np.array(v, copy=True) for k, v in records.items()}
        n = len(cols["drive_id"])
        rng = np.random.default_rng(7)
        bad = np.sort(rng.choice(n, size=9, replace=False))
        cols["write_count"][bad] = -1  # schema fault: diverted
        corrupted = tmp_path / "corrupted"
        corrupted.mkdir()
        save_dataset_npz(DriveDayDataset(cols), corrupted / "records.npz")

        dlq = tmp_path / "dlq.jsonl"
        out = tmp_path / "scores.jsonl"
        code = main(
            [
                "serve",
                "replay",
                "--trace",
                str(corrupted),
                "--model",
                str(served["model"]),
                "--dlq",
                str(dlq),
                "--out",
                str(out),
                "--no-manifest",
            ]
        )
        assert code == 0
        assert "9 diverted" in capsys.readouterr().out
        assert len(DeadLetterQueue.read(dlq)) == 9
        lines = [json.loads(s) for s in out.read_text().splitlines()]
        good = np.setdiff1d(np.arange(n), bad)
        assert len(lines) == len(good)
        assert [l["drive_id"] for l in lines] == cols["drive_id"][good].tolist()
        assert [l["age_days"] for l in lines] == cols["age_days"][good].tolist()

    def test_chaos_replay_skips_the_unread_records_load(
        self, served, tmp_path, monkeypatch, capsys
    ):
        # Telemetry chaos skips the parity gate and writes --out from the
        # scored events, so nothing reads the whole records file.
        monkeypatch.setenv("REPRO_CHAOS", "duplicate=0.05,late=0.02")
        monkeypatch.setenv("REPRO_CHAOS_SEED", "3")
        manifest = tmp_path / "manifest.json"
        code = main(
            [
                "serve",
                "replay",
                "--trace",
                str(served["fleet"]),
                "--model",
                str(served["model"]),
                "--out",
                str(tmp_path / "scores.jsonl"),
                "--manifest-out",
                str(manifest),
            ]
        )
        capsys.readouterr()
        assert code == 0
        stages = {s["name"] for s in load_manifest(manifest)["stages"]}
        assert "repro.serve.score_batch" in stages
        assert "repro.data.load_records" not in stages

    def test_missing_trace_dir_exits_two(self, served, tmp_path, capsys):
        code = main(
            [
                "serve",
                "replay",
                "--trace",
                str(tmp_path / "absent"),
                "--model",
                str(served["model"]),
            ]
        )
        assert code == 2

    def test_tampered_registry_exits_two(self, served, tmp_path, capsys):
        meta_path = (
            served["registry"] / "versions" / "v0001" / "meta.json"
        )
        original = meta_path.read_text()
        meta = json.loads(original)
        meta["model_digest"] = "0" * 64
        meta_path.write_text(json.dumps(meta))
        try:
            code = main(
                [
                    "serve",
                    "replay",
                    "--trace",
                    str(served["fleet"]),
                    "--registry",
                    str(served["registry"]),
                ]
            )
        finally:
            meta_path.write_text(original)
        assert code == 2
        assert "corrupt" in capsys.readouterr().err


class TestRun:
    def _events(self, fleet, n=400):
        import itertools

        from repro.data.io import iter_drive_days, load_dataset_npz

        ds = load_dataset_npz(fleet / "records.npz")
        return [
            {k: v.item() for k, v in record.items()}
            for record in itertools.islice(iter_drive_days(ds), n)
        ]

    def test_stdin_stdout_jsonl_roundtrip(self, served, monkeypatch, capsys):
        events = self._events(served["fleet"])
        payload = "\n".join(json.dumps(e) for e in events) + "\n\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code = main(["serve", "run", "--registry", str(served["registry"])])
        captured = capsys.readouterr()
        assert code == 0
        records = [json.loads(s) for s in captured.out.splitlines()]
        # Score records carry no "type" key; status/error records do.
        scored = [r for r in records if "type" not in r]
        statuses = [r for r in records if r.get("type") == "status"]
        assert len(scored) == len(events)
        # The drain at stream end is announced as a status record.
        assert statuses and statuses[-1]["health"] == "draining"
        # Online transport order matches arrival order.
        assert [s["drive_id"] for s in scored] == [
            e["drive_id"] for e in events
        ]
        # And the scores equal the offline pipeline over the same rows.
        import pickle

        from repro.data.io import load_dataset_npz

        with open(served["model"], "rb") as fh:
            predictor = pickle.load(fh)
        ds = load_dataset_npz(served["fleet"] / "records.npz")
        offline = predictor.predict_proba_records(ds)[: len(events)]
        assert np.array_equal(
            np.array([s["probability"] for s in scored]), offline
        )

    def _interleaved_stream(self, fleet) -> list[str]:
        """Two drives far apart in calendar time, interleaved, with a
        malformed line, an exact duplicate and a late re-delivery."""
        by_drive: dict[int, list[dict]] = {}
        for event in self._events(fleet, n=10_000):
            by_drive.setdefault(event["drive_id"], []).append(event)
        first = {d: evs[0]["calendar_day"] for d, evs in by_drive.items()}
        early = min(first, key=first.get)
        late = max(first, key=first.get)
        assert first[late] - first[early] > 1
        a, b = by_drive[early][:12], by_drive[late][:12]
        lines = []
        for i in range(12):
            lines += [json.dumps(a[i]), json.dumps(b[i])]
            if i == 3:
                lines.append("{not json")
            if i == 5:
                lines.append(json.dumps(b[i]))  # exact duplicate
            if i == 8:
                lines.append(json.dumps(a[2]))  # late: behind the watermark
        return lines

    def test_stdout_is_a_function_of_stdin(self, served):
        # Unbatched, batch size 1, and a 50 ms wait bound with an input
        # pause long enough for idle flushes: the same bytes, because
        # staleness is stamped at admission and every error/status record
        # lands right after the scores of the requests admitted before it.
        lines = self._interleaved_stream(served["fleet"])
        half = len(lines) // 2
        flags = ["--max-stale-days", "1"]
        outputs = []
        for run_flags, pause in (
            (["--max-wait", "0"], False),
            (["--batch-size", "1"], False),
            (["--max-wait", "0.05"], True),
        ):
            proc = _serve_run_proc(served, *flags, *run_flags)
            if pause:
                _await_banner(proc)
                proc.stdin.write("\n".join(lines[:half]).encode() + b"\n")
                proc.stdin.flush()
                time.sleep(0.3)
                rest = lines[half:]
            else:
                rest = lines
            out, err = proc.communicate(
                ("\n".join(rest) + "\n").encode(), timeout=120
            )
            assert proc.returncode == 1, err.decode()  # two diverted lines
            outputs.append(out)
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]
        records = [json.loads(s) for s in outputs[0].splitlines()]
        scores = [r for r in records if "type" not in r]
        errors = [r for r in records if r.get("type") == "error"]
        assert len(scores) == 24
        assert any(r.get("stale") for r in scores)
        assert [e["fault"] for e in errors] == ["malformed", "late"]
        assert records[-1] == {"type": "status", "health": "draining", "line": 27}

    def test_lone_line_is_scored_within_the_wait_bound(self, served):
        # A line followed by silence on an open stdin: the score comes
        # out within --max-wait plus one scoring call, not at the next
        # line.
        (event,) = self._events(served["fleet"], n=1)
        proc = _serve_run_proc(served, "--max-wait", "0.05")
        try:
            _await_banner(proc)
            proc.stdin.write(json.dumps(event).encode() + b"\n")
            proc.stdin.flush()
            ready, _, _ = select.select([proc.stdout], [], [], 1.0)
            assert ready, "no score within 1 s of a lone line"
            score = json.loads(proc.stdout.readline())
            assert (score["drive_id"], score["age_days"]) == (
                event["drive_id"],
                event["age_days"],
            )
        finally:
            proc.stdin.close()
            proc.wait(timeout=60)
            proc.stdout.close()
            proc.stderr.close()
        assert proc.returncode == 0

    def test_sigterm_keeps_error_records_held_behind_a_pending_request(
        self, served, tmp_path
    ):
        # The malformed line's error record waits for the score of the
        # request before it, which a 60 s wait bound keeps pending; a
        # SIGTERM in between must still print the record.
        (event,) = self._events(served["fleet"], n=1)
        dlq = tmp_path / "dlq.jsonl"
        proc = _serve_run_proc(served, "--max-wait", "60", "--dlq", str(dlq))
        try:
            _await_banner(proc)
            proc.stdin.write(json.dumps(event).encode() + b"\n{not json\n")
            proc.stdin.flush()
            deadline = time.monotonic() + 60
            while not (dlq.exists() and dlq.read_bytes().endswith(b"\n")):
                assert time.monotonic() < deadline, "malformed line not diverted"
                time.sleep(0.01)
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130, err.decode()
        records = [json.loads(s) for s in out.splitlines()]
        assert [r.get("type") for r in records] == ["error"]
        assert (records[0]["line"], records[0]["fault"]) == (2, "malformed")

    def test_snapshot_on_stream_end(self, served, monkeypatch, tmp_path, capsys):
        events = self._events(served["fleet"], n=50)
        payload = "\n".join(json.dumps(e) for e in events)
        snap = tmp_path / "run_store.npz"
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code = main(
            [
                "serve",
                "run",
                "--registry",
                str(served["registry"]),
                "--snapshot",
                str(snap),
            ]
        )
        assert code == 0
        from repro.serve import FeatureStore

        assert FeatureStore.restore(snap).events_total == len(events)

    def test_bad_json_dead_letters_and_exits_one(
        self, served, monkeypatch, tmp_path, capsys
    ):
        # Malformed transport lines no longer kill the service: they are
        # reported as structured error records (and dead-lettered when a
        # DLQ is configured), and the run exits 1 to flag the diversion.
        events = self._events(served["fleet"], n=3)
        dlq = tmp_path / "dlq.jsonl"
        payload = (
            json.dumps(events[0])
            + "\n{not json}\n"
            + "\n".join(json.dumps(e) for e in events[1:])
            + "\n"
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code = main(
            [
                "serve",
                "run",
                "--registry",
                str(served["registry"]),
                "--dlq",
                str(dlq),
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        records = [json.loads(s) for s in captured.out.splitlines()]
        errors = [r for r in records if r.get("type") == "error"]
        scored = [r for r in records if "type" not in r]
        assert len(scored) == len(events)  # every good event still scored
        assert len(errors) == 1
        assert errors[0]["fault"] == "malformed"
        assert errors[0]["line"] == 2
        assert "not valid JSON" in errors[0]["reason"]
        from repro.serve import DeadLetterQueue

        entries = DeadLetterQueue.read(dlq)
        assert len(entries) == 1
        assert entries[0].fault == "malformed"
        assert entries[0].raw == "{not json}"
        assert entries[0].source == "transport"

    def test_torn_dlq_is_repaired_and_reported(
        self, served, monkeypatch, tmp_path, capsys
    ):
        # A run killed mid append left a torn last line: the next run
        # drops it, keeps numbering from the whole entries, and says so
        # in its event log.
        from repro.obs import load_events
        from repro.serve import DeadLetterQueue

        dlq = tmp_path / "dlq.jsonl"
        with DeadLetterQueue(dlq) as sink:
            for i in range(2):
                sink.divert("malformed", "not valid JSON", raw=f"junk {i}")
        whole = dlq.read_bytes()
        fragment = b'{"fault": "malformed", "raw": "jun'
        dlq.write_bytes(whole + fragment)
        events = tmp_path / "events.jsonl"
        monkeypatch.setattr("sys.stdin", io.StringIO("{not json}\n"))
        code = main(
            [
                "serve",
                "run",
                "--registry",
                str(served["registry"]),
                "--dlq",
                str(dlq),
                "--eventlog",
                str(events),
            ]
        )
        capsys.readouterr()
        assert code == 1
        assert dlq.read_bytes().startswith(whole)
        entries = DeadLetterQueue.read(dlq)
        assert [e.seq for e in entries] == [0, 1, 2]
        assert entries[-1].raw == "{not json}"
        (repair,) = load_events(events, kind_prefix="log.tail_repaired")
        assert repair["level"] == "warn"
        assert (repair["path"], repair["bytes"]) == (str(dlq), len(fragment))

    def test_missing_field_dead_letters_and_exits_one(
        self, served, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO('{"drive_id": 1, "age_days": 3}\n')
        )
        code = main(["serve", "run", "--registry", str(served["registry"])])
        captured = capsys.readouterr()
        assert code == 1
        records = [json.loads(s) for s in captured.out.splitlines()]
        errors = [r for r in records if r.get("type") == "error"]
        assert len(errors) == 1
        assert errors[0]["fault"] == "malformed"
        assert "missing field" in errors[0]["reason"]

    def test_late_event_diverted_not_fatal(
        self, served, monkeypatch, tmp_path, capsys
    ):
        events = self._events(served["fleet"], n=5)
        dlq = tmp_path / "dlq.jsonl"
        stream = events + [events[1]]  # re-deliver an old drive-day
        payload = "\n".join(json.dumps(e) for e in stream) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code = main(
            [
                "serve",
                "run",
                "--registry",
                str(served["registry"]),
                "--dlq",
                str(dlq),
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        errors = [
            json.loads(s)
            for s in captured.out.splitlines()
            if json.loads(s).get("type") == "error"
        ]
        assert len(errors) == 1
        assert errors[0]["fault"] == "late"
        assert errors[0]["drive_id"] == events[1]["drive_id"]
        assert errors[0]["watermark"] == events[-1]["age_days"]

    def test_duplicate_redelivery_is_benign(self, served, monkeypatch, capsys):
        events = self._events(served["fleet"], n=4)
        stream = events + [dict(events[-1])]  # exact duplicate of the tail
        payload = "\n".join(json.dumps(e) for e in stream) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code = main(["serve", "run", "--registry", str(served["registry"])])
        captured = capsys.readouterr()
        assert code == 0  # idempotent re-delivery is not an error
        records = [json.loads(s) for s in captured.out.splitlines()]
        assert not [r for r in records if r.get("type") == "error"]
        assert len([r for r in records if "type" not in r]) == len(events)
        assert "1 duplicate(s) dropped" in captured.err

    def test_shed_overflow_dead_letters(
        self, served, monkeypatch, tmp_path, capsys
    ):
        events = self._events(served["fleet"], n=12)
        dlq = tmp_path / "dlq.jsonl"
        payload = "\n".join(json.dumps(e) for e in events) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code = main(
            [
                "serve",
                "run",
                "--registry",
                str(served["registry"]),
                "--max-queue",
                "4",
                "--overflow",
                "shed",
                "--batch-size",
                "64",
                "--max-wait",
                "100",
                "--dlq",
                str(dlq),
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        from repro.serve import DeadLetterQueue

        entries = DeadLetterQueue.read(dlq)
        assert len(entries) == 8  # 12 submitted, queue bound 4
        assert all(e.fault == "shed" for e in entries)
        scored = [
            json.loads(s)
            for s in captured.out.splitlines()
            if "type" not in json.loads(s)
        ]
        assert len(scored) == 4  # the queued events still score at drain


class TestHeal:
    def test_heal_rebuilds_bit_identical_scores(self, served, tmp_path, capsys):
        clean = tmp_path / "clean.jsonl"
        assert (
            main(
                [
                    "serve",
                    "replay",
                    "--trace",
                    str(served["fleet"]),
                    "--registry",
                    str(served["registry"]),
                    "--out",
                    str(clean),
                    "--no-manifest",
                ]
            )
            == 0
        )
        journal = tmp_path / "journal.jsonl"
        dlq = tmp_path / "dlq.jsonl"
        healed = tmp_path / "healed.jsonl"
        # A guarded replay over the clean trace journals every event and
        # diverts none.
        assert (
            main(
                [
                    "serve",
                    "replay",
                    "--trace",
                    str(served["fleet"]),
                    "--registry",
                    str(served["registry"]),
                    "--journal",
                    str(journal),
                    "--dlq",
                    str(dlq),
                    "--no-manifest",
                ]
            )
            == 0
        )
        assert not dlq.exists()  # lazy appender: no faults, no file
        code = main(
            [
                "serve",
                "heal",
                "--registry",
                str(served["registry"]),
                "--journal",
                str(journal),
                "--out",
                str(healed),
                "--expect",
                str(clean),
            ]
        )
        assert code == 0
        assert healed.read_bytes() == clean.read_bytes()
        assert "parity ok" in capsys.readouterr().err

    def test_heal_missing_journal_exits_two(self, served, tmp_path, capsys):
        code = main(
            [
                "serve",
                "heal",
                "--registry",
                str(served["registry"]),
                "--journal",
                str(tmp_path / "nope.jsonl"),
            ]
        )
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_heal_unhealable_without_refetch_exits_one(
        self, served, tmp_path, capsys
    ):
        import itertools

        from repro.data.io import iter_drive_days

        events = [
            {k: v.item() for k, v in record.items()}
            for record in itertools.islice(
                iter_drive_days(served["fleet"] / "records.npz"), 6
            )
        ]
        bad = dict(events[3], read_count=-5)  # schema fault: negative count
        journal = tmp_path / "journal.jsonl"
        dlq = tmp_path / "dlq.jsonl"
        from repro.serve import (
            AdmissionGuard,
            DeadLetterQueue,
            EventJournal,
            FeatureStore,
        )

        with DeadLetterQueue(dlq) as d, EventJournal(journal) as j:
            guard = AdmissionGuard(FeatureStore(), dlq=d, journal=j)
            for ev in events[:3] + [bad] + events[4:]:
                guard.admit(ev)
        code = main(
            [
                "serve",
                "heal",
                "--registry",
                str(served["registry"]),
                "--journal",
                str(journal),
                "--dlq",
                str(dlq),
            ]
        )
        captured = capsys.readouterr()
        assert code == 1  # schema faults need --refetch to heal
        assert "1 unhealable" in captured.err

        # With --refetch the upstream payload heals it: exit 0.
        code = main(
            [
                "serve",
                "heal",
                "--registry",
                str(served["registry"]),
                "--journal",
                str(journal),
                "--dlq",
                str(dlq),
                "--refetch",
                str(served["fleet"]),
            ]
        )
        assert code == 0
        assert "0 unhealable" in capsys.readouterr().err


class TestStatus:
    def _write_status(self, tmp_path, **over):
        body = {
            "schema_version": 1,
            "health": "ready",
            "events_seen": 100,
            "requests_total": 100,
            "batches_total": 2,
            "stale_scores": 0,
            "queue_depth": 0,
            "watermark": 42,
            "heartbeats": 3,
        }
        body.update(over)
        path = tmp_path / "status.json"
        path.write_text(json.dumps(body))
        return path

    def test_healthy_exits_zero(self, tmp_path, capsys):
        path = self._write_status(tmp_path)
        assert main(["serve", "status", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ready" in out

    def test_degraded_exits_one(self, tmp_path, capsys):
        path = self._write_status(tmp_path, health="degraded")
        assert main(["serve", "status", str(path)]) == 1
        assert "degraded" in capsys.readouterr().out

    def test_slo_breach_exits_two_even_when_healthy(self, tmp_path, capsys):
        path = self._write_status(
            tmp_path, slo={"state": "breach", "objectives": []}
        )
        assert main(["serve", "status", str(path)]) == 2
        assert "breach" in capsys.readouterr().out

    def test_missing_status_file_exits_two(self, tmp_path, capsys):
        assert main(["serve", "status", str(tmp_path / "nope.json")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_json_flag_echoes_raw_payload(self, tmp_path, capsys):
        path = self._write_status(tmp_path)
        assert main(["serve", "status", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["events_seen"] == 100


class TestReplayTelemetry:
    def test_replay_emits_full_telemetry_plane(
        self, served, tmp_path, capsys
    ):
        status = tmp_path / "status.json"
        timeline = tmp_path / "timeline.jsonl"
        events = tmp_path / "events.jsonl"
        spec = tmp_path / "slo.json"
        spec.write_text(
            json.dumps(
                {
                    "objectives": [
                        {
                            "name": "throughput",
                            "metric": "window.events",
                            "threshold": 1,
                            "op": ">=",
                        }
                    ]
                }
            )
        )
        code = main(
            [
                "serve",
                "replay",
                "--trace",
                str(served["fleet"]),
                "--registry",
                str(served["registry"]),
                "--status-out",
                str(status),
                "--status-every",
                "400",
                "--timeline-out",
                str(timeline),
                "--tick-every",
                "256",
                "--eventlog",
                str(events),
                "--slo-spec",
                str(spec),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        # Parity still holds with every telemetry sink attached.
        assert "bit-for-bit" in captured.out
        assert "slo ok" in captured.err
        # Each downstream command accepts the artifacts it produced.
        assert main(["serve", "status", str(status)]) == 0
        assert (
            main(
                [
                    "obs",
                    "slo",
                    "--spec",
                    str(spec),
                    "--timeline",
                    str(timeline),
                ]
            )
            == 0
        )
        assert main(["obs", "tail", str(events), "--last", "3"]) == 0
        # The manifest records the SLO verdict and the new artifacts.
        data = load_manifest(served["fleet"] / "serve_replay_manifest.json")
        assert validate_manifest(data) == []
        assert data["slo"]["state"] == "ok"
        assert "status.json" in data["outputs"]
        assert "timeline.jsonl" in data["outputs"]

    def test_bad_slo_spec_exits_two(self, served, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"objectives": "nope"}))
        code = main(
            [
                "serve",
                "replay",
                "--trace",
                str(served["fleet"]),
                "--registry",
                str(served["registry"]),
                "--slo-spec",
                str(spec),
            ]
        )
        assert code == 2
        assert "bad SLO spec" in capsys.readouterr().err


class TestShardCLI:
    def test_shard_out_is_byte_identical_to_replay_out(
        self, served, tmp_path, capsys
    ):
        serial = tmp_path / "serial.jsonl"
        assert (
            main(
                [
                    "serve",
                    "replay",
                    "--trace",
                    str(served["fleet"]),
                    "--model",
                    str(served["model"]),
                    "--out",
                    str(serial),
                ]
            )
            == 0
        )
        sharded = tmp_path / "sharded.jsonl"
        code = main(
            [
                "serve",
                "shard",
                "--trace",
                str(served["fleet"]),
                "--model",
                str(served["model"]),
                "--shards",
                "3",
                "--plane",
                str(tmp_path / "plane"),
                "--chunk-rows",
                "512",
                "--out",
                str(sharded),
            ]
        )
        assert code == 0
        assert "bit-for-bit" in capsys.readouterr().out
        # The acceptance gate, at the artifact level: the sharded plane
        # writes the same bytes the serial replay does.
        assert sharded.read_bytes() == serial.read_bytes()

    def test_shard_out_without_parity_matches_replay_out(
        self, served, tmp_path, capsys
    ):
        # --out reads the source rows itself: skipping the parity
        # baseline must not leave it without drive ids and ages.
        serial = tmp_path / "serial.jsonl"
        sharded = tmp_path / "sharded.jsonl"
        source = ["--trace", str(served["fleet"]), "--model", str(served["model"])]
        assert main(["serve", "replay", *source, "--out", str(serial)]) == 0
        code = main(
            [
                "serve", "shard", *source, "--shards", "2",
                "--plane", str(tmp_path / "plane"), "--no-parity",
                "--out", str(sharded),
            ]
        )
        assert code == 0
        assert "parity not checked" in capsys.readouterr().out
        assert sharded.read_bytes() == serial.read_bytes()

    def test_shard_manifest_validates(self, served, tmp_path):
        plane = tmp_path / "plane"
        assert (
            main(
                [
                    "serve",
                    "shard",
                    "--trace",
                    str(served["fleet"]),
                    "--model",
                    str(served["model"]),
                    "--shards",
                    "2",
                    "--plane",
                    str(plane),
                ]
            )
            == 0
        )
        data = load_manifest(plane / "serve_shard_manifest.json")
        assert validate_manifest(data) == []
        assert data["command"] == "serve.shard"
        assert data["counts"]["shards"] == 2
        assert data["results"]["parity_checked"] is True
        assert data["results"]["diverged"] == 0

    def test_status_sharded_rolls_up_plane(self, served, tmp_path, capsys):
        plane = tmp_path / "plane"
        assert (
            main(
                [
                    "serve",
                    "shard",
                    "--trace",
                    str(served["fleet"]),
                    "--model",
                    str(served["model"]),
                    "--shards",
                    "2",
                    "--plane",
                    str(plane),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["serve", "status", str(plane), "--sharded"]) == 0
        out = capsys.readouterr().out
        assert "2 shard(s)" in out
        assert "shard-00" in out and "shard-01" in out

    def test_reshard_matches_old_plane(self, served, tmp_path, capsys):
        old = tmp_path / "old"
        assert (
            main(
                [
                    "serve",
                    "shard",
                    "--trace",
                    str(served["fleet"]),
                    "--model",
                    str(served["model"]),
                    "--shards",
                    "2",
                    "--plane",
                    str(old),
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = main(
            [
                "serve",
                "shard",
                "--model",
                str(served["model"]),
                "--reshard-from",
                str(old),
                "--shards",
                "4",
                "--plane",
                str(tmp_path / "new"),
            ]
        )
        assert code == 0
        assert "bit-for-bit" in capsys.readouterr().out

    def test_second_shard_run_into_a_used_plane_exits_two(
        self, served, tmp_path, capsys
    ):
        # A previous run's final checkpoints would pass for a killed
        # attempt's: the rerun would "restore" every shard and score
        # nothing.  It is refused, and the plane is left as it was.
        plane = tmp_path / "plane"
        command = [
            "serve", "shard", "--trace", str(served["fleet"]),
            "--model", str(served["model"]), "--shards", "2",
            "--plane", str(plane), "--no-manifest",
        ]
        assert main(command) == 0
        before = {p: p.read_bytes() for p in plane.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert main(command) == 2
        assert "fresh plane" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in plane.rglob("*") if p.is_file()} == before

    def test_shard_without_source_exits_two(self, served, tmp_path, capsys):
        code = main(
            [
                "serve",
                "shard",
                "--model",
                str(served["model"]),
                "--shards",
                "2",
                "--plane",
                str(tmp_path / "plane"),
            ]
        )
        assert code == 2
        assert "--trace" in capsys.readouterr().err


class TestSnapshotRetention:
    def test_guarded_restore_resumes_at_the_first_unconsumed_row(
        self, served, tmp_path, capsys
    ):
        # A guarded replay drops rows (re-deliveries, schema faults), so
        # it consumes more stream rows than its store absorbs.  Restored
        # from a mid-stream snapshot, it must resume at the first row it
        # had not consumed and return the whole run: its scores and counts
        # are the uninterrupted run's, its new DLQ entries that run's tail.
        from repro.data.dataset import DriveDayDataset
        from repro.data.io import load_dataset_npz, save_dataset_npz
        from repro.serve import DeadLetterQueue, FeatureStore

        records = load_dataset_npz(served["fleet"] / "records.npz")
        n = len(records["drive_id"])
        # Rows 50 and 450 are delivered twice; rows 120 and 700 of the
        # result fail the schema.  One of each lands before row 400.
        order = np.insert(np.arange(n), [51, 451], [50, 450])
        cols = {k: np.array(v)[order] for k, v in records.items()}
        cols["write_count"][[120, 700]] = -1
        trace = tmp_path / "trace"
        trace.mkdir()
        save_dataset_npz(
            DriveDayDataset(cols, check_sorted=False), trace / "records.npz"
        )
        snap = tmp_path / "snap.npz"

        def replay(tag: str, *flags: str):
            out, dlq = tmp_path / f"{tag}.jsonl", tmp_path / f"{tag}-dlq.jsonl"
            manifest = tmp_path / f"{tag}-manifest.json"
            code = main(
                [
                    "serve", "replay", "--trace", str(trace),
                    "--model", str(served["model"]), "--chunk-rows", "200",
                    "--dlq", str(dlq), "--out", str(out),
                    "--manifest-out", str(manifest), *flags,
                ]
            )
            assert code == 0
            entries = [
                {k: v for k, v in e.to_dict().items() if k != "seq"}
                for e in DeadLetterQueue.read(dlq)
            ]
            return load_manifest(manifest)["counts"], out.read_text().splitlines(), entries

        # One snapshot per 200-row chunk: generation 2 is cut at row 400.
        full = replay(
            "full", "--snapshot", str(snap), "--snapshot-every", "1",
            "--snapshot-keep", "100",
        )
        cut = tmp_path / "snap-g000002.npz"
        absorbed = FeatureStore.restore(cut).events_total
        assert absorbed == 400 - 2
        counts, scores, dlq = replay("resumed", "--restore", str(cut))
        capsys.readouterr()
        assert counts["skipped"] == 400
        assert scores == full[1]
        assert dlq == full[2][1:]
        assert counts["events"] == full[0]["events"] == n + 2 - 4
        assert counts["diverted"] == full[0]["diverted"] == 2
        assert counts["duplicates"] == full[0]["duplicates"] == 2

    def test_guarded_restore_into_the_same_logs_does_not_duplicate_them(
        self, served, tmp_path, capsys
    ):
        # Restored into the logs it had been writing, a guarded replay
        # cuts them back to the snapshot's cut before it re-appends the
        # rows past it: both logs come out byte-equal to the
        # uninterrupted run's.
        from repro.serve import FeatureStore

        dirty = tmp_path / "dirty"
        assert main(
            [
                "inject", "--trace", str(served["fleet"]), "--out", str(dirty),
                "--faults", "duplicate_rows,value_spikes", "--seed", "3",
            ]
        ) == 0
        snap = tmp_path / "snap.npz"

        def replay(journal: Path, dlq: Path, *flags: str) -> None:
            code = main(
                [
                    "serve", "replay", "--trace", str(dirty),
                    "--model", str(served["model"]), "--chunk-rows", "200",
                    "--journal", str(journal), "--dlq", str(dlq),
                    "--no-manifest", *flags,
                ]
            )
            assert code == 0

        journal, dlq = tmp_path / "journal.jsonl", tmp_path / "dlq.jsonl"
        replay(
            journal, dlq, "--snapshot", str(snap), "--snapshot-every", "1",
            "--snapshot-keep", "100",
        )
        cut = tmp_path / "snap-g000003.npz"
        at_cut = FeatureStore.restore(cut)
        full_journal, full_dlq = journal.read_bytes(), dlq.read_bytes()
        # The cut falls between log records on both logs.
        assert 0 < int(at_cut.cut["journal_lines"][0]) < full_journal.count(b"\n")
        assert 0 < int(at_cut.cut["dlq_lines"][0]) < full_dlq.count(b"\n")

        resumed_journal, resumed_dlq = tmp_path / "j2.jsonl", tmp_path / "d2.jsonl"
        resumed_journal.write_bytes(full_journal)
        resumed_dlq.write_bytes(full_dlq)
        replay(resumed_journal, resumed_dlq, "--restore", str(cut))
        capsys.readouterr()
        assert resumed_journal.read_bytes() == full_journal
        assert resumed_dlq.read_bytes() == full_dlq

    def test_run_restore_accepts_a_rotation_base(
        self, served, tmp_path, monkeypatch, capsys
    ):
        # `serve run --restore` resolves a --snapshot-keep base to its
        # newest generation, as `serve replay --restore` does.
        base = tmp_path / "snap.npz"
        assert main(
            [
                "serve", "replay", "--trace", str(served["fleet"]),
                "--model", str(served["model"]), "--snapshot", str(base),
                "--snapshot-every", "2000", "--snapshot-keep", "2",
                "--no-manifest",
            ]
        ) == 0
        assert not base.exists()
        capsys.readouterr()
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code = main(
            [
                "serve", "run", "--model", str(served["model"]),
                "--restore", str(base), "--snapshot", str(tmp_path / "out.npz"),
            ]
        )
        assert code == 0
        from repro.serve import FeatureStore, latest_snapshot

        newest = FeatureStore.restore(latest_snapshot(base))
        assert FeatureStore.restore(tmp_path / "out.npz").events_total == newest.events_total > 0

    def test_replay_snapshot_keep_rotates_and_restores(
        self, served, tmp_path, capsys
    ):
        base = tmp_path / "snap.npz"
        code = main(
            [
                "serve",
                "replay",
                "--trace",
                str(served["fleet"]),
                "--model",
                str(served["model"]),
                "--snapshot-every",
                "400",
                "--snapshot",
                str(base),
                "--snapshot-keep",
                "2",
            ]
        )
        assert code == 0
        gens = sorted(p.name for p in tmp_path.glob("snap-g*.npz"))
        assert len(gens) == 2  # older generations pruned
        capsys.readouterr()
        # --restore accepts the rotation base and resolves the newest
        # generation; the resumed replay still verifies parity.
        code = main(
            [
                "serve",
                "replay",
                "--trace",
                str(served["fleet"]),
                "--model",
                str(served["model"]),
                "--restore",
                str(base),
            ]
        )
        assert code == 0
        assert "bit-for-bit" in capsys.readouterr().out
