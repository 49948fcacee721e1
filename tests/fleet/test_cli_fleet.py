"""End-to-end tests of the ``fleet`` CLI family."""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.cli import build_parser, main
from repro.obs import load_manifest, validate_manifest


@pytest.fixture(scope="module")
def staged(tmp_path_factory):
    """simulate -> train: the trace + model every fleet command needs."""
    root = tmp_path_factory.mktemp("fleet_cli")
    fleet = root / "fleet"
    model = root / "model.pkl"
    assert (
        main(
            [
                "simulate", "--out", str(fleet), "--drives", "8",
                "--days", "200", "--deploy-spread", "100", "--seed", "5",
                "--quiet",
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "train", "--trace", str(fleet), "--model", str(model),
                "--lookahead", "7", "--seed", "3",
            ]
        )
        == 0
    )
    return {"root": root, "fleet": fleet, "model": model}


@pytest.fixture(scope="module")
def ran(staged):
    """One clean ``fleet run`` whose artifacts several tests inspect."""
    out = staged["root"] / "run"
    assert (
        main(
            [
                "fleet", "run", "--trace", str(staged["fleet"]),
                "--model", str(staged["model"]), "--policy", "threshold",
                "--out", str(out),
            ]
        )
        == 0
    )
    return out


class TestParser:
    def test_fleet_subcommands_registered(self):
        parser = build_parser()
        argvs = {
            "whatif": [
                "fleet", "whatif", "--trace", "t", "--model", "m",
                "--policy", "threshold",
            ],
            "run": [
                "fleet", "run", "--trace", "t", "--model", "m",
                "--policy", "threshold", "--out", "o",
            ],
            "decide": [
                "fleet", "decide", "--health", "h", "--policy", "threshold",
            ],
            "audit": ["fleet", "audit", "journal.jsonl"],
        }
        for subcommand, argv in argvs.items():
            assert parser.parse_args(argv).fleet_command == subcommand

    def test_policy_repeatable_on_whatif(self):
        args = build_parser().parse_args(
            [
                "fleet", "whatif", "--trace", "t", "--model", "m",
                "--policy", "threshold", "--policy", "topk",
            ]
        )
        assert args.policy == ["threshold", "topk"]


class TestWhatif:
    def test_compares_policies_and_writes_manifest(self, staged, capsys):
        json_out = staged["root"] / "reports.json"
        assert (
            main(
                [
                    "fleet", "whatif", "--trace", str(staged["fleet"]),
                    "--model", str(staged["model"]),
                    "--policy", "threshold", "--policy", "topk",
                    "--json-out", str(json_out),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "2 policies" in out
        assert "savings" in out
        reports = json.loads(json_out.read_text())
        assert len(reports) == 2
        for report in reports:
            assert report["caught"] + report["missed"] == report["n_failures"]
        manifest = load_manifest(
            staged["fleet"] / "fleet_whatif_manifest.json"
        )
        assert validate_manifest(manifest) == []
        assert manifest["command"] == "fleet.whatif"
        assert manifest["fleet"]["policy_kind"] in {"threshold", "topk"}

    def test_journal_out_requires_single_policy(self, staged):
        assert (
            main(
                [
                    "fleet", "whatif", "--trace", str(staged["fleet"]),
                    "--model", str(staged["model"]),
                    "--policy", "threshold", "--policy", "topk",
                    "--journal-out", str(staged["root"] / "j.jsonl"),
                    "--no-manifest",
                ]
            )
            == 2
        )

    def test_bad_policy_spec_exits_2(self, staged):
        assert (
            main(
                [
                    "fleet", "whatif", "--trace", str(staged["fleet"]),
                    "--model", str(staged["model"]),
                    "--policy", "oracle", "--no-manifest",
                ]
            )
            == 2
        )

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="chaos injection rides the fork start method",
    )
    def test_execution_flags_supervise_scoring(self, staged, tmp_path, monkeypatch):
        # Every pooled scoring task errors once; --max-retries heals it
        # and the reports match a fault-free serial run byte for byte.
        argv = [
            "fleet", "whatif", "--trace", str(staged["fleet"]),
            "--model", str(staged["model"]), "--policy", "threshold",
        ]
        clean = tmp_path / "clean.json"
        assert main(argv + ["--workers", "1", "--json-out", str(clean), "--no-manifest"]) == 0
        monkeypatch.setenv("REPRO_CHAOS", "error=1.0")
        chaotic = tmp_path / "chaotic.json"
        manifest = tmp_path / "manifest.json"
        assert (
            main(
                argv
                + [
                    "--workers", "2", "--max-retries", "2",
                    "--json-out", str(chaotic), "--manifest-out", str(manifest),
                ]
            )
            == 0
        )
        assert chaotic.read_bytes() == clean.read_bytes()
        assert load_manifest(manifest)["resilience"]["retries"] > 0


class TestRun:
    def test_writes_artifacts_and_manifest(self, staged, ran):
        assert (ran / "audit.jsonl").exists()
        assert (ran / "health.npz").exists()
        state = json.loads((ran / "state.json").read_text())
        assert set(state) == {"chain", "policy", "state", "state_digest"}
        manifest = load_manifest(ran / "fleet_run_manifest.json")
        assert validate_manifest(manifest) == []
        assert manifest["command"] == "fleet.run"
        assert manifest["fleet"]["chain"] == state["chain"]
        assert manifest["fleet"]["state_digest"] == state["state_digest"]

    def test_refuses_to_overwrite_journal(self, staged, ran):
        assert (
            main(
                [
                    "fleet", "run", "--trace", str(staged["fleet"]),
                    "--model", str(staged["model"]),
                    "--policy", "threshold", "--out", str(ran),
                ]
            )
            == 2
        )

    def test_run_and_whatif_journals_are_byte_identical(self, staged, ran):
        whatif_journal = staged["root"] / "whatif.jsonl"
        assert (
            main(
                [
                    "fleet", "whatif", "--trace", str(staged["fleet"]),
                    "--model", str(staged["model"]),
                    "--policy", "threshold",
                    "--journal-out", str(whatif_journal),
                    "--no-manifest",
                ]
            )
            == 0
        )
        assert whatif_journal.read_bytes() == (ran / "audit.jsonl").read_bytes()

    def test_parallel_run_is_byte_identical_and_reaps_its_workers(
        self, staged, ran, tmp_path
    ):
        # The trace's 2,223 rows make one 4,096-row chunk, past the
        # engine's backfill threshold, so the run scores on a warm pool.
        before = set(multiprocessing.active_children())
        out = tmp_path / "run"
        assert (
            main(
                [
                    "fleet", "run", "--trace", str(staged["fleet"]),
                    "--model", str(staged["model"]), "--policy", "threshold",
                    "--out", str(out), "--workers", "2",
                ]
            )
            == 0
        )
        assert set(multiprocessing.active_children()) <= before
        for name in ("audit.jsonl", "state.json", "health.npz"):
            assert (out / name).read_bytes() == (ran / name).read_bytes()


class TestDecide:
    def test_proposes_from_snapshot(self, staged, ran, capsys):
        assert (
            main(
                [
                    "fleet", "decide", "--health", str(ran / "health.npz"),
                    "--policy", '{"kind": "topk", "min_risk": 0.0, "budget": 2}',
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "fleet decide" in out
        assert "action(s) proposed" in out

    def test_json_lines_and_journal_awareness(self, staged, ran, capsys):
        # Replaying the journal means already-replaced drives are not
        # proposed again, so the proposal set can only shrink.
        argv = [
            "fleet", "decide", "--health", str(ran / "health.npz"),
            "--policy", '{"kind": "topk", "min_risk": 0.0, "budget": 100}',
            "--json",
        ]
        assert main(argv) == 0
        bare = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert main(argv + ["--journal", str(ran / "audit.jsonl")]) == 0
        aware = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert len(aware) <= len(bare)
        for action in bare:
            assert set(action) == {
                "action", "drive_id", "day", "risk", "reason", "cost",
            }

    def test_missing_snapshot_exits_2(self, staged):
        assert (
            main(
                [
                    "fleet", "decide",
                    "--health", str(staged["root"] / "nope.npz"),
                    "--policy", "threshold",
                ]
            )
            == 2
        )


class TestAudit:
    def test_verify_ok_exit_0(self, ran, capsys):
        assert main(["fleet", "audit", str(ran / "audit.jsonl"), "--verify"]) == 0
        assert "fleet audit ok" in capsys.readouterr().out

    def test_verify_json_report(self, ran, capsys):
        assert (
            main(
                ["fleet", "audit", str(ran / "audit.jsonl"), "--verify", "--json"]
            )
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["n_entries"] > 0
        assert "state_digest" in report

    def test_tampered_journal_exit_1(self, ran, tmp_path, capsys):
        lines = (ran / "audit.jsonl").read_text().splitlines()
        body = json.loads(lines[0])
        body["cost"] = -1000.0
        lines[0] = json.dumps(body, sort_keys=True)
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text("\n".join(lines) + "\n")
        assert main(["fleet", "audit", str(tampered), "--verify"]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_missing_journal_exit_2(self, tmp_path):
        assert (
            main(["fleet", "audit", str(tmp_path / "gone.jsonl"), "--verify"])
            == 2
        )

    def test_summary_listing(self, ran, capsys):
        assert main(["fleet", "audit", str(ran / "audit.jsonl"), "--last", "3"]) == 0
        out = capsys.readouterr().out
        assert "fleet audit:" in out
        assert "actions:" in out


class TestChaosRun:
    def test_chaos_run_is_deterministic_and_verifies(self, staged, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "late=0.2,duplicate=0.1")
        monkeypatch.setenv("REPRO_CHAOS_SEED", "7")
        outs = [staged["root"] / "chaos_a", staged["root"] / "chaos_b"]
        for out in outs:
            assert (
                main(
                    [
                        "fleet", "run", "--trace", str(staged["fleet"]),
                        "--model", str(staged["model"]),
                        "--policy", "threshold", "--out", str(out),
                    ]
                )
                == 0
            )
        assert (outs[0] / "audit.jsonl").read_bytes() == (
            outs[1] / "audit.jsonl"
        ).read_bytes()
        assert (outs[0] / "dlq.jsonl").exists()
        assert main(["fleet", "audit", str(outs[0] / "audit.jsonl"), "--verify"]) == 0
        manifest = load_manifest(outs[0] / "fleet_run_manifest.json")
        validate_manifest(manifest)
        assert manifest["config"]["chaos"]
        assert manifest["serve"]["dead_lettered"] >= 0
