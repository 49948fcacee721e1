"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import signal

import pytest

from repro.cli import CLIError, build_parser, main
from repro.data import TraceIntegrityError
from repro.fleet import AuditError, FleetActionError, HealthError, PolicyError
from repro.obs import ManifestError
from repro.parallel import WorkerConfigError, WorkerCrash
from repro.reliability import TraceValidationError
from repro.reliability.validation import ValidationReport
from repro.resilience import ShutdownRequested
from repro.serve import DeadLetterError, FeatureStoreError, RegistryError, ShardError


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fleet")
    code = main(
        [
            "simulate",
            "--out",
            str(out),
            "--drives",
            "50",
            "--days",
            "600",
            "--deploy-spread",
            "200",
            "--seed",
            "4",
        ]
    )
    assert code == 0
    return out


class TestParser:
    def test_subcommands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["simulate", "--out", "x"])
        assert args.command == "simulate"
        with pytest.raises(SystemExit):
            parser.parse_args(["bogus"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_simulate_writes_files(self, trace_dir):
        for name in ("records.npz", "drives.npz", "swaps.npz"):
            assert (trace_dir / name).exists()

    def test_report(self, trace_dir, capsys):
        assert main(["report", "--trace", str(trace_dir)]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Figure 6" in out

    def test_audit(self, trace_dir, capsys):
        code = main(["audit", "--trace", str(trace_dir)])
        out = capsys.readouterr().out
        assert "Obs  1" in out
        assert code in (0, 1)  # tiny fleets may fail marginal observations

    def test_train_then_score(self, trace_dir, tmp_path, capsys):
        model = tmp_path / "model.pkl"
        assert (
            main(
                [
                    "train",
                    "--trace",
                    str(trace_dir),
                    "--model",
                    str(model),
                    "--lookahead",
                    "3",
                ]
            )
            == 0
        )
        assert model.exists()
        assert (
            main(
                [
                    "score",
                    "--trace",
                    str(trace_dir),
                    "--model",
                    str(model),
                    "--top",
                    "5",
                    "--threshold",
                    "0.99",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "P(fail" in out
        assert "alpha=0.99" in out


class TestErrorHandling:
    """Missing/corrupt inputs exit with code 2 and a one-line error."""

    def test_report_missing_trace(self, tmp_path, capsys):
        assert main(["report", "--trace", str(tmp_path / "nope")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "simulate" in err

    def test_audit_missing_trace(self, tmp_path, capsys):
        assert main(["audit", "--trace", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_train_missing_trace(self, tmp_path, capsys):
        assert (
            main(
                ["train", "--trace", str(tmp_path / "nope"),
                 "--model", str(tmp_path / "m.pkl")]
            )
            == 2
        )
        assert "error:" in capsys.readouterr().err

    def test_score_missing_model(self, trace_dir, tmp_path, capsys):
        code = main(
            ["score", "--trace", str(trace_dir), "--model", str(tmp_path / "no.pkl")]
        )
        assert code == 2
        assert "train one with" in capsys.readouterr().err

    def test_score_unreadable_model(self, trace_dir, tmp_path, capsys):
        bad = tmp_path / "bad.pkl"
        bad.write_bytes(b"not a pickle")
        code = main(["score", "--trace", str(trace_dir), "--model", str(bad)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_truncated_trace_exits_2(self, trace_dir, tmp_path, capsys):
        from repro.reliability import truncate_file
        import shutil

        dirty = tmp_path / "dirty"
        shutil.copytree(trace_dir, dirty)
        truncate_file(dirty / "records.npz", keep_fraction=0.4)
        assert main(["report", "--trace", str(dirty)]) == 2
        assert "corrupt or truncated" in capsys.readouterr().err

    def test_strict_policy_rejects_corrupt_trace(self, trace_dir, tmp_path, capsys):
        assert (
            main(
                ["inject", "--trace", str(trace_dir), "--out",
                 str(tmp_path / "dirty"), "--faults", "value_spikes", "--seed", "5"]
            )
            == 0
        )
        code = main(["report", "--trace", str(tmp_path / "dirty"),
                     "--policy", "strict"])
        assert code == 2
        err = capsys.readouterr().err
        assert "strict policy" in err and "values." in err


_REPORT = ValidationReport(n_rows=3)

#: (raised by a command handler, exit code, stderr lines) for every
#: exception class main() maps to an exit code.
EXIT_CASES = [
    *(
        pytest.param(cls("bad input"), 2, ["error: bad input"], id=cls.__name__)
        for cls in (
            CLIError,
            TraceIntegrityError,
            ManifestError,
            FeatureStoreError,
            RegistryError,
            DeadLetterError,
            ShardError,
            AuditError,
            FleetActionError,
            HealthError,
            PolicyError,
            WorkerConfigError,
        )
    ),
    pytest.param(
        WorkerCrash("task 3 died", worker_traceback="Traceback: boom"),
        2,
        ["error: task 3 died", "Traceback: boom"],
        id="WorkerCrash",
    ),
    pytest.param(
        TraceValidationError("rejected by the strict policy", report=_REPORT),
        2,
        ["error: rejected by the strict policy", *_REPORT.render().splitlines()],
        id="TraceValidationError",
    ),
    pytest.param(
        FileNotFoundError(2, "No such file or directory", "gone.npz"),
        2,
        ["error: missing file: gone.npz"],
        id="FileNotFoundError",
    ),
    pytest.param(
        ShutdownRequested(signal.SIGTERM),
        130,
        [
            "interrupted (SIGTERM): in-flight tasks drained, completed chunks "
            "checkpointed; rerun with --resume to continue"
        ],
        id="ShutdownRequested",
    ),
]


class TestExitCodeMapping:
    """main() turns each error a handler raises into its exit code and
    stderr lines, whichever subsystem defines the class."""

    @pytest.mark.parametrize("exc, code, lines", EXIT_CASES)
    def test_handler_error(self, exc, code, lines, monkeypatch, capsys):
        def _raise(args):
            raise exc

        monkeypatch.setattr("repro.cli.obs._cmd_obs_tail", _raise)
        assert main(["obs", "tail", "events.jsonl"]) == code
        captured = capsys.readouterr()
        assert captured.err.splitlines() == lines
        assert captured.out == ""


class TestReliabilityCommands:
    def test_inject_unknown_fault(self, trace_dir, tmp_path, capsys):
        code = main(
            ["inject", "--trace", str(trace_dir), "--out", str(tmp_path / "d"),
             "--faults", "cosmic_rays"]
        )
        assert code == 2
        assert "unknown fault class" in capsys.readouterr().err

    def test_inject_then_repair_report(self, trace_dir, tmp_path, capsys):
        dirty = tmp_path / "dirty"
        assert (
            main(
                ["inject", "--trace", str(trace_dir), "--out", str(dirty),
                 "--faults", "duplicate_rows,value_spikes", "--seed", "5"]
            )
            == 0
        )
        assert "Injected" in capsys.readouterr().out
        assert main(["report", "--trace", str(dirty), "--policy", "repair"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_audit_deep_clean_trace(self, trace_dir, capsys):
        code = main(["audit", "--trace", str(trace_dir), "--deep"])
        out = capsys.readouterr().out
        assert "Telemetry validation" in out
        assert "Result: OK" in out
        assert code in (0, 1)

    def test_audit_deep_corrupt_trace(self, trace_dir, tmp_path, capsys):
        dirty = tmp_path / "dirty"
        main(["inject", "--trace", str(trace_dir), "--out", str(dirty),
              "--faults", "duplicate_rows", "--seed", "6"])
        code = main(["audit", "--trace", str(dirty), "--deep"])
        out = capsys.readouterr().out
        assert code == 1
        assert "skipping observation checks" in out

    def test_simulate_resume_flag_completes(self, trace_dir, tmp_path):
        out = tmp_path / "fleet"
        argv = ["simulate", "--out", str(out), "--drives", "10", "--days", "120",
                "--deploy-spread", "30", "--seed", "9", "--checkpoint-every", "16"]
        assert main(argv) == 0
        assert main(argv + ["--resume"]) == 0
        assert (out / "records.npz").exists()
        assert not (out / ".checkpoints").exists()

    def test_inject_corrupt_records_exits_2(self, trace_dir, tmp_path, capsys):
        """Satellite: inject on a corrupt trace is exit 2, not a traceback."""
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(trace_dir, broken)
        (broken / "records.npz").write_bytes(b"\x00garbage")
        code = main(["inject", "--trace", str(broken), "--out",
                     str(tmp_path / "d"), "--faults", "value_spikes"])
        assert code == 2
        assert "corrupt or truncated" in capsys.readouterr().err

    def test_inject_missing_trace_exits_2(self, tmp_path, capsys):
        code = main(["inject", "--trace", str(tmp_path / "nope"), "--out",
                     str(tmp_path / "d"), "--faults", "value_spikes"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_audit_deep_garbage_records_exits_2(self, trace_dir, tmp_path, capsys):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(trace_dir, broken)
        (broken / "records.npz").write_bytes(b"\x00garbage")
        assert main(["audit", "--trace", str(broken), "--deep"]) == 2
        assert "corrupt or truncated" in capsys.readouterr().err


def _simulate(out, seed=4, extra=()):
    argv = ["simulate", "--out", str(out), "--drives", "8", "--days", "120",
            "--deploy-spread", "30", "--seed", str(seed), "--quiet", *extra]
    return main(argv)


class TestParallelCLI:
    """`--workers` on the CLI: manifests, obs parity, and crash surfacing."""

    def test_workers_recorded_in_manifest_with_chunk_timings(self, tmp_path,
                                                             capsys):
        from repro.obs import load_manifest, validate_manifest

        out = tmp_path / "fleet"
        code = _simulate(out, extra=["--workers", "2", "--checkpoint-every", "8"])
        capsys.readouterr()
        assert code == 0
        body = load_manifest(out / "run_manifest.json")
        assert validate_manifest(body) == []
        assert body["results"]["workers"] == 2
        timings = body["results"]["chunk_timings"]
        assert len(timings) == 3  # 24 drives / 8 per chunk
        assert [t["chunk"] for t in timings] == [0, 1, 2]
        for t in timings:
            assert t["cached"] is False and t["seconds"] >= 0.0

    def test_parallel_trace_and_manifest_match_serial(self, tmp_path, capsys):
        a, b = tmp_path / "serial", tmp_path / "parallel"
        assert _simulate(a) == 0
        assert _simulate(b, extra=["--workers", "2"]) == 0
        for name in ("records.npz", "drives.npz", "swaps.npz"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        code = main(["obs", "diff", str(a / "run_manifest.json"),
                     str(b / "run_manifest.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 drift item(s)" in out and "COMPARABLE" in out

    def test_workers_env_var_applies(self, tmp_path, monkeypatch, capsys):
        from repro.obs import load_manifest
        from repro.parallel import ENV_WORKERS

        monkeypatch.setenv(ENV_WORKERS, "2")
        out = tmp_path / "fleet"
        assert _simulate(out) == 0
        capsys.readouterr()
        assert load_manifest(out / "run_manifest.json")["results"]["workers"] == 2

    def test_bad_workers_value_exits_2(self, tmp_path, capsys):
        code = _simulate(tmp_path / "fleet", extra=["--workers", "0"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.skipif(
        "fork" not in __import__("multiprocessing").get_all_start_methods(),
        reason="patch must be inherited by forked workers",
    )
    def test_worker_crash_exits_2_not_hang(self, tmp_path, monkeypatch, capsys):
        import repro.simulator.drive as drive_mod

        def _boom(*args, **kwargs):
            raise RuntimeError("injected worker failure")

        monkeypatch.setattr(drive_mod, "simulate_drive", _boom)
        code = _simulate(
            tmp_path / "fleet",
            extra=["--workers", "2", "--checkpoint-every", "8"],
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err
        assert "injected worker failure" in err


class TestObservability:
    """Manifests, tracing flags, and the `obs` subcommand."""

    def test_simulate_writes_valid_manifest(self, trace_dir):
        from repro.obs import load_manifest, validate_manifest

        body = load_manifest(trace_dir / "run_manifest.json")
        assert validate_manifest(body) == []
        assert body["command"] == "simulate"
        assert body["seeds"] == {"seed": 4}
        assert set(body["outputs"]) == {"records.npz", "drives.npz", "swaps.npz"}
        assert body["counts"]["drives"] == 150  # --drives is per model (x3)
        stage_names = {s["name"] for s in body["stages"]}
        assert "repro.simulator.chunk" in stage_names
        assert "repro.data.save_records" in stage_names

    def test_simulate_quiet_prints_one_summary_line(self, tmp_path, capsys):
        assert _simulate(tmp_path / "fleet") == 0
        out = capsys.readouterr().out
        (line,) = out.strip().splitlines()
        assert line.startswith("simulate ok: ")
        assert "days" in line and "swaps" in line and "elapsed" in line
        assert "manifest" in line

    def test_trace_flag_includes_spans(self, tmp_path):
        from repro.obs import load_manifest

        out = tmp_path / "fleet"
        assert _simulate(out, extra=["--trace"]) == 0
        body = load_manifest(out / "run_manifest.json")
        assert body["spans"], "expected full span tree with --trace"
        assert any(s["name"] == "repro.simulator.assemble" for s in body["spans"])

    def test_no_manifest_flag(self, tmp_path, capsys):
        out = tmp_path / "fleet"
        assert _simulate(out, extra=["--no-manifest"]) == 0
        capsys.readouterr()
        assert not (out / "run_manifest.json").exists()

    def test_metrics_out_writes_prometheus_text(self, tmp_path, capsys):
        out = tmp_path / "fleet"
        prom = tmp_path / "metrics.prom"
        assert _simulate(out, extra=["--metrics-out", str(prom)]) == 0
        capsys.readouterr()
        text = prom.read_text()
        assert "# TYPE repro_chunks_total counter" in text
        assert "repro_rows_total" in text

    def test_train_writes_manifest_with_input_digests(self, trace_dir, tmp_path,
                                                      capsys):
        from repro.obs import load_manifest, validate_manifest

        model = tmp_path / "model.pkl"
        assert main(["train", "--trace", str(trace_dir), "--model", str(model),
                     "--lookahead", "3", "--cv", "0"]) == 0
        capsys.readouterr()
        body = load_manifest(str(model) + ".manifest.json")
        assert validate_manifest(body) == []
        assert body["command"] == "train"
        # Train's input digests match simulate's output digests: provenance.
        sim = load_manifest(trace_dir / "run_manifest.json")
        assert body["inputs"]["records.npz"] == sim["outputs"]["records.npz"]
        assert "model.pkl" in body["outputs"]

    def test_score_writes_manifest(self, trace_dir, tmp_path, capsys):
        from repro.obs import load_manifest, validate_manifest

        model = tmp_path / "model.pkl"
        assert main(["train", "--trace", str(trace_dir), "--model", str(model),
                     "--lookahead", "3", "--cv", "0"]) == 0
        assert main(["score", "--trace", str(trace_dir), "--model", str(model),
                     "--threshold", "0.99"]) == 0
        capsys.readouterr()
        body = load_manifest(str(model) + ".score-manifest.json")
        assert validate_manifest(body) == []
        assert body["command"] == "score"
        assert "n_flagged" in body["results"]
        assert "model.pkl" in body["inputs"] and "records.npz" in body["inputs"]

    def test_obs_show(self, trace_dir, capsys):
        assert main(["obs", "show", str(trace_dir / "run_manifest.json")]) == 0
        out = capsys.readouterr().out
        assert "Run manifest" in out and "repro.simulator.chunk" in out

    def test_obs_show_missing_manifest_exits_2(self, tmp_path, capsys):
        assert main(["obs", "show", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_obs_diff_same_seed_runs_clean(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert _simulate(a) == 0 and _simulate(b) == 0
        code = main(["obs", "diff", str(a / "run_manifest.json"),
                     str(b / "run_manifest.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 drift item(s)" in out and "COMPARABLE" in out

    def test_obs_diff_seed_perturbed_reports_drift(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert _simulate(a, seed=4) == 0 and _simulate(b, seed=5) == 0
        code = main(["obs", "diff", str(a / "run_manifest.json"),
                     str(b / "run_manifest.json")])
        out = capsys.readouterr().out
        assert code == 1
        assert "DRIFT [seed] seeds.seed" in out
        assert "NOT COMPARABLE" in out


class TestResilienceCLI:
    """Supervision flags, interrupt exit codes, and env validation."""

    def test_non_integer_workers_env_exits_2_one_line(self, tmp_path,
                                                      monkeypatch, capsys):
        from repro.parallel import ENV_WORKERS

        monkeypatch.setenv(ENV_WORKERS, "two")
        code = _simulate(tmp_path / "fleet")
        err = capsys.readouterr().err
        assert code == 2
        assert "REPRO_WORKERS must be an integer" in err
        assert "'two'" in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_bad_max_retries_exits_2(self, tmp_path, capsys):
        code = _simulate(tmp_path / "fleet", extra=["--max-retries", "-1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_task_timeout_exits_2(self, tmp_path, capsys):
        code = _simulate(tmp_path / "fleet", extra=["--task-timeout", "0"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_on_poison_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit):
            _simulate(tmp_path / "fleet", extra=["--on-poison", "explode"])

    def test_interrupt_during_simulate_exits_130(self, tmp_path, monkeypatch,
                                                 capsys):
        import repro.reliability

        def _interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        # The simulate handler imports its runner from repro.reliability
        # when it runs, so the patch goes on the package.
        monkeypatch.setattr(repro.reliability, "simulate_fleet_resumable", _interrupt)
        code = _simulate(tmp_path / "fleet", extra=["--workers", "2"])
        err = capsys.readouterr().err
        assert code == 130
        assert "interrupted (SIGINT)" in err
        assert "rerun with --resume" in err

    def test_sigterm_message_names_signal(self, tmp_path, monkeypatch,
                                          capsys):
        import signal as signal_mod

        import repro.reliability
        from repro.resilience import ShutdownRequested

        def _interrupt(*args, **kwargs):
            raise ShutdownRequested(signal_mod.SIGTERM)

        monkeypatch.setattr(repro.reliability, "simulate_fleet_resumable", _interrupt)
        code = _simulate(tmp_path / "fleet")
        err = capsys.readouterr().err
        assert code == 130
        assert "interrupted (SIGTERM)" in err

    def test_interrupt_during_train_exits_130(self, trace_dir, tmp_path,
                                              monkeypatch, capsys):
        import repro.core

        class _Interrupting:
            def __init__(self, *args, **kwargs):
                raise KeyboardInterrupt

        monkeypatch.setattr(repro.core, "FailurePredictor", _Interrupting)
        code = main(["train", "--trace", str(trace_dir), "--model",
                     str(tmp_path / "model.pkl"), "--workers", "2"])
        err = capsys.readouterr().err
        assert code == 130
        assert "interrupted (SIGINT)" in err

    @pytest.mark.skipif(
        "fork" not in __import__("multiprocessing").get_all_start_methods(),
        reason="chaos injection rides the fork start method",
    )
    def test_supervision_summary_printed_on_retries(self, tmp_path,
                                                    monkeypatch, capsys):
        from repro.resilience import ENV_CHAOS

        monkeypatch.setenv(ENV_CHAOS, "error=1.0")
        out = tmp_path / "fleet"
        code = main(["simulate", "--out", str(out), "--drives", "8", "--days",
                     "120", "--deploy-spread", "30", "--seed", "4",
                     "--checkpoint-every", "5", "--workers", "2",
                     "--max-retries", "2"])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "supervision: 5 retries" in stdout

    @pytest.mark.skipif(
        "fork" not in __import__("multiprocessing").get_all_start_methods(),
        reason="chaos injection rides the fork start method",
    )
    def test_quiet_run_omits_summary_but_manifest_records_it(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.obs import load_manifest
        from repro.resilience import ENV_CHAOS

        monkeypatch.setenv(ENV_CHAOS, "error=1.0")
        out = tmp_path / "fleet"
        code = _simulate(out, extra=["--workers", "2", "--max-retries", "2",
                                     "--checkpoint-every", "5"])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "supervision:" not in stdout
        assert load_manifest(out / "run_manifest.json")["resilience"]["retries"] == 5
