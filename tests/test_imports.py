"""Lazy package exports and the import surface of each entry point.

Every package ``__init__`` resolves its re-exports on first access
(:mod:`repro._lazy`).  The first half checks that the lazy tables cannot
drift from ``__all__``; the second half runs fresh interpreters and
checks which ``repro`` modules an entry point loads.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]
PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)


def _run(code: str):
    """Run ``code`` in a fresh interpreter; its last stdout line is JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded(prefixes: tuple[str, ...], modules: list[str]) -> list[str]:
    return [m for m in modules if any(m == p or m.startswith(p + ".") for p in prefixes)]


def test_every_package_is_covered():
    assert len(PACKAGES) == 14, PACKAGES


class TestLazyExports:
    @pytest.mark.parametrize("pkg", PACKAGES)
    def test_every_export_resolves_to_its_definition(self, pkg):
        package = importlib.import_module(pkg)
        listed = dir(package)
        for name in package.__all__:
            value = getattr(package, name)
            assert name in listed, f"{pkg}.{name} missing from dir()"
            assert vars(package)[name] is value, f"{pkg}.{name} not cached"
            if isinstance(value, types.ModuleType):
                assert value is sys.modules[f"{pkg}.{name}"]
                continue
            owner = getattr(value, "__module__", None)
            if isinstance(value, (type, types.FunctionType)) and owner:
                assert getattr(importlib.import_module(owner), name) is value, (
                    f"{pkg}.{name} is not {owner}.{name}"
                )
            elif not name.startswith("__"):  # a constant: a submodule binds it
                holders = [
                    m
                    for m in list(sys.modules.values())
                    if getattr(m, "__name__", "").startswith(pkg + ".")
                    and vars(m).get(name) is value
                ]
                assert holders, f"{pkg}.{name} is bound by no submodule"

    @pytest.mark.parametrize("pkg", PACKAGES)
    def test_star_import(self, pkg):
        package = importlib.import_module(pkg)
        namespace: dict = {}
        exec(f"from {pkg} import *", namespace)
        for name in package.__all__:
            assert namespace[name] is getattr(package, name)

    @pytest.mark.parametrize("pkg", PACKAGES)
    def test_unknown_name_raises_attribute_error(self, pkg):
        package = importlib.import_module(pkg)
        with pytest.raises(AttributeError, match="no_such_export"):
            package.no_such_export
        assert not hasattr(package, "no_such_export")
        with pytest.raises(ImportError):
            exec(f"from {pkg} import no_such_export", {})


@pytest.fixture(scope="module")
def everything_imported() -> dict:
    """Import every ``repro`` module in one fresh interpreter, then report
    which exports came back as modules and whether SciPy got loaded."""
    return _run(
        """
        import importlib, json, pkgutil, sys, types
        import repro

        names = ["repro"] + [
            info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
        ]
        for name in names:
            importlib.import_module(name)
        shadowed = []
        for name in names:
            module = sys.modules[name]
            for export in getattr(module, "__all__", ()):
                value = getattr(module, export)
                if isinstance(value, types.ModuleType) and export != "paper_targets":
                    shadowed.append(f"{name}.{export}")
        print(json.dumps({
            "n_modules": len(names),
            "shadowed": shadowed,
            "ecdf": repr(sys.modules["repro.stats"].ecdf),
            "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
        }))
        """
    )


class TestEveryModuleImported:
    def test_submodule_never_shadows_an_export(self, everything_imported):
        assert everything_imported["shadowed"] == []
        # ``ecdf`` is both a function and the submodule defining it.
        assert everything_imported["ecdf"].startswith("<function ecdf")

    def test_scipy_is_never_loaded(self, everything_imported):
        walked = list(pkgutil.walk_packages(repro.__path__, "repro."))
        assert everything_imported["n_modules"] == 1 + len(walked)
        assert everything_imported["scipy"] == []


#: Training, simulation and analysis code and the sharded plane: what no
#: serving process or health gate needs.
SERVING_FREE = (
    "repro.analysis",
    "repro.simulator.drive",
    "repro.ml.model_selection",
    "repro.stats",
    "repro.serve.shard",
)


class TestImportSurface:
    def test_cli_module_loads_no_subsystem(self):
        modules = _run(
            """
            import json, sys
            import repro.cli
            print(json.dumps(sorted(sys.modules)))
            """
        )
        subsystems = (
            "repro.core",
            "repro.serve",
            "repro.fleet",
            "repro.simulator",
            "repro.analysis",
        )
        assert _loaded(subsystems, modules) == []

    def test_serving_set_loads_no_training_or_simulation(self):
        modules = _run(
            """
            import json, sys
            from repro.fleet import AuditJournal, PolicyRunner, verify_journal
            from repro.serve import (
                AdmissionGuard, DeadLetterQueue, EventJournal, ModelRegistry,
                ScoringEngine,
            )
            from repro.simulator.fleet import FleetTrace
            print(json.dumps(sorted(sys.modules)))
            """
        )
        assert "repro.serve.engine" in modules and "repro.fleet.audit" in modules
        assert _loaded(SERVING_FREE, modules) == []

    def test_serving_imports_load_no_process_pool(self):
        modules = _run(
            """
            import json, sys
            import repro.core.predictor, repro.serve.engine
            print(json.dumps(sorted(sys.modules)))
            """
        )
        assert _loaded(("multiprocessing", "concurrent.futures"), modules) == []

    def test_snapshot_writes_load_no_simulator(self, tmp_path):
        modules = _run(
            f"""
            import json, sys
            from repro.fleet import FleetHealth
            from repro.serve import FeatureStore

            health = FleetHealth()
            health.observe(7, 30, 0.25, 100)
            health.snapshot({str(tmp_path / "health.npz")!r})
            FeatureStore().snapshot({str(tmp_path / "store.npz")!r})
            print(json.dumps(sorted(sys.modules)))
            """
        )
        assert (tmp_path / "health.npz").exists()
        assert (tmp_path / "store.npz").exists()
        assert _loaded(("repro.simulator",), modules) == []

    @pytest.fixture
    def gate_inputs(self, tmp_path):
        from repro.fleet import AuditEntry, AuditJournal
        from repro.obs import EventLog

        status = tmp_path / "status.json"
        status.write_text(json.dumps({"schema_version": 1, "health": "ready"}))
        journal = tmp_path / "audit.jsonl"
        with AuditJournal(journal) as audit:
            audit.append(
                AuditEntry(
                    seq=0, ts=0.0, day=3, kind="action", action="watch",
                    drive_id=7, prev_status="active", new_status="watched",
                    risk=0.5, reason="drill", cost=0.5,
                )
            )
        events = tmp_path / "events.jsonl"
        with EventLog(events) as log:
            log.emit("serve.health.transition", "degraded", level="warn")
        return {"status": status, "journal": journal, "events": events}

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "status", "{status}"],
            ["fleet", "audit", "{journal}", "--verify"],
            ["obs", "tail", "{events}"],
        ],
        ids=["serve-status", "fleet-audit-verify", "obs-tail"],
    )
    def test_health_gate_loads_only_what_it_runs(self, gate_inputs, argv):
        argv = [a.format(**gate_inputs) for a in argv]
        result = _run(
            f"""
            import contextlib, io, json, sys
            from repro.cli import main

            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = main({argv!r})
            print(json.dumps({{
                "code": code, "out": out.getvalue(), "modules": sorted(sys.modules),
            }}))
            """
        )
        assert result["code"] == 0, result["out"]
        assert result["out"]
        assert _loaded(SERVING_FREE, result["modules"]) == []

    def test_cli_import_loads_no_command_group_or_numpy(self):
        modules = _run(
            """
            import json, sys
            import repro.cli
            print(json.dumps(sorted(sys.modules)))
            """
        )
        assert _loaded(CLI_GROUPS + ("numpy",), modules) == []

    @pytest.mark.parametrize(
        "argv, group",
        [(["serve", "status", "{status}"], "repro.cli.serve"),
         (["obs", "tail", "{events}"], "repro.cli.obs")],
        ids=["serve-status", "obs-tail"],
    )
    def test_light_command_builds_one_group_and_loads_no_numpy(
        self, gate_inputs, argv, group
    ):
        argv = [a.format(**gate_inputs) for a in argv]
        result = _run(
            f"""
            import contextlib, io, json, sys
            from repro.cli import main

            with contextlib.redirect_stdout(io.StringIO()):
                code = main({argv!r})
            print(json.dumps({{"code": code, "modules": sorted(sys.modules)}}))
            """
        )
        assert result["code"] == 0
        assert _loaded(CLI_GROUPS, result["modules"]) == [group]
        assert _loaded(("numpy",), result["modules"]) == []


#: The CLI's command-group modules; ``main`` imports only the one it runs.
CLI_GROUPS = ("repro.cli.trace", "repro.cli.serve", "repro.cli.fleet", "repro.cli.obs")


#: The per-event serving path: a function-level import there would run
#: again on every event (DESIGN.md §7, "Start-up").
PER_EVENT = [
    "repro.serve.engine:ScoringEngine.submit",
    "repro.serve.engine:ScoringEngine.poll",
    "repro.serve.engine:ScoringEngine._score_batch",
    "repro.serve.guard:AdmissionGuard.admit",
    "repro.serve.feature_store:FeatureStore.ingest",
    "repro.serve.dlq:EventJournal.record",
    "repro.fleet.whatif:PolicyRunner.feed",
]


@pytest.mark.parametrize("target", PER_EVENT)
def test_per_event_code_has_no_import_statement(target):
    module, _, qualname = target.partition(":")
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    tree = ast.parse(textwrap.dedent(inspect.getsource(obj)))
    assert not [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
