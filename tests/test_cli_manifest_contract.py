"""The run-manifest contract every manifest-writing command keeps.

For each command, on one tiny fleet: the default manifest lands where
it always has (``serve run``/``serve heal`` write none unless asked),
``--manifest-out`` moves it, ``--no-manifest`` writes none,
``--metrics-out`` writes Prometheus text, and the manifest validates
under the command's own name.
"""

from __future__ import annotations

import io
import itertools
import json
import re
import shutil

import pytest

from repro.cli import main
from repro.obs import load_manifest, validate_manifest


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A trace, a model, a registry, an event stream and a journal."""
    from repro.data.io import iter_drive_days, load_dataset_npz

    root = tmp_path_factory.mktemp("contract")
    fleet = root / "fleet"
    argv = [
        ["simulate", "--out", str(fleet), "--drives", "8", "--days", "200",
         "--deploy-spread", "100", "--seed", "5", "--quiet"],
        ["train", "--trace", str(fleet), "--model", str(root / "model.pkl"),
         "--lookahead", "7", "--seed", "3"],
        ["serve", "publish", "--model", str(root / "model.pkl"),
         "--registry", str(root / "registry"), "--activate"],
        ["serve", "replay", "--trace", str(fleet), "--model",
         str(root / "model.pkl"), "--journal", str(root / "journal.jsonl")],
    ]
    for args in argv:
        assert main(args) == 0
    records = load_dataset_npz(fleet / "records.npz")
    events = itertools.islice(iter_drive_days(records), 40)
    (root / "events.jsonl").write_text(
        "".join(json.dumps({k: v.item() for k, v in e.items()}) + "\n" for e in events)
    )
    # Inputs only: every manifest the commands above wrote is removed so
    # a run's own manifest is the only one found afterwards.
    for path in root.rglob("*manifest.json"):
        path.unlink()
    return root


#: command -> (argv, default manifest path relative to the work dir).
COMMANDS = {
    "simulate": (
        ["simulate", "--out", "sim", "--drives", "2", "--days", "60",
         "--deploy-spread", "20", "--seed", "1", "--quiet"],
        "sim/run_manifest.json",
    ),
    "train": (
        ["train", "--trace", "fleet", "--model", "m2.pkl", "--lookahead", "7"],
        "m2.pkl.manifest.json",
    ),
    "score": (
        ["score", "--trace", "fleet", "--model", "model.pkl", "--top", "3"],
        "model.pkl.score-manifest.json",
    ),
    "serve.publish": (
        ["serve", "publish", "--model", "model.pkl", "--registry", "reg2"],
        "reg2/publish_manifest.json",
    ),
    "serve.replay": (
        ["serve", "replay", "--trace", "fleet", "--registry", "registry"],
        "fleet/serve_replay_manifest.json",
    ),
    "serve.shard": (
        ["serve", "shard", "--trace", "fleet", "--model", "model.pkl",
         "--shards", "2", "--plane", "plane"],
        "plane/serve_shard_manifest.json",
    ),
    "serve.run": (["serve", "run", "--model", "model.pkl"], None),
    "serve.heal": (
        ["serve", "heal", "--model", "model.pkl", "--journal", "journal.jsonl"],
        None,
    ),
    "fleet.whatif": (
        ["fleet", "whatif", "--trace", "fleet", "--model", "model.pkl",
         "--policy", "threshold"],
        "fleet/fleet_whatif_manifest.json",
    ),
    "fleet.run": (
        ["fleet", "run", "--trace", "fleet", "--model", "model.pkl",
         "--policy", "threshold", "--out", "run"],
        "run/fleet_run_manifest.json",
    ),
}


#: One Prometheus sample line: name, optional labels, value.
SAMPLE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? \S+$")


def _run(base, tmp_path, monkeypatch, argv, name):
    """Run ``argv`` in a fresh copy of ``base``; the manifests it wrote."""
    work = tmp_path / name
    shutil.copytree(base, work)
    monkeypatch.chdir(work)
    monkeypatch.setattr("sys.stdin", io.StringIO((work / "events.jsonl").read_text()))
    assert main(argv) == 0
    return work, sorted(
        str(p.relative_to(work)) for p in work.rglob("*manifest.json")
    )


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_manifest_contract(command, base, tmp_path, monkeypatch, capsys):
    argv, default = COMMANDS[command]

    work, written = _run(
        base, tmp_path, monkeypatch, argv + ["--metrics-out", "m.prom"], "default"
    )
    assert written == ([default] if default else [])
    prom = (work / "m.prom").read_text().splitlines()
    assert all(SAMPLE.match(line) for line in prom if not line.startswith("# "))
    # Publishing scores nothing, so it records no metric.
    assert any(line.startswith("# TYPE ") for line in prom) == (command != "serve.publish")
    if default:
        body = load_manifest(work / default)
        assert validate_manifest(body) == []
        assert body["command"] == command

    work, written = _run(
        base, tmp_path, monkeypatch, argv + ["--manifest-out", "moved.json"], "moved"
    )
    assert written == []
    body = load_manifest(work / "moved.json")
    assert validate_manifest(body) == []
    assert body["command"] == command

    work, written = _run(
        base, tmp_path, monkeypatch, argv + ["--no-manifest"], "none"
    )
    assert written == []
    assert not (work / "moved.json").exists()
    capsys.readouterr()
