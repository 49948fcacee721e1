"""Command-line interface: simulate, report, train, score, audit, inject,
serve, fleet, obs.

Wraps the library's main workflows for shell use::

    repro-ssd simulate --out fleet/ --drives 300 --days 1460 --seed 7
    repro-ssd simulate --out fleet/ --resume          # continue a killed run
    repro-ssd simulate --out fleet/ --trace --quiet   # full spans, 1-line output
    repro-ssd report   --trace fleet/
    repro-ssd audit    --trace fleet/ --deep          # telemetry validation
    repro-ssd inject   --trace fleet/ --out dirty/ --faults value_spikes
    repro-ssd train    --trace fleet/ --model model.pkl --lookahead 3
    repro-ssd score    --trace fleet/ --model model.pkl --top 10
    repro-ssd obs show fleet/run_manifest.json
    repro-ssd obs diff fleet_a/run_manifest.json fleet_b/run_manifest.json
    repro-ssd serve publish --model model.pkl --registry reg/ --activate
    repro-ssd serve replay  --trace fleet/ --registry reg/   # parity gate
    repro-ssd serve shard   --trace fleet/ --model model.pkl --shards 4 --plane p/
    repro-ssd serve run     --registry reg/ --dlq dlq.jsonl < events.jsonl
    repro-ssd serve heal    --registry reg/ --journal j.jsonl --dlq dlq.jsonl
    repro-ssd serve status  status.json               # exit 0/1/2 health gate
    repro-ssd fleet whatif  --trace fleet/ --model model.pkl --policy threshold
    repro-ssd fleet run     --trace fleet/ --model model.pkl --policy topk --out run/
    repro-ssd fleet audit   run/audit.jsonl --verify
    repro-ssd obs tail events.jsonl --level warn      # structured event log
    repro-ssd obs slo --spec slo.json --timeline tl.jsonl   # SLO CI gate

A "trace directory" holds the three NPZ files written by ``simulate``:
``records.npz``, ``drives.npz``, ``swaps.npz``.

The commands live in four groups — :mod:`~repro.cli.trace`,
:mod:`~repro.cli.serve`, :mod:`~repro.cli.fleet` and
:mod:`~repro.cli.obs` — and :func:`main` builds only the parser of the
group its first argument names, so a command imports only what it runs.
Every pipeline command runs inside :func:`repro.cli.common.run_context`:
an active span tracer + metrics registry (:mod:`repro.obs`) and a **run
manifest** written next to its artifacts — config digest, RNG seeds,
input and output file sha256s, per-stage timings with rows in/out, and
validation/quarantine tallies.  ``--metrics-out`` additionally dumps the
metrics registry in Prometheus text format; ``obs show``/``obs diff``
inspect and compare manifests.

Exit codes: 0 success; 1 a requested analysis/validation found failures
(for ``obs diff``: the runs are not comparable); 2 the trace, model, or
manifest is missing, corrupt, or rejected by the ``strict`` policy (also
bad configuration and worker crashes); 3 a run under ``--on-poison
quarantine`` completed its healthy work but quarantined poison tasks;
130 the run was interrupted (SIGINT/SIGTERM) after draining in-flight
tasks — ``simulate --resume`` continues from the last checkpoint.  See
DESIGN.md §12 for the full table.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from collections.abc import Iterable

from ..errors import ReproError
from ..resilience.shutdown import EXIT_INTERRUPTED, ShutdownRequested, graceful_shutdown
from .common import EXIT_QUARANTINE, CLIError, add_execution_args

__all__ = ["main", "build_parser", "add_execution_args", "CLIError", "EXIT_QUARANTINE"]

#: Top-level command -> the ``repro.cli`` module that registers it.
GROUPS = {
    "simulate": "trace",
    "pack": "trace",
    "report": "trace",
    "audit": "trace",
    "inject": "trace",
    "train": "trace",
    "score": "trace",
    "serve": "serve",
    "fleet": "fleet",
    "obs": "obs",
}


def _parser(groups: Iterable[str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ssd",
        description="SSD failure study reproduction: simulate fleets, "
        "reproduce the paper's analyses, train and run failure predictors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for group in groups:
        importlib.import_module(f"{__name__}.{group}").register(sub)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The whole argparse tree (exposed for testing and docs)."""
    return _parser(dict.fromkeys(GROUPS.values()))


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else argv
    group = GROUPS.get(argv[0]) if argv else None
    # A known command needs only its group's parser; anything else (no
    # command, --help, a typo) gets the whole tree for its usage text.
    parser = _parser([group]) if group else build_parser()
    args = parser.parse_args(argv)
    try:
        # Every command runs with SIGTERM/SIGINT mapped to a drainable
        # exception: pooled stages drain in-flight tasks and checkpoint
        # completed chunks before the KeyboardInterrupt handler below
        # turns the unwind into exit 130.
        with graceful_shutdown():
            return int(args.func(args))
    except ReproError as exc:
        # Every library error class that means exit 2 derives from the
        # dependency-free ReproError, so mapping one loads no subsystem.
        print(f"error: {exc}", file=sys.stderr)
        detail = exc.detail()
        if detail is not None:
            print(detail, file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename or exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt as exc:
        name = exc.signal_name if isinstance(exc, ShutdownRequested) else "SIGINT"
        print(
            f"interrupted ({name}): in-flight tasks drained, completed "
            "chunks checkpointed; rerun with --resume to continue",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED
    except BrokenPipeError:
        # Output piped into a closed reader (e.g. `| head`): exit quietly.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0
