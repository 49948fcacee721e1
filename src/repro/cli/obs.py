"""Observability commands: show, diff, tail, slo."""

from __future__ import annotations

import argparse
import sys

from .common import CLIError


def _load_manifest_or_die(path: str) -> dict:
    from ..obs import ManifestError, load_manifest

    try:
        return load_manifest(path)
    except ManifestError as exc:
        raise CLIError(str(exc)) from None


def _cmd_obs_show(args: argparse.Namespace) -> int:
    from ..obs import render_manifest, validate_manifest

    data = _load_manifest_or_die(args.manifest)
    errors = validate_manifest(data)
    print(render_manifest(data))
    if errors:
        print("\nSchema violations:", file=sys.stderr)
        for err in errors:
            print(f"  {err}", file=sys.stderr)
        return 1
    return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    from ..obs import diff_manifests

    a = _load_manifest_or_die(args.a)
    b = _load_manifest_or_die(args.b)
    diff = diff_manifests(a, b, time_regression=args.time_regression)
    print(diff.render())
    return 0 if diff.ok else 1


def _format_event(record: dict) -> str:
    envelope = {"seq", "ts", "level", "kind", "msg", "span"}
    extras = " ".join(
        f"{k}={record[k]}" for k in sorted(record) if k not in envelope
    )
    msg = record.get("msg") or ""
    span = record.get("span")
    parts = [
        f"#{record.get('seq', '?'):>5}",
        f"{record.get('level', '?'):<5}",
        str(record.get("kind", "?")),
    ]
    if span is not None:
        parts.append(f"[span {span}]")
    if msg:
        parts.append(str(msg))
    if extras:
        parts.append(extras)
    return " ".join(parts)


def _cmd_obs_tail(args: argparse.Namespace) -> int:
    from ..obs import eventlog

    try:
        events = eventlog.load_events(
            args.eventlog, min_level=args.level, kind_prefix=args.kind
        )
    except FileNotFoundError:
        raise CLIError(f"event log {args.eventlog} does not exist") from None
    except (OSError, ValueError) as exc:
        raise CLIError(str(exc)) from None
    if args.last:
        events = events[-args.last :]
    for record in events:
        print(_format_event(record))
    return 0


def _cmd_obs_slo(args: argparse.Namespace) -> int:
    from ..obs import slo, timeline

    try:
        spec = slo.load_slo_spec(args.spec)
    except FileNotFoundError:
        raise CLIError(f"SLO spec {args.spec} does not exist") from None
    except (OSError, ValueError) as exc:
        raise CLIError(f"bad SLO spec: {exc}") from None
    try:
        windows = timeline.load_timeline_jsonl(args.timeline)
    except FileNotFoundError:
        raise CLIError(
            f"timeline {args.timeline} does not exist (serve replay/run "
            "export it via --timeline-out)"
        ) from None
    except (OSError, ValueError) as exc:
        raise CLIError(str(exc)) from None
    report = slo.evaluate_slos(spec, windows)
    print(
        f"slo {report.state}: {len(report.objectives)} objective(s) over "
        f"{len(windows)} window(s)"
    )
    for r in report.objectives:
        last = "n/a" if r.last_value is None else f"{r.last_value:g}"
        print(
            f"  {r.state:<7s}{r.name}: {r.metric} {r.op} {r.threshold:g} "
            f"— {r.violations}/{r.windows_evaluated} window(s) violating, "
            f"burn short {r.short_fraction:.0%} / long {r.long_fraction:.0%}, "
            f"last {last}"
        )
    # Exit contract: 0 ok / 1 warn / 2 breach — `obs slo` is the CI gate.
    return report.exit_code


def register(sub: argparse._SubParsersAction) -> None:
    """Add the ``obs`` command family to the top-level subparsers."""
    from ..obs.eventlog import LEVELS

    p_obs = sub.add_parser(
        "obs", help="inspect and compare run manifests (observability)"
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_show = obs_sub.add_parser(
        "show", help="human-readable summary of one run manifest"
    )
    p_show.add_argument("manifest", help="path to a *manifest.json")
    p_show.set_defaults(func=_cmd_obs_show)
    p_diff = obs_sub.add_parser(
        "diff",
        help="compare two manifests; exit 1 when the runs are not comparable",
    )
    p_diff.add_argument("a", help="baseline manifest")
    p_diff.add_argument("b", help="candidate manifest")
    p_diff.add_argument(
        "--time-regression",
        type=float,
        default=0.25,
        metavar="FRAC",
        help="stage-time slowdown reported as a warning (default: 0.25)",
    )
    p_diff.set_defaults(func=_cmd_obs_diff)
    p_tail = obs_sub.add_parser(
        "tail",
        help="print a structured event log (guard diversions, health "
        "transitions, heartbeats)",
    )
    p_tail.add_argument(
        "eventlog", help="event-log JSONL from `serve ... --eventlog`"
    )
    p_tail.add_argument(
        "--level",
        choices=tuple(sorted(LEVELS, key=LEVELS.get)),
        default="debug",
        help="minimum level to show (default: debug)",
    )
    p_tail.add_argument(
        "--kind",
        default=None,
        metavar="PREFIX",
        help="only events whose kind starts with PREFIX "
        "(e.g. serve.health)",
    )
    p_tail.add_argument(
        "--last",
        type=int,
        default=None,
        metavar="N",
        help="show only the last N matching events",
    )
    p_tail.set_defaults(func=_cmd_obs_tail)
    p_slo = obs_sub.add_parser(
        "slo",
        help="evaluate an SLO spec over an exported timeline; exit "
        "0 ok / 1 warn / 2 breach (CI gate)",
    )
    p_slo.add_argument(
        "--spec",
        required=True,
        metavar="PATH",
        help="JSON spec with an 'objectives' list",
    )
    p_slo.add_argument(
        "--timeline",
        required=True,
        metavar="PATH",
        help="timeline JSONL from `serve ... --timeline-out`",
    )
    p_slo.set_defaults(func=_cmd_obs_slo)
