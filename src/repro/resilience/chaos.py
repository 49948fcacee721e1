"""Deterministic chaos injection for supervised pool workers.

The chaos drill (tests + the CI ``chaos-smoke`` job) needs to crash,
hang, and SIGKILL workers *reproducibly* — the whole point of the
resilience acceptance criterion is that surviving outputs stay
byte-identical to a fault-free run, which is only checkable when the
faults themselves are a pure function of ``(seed, task_index)``.

Faults are configured through environment variables (inherited by
forked workers, so ``REPRO_CHAOS=... repro-ssd simulate -j2`` just
works):

- ``REPRO_CHAOS`` — spec like ``"crash=0.2,hang=0.1"``: per-task fault
  probabilities by mode;
- ``REPRO_CHAOS_SEED`` — seed of the fault plan (default 0);
- ``REPRO_CHAOS_HANG_SECONDS`` — how long ``hang`` sleeps (default
  3600, i.e. "forever" next to any sane ``--task-timeout``).

Modes (all fire on the **first attempt only**, so a retried task
succeeds — except ``error_always``, which poisons the task):

=============  ==========================================================
``error``      raise :class:`ChaosError` inside the task
``crash``      ``os._exit`` — worker dies without an exception
``kill``       SIGKILL own process — simulates the OOM killer
``hang``       sleep past any deadline — simulates a wedged worker
``error_always``  raise on *every* attempt — a poison task
=============  ==========================================================

Injection happens only in :func:`maybe_inject`, which is called solely
from the supervised worker loop — serial in-process execution (including
the circuit breaker's serial fallback) never injects, so tripping to
serial under chaos is always safe.
"""

from __future__ import annotations

import os
import signal
import time

import numpy as np

__all__ = [
    "ENV_CHAOS",
    "ENV_CHAOS_SEED",
    "ENV_CHAOS_HANG",
    "CHAOS_MODES",
    "TELEMETRY_MODES",
    "SHARD_MODES",
    "GARBLE_FIELDS",
    "ChaosError",
    "parse_chaos_spec",
    "planned_fault",
    "maybe_inject",
    "telemetry_spec_from_env",
    "shard_spec_from_env",
    "planned_shard_kill",
    "garble_event",
    "chaos_telemetry_events",
]

ENV_CHAOS = "REPRO_CHAOS"
ENV_CHAOS_SEED = "REPRO_CHAOS_SEED"
ENV_CHAOS_HANG = "REPRO_CHAOS_HANG_SECONDS"

#: Recognized worker fault modes, in documentation order.
CHAOS_MODES = ("error", "crash", "kill", "hang", "error_always")

#: Telemetry fault modes applied to the serve-path event stream (one
#: entry per event index, same pure-function contract as worker faults):
#:
#: ``reorder``   hold the event a few arrivals, emitting it out of order;
#: ``duplicate`` emit the event twice back to back;
#: ``late``      hold the event for dozens of arrivals — past the point
#:               where later same-drive days have been absorbed;
#: ``garble``    corrupt one non-key counter field (NaN / negative /
#:               collector sentinel), keys left intact.
TELEMETRY_MODES = ("reorder", "duplicate", "late", "garble")

#: Shard-plane fault modes applied by the sharded serving tier (see
#: :mod:`repro.serve.shard`).  ``shard_kill`` SIGKILLs a scorer shard
#: mid-replay on its first attempt — the planned victim is a pure
#: function of ``(seed, shard_index)``, and the shard supervisor's
#: retry must heal it by restoring its checkpoint and resuming there.
#: Kept in its own domain tuple so neither the worker injection site
#: (:func:`maybe_inject`) nor the telemetry site picks it up.
SHARD_MODES = ("shard_kill",)

#: Non-key numeric fields eligible for ``garble`` corruption.  Keys
#: (``drive_id``/``age_days``) are never touched: a garbled event stays
#: addressable, so ``serve heal --refetch`` can restore it from the
#: upstream source of truth.
GARBLE_FIELDS = (
    "read_count",
    "write_count",
    "erase_count",
    "pe_cycles",
    "grown_bad_blocks",
    "uncorrectable_error",
)

#: Corruption values cycled through by ``garble`` — each trips a
#: different admission-guard check (non-finite, negative, sentinel).
_GARBLE_VALUES = (float("nan"), -1.0, 1e18)

#: Exit status used by the ``crash`` mode (visible in worker post-mortems).
CRASH_EXIT_STATUS = 23


class ChaosError(RuntimeError):
    """The injected task-level fault (modes ``error``/``error_always``)."""


def parse_chaos_spec(
    spec: str, modes: tuple[str, ...] | None = None
) -> list[tuple[str, float]]:
    """Parse ``"crash=0.2,hang=0.1"`` into ``[(mode, rate), ...]``.

    Rates must lie in ``[0, 1]`` and sum to at most 1 (they partition the
    unit interval: each task draws one uniform variate and lands in at
    most one mode's slice).  ``modes`` restricts the accepted mode names;
    by default both worker (:data:`CHAOS_MODES`) and telemetry
    (:data:`TELEMETRY_MODES`) modes parse, since one ``$REPRO_CHAOS``
    value may mix them — each injection site filters to its own domain.
    """
    allowed = (
        modes
        if modes is not None
        else CHAOS_MODES + TELEMETRY_MODES + SHARD_MODES
    )
    out: list[tuple[str, float]] = []
    total = 0.0
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        mode, _, raw = item.partition("=")
        mode = mode.strip()
        if mode not in allowed:
            raise ChaosError(
                f"unknown chaos mode {mode!r}; choose from {', '.join(allowed)}"
            )
        try:
            rate = float(raw)
        except ValueError:
            raise ChaosError(f"chaos rate for {mode!r} is not a number: {raw!r}") from None
        if not 0.0 <= rate <= 1.0:
            raise ChaosError(f"chaos rate for {mode!r} must be in [0, 1], got {rate}")
        total += rate
        out.append((mode, rate))
    if total > 1.0 + 1e-9:
        raise ChaosError(f"chaos rates sum to {total}, must be <= 1")
    return out


def planned_fault(
    task_index: int, spec: list[tuple[str, float]], seed: int = 0
) -> str | None:
    """The fault mode (or ``None``) planned for one task — pure function.

    Each task draws a single uniform variate from
    ``SeedSequence([seed, task_index])``, so the plan is independent of
    worker scheduling, retry history, and every other task.
    """
    if not spec:
        return None
    u = float(
        np.random.default_rng(np.random.SeedSequence([seed, task_index])).random()
    )
    cumulative = 0.0
    for mode, rate in spec:
        cumulative += rate
        if u < cumulative:
            return mode
    return None


def maybe_inject(task_index: int, attempt: int) -> None:
    """Apply the planned fault for ``(task_index, attempt)``, if any.

    ``attempt`` is 1-based.  Called from the supervised worker loop right
    before the task body; a no-op unless ``$REPRO_CHAOS`` is set.
    """
    raw = os.environ.get(ENV_CHAOS, "").strip()
    if not raw:
        return
    # Telemetry modes target the serve-path event stream, not pool
    # workers — drop them here so a mixed spec never faults a worker.
    spec = [
        (mode, rate)
        for mode, rate in parse_chaos_spec(raw)
        if mode in CHAOS_MODES
    ]
    seed = int(os.environ.get(ENV_CHAOS_SEED, "0") or 0)
    mode = planned_fault(task_index, spec, seed)
    if mode is None:
        return
    if mode == "error_always":
        raise ChaosError(
            f"injected poison fault (task={task_index}, attempt={attempt})"
        )
    if attempt > 1:  # first-attempt faults: the retry is meant to succeed
        return
    if mode == "error":
        raise ChaosError(f"injected transient fault (task={task_index})")
    if mode == "crash":
        os._exit(CRASH_EXIT_STATUS)
    if mode == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    if mode == "hang":
        time.sleep(float(os.environ.get(ENV_CHAOS_HANG, "3600") or 3600))


# --------------------------------------------------------------------------
# telemetry fault modes (the serve-path chaos drill)
# --------------------------------------------------------------------------


def telemetry_spec_from_env() -> tuple[list[tuple[str, float]], int]:
    """The telemetry slice of ``$REPRO_CHAOS`` plus the chaos seed.

    Returns ``([], seed)`` when no telemetry mode is configured — the
    serve path uses this to decide whether to perturb a replay at all.
    """
    raw = os.environ.get(ENV_CHAOS, "").strip()
    seed = int(os.environ.get(ENV_CHAOS_SEED, "0") or 0)
    if not raw:
        return [], seed
    spec = [
        (mode, rate)
        for mode, rate in parse_chaos_spec(raw)
        if mode in TELEMETRY_MODES
    ]
    return spec, seed


def shard_spec_from_env() -> tuple[list[tuple[str, float]], int]:
    """The shard-plane slice of ``$REPRO_CHAOS`` plus the chaos seed.

    Returns ``([], seed)`` when no shard mode is configured.
    """
    raw = os.environ.get(ENV_CHAOS, "").strip()
    seed = int(os.environ.get(ENV_CHAOS_SEED, "0") or 0)
    if not raw:
        return [], seed
    spec = [
        (mode, rate)
        for mode, rate in parse_chaos_spec(raw)
        if mode in SHARD_MODES
    ]
    return spec, seed


def planned_shard_kill(
    shard_index: int, spec: list[tuple[str, float]], seed: int = 0
) -> float | None:
    """The kill point planned for one shard, or ``None`` — pure function.

    Returns the fraction of the shard's sub-stream (in ``[0.25, 0.75]``)
    after which the shard SIGKILLs itself.  Drawn from
    ``SeedSequence([seed, shard_index, 2])`` — disjoint from both the
    worker-fault and telemetry variate streams, so enabling shard chaos
    never shifts the other plans.
    """
    if planned_fault(shard_index, spec, seed) != "shard_kill":
        return None
    u = float(
        np.random.default_rng(
            np.random.SeedSequence([seed, shard_index, 2])
        ).random()
    )
    return 0.25 + 0.5 * u


def _event_variates(event_index: int, seed: int) -> "np.ndarray":
    """Three auxiliary uniforms for one event (delay, field, value picks).

    Drawn from ``SeedSequence([seed, event_index, 1])`` — disjoint from
    the :func:`planned_fault` stream, so adding telemetry chaos never
    shifts the worker fault plan (and vice versa).
    """
    return np.random.default_rng(
        np.random.SeedSequence([seed, event_index, 1])
    ).random(3)


def garble_event(event: dict, event_index: int, seed: int = 0) -> dict:
    """A copy of ``event`` with one counter field corrupted — pure function.

    The target field and corruption value are deterministic in
    ``(seed, event_index)``.  Keys (``drive_id``/``age_days``) are never
    touched, so the garbled event remains addressable for refetch-based
    healing.
    """
    u = _event_variates(event_index, seed)
    fields = [f for f in GARBLE_FIELDS if f in event]
    if not fields:
        return dict(event)
    field = fields[int(u[1] * len(fields)) % len(fields)]
    value = _GARBLE_VALUES[int(u[2] * len(_GARBLE_VALUES)) % len(_GARBLE_VALUES)]
    out = dict(event)
    out[field] = value
    return out


def chaos_telemetry_events(
    events, spec: list[tuple[str, float]], seed: int = 0
):
    """Perturb an event stream with the telemetry fault plan — pure function.

    Yields the events of ``events`` with, per original event index,
    the planned fault applied: duplicates emitted back to back, reordered
    events delayed 1-4 arrivals, late events delayed 16-48 arrivals, and
    garbled events corrupted in one counter field.  The output sequence
    depends only on the input sequence, ``spec``, and ``seed`` — replays
    of the same trace under the same plan are identical, which is what
    lets the chaos drill assert heal-to-bit-identity.

    ``spec`` accepts either the ``[(mode, rate), ...]`` pairs of
    :func:`parse_chaos_spec` or a ``{mode: rate}`` mapping.
    """
    if isinstance(spec, dict):
        spec = list(spec.items())
    if not spec:
        yield from events
        return
    held: list[tuple[int, int, dict]] = []  # (release_at, original_index, event)

    def release(now: int):
        while held and held[0][0] <= now:
            yield held.pop(0)[2]

    for i, event in enumerate(events):
        yield from release(i)
        mode = planned_fault(i, spec, seed)
        if mode == "duplicate":
            yield event
            yield dict(event)
        elif mode in ("reorder", "late"):
            u = _event_variates(i, seed)
            if mode == "reorder":
                delay = 1 + int(u[0] * 4)
            else:
                delay = 16 + int(u[0] * 33)
            held.append((i + delay, i, event))
            held.sort(key=lambda h: (h[0], h[1]))
        elif mode == "garble":
            yield garble_event(event, i, seed)
        else:
            yield event
    held.sort(key=lambda h: (h[0], h[1]))
    for _, _, event in held:
        yield event
