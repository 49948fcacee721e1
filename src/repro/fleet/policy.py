"""Cost-aware replacement policies: score history in, typed actions out.

The paper's prediction models only matter operationally if something
consumes the scores.  Basak & Katz (PAPERS.md) argue the useful output
is a *ranked, budgeted replacement decision*, not a raw probability —
this module turns the per-drive rolling risk maintained by
:mod:`repro.fleet.health` into typed, reversible actions:

``replace``
    Stage a spare and migrate the data off the drive (consumes a spare).
``quarantine``
    Pull the drive out of the serving rotation but keep it powered —
    cheaper than a replacement, reversible with ``clear``.
``watch``
    Flag the drive for closer monitoring; no capacity impact.
``clear``
    De-escalate a watched/quarantined drive whose risk subsided.

Two policy families cover the paper's Section 5.3 trade-off:

- :class:`ThresholdPolicy` — the classic operating-point policy: act
  when the EWMA risk crosses a threshold, with **hysteresis** (a
  separate, lower ``clear_below`` bound de-escalates, so a drive
  oscillating around the threshold doesn't flap) and a per-drive
  **cooldown** (no new escalation within ``cooldown_days`` of the last
  action).
- :class:`TopKPolicy` — the budgeted ranking policy: every decision day
  rank candidates by risk and replace at most ``budget`` drives per
  rolling ``window_days``, the spares-constrained form operators
  actually run.

Every action carries its cost, attributed at decision time from
:class:`ActionCosts`, so audit journals and what-if reports account for
money the moment it is committed.  Policies are pure functions of
``(view, state, day)`` — same inputs, same decisions, byte-for-byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from ..errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.policy import ThresholdChoice
    from .actions import FleetState
    from .health import FleetView

__all__ = [
    "ACTIONS",
    "ESCALATION_ORDER",
    "ActionCosts",
    "FleetAction",
    "PolicyError",
    "BasePolicy",
    "ThresholdPolicy",
    "TopKPolicy",
    "POLICY_KINDS",
    "policy_from_spec",
    "load_policy",
]

#: The typed fleet actions, in documentation order.
ACTIONS = ("replace", "quarantine", "watch", "clear")

#: Escalation ladder: a drive only moves *up* this order on escalation
#: (``clear`` is the de-escalation edge back to the bottom).
ESCALATION_ORDER = ("watch", "quarantine", "replace")


class PolicyError(ValueError, ReproError):
    """A policy spec or parameter set is invalid."""


@dataclass(frozen=True)
class ActionCosts:
    """Per-action cost attribution plus the miss penalty.

    Units are arbitrary (only ratios matter, like
    :func:`repro.core.select_threshold`); defaults follow the paper's
    Section 5.3 framing where a missed failure (data loss, emergency
    migration) is an order of magnitude costlier than a planned
    replacement, which in turn dwarfs monitoring overhead.
    """

    replace: float = 50.0
    quarantine: float = 5.0
    watch: float = 0.5
    clear: float = 0.0
    miss: float = 500.0

    def __post_init__(self) -> None:
        for name in ("replace", "quarantine", "watch", "clear", "miss"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0:
                raise PolicyError(f"cost {name!r} must be finite and >= 0")
        if self.miss <= 0:
            raise PolicyError("miss cost must be > 0 (else never act)")

    def of(self, action: str) -> float:
        """The attributed cost of one action."""
        if action not in ACTIONS:
            raise PolicyError(f"unknown action {action!r}")
        return float(getattr(self, action))

    def to_dict(self) -> dict[str, float]:
        return {
            "replace": self.replace,
            "quarantine": self.quarantine,
            "watch": self.watch,
            "clear": self.clear,
            "miss": self.miss,
        }

    @classmethod
    def from_dict(cls, body: dict[str, Any]) -> "ActionCosts":
        known = {"replace", "quarantine", "watch", "clear", "miss"}
        extra = set(body) - known
        if extra:
            raise PolicyError(f"unknown cost field(s): {sorted(extra)}")
        try:
            return cls(**{k: float(v) for k, v in body.items()})
        except (TypeError, ValueError) as exc:
            raise PolicyError(f"bad costs: {exc}") from None


@dataclass(frozen=True)
class FleetAction:
    """One typed decision: what to do to which drive, and why.

    ``cost`` is attributed at decision time from the policy's
    :class:`ActionCosts`, so downstream accounting (audit journal,
    what-if reports) never re-derives prices.
    """

    action: str
    drive_id: int
    day: int
    risk: float
    reason: str
    cost: float

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise PolicyError(f"unknown action {self.action!r}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "action": self.action,
            "drive_id": self.drive_id,
            "day": self.day,
            "risk": self.risk,
            "reason": self.reason,
            "cost": self.cost,
        }


#: Status -> rung on the escalation ladder (active = below the ladder).
_STATUS_RANK = {"active": -1, "watched": 0, "quarantined": 1, "replaced": 2}


@dataclass(frozen=True)
class BasePolicy:
    """Shared policy surface: costs, staleness gating, cooldown.

    ``max_staleness_days`` is the chaos-mode knob: when telemetry for a
    drive is late (its last score lags the decision day by more than the
    bound), the policy refuses to *escalate* on the stale risk estimate —
    acting on week-old scores replaces the wrong drives.  De-escalation
    (``clear``) is likewise suppressed, since the risk may simply not
    have been observed falling.  ``None`` acts regardless of staleness.
    """

    costs: ActionCosts = field(default_factory=ActionCosts)
    cooldown_days: int = 0
    max_staleness_days: int | None = None

    #: Spec discriminator; subclasses override.
    kind = "base"

    def __post_init__(self) -> None:
        if self.cooldown_days < 0:
            raise PolicyError("cooldown_days must be >= 0")
        if self.max_staleness_days is not None and self.max_staleness_days < 0:
            raise PolicyError("max_staleness_days must be >= 0")

    # ------------------------------------------------------------------ hooks
    def decide(
        self, view: "FleetView", state: "FleetState", day: int
    ) -> list[FleetAction]:
        """Propose actions for one decision day (pure; does not act)."""
        raise NotImplementedError

    def spec(self) -> dict[str, Any]:
        """The JSON-round-trippable spec (``policy_from_spec`` inverse)."""
        return {
            "kind": self.kind,
            "costs": self.costs.to_dict(),
            "cooldown_days": self.cooldown_days,
            "max_staleness_days": self.max_staleness_days,
        }

    # -------------------------------------------------------------- shared
    def _in_cooldown(self, state: "FleetState", drive: int, day: int) -> bool:
        if self.cooldown_days <= 0:
            return False
        last = state.last_action_day.get(drive)
        return last is not None and day - last < self.cooldown_days

    def _too_stale(self, staleness_days: int) -> bool:
        return (
            self.max_staleness_days is not None
            and staleness_days > self.max_staleness_days
        )


@dataclass(frozen=True)
class ThresholdPolicy(BasePolicy):
    """Operating-point policy with hysteresis and cooldown.

    A drive escalates to the highest rung whose threshold its risk
    crosses (``watch_at`` < ``quarantine_at`` < ``replace_at``; unset
    rungs are skipped) and only ever moves *up* the ladder — except via
    ``clear``, taken when a watched/quarantined drive's risk falls below
    ``clear_below`` (the hysteresis band: ``clear_below`` strictly under
    the lowest escalation threshold, so risk noise around one threshold
    cannot produce act/clear flapping).
    """

    replace_at: float = 0.95
    quarantine_at: float | None = None
    watch_at: float | None = None
    clear_below: float | None = None

    kind = "threshold"

    def __post_init__(self) -> None:
        super().__post_init__()
        rungs = self._rungs()
        if not rungs:
            raise PolicyError("threshold policy needs at least one threshold")
        for action, thr in rungs:
            if not 0.0 <= thr <= 1.0:
                raise PolicyError(
                    f"{action} threshold must lie in [0, 1], got {thr}"
                )
        # The ladder must be monotone: a higher rung needs a higher bar.
        values = [thr for _, thr in rungs]
        if any(b < a for a, b in zip(values, values[1:])):
            raise PolicyError(
                "thresholds must be ordered watch_at <= quarantine_at "
                "<= replace_at"
            )
        if self.clear_below is not None:
            if not 0.0 <= self.clear_below <= 1.0:
                raise PolicyError("clear_below must lie in [0, 1]")
            if self.clear_below >= values[0]:
                raise PolicyError(
                    "clear_below must sit strictly under the lowest "
                    "escalation threshold (the hysteresis band)"
                )

    def _rungs(self) -> list[tuple[str, float]]:
        """The configured escalation rungs, lowest first."""
        out = []
        for action, thr in (
            ("watch", self.watch_at),
            ("quarantine", self.quarantine_at),
            ("replace", self.replace_at),
        ):
            if thr is not None:
                out.append((action, float(thr)))
        return out

    def decide(
        self, view: "FleetView", state: "FleetState", day: int
    ) -> list[FleetAction]:
        rungs = self._rungs()
        out: list[FleetAction] = []
        for i in range(len(view.drive_id)):
            drive = int(view.drive_id[i])
            status = state.status_of(drive)
            if status == "replaced":
                continue
            risk = float(view.risk[i])
            stale = self._too_stale(int(view.staleness_days[i]))
            rank = _STATUS_RANK[status]
            # Highest rung the risk clears that is above the current one.
            target: tuple[str, float] | None = None
            for j, (action, thr) in enumerate(rungs):
                if risk >= thr and _STATUS_RANK_OF_ACTION[action] > rank:
                    target = (action, thr)
            if target is not None:
                if stale or self._in_cooldown(state, drive, day):
                    continue
                action, thr = target
                out.append(
                    FleetAction(
                        action=action,
                        drive_id=drive,
                        day=day,
                        risk=risk,
                        reason=f"risk {risk:.6f} >= {action}_at {thr:g}",
                        cost=self.costs.of(action),
                    )
                )
            elif (
                self.clear_below is not None
                and status in ("watched", "quarantined")
                and risk < self.clear_below
                and not stale
                and not self._in_cooldown(state, drive, day)
            ):
                out.append(
                    FleetAction(
                        action="clear",
                        drive_id=drive,
                        day=day,
                        risk=risk,
                        reason=(
                            f"risk {risk:.6f} < clear_below "
                            f"{self.clear_below:g}"
                        ),
                        cost=self.costs.of("clear"),
                    )
                )
        return out

    def spec(self) -> dict[str, Any]:
        return {
            **super().spec(),
            "replace_at": self.replace_at,
            "quarantine_at": self.quarantine_at,
            "watch_at": self.watch_at,
            "clear_below": self.clear_below,
        }

    @classmethod
    def from_choice(
        cls, choice: "ThresholdChoice", **kwargs: Any
    ) -> "ThresholdPolicy":
        """Lift a :func:`repro.core.select_threshold` operating point.

        The cost-minimizing validation threshold becomes ``replace_at``;
        everything else (hysteresis, cooldown, costs) passes through.
        The "flag nothing" end of the ROC sweep yields a threshold above
        every observed score (> 1 for probabilities); risk is bounded by
        1, so that operating point clamps to ``replace_at = 1.0``.
        """
        return cls(replace_at=min(float(choice.threshold), 1.0), **kwargs)


_STATUS_RANK_OF_ACTION = {"watch": 0, "quarantine": 1, "replace": 2}


@dataclass(frozen=True)
class TopKPolicy(BasePolicy):
    """Budgeted ranking: replace the riskiest K drives per rolling window.

    Every decision day, drives not yet replaced whose risk is at least
    ``min_risk`` are ranked by ``(-risk, drive_id)`` (the deterministic
    tie-break) and replaced top-down until the rolling spares budget —
    at most ``budget`` replacements within the trailing ``window_days``
    — is exhausted.  This is the operational form Basak & Katz argue
    for: spares arrive on a schedule, so the question is never "which
    drives cross α" but "which K drives do I swap this week".
    """

    budget: int = 4
    window_days: int = 30
    min_risk: float = 0.5

    kind = "topk"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.budget < 1:
            raise PolicyError("budget must be >= 1")
        if self.window_days < 1:
            raise PolicyError("window_days must be >= 1")
        if not 0.0 <= self.min_risk <= 1.0:
            raise PolicyError("min_risk must lie in [0, 1]")

    def decide(
        self, view: "FleetView", state: "FleetState", day: int
    ) -> list[FleetAction]:
        remaining = self.budget - state.replacements_since(
            day - self.window_days + 1
        )
        if remaining <= 0:
            return []
        candidates: list[tuple[float, int, float]] = []
        for i in range(len(view.drive_id)):
            drive = int(view.drive_id[i])
            if state.status_of(drive) == "replaced":
                continue
            risk = float(view.risk[i])
            if risk < self.min_risk:
                continue
            if self._too_stale(int(view.staleness_days[i])):
                continue
            if self._in_cooldown(state, drive, day):
                continue
            candidates.append((-risk, drive, risk))
        candidates.sort()
        out: list[FleetAction] = []
        for _, drive, risk in candidates[:remaining]:
            out.append(
                FleetAction(
                    action="replace",
                    drive_id=drive,
                    day=day,
                    risk=risk,
                    reason=(
                        f"rank {len(out) + 1}/{remaining} in window budget "
                        f"{self.budget}/{self.window_days}d"
                    ),
                    cost=self.costs.of("replace"),
                )
            )
        return out

    def spec(self) -> dict[str, Any]:
        return {
            **super().spec(),
            "budget": self.budget,
            "window_days": self.window_days,
            "min_risk": self.min_risk,
        }


#: Spec discriminator -> policy class.
POLICY_KINDS: dict[str, type[BasePolicy]] = {
    "threshold": ThresholdPolicy,
    "topk": TopKPolicy,
}


def policy_from_spec(spec: dict[str, Any]) -> BasePolicy:
    """Build a policy from its JSON spec (the :meth:`BasePolicy.spec` inverse)."""
    if not isinstance(spec, dict):
        raise PolicyError(f"policy spec must be an object, got {type(spec).__name__}")
    body = dict(spec)
    kind = body.pop("kind", None)
    if kind not in POLICY_KINDS:
        raise PolicyError(
            f"unknown policy kind {kind!r}; choose from "
            f"{', '.join(sorted(POLICY_KINDS))}"
        )
    costs = body.pop("costs", None)
    kwargs: dict[str, Any] = {}
    if costs is not None:
        kwargs["costs"] = ActionCosts.from_dict(costs)
    cls = POLICY_KINDS[kind]
    allowed = {
        f for f in cls.__dataclass_fields__  # type: ignore[attr-defined]
    }
    extra = set(body) - allowed
    if extra:
        raise PolicyError(
            f"unknown field(s) for {kind} policy: {sorted(extra)}"
        )
    try:
        return cls(**kwargs, **body)
    except TypeError as exc:
        raise PolicyError(f"bad {kind} policy spec: {exc}") from None


def load_policy(source: str) -> BasePolicy:
    """Resolve a CLI ``--policy`` value to a policy.

    Accepts, in order: a bare kind name (``threshold``/``topk`` with
    defaults), inline JSON (starts with ``{``), or a path to a JSON spec
    file.
    """
    source = source.strip()
    if source in POLICY_KINDS:
        return POLICY_KINDS[source]()
    if source.startswith("{"):
        try:
            spec = json.loads(source)
        except ValueError as exc:
            raise PolicyError(f"inline policy spec is not JSON: {exc}") from None
        return policy_from_spec(spec)
    path = Path(source)
    if not path.exists():
        raise PolicyError(
            f"policy {source!r} is neither a known kind "
            f"({', '.join(sorted(POLICY_KINDS))}), inline JSON, nor a file"
        )
    try:
        spec = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise PolicyError(f"policy spec file {path}: {exc}") from None
    return policy_from_spec(spec)
