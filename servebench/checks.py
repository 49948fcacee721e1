"""Output checks: every pass compares what the program produced with the
seed's reference and counts the events whose outcome differs, so a run
reports ``failed`` out of ``attempted`` instead of a bare flag.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from pathlib import Path
from typing import Any

import numpy as np

__all__ = [
    "score_mismatch",
    "score_failures",
    "policy_failed",
    "jsonl_lines",
    "same_json",
]


def score_mismatch(probs: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Per row of ``probs``: whether its score is not byte-equal to the
    same row of the reference (rows past the reference's end are wrong)."""
    probs = np.ascontiguousarray(probs, dtype=np.float64)
    reference = np.ascontiguousarray(reference, dtype=np.float64)
    n = min(len(probs), len(reference))
    wrong = np.ones(len(probs), dtype=bool)
    wrong[:n] = probs[:n].view(np.uint64) != reference[:n].view(np.uint64)
    return wrong


def score_failures(probs: np.ndarray, reference: np.ndarray) -> int:
    """Rows scored wrong, extra or missing against the reference."""
    missing = max(0, len(reference) - len(probs))
    return int(np.count_nonzero(score_mismatch(probs, reference))) + missing


def policy_failed(verdict: Any, chain: str, report: Mapping[str, Any], reference: Mapping) -> bool:
    """A priced policy is wrong unless its audit journal verifies and its
    chain head and report equal the reference."""
    return not (
        verdict.ok and chain == reference["chain"] and same_json(report, reference["report"])
    )


def jsonl_lines(path: Path) -> int:
    """Non-empty lines of a JSONL file (0 when it does not exist)."""
    if not path.exists():
        return 0
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def same_json(value: Any, reference: Any) -> bool:
    """Equal after a JSON round trip (floats by repr, so exact)."""
    return json.loads(json.dumps(value, sort_keys=True)) == reference
