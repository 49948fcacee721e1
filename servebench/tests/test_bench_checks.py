"""The output checks catch one flipped score byte and one tampered
journal line."""

import json

import numpy as np
import pytest

import checks
from repro.fleet import ThresholdPolicy, run_whatif, verify_journal
from repro.simulator import FleetConfig, simulate_fleet


@pytest.fixture(scope="module")
def trace():
    return simulate_fleet(
        FleetConfig(n_drives_per_model=3, horizon_days=60, deploy_spread_days=10, seed=5)
    )


def _tamper(path, index, edit):
    lines = path.read_text().splitlines(keepends=True)
    body = json.loads(lines[index])
    edit(body)
    lines[index] = json.dumps(body, sort_keys=True) + "\n"
    path.write_text("".join(lines))


def test_one_flipped_score_byte_fails_one_event():
    rng = np.random.default_rng(0)
    reference = rng.random(1000)
    probs = reference.copy()
    assert checks.score_failures(probs, reference) == 0
    raw = probs.view(np.uint8)
    raw[8 * 417] ^= 0x01  # lowest mantissa bit of row 417
    assert checks.score_failures(probs, reference) == 1
    assert checks.score_failures(probs[:-3], reference) == 4  # 1 wrong + 3 missing


def test_tampered_audit_journal_line_fails_the_policy(tmp_path, trace):
    probs = np.random.default_rng(1).random(len(trace.records))
    policy = ThresholdPolicy(watch_at=0.5, quarantine_at=0.8, replace_at=0.95, clear_below=0.2)
    path = tmp_path / "audit.jsonl"
    report, outcome = run_whatif(trace, policy, probs=probs, journal_path=path)
    reference = {"chain": outcome.chain, "report": json.loads(json.dumps(report.to_dict()))}
    assert outcome.n_actions > 2
    assert not checks.policy_failed(verify_journal(path), outcome.chain, report.to_dict(), reference)

    _tamper(path, 1, lambda body: body.update(risk=body["risk"] / 2))
    assert checks.policy_failed(verify_journal(path), outcome.chain, report.to_dict(), reference)
