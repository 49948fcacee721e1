"""Tests for fleet-level simulation invariants."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import MODEL_NAMES
from repro.obs import metrics, tracing
from repro.parallel import shard_ranges
from repro.reliability import simulate_fleet_resumable
from repro.simulator import FleetConfig, simulate_fleet


class TestFleetTrace:
    def test_drive_counts(self, small_trace):
        cfg = small_trace.config
        assert len(small_trace.drives) == cfg.n_drives_per_model * 3
        for i in range(3):
            assert small_trace.drives.n_drives(i) == cfg.n_drives_per_model

    def test_records_sorted_by_drive_then_age(self, small_trace):
        ids = small_trace.records["drive_id"]
        ages = small_trace.records["age_days"]
        same = ids[1:] == ids[:-1]
        assert ((ids[1:] > ids[:-1]) | (same & (ages[1:] > ages[:-1]))).all()

    def test_calendar_day_consistency(self, small_trace):
        """calendar_day = deploy_day + age_days for every record."""
        deploy = dict(
            zip(
                small_trace.drives.drive_id.tolist(),
                small_trace.drives.deploy_day.tolist(),
            )
        )
        ids = small_trace.records["drive_id"]
        expected = np.array([deploy[int(d)] for d in ids[:5000]])
        got = (
            small_trace.records["calendar_day"][:5000]
            - small_trace.records["age_days"][:5000]
        )
        assert np.array_equal(got, expected)

    def test_model_column_matches_drive_table(self, small_trace):
        model_of = dict(
            zip(
                small_trace.drives.drive_id.tolist(),
                small_trace.drives.model.tolist(),
            )
        )
        ids = small_trace.records["drive_id"][:5000]
        models = small_trace.records["model"][:5000]
        assert all(model_of[int(d)] == int(m) for d, m in zip(ids, models))

    def test_swap_drives_exist(self, small_trace):
        drive_ids = set(small_trace.drives.drive_id.tolist())
        assert set(small_trace.swaps.drive_id.tolist()).issubset(drive_ids)

    def test_failure_incidence_in_sane_band(self, medium_trace):
        failed = len(np.unique(medium_trace.swaps.drive_id))
        frac = failed / len(medium_trace.drives)
        # Not calibrated to 6 years here, but must be in a plausible band.
        assert 0.02 < frac < 0.30

    def test_reproducibility(self):
        cfg = FleetConfig(n_drives_per_model=20, horizon_days=400, deploy_spread_days=100, seed=9)
        a = simulate_fleet(cfg)
        b = simulate_fleet(cfg)
        assert len(a.records) == len(b.records)
        assert np.array_equal(
            a.records["uncorrectable_error"], b.records["uncorrectable_error"]
        )
        assert np.array_equal(a.swaps.failure_age, b.swaps.failure_age)

    def test_different_seeds_differ(self):
        a = simulate_fleet(FleetConfig(n_drives_per_model=20, horizon_days=400, deploy_spread_days=100, seed=1))
        b = simulate_fleet(FleetConfig(n_drives_per_model=20, horizon_days=400, deploy_spread_days=100, seed=2))
        assert len(a.records) != len(b.records) or not np.array_equal(
            a.records["read_count"], b.records["read_count"]
        )

    def test_summary_mentions_scale(self, small_trace):
        text = small_trace.summary()
        assert "drives" in text and "swap" in text

    def test_model_names_alignment(self):
        assert MODEL_NAMES == ("MLC-A", "MLC-B", "MLC-D")


class TestOneChunkStage:
    """Every simulate path reports the chunk stage and counts the drives
    it simulated, never the ones it loaded from a checkpoint."""

    CONFIG = FleetConfig(n_drives_per_model=5, horizon_days=120, deploy_spread_days=40, seed=3)
    N_DRIVES = 15

    @staticmethod
    def _observe(run):
        with tracing.activate() as tracer, metrics.activate() as registry:
            run()
        stages = tracer.stage_summary()
        series = registry.to_dict()["repro_drives_simulated_total"]["series"]
        return stages, sum(s["value"] for s in series)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_simulate_fleet(self, workers):
        stages, simulated = self._observe(
            lambda: simulate_fleet(self.CONFIG, workers=workers)
        )
        assert set(stages) == {"repro.simulator.chunk", "repro.simulator.assemble"}
        n_chunks = len(shard_ranges(self.N_DRIVES, workers))
        assert stages["repro.simulator.chunk"]["calls"] == n_chunks
        assert simulated == self.N_DRIVES

    @pytest.mark.parametrize("workers", [1, 2])
    def test_resume_counts_only_the_chunks_it_simulates(self, tmp_path, workers):
        ckpt = tmp_path / "ckpt"
        simulate_fleet_resumable(self.CONFIG, checkpoint_dir=ckpt, chunk_size=4)
        for path in sorted(ckpt.glob("chunk_*.npz"))[1:]:
            path.unlink()  # keep chunk 0 (drives 0-3) cached
        stages, simulated = self._observe(
            lambda: simulate_fleet_resumable(
                self.CONFIG,
                checkpoint_dir=ckpt,
                chunk_size=4,
                resume=True,
                workers=workers,
            )
        )
        assert set(stages) == {"repro.simulator.chunk", "repro.simulator.assemble"}
        assert stages["repro.simulator.chunk"]["calls"] == 4
        assert stages["repro.simulator.assemble"]["calls"] == 3
        assert simulated == self.N_DRIVES - 4
