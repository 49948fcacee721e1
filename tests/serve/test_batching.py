"""Micro-batcher: flush bounds, ordering, policy validation."""

from __future__ import annotations

import pytest

from repro.serve import BatchPolicy, MicroBatcher


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestBatchPolicy:
    def test_defaults(self):
        policy = BatchPolicy()
        assert policy.max_batch_size == 256
        assert policy.max_wait_seconds == 0.005

    @pytest.mark.parametrize(
        "kwargs", [{"max_batch_size": 0}, {"max_wait_seconds": -1.0}]
    )
    def test_rejects_bad_bounds(self, kwargs):
        with pytest.raises(ValueError):
            BatchPolicy(**kwargs)


class TestMicroBatcher:
    def test_size_bound_flushes(self):
        clock = FakeClock()
        mb = MicroBatcher(BatchPolicy(max_batch_size=3, max_wait_seconds=60), clock)
        assert mb.add("a") is None
        assert mb.add("b") is None
        assert mb.add("c") == ["a", "b", "c"]
        assert len(mb) == 0

    def test_wait_bound_flushes_on_add(self):
        clock = FakeClock()
        mb = MicroBatcher(BatchPolicy(max_batch_size=100, max_wait_seconds=1.0), clock)
        assert mb.add("a") is None
        clock.advance(2.0)
        assert mb.add("b") == ["a", "b"]

    def test_poll_flushes_by_wait_only(self):
        clock = FakeClock()
        mb = MicroBatcher(BatchPolicy(max_batch_size=100, max_wait_seconds=1.0), clock)
        mb.add("a")
        assert mb.poll() is None
        clock.advance(1.0)
        assert mb.poll() == ["a"]
        assert mb.poll() is None

    def test_zero_wait_disables_batching(self):
        clock = FakeClock()
        mb = MicroBatcher(BatchPolicy(max_batch_size=100, max_wait_seconds=0.0), clock)
        assert mb.add("a") == ["a"]
        assert mb.add("b") == ["b"]

    def test_flush_preserves_arrival_order(self):
        clock = FakeClock()
        mb = MicroBatcher(BatchPolicy(max_batch_size=100, max_wait_seconds=60), clock)
        for item in range(5):
            mb.add(item)
        assert mb.flush() == [0, 1, 2, 3, 4]
        assert mb.flush() == []

    def test_oldest_wait_tracks_head(self):
        clock = FakeClock()
        mb = MicroBatcher(BatchPolicy(max_batch_size=100, max_wait_seconds=60), clock)
        assert mb.oldest_wait == 0.0
        mb.add("a")
        clock.advance(3.0)
        mb.add("b")
        assert mb.oldest_wait == 3.0


class TestCostRule:
    """Idle flush once the pending requests' summed wait pays for one
    measured scoring call; ``add`` keeps to the size and wait bounds."""

    def _batcher(self, clock, size=100, wait=1.0):
        return MicroBatcher(BatchPolicy(max_batch_size=size, max_wait_seconds=wait), clock)

    def test_poll_is_wait_only_before_a_cost_is_recorded(self):
        clock = FakeClock()
        mb = self._batcher(clock)
        for item in range(10):
            mb.add(item)
        clock.advance(0.5)  # summed wait 5 s, but no call timed yet
        assert mb.call_cost is None
        assert mb.poll() is None
        assert mb.next_flush_in() == 0.5

    def test_one_request_flushes_once_its_wait_reaches_the_cost(self):
        clock = FakeClock()
        mb = self._batcher(clock)
        mb.record_cost(0.25)
        mb.add("a")
        clock.advance(0.125)
        assert mb.poll() is None
        clock.advance(0.125)
        assert mb.poll() == ["a"]

    def test_k_requests_flush_once_their_summed_wait_reaches_the_cost(self):
        clock = FakeClock()
        mb = self._batcher(clock)
        mb.record_cost(0.5)
        mb.add("a")
        clock.advance(0.125)
        mb.add("b")
        clock.advance(0.0625)
        mb.add("c")
        # Waits 0.1875 + 0.0625 + 0 = 0.25: half the cost.
        assert mb.summed_wait() == 0.25
        assert mb.poll() is None
        # Three requests wait 3 s per second: 0.25 more in 1/12 s.
        assert mb.next_flush_in() == pytest.approx(0.25 / 3)
        clock.advance(0.0625)
        assert mb.summed_wait() == 0.4375
        assert mb.poll() is None
        clock.advance(0.0625)
        assert mb.poll() == ["a", "b", "c"]
        assert mb.summed_wait() == 0.0

    def test_add_never_flushes_by_cost(self):
        clock = FakeClock()
        mb = self._batcher(clock, size=8, wait=1.0)
        mb.record_cost(0.001)
        for item in range(7):
            assert mb.add(item) is None
            clock.advance(0.1)  # summed wait far past the cost
        assert mb.add(7) == list(range(8))  # the size bound

    def test_wait_bound_stays_hard_under_a_large_cost(self):
        clock = FakeClock()
        mb = self._batcher(clock, wait=1.0)
        mb.record_cost(60.0)
        mb.add("a")
        assert mb.next_flush_in() == 1.0
        clock.advance(1.0)
        assert mb.poll() == ["a"]

    def test_next_flush_in(self):
        clock = FakeClock()
        mb = self._batcher(clock, wait=1.0)
        assert mb.next_flush_in() is None
        mb.add("a")
        clock.advance(0.25)
        assert mb.next_flush_in() == 0.75  # wait bound only
        mb.record_cost(0.5)
        mb.add("b")
        # Summed wait 0.25, two requests: the cost is 0.125 s away.
        assert mb.next_flush_in() == 0.125
        clock.advance(0.5)
        assert mb.next_flush_in() == 0.0

    def test_cost_is_a_running_mean_of_calls(self):
        mb = MicroBatcher()
        mb.record_cost(1.0)
        assert mb.call_cost == 1.0
        mb.record_cost(2.0)
        assert 1.0 < mb.call_cost < 2.0
        for _ in range(200):
            mb.record_cost(0.25)
        assert mb.call_cost == pytest.approx(0.25)

    def test_flush_resets_the_summed_wait(self):
        clock = FakeClock()
        mb = self._batcher(clock)
        mb.add("a")
        clock.advance(0.5)
        mb.add("b")
        assert mb.flush() == ["a", "b"]
        mb.add("c")
        clock.advance(0.125)
        assert mb.summed_wait() == 0.125
