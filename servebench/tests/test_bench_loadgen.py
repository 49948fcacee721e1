"""Due-time latency accounting of the open-loop generator, on a fake clock."""

import pytest

from loadgen import drive_open_loop, poisson_schedule


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class FakeEngine:
    """Scores each accepted event immediately; some submits stall."""

    def __init__(self, clock, stalls=None, rejected=()):
        self.clock = clock
        self.stalls = stalls or {}
        self.rejected = set(rejected)
        self.requests_total = 0
        self.calls = 0

    def submit(self, event):
        i = self.calls
        self.calls += 1
        self.clock.now += self.stalls.get(i, 0.0)
        if event in self.rejected:
            return []
        self.requests_total += 1
        return [event]

    def poll(self):
        return []

    def drain(self):
        return []


class BatchingEngine(FakeEngine):
    """Holds requests until drain, like a micro-batcher that never fills."""

    def __init__(self, clock):
        super().__init__(clock)
        self.pending = []

    def submit(self, event):
        self.requests_total += 1
        self.pending.append(event)
        return []

    def drain(self):
        out, self.pending = self.pending, []
        self.clock.now += 0.5
        return out


def test_stalled_submit_charges_its_wait_to_the_events_behind_it():
    clock = FakeClock()
    engine = FakeEngine(clock, stalls={1: 0.35})  # event 1 takes 350 ms
    due = [0.1, 0.2, 0.3, 0.4, 0.5]
    res = drive_open_loop(engine, list("abcde"), due, clock=clock, sleep=clock.sleep)
    assert [ev for ev in res.scored] == list("abcde")
    # Event 1 itself waited 350 ms; events 2, 3 and 4 fell due while it
    # stalled, so they are offered late and their latency counts from
    # their due time, not from when they were finally submitted.
    assert res.latency_s == pytest.approx([0.0, 0.35, 0.25, 0.15, 0.05])
    assert res.lag_s == pytest.approx([0.0, 0.0, 0.25, 0.15, 0.05])


def test_scores_are_paired_with_accepted_arrivals_in_order():
    clock = FakeClock()
    engine = BatchingEngine(clock)
    due = [0.1, 0.2, 0.3]
    res = drive_open_loop(engine, ["x", "y", "z"], due, clock=clock, sleep=clock.sleep)
    # All three come back at drain: 0.3 s after the last due time plus
    # the 0.5 s the drain took.
    assert res.latency_s == pytest.approx([0.7, 0.6, 0.5])


def test_rejected_arrivals_get_no_latency_sample():
    clock = FakeClock()
    engine = FakeEngine(clock, stalls={0: 0.2}, rejected={"b"})
    res = drive_open_loop(engine, ["a", "b", "c"], [0.0, 0.05, 0.1], clock=clock, sleep=clock.sleep)
    assert res.scored == ["a", "c"]
    assert res.latency_s == pytest.approx([0.2, 0.1])


def test_poisson_schedule_is_seeded_and_increasing():
    a = poisson_schedule(1000, 2000.0, seed=3)
    b = poisson_schedule(1000, 2000.0, seed=3)
    assert (a == b).all()
    assert (a[1:] > a[:-1]).all()
    assert a[-1] == pytest.approx(0.5, rel=0.15)
    assert not (a == poisson_schedule(1000, 2000.0, seed=4)).all()
