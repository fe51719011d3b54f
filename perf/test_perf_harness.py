"""Tests of the benchmark harness itself (``pytest perf/``).

They check the instrument, not the program: self-time accounting, that
every patch is undone, that the open-loop driver charges a stall to the
requests it delayed, and that the shrunk ``--quick`` run emits exactly
the metrics ``BENCHMARK.json`` lists.
"""

import json
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from perf import layers, speed
from perf.trace import Tracer
from perf.workloads import OpenLoopDriver, percentile

ROOT = Path(__file__).resolve().parents[1]


class FakeClock:
    """A clock that only moves when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# -- self-time accounting ----------------------------------------------------

def test_self_times_sum_to_root_and_parents_are_recorded():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.advance(2.0)

    leaf = tracer.wrap(leaf, "b.leaf", span=True)

    def hot():
        clock.advance(0.5)

    hot = tracer.wrap(hot, "b.hot")

    def middle():
        clock.advance(1.0)
        leaf()
        hot()
        leaf()

    middle = tracer.wrap(middle, "a.middle", span=True)

    def root():
        clock.advance(3.0)
        middle()
        hot()

    tracer.wrap(root, "r.root", span=True)()

    assert clock.now == 9.0
    total_self = sum(cell[2] for cell in tracer.aggregates.values())
    assert total_self == pytest.approx(9.0)
    assert tracer.aggregates["r.root"] == [1, 9.0, 3.0]
    assert tracer.aggregates["a.middle"] == [1, 5.5, 1.0]
    assert tracer.aggregates["b.leaf"] == [2, 4.0, 4.0]
    assert tracer.layer_self("b") == pytest.approx(5.0)
    by_key = {}
    for span_id, parent, _trace, key, _start, _end in tracer.spans:
        by_key.setdefault(key, []).append((span_id, parent))
    (root_id, root_parent), = by_key["r.root"]
    (middle_id, middle_parent), = by_key["a.middle"]
    assert root_parent is None and middle_parent == root_id
    # The hot frame between the leaves keeps no span and is skipped.
    assert [parent for _id, parent in by_key["b.leaf"]] == [middle_id] * 2
    assert "b.hot" not in by_key


def test_exception_inside_a_wrapped_call_still_closes_the_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def broken():
        clock.advance(1.0)
        raise ValueError("boom")

    broken = tracer.wrap(broken, "x.broken", span=True)

    def outer():
        clock.advance(1.0)
        with pytest.raises(ValueError):
            broken()
        clock.advance(1.0)

    tracer.wrap(outer, "x.outer", span=True)()
    assert tracer.aggregates["x.broken"] == [1, 1.0, 1.0]
    assert tracer.aggregates["x.outer"] == [1, 3.0, 2.0]
    assert len(tracer.spans) == 2 and not tracer._stack


# -- patching ----------------------------------------------------------------

def test_patches_are_fully_restored():
    import repro.maxmin
    import repro.pacer.eyeq
    from repro.core.engine import EventEngine
    from repro.placement.state import PortState
    originals = (EventEngine.schedule, EventEngine.run, PortState.admits,
                 repro.maxmin.max_min_fair)
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert EventEngine.schedule is not originals[0]
        # By-name imports of a module global are patched where they live.
        assert repro.pacer.eyeq.max_min_fair is repro.maxmin.max_min_fair
        assert repro.maxmin.max_min_fair is not originals[3]
    finally:
        tracer.restore()
    assert (EventEngine.schedule, EventEngine.run, PortState.admits,
            repro.maxmin.max_min_fair) == originals
    assert repro.pacer.eyeq.max_min_fair is originals[3]


def test_engine_callbacks_are_attributed_to_their_owner_and_cancel_works():
    from repro.core.engine import EventEngine
    from repro.pacer.token_bucket import TokenBucket
    tracer = Tracer()
    layers.install(tracer)
    try:
        engine = EventEngine()
        bucket = TokenBucket(rate=1e6, capacity=1500.0)
        fired = []
        engine.schedule(1.0, bucket.stamp, 100.0, 1.0)
        engine.schedule(2.0, fired.append, "plain")
        engine.cancel(engine.schedule(3.0, fired.append, "cancelled"))
        engine.run()
    finally:
        tracer.restore()
    assert fired == ["plain"]
    assert tracer.counters["engine.scheduled"] == 3
    assert tracer.counters["engine.cancelled"] == 1
    assert tracer.calls("pacer.token_bucket.callback") == 1
    # The callback's own wrapped call nests under it.
    assert tracer.calls("pacer.token_bucket.stamp") == 1
    assert tracer.aggregates["core.engine.run"][0] == 1


# -- speed sampling ----------------------------------------------------------

def test_reference_seconds_scale_with_the_sampled_speed():
    nominal = speed.KERNEL_NOMINAL_S
    # A machine running the kernel twice as slowly did half the work in
    # the 2 s the kernel left to the timed call.
    slow = [2 * nominal] * 3
    assert speed.reference_seconds(2.0 + sum(slow), slow) \
        == pytest.approx(1.0)
    # Mean *speed*: half the time at full speed, half at a third of it.
    mixed = [nominal, 3 * nominal]
    assert speed.reference_seconds(3.0 + sum(mixed), mixed) \
        == pytest.approx(2.0)


def test_speed_sampler_samples_the_block_and_cleans_up():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedSampler() as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 3.5 * speed.INTERVAL_S:
            pass
        wall = time.perf_counter() - start
    assert len(sampler.samples) >= 2
    assert 0.0 < sum(sampler.samples) < wall
    assert sampler.reference_seconds(wall) > 0.0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- open-loop driver --------------------------------------------------------

class StubService:
    """Decides everything queued on each tick; stalls once."""

    def __init__(self, clock, stall_at, stall):
        self.clock, self.stall_at, self.stall = clock, stall_at, stall
        self.queue = []
        self.on_decision = None

    def submit_admission(self, request, now):
        self.queue.append(request)
        return "queued", None

    def submit_departure(self, tenant_id, now):
        pass

    def submit_fault(self, event, now=None):
        pass

    def tick(self, now):
        if self.stall and now >= self.stall_at:
            self.clock.advance(self.stall)
            self.stall = 0.0
        self.clock.advance(0.0005)
        queued, self.queue = self.queue, []
        for request in queued:
            self.on_decision(SimpleNamespace(payload=request), "admitted",
                             now)


def test_open_loop_charges_a_stall_to_the_requests_it_delayed():
    clock = FakeClock()
    service = StubService(clock, stall_at=0.5, stall=0.1)
    arrivals = [(0.01 * (i + 1), SimpleNamespace(tenant_id=i + 1), 10.0)
                for i in range(99)]
    driver = OpenLoopDriver(service, arrivals, [], duration=1.0,
                            clock=clock, sleep=clock.advance)
    result = driver.run()
    assert result["offered"] == 99
    assert result["outcomes"]["admitted"] == 99
    assert result["outcomes"]["undecided"] == 0
    # Requests that fell due during the 100 ms stall waited for it: a
    # closed loop (send, wait, send) would have hidden all but one.
    assert max(driver.latencies) >= 0.1
    assert sum(1 for latency in driver.latencies if latency > 0.01) >= 9
    assert percentile(driver.latencies, 50.0) < 0.005
    # ... and the generator reports that it submitted them late.
    assert percentile(driver.submit_lateness, 99.0) > 0.05
    assert max(driver.tick_durations) >= 0.1


# -- the whole command, shrunk -----------------------------------------------

def test_quick_run_emits_exactly_the_benchmark_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        for workload in spec["workloads"]:
            done = subprocess.run(
                [sys.executable, str(ROOT / "perf" / "run.py"), "--quick",
                 "--workload", workload["name"], "--seed", "7",
                 "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}
            assert result["correct"] and result["attempted"] >= 1
            assert ({name: m["unit"] for name, m in
                     result["metrics"].items()}
                    == {m["name"]: m["unit"] for m in spec[section]})
    assert not (ROOT / ".perf_work").exists()
