"""The shared event core is a drop-in for the seed phynet loop.

Two guarantees, checked two ways.  A hypothesis property drives
interleaved schedule / schedule-at / cancel / partial-run sequences
through :class:`repro.core.engine.EventEngine` and the seed loop
``tests/oracles/seed_engine.py`` ``Simulator`` and asserts the observable
execution order, clock, and queue depth are identical (the reference
has no cancellation, so cancelled callbacks are emulated there as
logged no-ops).  And a golden-digest pin re-runs the ``fig16-micro``
and ``mechanism-compare-micro`` campaigns -- whose outputs were
captured on the pre-port seed loops immediately before the shared-core
refactor -- with the eager seed port ``tests/oracles/seed_port.py`` in
place of the lazy one, and asserts the bytes did not move.  The lazy
port's own digests are pinned beside them.
"""

import hashlib
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import get_sweep, run_campaign
from repro.core.engine import EventEngine

from seed_engine import Simulator
from seed_port import OutputPort as SeedPort

# A small set of exactly-representable delays so simultaneous events
# (the tie-breaking contract) are common, not a fluke.
DELAYS = (0.0, 0.25, 0.5, 1.0, 2.0)

OPS = st.one_of(
    st.tuples(st.just("schedule"), st.sampled_from(DELAYS)),
    st.tuples(st.just("schedule_at"), st.sampled_from(DELAYS)),
    st.tuples(st.just("chain"), st.sampled_from(DELAYS),
              st.sampled_from(DELAYS)),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    st.tuples(st.just("run"), st.sampled_from(DELAYS)),
)


class Harness:
    """Apply one op sequence to either engine, logging executions.

    The reference engine returns no handle from ``schedule``; its
    cancellations are emulated by a tag set the callback consults.  The
    real engine additionally goes through :meth:`EventEngine.cancel`,
    so the property also proves cancelled entries are skipped, not
    merely silenced.
    """

    def __init__(self, engine):
        self.engine = engine
        self.log = []
        self.handles = []
        self.cancelled = set()
        self._tags = itertools.count()

    def _fire(self, tag):
        if tag in self.cancelled:
            return
        self.log.append((tag, self.engine.now))

    def _chain(self, tag, child_delay):
        if tag in self.cancelled:
            return  # a truly-cancelled chain never spawns its child
        self._fire(tag)
        self.engine.schedule(child_delay, self._fire, ("child", tag))

    def apply(self, ops):
        for op in ops:
            kind = op[0]
            if kind == "schedule":
                tag = next(self._tags)
                self.handles.append(
                    (tag, self.engine.schedule(op[1], self._fire, tag)))
            elif kind == "schedule_at":
                tag = next(self._tags)
                self.handles.append(
                    (tag, self.engine.schedule_at(
                        self.engine.now + op[1], self._fire, tag)))
            elif kind == "chain":
                tag = next(self._tags)
                self.handles.append(
                    (tag, self.engine.schedule(op[1], self._chain, tag,
                                               op[2])))
            elif kind == "cancel":
                if self.handles:
                    tag, handle = self.handles[op[1] % len(self.handles)]
                    self.cancelled.add(tag)
                    if handle is not None:
                        self.engine.cancel(handle)
            elif kind == "run":
                self.engine.run(until=self.engine.now + op[1])


class TestEngineEquivalence:
    """EventEngine and the retained seed loop are observably identical."""

    @given(ops=st.lists(OPS, max_size=48))
    @settings(max_examples=200, deadline=None)
    def test_interleaved_ops_match_reference(self, ops):
        # The final drain uses an explicit horizon: skipped cancelled
        # entries do not advance the real engine's clock, while the
        # reference fires them as no-ops, so only the clamped-to-until
        # clock is comparable (every intermediate "run" op is clamped
        # the same way).
        reference = Harness(Simulator())
        engine = Harness(EventEngine())
        for harness in (reference, engine):
            harness.apply(ops)
            harness.engine.run(until=1000.0)
        assert engine.log == reference.log
        assert engine.engine.now == reference.engine.now == 1000.0
        assert engine.engine.pending_events == 0
        assert reference.engine.pending_events == 0

    def test_cancel_is_idempotent_and_skips_execution(self):
        engine = EventEngine()
        fired = []
        handle = engine.schedule(1.0, fired.append, "cancelled")
        engine.schedule(1.0, fired.append, "kept")
        engine.cancel(handle)
        engine.cancel(handle)
        assert engine.pending_events == 2  # nulled entry stays queued
        engine.run()
        assert fired == ["kept"]
        assert engine.pending_events == 0

    def test_run_until_advances_clock_past_last_event(self):
        engine = EventEngine()
        engine.schedule(1.0, lambda: None)
        assert engine.run(until=5.0) == 5.0
        assert engine.now == 5.0


class EagerPort(SeedPort):
    """The seed port behind the network's port surface: it decides every
    departure at its own tx-done event, so it has nothing to settle."""

    def settle(self):
        pass


class TestGoldenCampaignPins:
    """The engine port left committed campaign bytes untouched.

    The digests were captured by running both micro sweeps on the
    pre-port seed loops; re-running them on the shared core with the
    eager seed port must reproduce the same merged.json and
    manifest.json byte for byte.  (The mechanism-compare-micro
    merged.json pins were re-taken when every cell gained its
    per-tenant block, after the new bytes without that block hashed to
    the old pins.)  The shipped lazy port breaks
    same-instant ties its own way (``phynet/port.py``), so it is pinned
    to digests of its own.
    """

    GOLDEN = json.loads(
        (Path(__file__).resolve().parent.parent / "campaign"
         / "golden_engine_port.json").read_text(encoding="utf-8"))

    @staticmethod
    def assert_pinned(name, out, pins):
        run_campaign(get_sweep(name), out=out)
        for filename, expected in pins.items():
            digest = hashlib.sha256(
                (out / filename).read_bytes()).hexdigest()
            assert digest == expected, (
                f"{name}/{filename} drifted from the pinned bytes")

    @pytest.mark.parametrize("name", ["fig16-micro",
                                      "mechanism-compare-micro"])
    def test_campaign_bytes_pinned(self, name, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.phynet.network.OutputPort", EagerPort)
        self.assert_pinned(name, tmp_path / name, self.GOLDEN[name])

    def test_lazy_port_bytes_pinned(self, tmp_path):
        name = "mechanism-compare-micro"
        self.assert_pinned(name, tmp_path / name,
                           self.GOLDEN["lazy_port"][name])
