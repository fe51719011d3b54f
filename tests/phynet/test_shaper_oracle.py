"""Differential test: the live ``VMShaper`` against the seed implementation.

``tests/oracles/seed_shaper.py`` is the pre-rewrite shaper, verbatim: it
rescans every backlogged destination with three probes on every submit,
re-arm and fire.  The live shaper hoists, skips and early-exits;
all of that is claimed *exact*, so both are driven in lockstep with the
same random script and must release the same packets at bit-equal times.

One documented divergence (docs/ARCHITECTURE.md, "Shaper scheduling
contract"): a submit *behind* a head packet under an armed timer makes
the seed rescan at a later ``now``, and a partly filled bucket can then
answer one ulp below the armed time, so the seed arms a spurious second
wake-up.  The live shaper never rescans there.  The driver detects the
seed doing it, checks the undercut is rounding-sized, and ends the script
at that step: everything released up to then must still be bit-equal.
"""

import os

from hypothesis import example, given, settings, strategies as st

from repro import units
from repro.core import EventEngine
from repro.pacer.hierarchy import PacerConfig
from repro.phynet.shaper import _TIME_EPS, VMShaper

from seed_shaper import VMShaper as SeedShaper

EXAMPLES = int(os.environ.get("SHAPER_EXAMPLES", "300"))

#: Head sizes: full segments (twice as likely) and short last segments.
SIZES = (units.MTU, units.MTU, 700.0, 64.0)
RATES = (units.mbps(50), units.mbps(400), units.gbps(1), units.gbps(3))


class Packet:
    """Immutable to the shapers, so both are handed the same object."""

    __slots__ = ("dst", "size")

    def __init__(self, dst, size):
        self.dst = dst
        self.size = size


class Harness:
    """One engine + shaper, recording ``(packet, release time)``."""

    def __init__(self, shaper_class, config):
        self.sim = EventEngine()
        self.released = []
        self.shaper = shaper_class(
            self.sim, config,
            release=lambda p: self.released.append((p, self.sim.now)))


def seed_rearmed_spuriously(seed, packet):
    """Submit to the seed shaper; report the one-ulp re-arm if it happened."""
    armed = seed._armed_at
    behind_head = bool(seed._queues.get(packet.dst))
    seed.submit(packet)
    if not behind_head or armed is None or seed._armed_at == armed:
        return False
    # Nothing the schedule depends on changed, so this is float rounding
    # (one ulp of the time, or of ``size - tokens`` over the rate when the
    # head is nearly eligible): far inside the shaper's own float slack.
    assert 0 < armed - seed._armed_at < _TIME_EPS
    return True


def drive(live, seed, n_dest, script):
    """Apply ``script`` to both harnesses in lockstep.

    Returns ``False`` if it stopped early, at the step where the seed
    took its spurious re-arm; ``True`` if the script ran to its end.
    """
    for step in script:
        if step[0] == "burst":
            _, dst, count, size = step
            for _ in range(count):
                packet = Packet(dst % n_dest, size)
                live.shaper.submit(packet)
                if seed_rearmed_spuriously(seed.shaper, packet):
                    return False
        elif step[0] == "gap":
            for harness in (live, seed):
                harness.sim.run(until=harness.sim.now + step[1])
        else:
            _, dst, rate = step
            for harness in (live, seed):
                harness.shaper.set_destination_rate(dst % n_dest, rate)
    return True


steps = st.one_of(
    # a burst of packets to one destination, all at the current instant
    st.tuples(st.just("burst"), st.integers(0, 11), st.integers(1, 8),
              st.sampled_from(SIZES)),
    # an idle gap; short ones land between wake-ups, long ones drain
    st.tuples(st.just("gap"), st.sampled_from(
        (0.3e-6, 1.7e-6, 12.5e-6, 90e-6, 1.1e-3, 25e-3))),
    st.tuples(st.just("rate"), st.integers(0, 11), st.sampled_from(RATES)),
)


#: The ``packet-paced`` regime: ten destinations at one equal hose rate,
#: all backlogged, so the shared tenant/peak time decides most releases.
EQUAL_HOSE_SCRIPT = (
    [("rate", d, units.mbps(100)) for d in range(10)]
    + [("burst", d, 8, units.MTU) for d in range(10)]
    + [("gap", 90e-6)]
    + [("burst", d, 2, size) for d in range(10) for size in SIZES[1:]]
    + [("gap", 12.5e-6), ("rate", 3, units.mbps(400)), ("gap", 1.1e-3)])


@settings(max_examples=EXAMPLES, deadline=None)
# Destination 1's head is indexed one ulp *below* destination 0's
# (0.000127699999 vs 0.00012769999900000002), the reverse of their rank
# order; both become eligible at the shared tenant time, and the
# first-registered destination 0 must still win.
@example(n_dest=2, bandwidth=units.gbps(3), burst=6 * units.KB,
         peak_factor=1.0,
         script=[("gap", 0.3e-6)] * 4 + [
             ("gap", 12.5e-6), ("gap", 90e-6), ("rate", 0, units.gbps(1)),
             ("burst", 0, 1, units.MTU), ("burst", 0, 1, units.MTU),
             ("burst", 0, 4, units.MTU), ("burst", 1, 3, units.MTU),
             ("gap", 12.5e-6), ("gap", 12.5e-6)])
@example(n_dest=10, bandwidth=units.gbps(1), burst=6 * units.KB,
         peak_factor=2.5, script=EQUAL_HOSE_SCRIPT)
# Destination 1's second head is indexed at 0.3 us under its bucket's
# answer 1.8666666666666669e-06; at the wake-up the bucket answers one ulp
# earlier, tying destination 0 at the shared time.  Without the
# ``_TIME_EPS`` margin on the bound the scan would stop before
# destination 1 and hand the slot to destination 0.
@example(n_dest=2, bandwidth=units.gbps(3), burst=1.5 * units.KB,
         peak_factor=1.0,
         script=[("rate", 0, units.mbps(50)), ("burst", 1, 1, 700.0),
                 ("burst", 0, 4, units.MTU), ("gap", 0.3e-6),
                 ("burst", 1, 1, units.MTU)])
@given(n_dest=st.integers(1, 12),
       bandwidth=st.sampled_from(RATES[1:]),
       burst=st.sampled_from((1.5 * units.KB, 6 * units.KB, 30 * units.KB)),
       peak_factor=st.sampled_from((1.0, 2.5, 10.0)),
       script=st.lists(steps, min_size=12, max_size=60))
def test_release_sequence_bit_equal_to_seed(n_dest, bandwidth, burst,
                                            peak_factor, script):
    config = PacerConfig(bandwidth=bandwidth, burst=burst,
                         peak_rate=bandwidth * peak_factor)
    live, seed = Harness(VMShaper, config), Harness(SeedShaper, config)
    if drive(live, seed, n_dest, script):
        for harness in (live, seed):
            harness.sim.run(until=harness.sim.now + 1.0)
        assert live.shaper.backlog == seed.shaper.backlog
    assert live.released == seed.released


def test_equal_eligibility_goes_to_first_registered_destination():
    """The dict-order tie-break every golden digest depends on.

    Two destinations with identical buckets and identical heads are
    eligible at the same instant.  Each destination bucket matches the
    tenant bucket (same rate and burst), so the first destination stays
    tied with the untouched second one after every release: the strict
    ``<`` must keep handing the slot to the destination whose queue was
    created first, whatever its key, until that queue is empty.
    """
    for first, second in (("z", "a"), (7, 3)):
        live = Harness(VMShaper, PacerConfig(
            bandwidth=units.gbps(1), burst=3 * units.MTU,
            peak_rate=units.gbps(1)))
        for i in range(6):
            live.shaper.submit(Packet((first, second)[i % 2], units.MTU))
        live.sim.run(until=1.0)
        assert [p.dst for p, _ in live.released] == ([first] * 3
                                                     + [second] * 3)
