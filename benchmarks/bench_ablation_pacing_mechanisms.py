"""Ablation: void-packet pacing vs timer-based software pacing.

The paper motivates void packets by the failure modes of the
alternatives: timer-driven software pacers quantize departures to the
timer resolution (tens of microseconds under a general-purpose OS), and
naive batching releases whole batches back-to-back.  This bench paces
the same stamped 2 Gbps stream three ways and compares per-packet
pacing error and the worst back-to-back run length the first-hop switch
sees.
"""

from repro import units
from repro.pacer.hierarchy import PacerConfig, VMPacer
from repro.pacer.timer_pacer import TimerPacer
from repro.pacer.void_packets import VoidScheduler

from conftest import print_table

LINK = units.gbps(10)
RATE = units.gbps(2)
N_PACKETS = 2000

#: Timer resolutions representing a kernel hrtimer and a coarse software
#: timer (the paper cites inaccurate, unscalable software pacers).
TIMER_RESOLUTIONS = [5 * units.MICROS, 50 * units.MICROS]


def stamped_stream():
    pacer = VMPacer(PacerConfig(bandwidth=RATE, burst=units.MTU,
                                peak_rate=RATE))
    return [(pacer.stamp("d", units.MTU, 0.0), units.MTU)
            for _ in range(N_PACKETS)]


def _void_run_length(schedule):
    """Longest line-rate run in the void scheduler's data slots."""
    wire_gap = (units.MTU + 20) / LINK
    starts = [s.start_time for s in schedule.data_slots]
    longest, current = 1, 1
    for a, b in zip(starts, starts[1:]):
        if b - a <= wire_gap * 1.01:
            current += 1
            longest = max(longest, current)
        else:
            current = 1
    return longest


def compute():
    stamps = stamped_stream()
    rows = []
    stats = {}

    schedule = VoidScheduler(LINK).schedule(stamps)
    errors = [abs(s.pacing_error) for s in schedule.data_slots]
    stats["void"] = (max(errors), _void_run_length(schedule))
    rows.append(["void packets", f"{max(errors) * 1e9:.0f}",
                 f"{_void_run_length(schedule)}"])

    for resolution in TIMER_RESOLUTIONS:
        pacer = TimerPacer(LINK, resolution)
        label = f"timer @ {resolution * 1e6:.0f}us"
        stats[label] = (pacer.worst_error(stamps),
                        pacer.burst_run_length(stamps))
        rows.append([label, f"{stats[label][0] * 1e9:.0f}",
                     f"{stats[label][1]}"])
    return rows, stats


def test_ablation_pacing_mechanisms():
    rows, stats = compute()
    print_table(
        "Ablation: pacing mechanism accuracy at a 2 Gbps limit on 10 GbE",
        ["mechanism", "worst error (ns)", "worst back-to-back run"], rows)

    void_err, void_run = stats["void"]
    # Void packets pace within one minimum frame (~67 ns)...
    assert void_err <= units.MIN_WIRE_FRAME / LINK + 1e-12
    # ...and never emit line-rate bursts.
    assert void_run <= 1
    # Both timers are orders of magnitude coarser and produce bursts the
    # switch must buffer.
    for resolution in TIMER_RESOLUTIONS:
        err, run = stats[f"timer @ {resolution * 1e6:.0f}us"]
        assert err > 10 * void_err if void_err > 0 else err > 1e-6
        if resolution >= 50 * units.MICROS:
            assert run >= 2