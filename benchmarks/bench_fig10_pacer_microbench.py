"""Fig. 10: pacer microbenchmarks -- CPU usage and throughput vs rate limit.

(a) CPU cores consumed by the pacer as the rate limit sweeps 1-10 Gbps.
    The testbed measurement is substituted by the calibrated analytic
    model over the *real* void-packet schedule (see DESIGN.md); the
    reproduced claim is the shape: CPU tracks total frame rate, peaking
    at 9 Gbps where void fillers are smallest and most numerous, and
    pacing at full line rate costs only a fraction of a core over the
    no-pacing baseline.

(b) Wire throughput split into data and void bytes: the pacer sustains
    the full 10 Gbps wire at every limit, with the data rate within ~2%
    of ideal except at 9 Gbps (the paper's one deviant point, where the
    required 167-byte gap quantizes poorly).
"""

from repro import units
from repro.pacer.cpu_model import PacerCpuModel

from conftest import print_table

LINK = units.gbps(10)
RATE_LIMITS = [units.gbps(g) for g in range(1, 11)]


def compute():
    model = PacerCpuModel()
    samples = [model.sample_rate_limit(limit, LINK)
               for limit in RATE_LIMITS]
    baseline = model.baseline_no_pacing(LINK)
    return samples, baseline


def test_fig10_pacer_microbenchmarks():
    samples, baseline = compute()

    rows = []
    for sample in samples:
        rows.append([
            f"{units.to_gbps(sample.rate_limit):.0f}",
            f"{sample.cores:.2f}",
            f"{sample.total_pps / 1e6:.2f}",
            f"{units.to_gbps(sample.data_rate):.2f}",
            f"{units.to_gbps(sample.void_rate):.2f}",
            f"{units.to_gbps(sample.data_rate + sample.void_rate):.2f}",
        ])
    print_table(
        "Fig. 10: pacer CPU and throughput vs rate limit "
        f"(no-pacing baseline: {baseline:.2f} cores)",
        ["Gbps limit", "cores", "Mpps", "data Gbps", "void Gbps",
         "wire Gbps"], rows)

    by_limit = {round(units.to_gbps(s.rate_limit)): s for s in samples}
    # (a) CPU peaks at 9 Gbps, not at line rate.
    peak = max(samples, key=lambda s: s.cores)
    assert round(units.to_gbps(peak.rate_limit)) == 9
    # Pacing at line rate adds well under a core over no pacing.
    assert by_limit[10].cores - baseline < 0.5
    # The 9 Gbps peak towers over the low-rate regime (void quantization
    # makes the curve locally bumpy, as real gap arithmetic must), and
    # line rate -- no voids at all -- is cheap again.
    cores = [s.cores for s in samples]
    assert cores[8] > 1.5 * cores[0]
    assert cores[9] < cores[8]
    # (b) The wire is saturated whenever there is data to pace...
    for sample in samples:
        assert sample.data_rate + sample.void_rate >= 0.98 * LINK
    # ...and the data rate is within 2% of the ideal at every limit
    # (9 Gbps included: one 168-byte void covers the required gap).
    for sample in samples:
        assert sample.data_rate >= 0.98 * sample.rate_limit
