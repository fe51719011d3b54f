"""The service under the seeded closed-loop load generator, end to end:
a mid-run kill restarts to bit-identical books, and a 2x overload is
bounced at the queue bound instead of growing the queue."""

from repro.campaign.scenarios import SERVICE_SOAK_FAULTS, service_soak_cell
from repro.service import ClosedLoopLoadGen

from tests.service.test_service import build_service


def test_soak_killed_mid_run_restarts_to_identical_books(tmp_path):
    """The registered ``service_soak`` cell at its overload rate: dropped
    without a shutdown path at tick 23 under a server-fault storm,
    recovered from WAL + snapshot, resumed to completion."""
    result = service_soak_cell(arrival_rate=40.0, horizon=2.0,
                               faults=SERVICE_SOAK_FAULTS, kill_tick=23,
                               seed=1, queue_capacity=16,
                               artifact_dir=str(tmp_path))
    assert result["recovery_identical"], result
    assert result["replayed"] > 0, result
    # The kill landed mid-run: the restarted service still had tenants to
    # admit and faults to absorb (all zero when the run drains first).
    assert result["admitted"] > 0 and result["faults"] > 0, result
    assert result["max_admit_depth"] <= result["queue_capacity"], result


def test_bounded_queue_under_twice_its_drain_rate(tmp_path):
    """120 arrivals/s, re-offered when bounced, against a capacity-8
    queue drained 4 per 50 ms tick (80/s): the surplus is bounced, the
    admit depth never passes the bound, and the service keeps admitting."""
    service = build_service(tmp_path, queue_capacity=8, batch_size=4)
    summary = ClosedLoopLoadGen(service, arrival_rate=120.0, horizon=1.5,
                                seed=3).run()
    service.close()
    metrics = summary["metrics"]
    assert metrics["rejected_backpressure"] > 0, metrics
    assert metrics["max_admit_depth"] <= 8, metrics
    assert metrics["admitted"] > 0, metrics
