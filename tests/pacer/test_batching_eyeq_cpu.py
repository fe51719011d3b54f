"""Paced IO batching, hose coordination and the CPU model."""

import math

import pytest

from repro import units
from repro.pacer.batching import PacedBatcher
from repro.pacer.cpu_model import PacerCpuModel
from repro.pacer.eyeq import allocate_hose_rates
from repro.pacer.void_packets import VoidScheduler


class TestPacedBatcher:
    def test_batches_bounded_by_window(self):
        link = units.gbps(10)
        batcher = PacedBatcher(link, batch_window=50 * units.MICROS)
        interval = 1520 / units.gbps(2)
        packets = [(i * interval, units.MTU) for i in range(200)]
        batches = batcher.build(packets)
        assert len(batches) > 1
        for batch in batches:
            assert batch.duration <= 50 * units.MICROS + 1e-9

    def test_batches_do_not_overlap(self):
        batcher = PacedBatcher(units.gbps(10))
        interval = 1520 / units.gbps(2)
        packets = [(i * interval, units.MTU) for i in range(200)]
        batches = batcher.build(packets)
        for first, second in zip(batches, batches[1:]):
            assert second.start_time >= first.end_time - 1e-12

    def test_all_data_packets_survive_carving(self):
        batcher = PacedBatcher(units.gbps(10))
        interval = 1520 / units.gbps(1)
        packets = [(i * interval, units.MTU) for i in range(100)]
        batches = batcher.build(packets)
        assert sum(b.data_packets for b in batches) == 100

    def test_window_validation(self):
        with pytest.raises(ValueError):
            PacedBatcher(units.gbps(10), batch_window=0.0)


class TestHoseAllocation:
    def test_all_to_one_splits_receiver_hose(self):
        demands = {(s, "r"): math.inf for s in range(4)}
        hoses = {"r": 100.0, 0: 100.0, 1: 100.0, 2: 100.0, 3: 100.0}
        rates = allocate_hose_rates(demands, hoses)
        for s in range(4):
            assert rates[(s, "r")] == pytest.approx(25.0)

    def test_sender_hose_limits_fanout(self):
        demands = {("s", d): math.inf for d in range(5)}
        hoses = {"s": 100.0, **{d: 100.0 for d in range(5)}}
        rates = allocate_hose_rates(demands, hoses)
        assert sum(rates.values()) == pytest.approx(100.0)

    def test_finite_demands_respected(self):
        demands = {("a", "b"): 10.0, ("a", "c"): math.inf}
        hoses = {"a": 100.0, "b": 100.0, "c": 100.0}
        rates = allocate_hose_rates(demands, hoses)
        assert rates[("a", "b")] == pytest.approx(10.0)
        assert rates[("a", "c")] == pytest.approx(90.0)

    def test_unknown_vm_raises(self):
        with pytest.raises(KeyError):
            allocate_hose_rates({("x", "y"): 1.0}, {"x": 1.0})

    def test_negative_demand_raises(self):
        hoses = {"a": 100.0, "b": 100.0}
        with pytest.raises(ValueError, match="demand"):
            allocate_hose_rates({("a", "b"): -1.0}, hoses)

    def test_negative_send_guarantee_raises(self):
        with pytest.raises(ValueError, match="send guarantee"):
            allocate_hose_rates({("a", "b"): 1.0},
                                {"a": -100.0, "b": 100.0})

    def test_negative_recv_guarantee_raises(self):
        with pytest.raises(ValueError, match="receive guarantee"):
            allocate_hose_rates({("a", "b"): 1.0},
                                {"a": 100.0, "b": -100.0})


class TestCpuModel:
    def test_cost_monotone_in_packet_rate(self):
        model = PacerCpuModel()
        assert model.cores(1e6, 0.0) > model.cores(5e5, 0.0)
        assert model.cores(1e6, 1e6) > model.cores(1e6, 0.0)

    def test_void_frames_cost_less_than_data(self):
        model = PacerCpuModel()
        assert model.cores(0.0, 8e5) < model.cores(8e5, 0.0)

    def test_sample_peaks_before_line_rate(self):
        """Fig 10a's shape: total packet rate (and so CPU) peaks around
        9 Gbps where voids are smallest and most numerous."""
        model = PacerCpuModel()
        link = units.gbps(10)
        nine = model.sample_rate_limit(units.gbps(9), link)
        five = model.sample_rate_limit(units.gbps(5), link)
        ten = model.sample_rate_limit(link, link)
        assert nine.cores > five.cores
        assert nine.cores > ten.cores
        assert nine.total_pps > ten.total_pps

    def test_sample_rates_track_limit(self):
        model = PacerCpuModel()
        link = units.gbps(10)
        sample = model.sample_rate_limit(units.gbps(4), link)
        # data_rate is a wire rate (frame overhead included).
        assert sample.data_rate == pytest.approx(units.gbps(4), rel=0.02)

    def test_validation(self):
        model = PacerCpuModel()
        with pytest.raises(ValueError):
            model.cores(-1.0, 0.0)
        with pytest.raises(ValueError):
            model.sample_rate_limit(units.gbps(11), units.gbps(10))
