"""Statistics helpers used by the benchmark tables."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import cdf_points, mean, percentile, summarize
from repro.phynet.metrics import MessageRecord, MetricsCollector


class TestPercentile:
    def test_nearest_rank(self):
        data = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        assert percentile(data, 50) == 5
        assert percentile(data, 90) == 9
        assert percentile(data, 99) == 10
        assert percentile(data, 0) == 1
        assert percentile(data, 100) == 10

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_bad_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], 120)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                    min_size=1, max_size=50),
           st.floats(min_value=0, max_value=100))
    def test_result_is_an_element(self, data, q):
        assert percentile(data, q) in data

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                    min_size=1, max_size=50),
           st.floats(min_value=0, max_value=100),
           st.floats(min_value=0, max_value=100))
    def test_monotone_in_q(self, data, q1, q2):
        lo, hi = sorted((q1, q2))
        assert percentile(data, lo) <= percentile(data, hi)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                    min_size=1, max_size=50),
           st.floats(min_value=0, max_value=100))
    def test_within_data_range(self, data, q):
        assert min(data) <= percentile(data, q) <= max(data)


class TestCdf:
    def test_points(self):
        points = cdf_points([3.0, 1.0, 2.0])
        assert points == [(1.0, pytest.approx(1 / 3)),
                          (2.0, pytest.approx(2 / 3)),
                          (3.0, pytest.approx(1.0))]

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                    min_size=1, max_size=50))
    def test_final_fraction_is_one(self, data):
        points = cdf_points(data)
        assert points[-1][1] == pytest.approx(1.0)
        fractions = [fraction for _, fraction in points]
        assert fractions == sorted(fractions)


class TestSummary:
    def test_summarize(self):
        summary = summarize(range(1, 101))
        assert summary.count == 100
        assert summary.median == 50
        assert summary.p99 == 99
        assert summary.maximum == 100

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                    min_size=1, max_size=50))
    def test_summarize_consistent_with_percentile(self, data):
        summary = summarize(data)
        assert summary.median == percentile(data, 50)
        assert summary.p99 == percentile(data, 99)
        assert summary.maximum == max(data)
        assert summary.count == len(data)

    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        with pytest.raises(ValueError):
            mean([])


class TestMetricsCollector:
    def make_collector(self):
        collector = MetricsCollector()
        for i, latency in enumerate([0.001, 0.002, 0.003, 0.1]):
            record = collector.new_message(1, 0, 1, 1000.0, 0.0)
            record.finish = latency
            record.rto_events = 1 if latency > 0.05 else 0
        incomplete = collector.new_message(1, 0, 1, 1000.0, 0.0)
        return collector

    def test_fraction_late_counts_incomplete(self):
        collector = self.make_collector()
        # bound 0.05: one completed late + one never completed = 2 of 5.
        assert collector.fraction_late(0.05, 1) == pytest.approx(0.4)

    def test_rto_fraction(self):
        collector = self.make_collector()
        assert collector.rto_message_fraction(1) == pytest.approx(0.2)

    def test_outlier_class_uses_percentile_vs_estimate(self):
        collector = self.make_collector()
        ratio = collector.outlier_class(1, estimate=0.01)
        assert ratio == float("inf")  # the incomplete message dominates

    def test_latency_percentile(self):
        collector = self.make_collector()
        assert collector.latency_percentile(50, 1) == pytest.approx(0.002)

    def test_tenants(self):
        collector = self.make_collector()
        collector.new_message(7, 0, 1, 1.0, 0.0)
        assert collector.tenants() == [1, 7]

    def test_empty_record_sets_are_nan_not_zero(self):
        """Regression: metrics over an empty record set used to return
        0.0, which reads as "no SLO violations" for a tenant that never
        ran a single message.  They must be NaN (distinguishable)."""
        import math
        collector = MetricsCollector()
        assert math.isnan(collector.fraction_late(0.05))
        assert math.isnan(collector.fraction_late(0.05, tenant_id=1))
        assert math.isnan(collector.rto_message_fraction(1))
        assert math.isnan(collector.outlier_class(1, estimate=0.01))
        # A tenant with records is unaffected...
        collector.new_message(1, 0, 1, 1.0, 0.0).finish = 0.001
        assert collector.fraction_late(0.05, tenant_id=1) == 0.0
        # ...while an unknown tenant still reads as "no data".
        assert math.isnan(collector.fraction_late(0.05, tenant_id=2))

    def test_latency_rows_export(self):
        collector = self.make_collector()
        rows = list(collector.latency_rows())
        assert len(rows) == 4  # incomplete messages are not exported
        assert rows[0]["latency"] == pytest.approx(0.001)
        assert set(rows[0]) == {"tenant_id", "src_vm", "dst_vm", "size",
                                "start", "finish", "latency",
                                "rto_events"}
