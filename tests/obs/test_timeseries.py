"""TimeSeries reductions: interval buckets and reservoir sampling."""

import io

import pytest

from repro.obs.timeseries import TimeSeries


class TestConstruction:
    def test_needs_at_least_one_mode(self):
        with pytest.raises(ValueError):
            TimeSeries(name="x")

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            TimeSeries(interval=0.0)


class TestBuckets:
    def test_bucket_aggregates(self):
        ts = TimeSeries(interval=1.0)
        ts.record(0.1, 10.0)
        ts.record(0.5, 30.0)
        ts.record(0.9, 20.0)
        ts.record(1.2, 5.0)
        buckets = ts.buckets()
        assert len(buckets) == 2
        first, second = buckets
        assert first.start == 0.0
        assert first.count == 3
        assert first.mean == pytest.approx(20.0)
        assert first.vmin == 10.0
        assert first.vmax == 30.0
        assert first.last == 20.0
        assert second.start == 1.0
        assert second.count == 1

    def test_empty_intervals_produce_no_buckets(self):
        """Sparse signals cost memory only when they change."""
        ts = TimeSeries(interval=1.0)
        ts.record(0.5, 1.0)
        ts.record(100.5, 2.0)
        starts = [b.start for b in ts.buckets()]
        assert starts == [0.0, 100.0]

    def test_memory_is_bounded_by_active_buckets(self):
        ts = TimeSeries(interval=1.0)
        for i in range(10000):
            ts.record(i * 0.001, float(i))  # all within 10 buckets
        assert len(ts.buckets()) == 10
        assert ts.count == 10000

    def test_stray_earlier_time_folds_into_open_bucket(self):
        ts = TimeSeries(interval=1.0)
        ts.record(5.5, 1.0)
        ts.record(5.4, 2.0)  # slightly out of order: no new bucket
        assert len(ts.buckets()) == 1
        assert ts.buckets()[0].count == 2

    def test_observation_older_than_open_bucket_raises(self):
        """Folding it in would bin it under the wrong bucket silently."""
        ts = TimeSeries(name="tor_down[3]", interval=1.0)
        ts.record(5.5, 1.0)
        with pytest.raises(ValueError,
                           match=r"'tor_down\[3\]'.*t=4\.9.*starts at 5\.0"):
            ts.record(4.9, 2.0)
        # The refused observation left the series as it was.
        assert ts.count == 1
        assert ts.last_time == 5.5
        assert [(b.start, b.count) for b in ts.buckets()] == [(5.0, 1)]


class TestReservoir:
    def test_keeps_everything_under_capacity(self):
        ts = TimeSeries(reservoir_size=100)
        for i in range(50):
            ts.record(float(i), float(i))
        assert ts.samples() == [(float(i), float(i)) for i in range(50)]

    def test_bounded_and_uniformish_over_capacity(self):
        ts = TimeSeries(reservoir_size=50)
        for i in range(5000):
            ts.record(float(i), float(i))
        samples = ts.samples()
        assert len(samples) == 50
        # A uniform sample spans the stream, not just its head or tail.
        times = [t for t, _ in samples]
        assert min(times) < 1000
        assert max(times) > 4000

    def test_seeded_runs_are_reproducible(self):
        def fill(seed):
            ts = TimeSeries(reservoir_size=10, seed=seed)
            for i in range(1000):
                ts.record(float(i), float(i) * 2)
            return ts.samples()

        assert fill(7) == fill(7)
        assert fill(7) != fill(8)


class TestCsv:
    def test_bucket_mode_columns(self):
        ts = TimeSeries(interval=1.0)
        ts.record(0.5, 4.0)
        out = io.StringIO()
        ts.write_csv(out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "time,count,mean,min,max,last"
        assert lines[1] == "0,1,4,4,4,4"

    def test_reservoir_mode_columns(self, tmp_path):
        ts = TimeSeries(reservoir_size=4)
        ts.record(1.0, 2.0)
        path = tmp_path / "series.csv"
        ts.write_csv(str(path))
        assert path.read_text().splitlines() == ["time,value", "1,2"]
