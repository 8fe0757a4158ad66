"""Hourly metering: splitting, rates, hour-of-day profiles."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import units
from repro.core.meter import HourlyMeter
from repro.errors import SimulationError

HOUR = units.SECONDS_PER_HOUR


class TestAccumulation:
    def test_interval_within_one_hour(self):
        meter = HourlyMeter()
        meter.add_interval(100.0, 60.0, rate_bps=1e6)
        assert meter.bits_in_hour(0) == pytest.approx(6e7)

    def test_interval_splits_across_boundary(self):
        meter = HourlyMeter()
        meter.add_interval(HOUR - 30.0, 90.0, rate_bps=1e6)
        assert meter.bits_in_hour(0) == pytest.approx(30e6)
        assert meter.bits_in_hour(1) == pytest.approx(60e6)

    def test_interval_spanning_many_hours(self):
        meter = HourlyMeter()
        meter.add_interval(0.0, 3 * HOUR, rate_bps=2.0)
        assert [meter.bits_in_hour(h) for h in range(3)] == [
            pytest.approx(2 * HOUR)
        ] * 3

    def test_add_bits_instantaneous(self):
        meter = HourlyMeter()
        meter.add_bits(HOUR + 1.0, 500.0)
        assert meter.bits_in_hour(1) == 500.0

    def test_negative_inputs_rejected(self):
        meter = HourlyMeter()
        with pytest.raises(SimulationError):
            meter.add_interval(0.0, -1.0)
        with pytest.raises(SimulationError):
            meter.add_interval(0.0, 1.0, rate_bps=-1.0)
        with pytest.raises(SimulationError):
            meter.add_bits(0.0, -5.0)

    def test_zero_duration_records_nothing(self):
        """Regression: the single-bucket fast path must not materialize
        an empty 0.0 bucket for zero-duration intervals."""
        meter = HourlyMeter()
        meter.add_interval(100.0, 0.0)
        assert meter.buckets() == {}
        assert meter.hours() == []
        assert meter.total_bits() == 0.0

    @given(st.lists(st.tuples(st.floats(0, 1e6), st.floats(0, 1e4)),
                    min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_property_total_bits_conserved(self, intervals):
        meter = HourlyMeter()
        expected = 0.0
        for start, duration in intervals:
            meter.add_interval(start, duration, rate_bps=8e6)
            expected += duration * 8e6
        assert meter.total_bits() == pytest.approx(expected, rel=1e-9)


class TestRates:
    def test_rate_in_hour(self):
        meter = HourlyMeter()
        meter.add_interval(0.0, HOUR, rate_bps=3e6)
        assert meter.rate_in_hour(0) == pytest.approx(3e6)

    def test_hourly_rates_filter_by_hour_of_day(self):
        meter = HourlyMeter()
        meter.add_interval(19 * HOUR, HOUR, rate_bps=1e6)  # 7 PM day 0
        meter.add_interval(3 * HOUR, HOUR, rate_bps=1e6)   # 3 AM day 0
        samples = meter.hourly_rates(peak_hours=(19, 20, 21, 22))
        assert [h for h, _ in samples] == [19]

    def test_hourly_rates_window_bounds(self):
        meter = HourlyMeter()
        for day in range(3):
            meter.add_interval((24 * day + 20) * HOUR, HOUR, rate_bps=1e6)
        samples = meter.hourly_rates(
            peak_hours=(20,), min_time=units.SECONDS_PER_DAY
        )
        assert [h for h, _ in samples] == [44, 68]

    def test_mean_rate_empty_is_zero(self):
        assert HourlyMeter().mean_rate() == 0.0

    def test_mean_rate(self):
        meter = HourlyMeter()
        meter.add_interval(19 * HOUR, HOUR, rate_bps=2e6)
        meter.add_interval(20 * HOUR, HOUR, rate_bps=4e6)
        assert meter.mean_rate(peak_hours=(19, 20)) == pytest.approx(3e6)

    def test_hours_listing(self):
        meter = HourlyMeter()
        meter.add_bits(5 * HOUR, 1.0)
        meter.add_bits(2 * HOUR, 1.0)
        assert meter.hours() == [2, 5]


class TestHourOfDayProfile:
    def test_profile_averages_over_days(self):
        meter = HourlyMeter()
        # 2 Mb/s at 20:00 on day 0, 4 Mb/s at 20:00 on day 1.
        meter.add_interval(20 * HOUR, HOUR, rate_bps=2e6)
        meter.add_interval((24 + 20) * HOUR, HOUR, rate_bps=4e6)
        profile = meter.rate_by_hour_of_day()
        assert profile[20] == pytest.approx(3e6)

    def test_profile_empty_meter(self):
        assert HourlyMeter().rate_by_hour_of_day() == [0.0] * 24

    def test_min_time_excludes_warmup(self):
        meter = HourlyMeter()
        meter.add_interval(20 * HOUR, HOUR, rate_bps=8e6)           # warm-up day
        meter.add_interval((24 + 20) * HOUR, HOUR, rate_bps=2e6)    # metered
        profile = meter.rate_by_hour_of_day(min_time=units.SECONDS_PER_DAY)
        assert profile[20] == pytest.approx(2e6)


class TestMerge:
    def test_merged_sums_buckets(self):
        a, b = HourlyMeter(), HourlyMeter()
        a.add_bits(0.0, 10.0)
        b.add_bits(0.0, 5.0)
        b.add_bits(HOUR, 7.0)
        merged = a.merged_with(b)
        assert merged.bits_in_hour(0) == 15.0
        assert merged.bits_in_hour(1) == 7.0

    def test_merge_leaves_originals_untouched(self):
        a, b = HourlyMeter(), HourlyMeter()
        a.add_bits(0.0, 10.0)
        a.merged_with(b)
        assert a.bits_in_hour(0) == 10.0
        assert b.total_bits() == 0.0


class TestAccumulateRows:
    @pytest.mark.parametrize("batch", [1, 5, 64, 1000])
    def test_batches_equal_per_interval_adds(self, batch):
        np = pytest.importorskip("numpy")
        from repro.core.meter import accumulate_rows, expand_intervals

        rng = np.random.default_rng(3)
        starts = np.sort(rng.uniform(0.0, 6 * HOUR, 600))
        durations = rng.uniform(1.0, 1.5 * HOUR, 600)
        owners = rng.integers(0, 3, 600)
        scalar = [HourlyMeter() for _ in range(3)]
        for start, duration, owner in zip(starts.tolist(), durations.tolist(),
                                          owners.tolist()):
            scalar[owner].add_interval(start, duration)
        batched = [HourlyMeter() for _ in range(3)]
        for at in range(0, 600, batch):
            cut = slice(at, at + batch)
            event_ids, hours, bits = expand_intervals(starts[cut],
                                                      durations[cut])
            accumulate_rows(batched, owners[cut][event_ids], hours, bits)
        assert [m.buckets() for m in batched] == [m.buckets() for m in scalar]
