import io
import math
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest
from conftest import (T0, UTC, V15_FOR_HALF, globe_for_offset, make_mobile_log,
                      make_series)
from hypothesis import given, settings
from hypothesis import strategies as st

import stabilization_reference as reference
from microclimap.campaign import (CampaignPlan, DaySummary,
                                  Environment, Insolation, Phase, StabilityClass,
                                  StopSegment, TraversePoint, aggregate_point,
                                  day_filter, derive_day_summary,
                                  detect_stabilization, match_control,
                                  parse_mobile_csv, pasquill_class,
                                  process_campaign, segment_stops)
from microclimap.errors import (DayRejectedError, DomainError, MatchError,
                                SchemaError)
from microclimap.series import FIELDS, epoch_us, from_epoch_us


def at(seconds):
    """Epoch microseconds `seconds` after T0."""
    return epoch_us(T0 + timedelta(seconds=seconds))


def make_plan(point_ids=("P1", "P2", "P3"), campaign_id="c1",
              phase=Phase.BEFORE, **kwargs):
    points = [TraversePoint(pid, (2.41 + 0.001 * i, 48.85), Environment.FULL_SUN)
              for i, pid in enumerate(point_ids)]
    return CampaignPlan(campaign_id=campaign_id, phase=phase,
                        day=date(2019, 7, 25), tz=UTC, points=points,
                        control_station_id="ctrl", **kwargs)


def good_day(**overrides):
    fields = dict(t_max=32.0, t_min=19.0,
                  cloud_cover_oktas=1.0, stability_class=StabilityClass.A,
                  mean_daytime_wind=1.5)
    fields.update(overrides)
    return DaySummary(**fields)


class TestPasquillClass:
    @pytest.mark.parametrize("wind,insolation,expected", [
        (1.5, Insolation.STRONG, StabilityClass.A),
        (2.5, Insolation.STRONG, StabilityClass.AB),
        (6.0, Insolation.SLIGHT, StabilityClass.D),
        (0.0, Insolation.STRONG, StabilityClass.A),
        (2.0, Insolation.STRONG, StabilityClass.AB),  # half-open bin edge
        (3.0, Insolation.MODERATE, StabilityClass.BC),
        (5.5, Insolation.MODERATE, StabilityClass.CD),
        (1.0, Insolation.SLIGHT, StabilityClass.B),
        (12.0, Insolation.STRONG, StabilityClass.C),
    ])
    def test_daytime_table(self, wind, insolation, expected):
        assert pasquill_class(wind, insolation) is expected

    def test_negative_wind_rejected(self):
        with pytest.raises(DomainError):
            pasquill_class(-0.1, Insolation.STRONG)

    @pytest.mark.parametrize("wind", [float("inf"), float("nan")])
    def test_non_finite_wind_rejected(self, wind):
        with pytest.raises(DomainError, match="must be finite"):
            pasquill_class(wind, Insolation.STRONG)


class TestDayFilter:
    def test_warm_clear_unstable_day_accepted(self):
        result = day_filter(good_day(t_max=26.0, t_min=17.0, cloud_cover_oktas=2.0))
        assert result.accepted and result.reasons == []
        assert [(c.label, c.passed) for c in result.criteria] == [
            ("t_max > 25.0 degC", True), ("t_min > 16.0 degC", True),
            ("cloud cover <= 3.0 oktas", True), ("stability class in {A, A-B}", True)]

    def test_cool_maximum_rejected(self):
        result = day_filter(good_day(t_max=24.5, t_min=17.0, cloud_cover_oktas=2.0))
        assert not result.accepted
        assert len(result.reasons) == 1
        assert "t_max" in result.reasons[0]

    def test_cloudy_day_rejected(self):
        result = day_filter(good_day(t_max=28.0, t_min=18.0, cloud_cover_oktas=4.0))
        assert not result.accepted
        assert len(result.reasons) == 1
        assert "cloud" in result.reasons[0]

    def test_neutral_stability_rejected(self):
        result = day_filter(good_day(stability_class=StabilityClass.B))
        assert not result.accepted

    def test_ab_class_accepted(self):
        assert day_filter(good_day(stability_class=StabilityClass.AB)).accepted

    def test_every_failed_criterion_listed(self):
        result = day_filter(good_day(t_max=24.0, t_min=15.0, cloud_cover_oktas=5.0,
                                     stability_class=StabilityClass.D))
        assert len(result.reasons) == 4

    @pytest.mark.parametrize("t_max,t_min,oktas,accepted", [
        (25.0, 17.0, 2.0, False),   # boundary: strictly above required
        (25.001, 17.0, 2.0, True),
        (26.0, 16.0, 2.0, False),
        (26.0, 16.001, 2.0, True),
        (26.0, 17.0, 3.0, True),    # boundary: <= 3 oktas accepted
        (26.0, 17.0, 3.001, False),
    ])
    def test_threshold_boundaries(self, t_max, t_min, oktas, accepted):
        result = day_filter(good_day(t_max=t_max, t_min=t_min,
                                     cloud_cover_oktas=oktas))
        assert result.accepted is accepted

    def test_invalid_summary(self):
        with pytest.raises(DomainError):
            good_day(cloud_cover_oktas=9.0)
        with pytest.raises(DomainError):
            good_day(t_min=33.0)


class TestDeriveDaySummary:
    def test_from_control_series(self):
        day = date(2019, 7, 25)
        samples = []
        for h in range(8, 18):
            for m in (0, 30):
                t = T0.replace(hour=h, minute=m)
                samples.append({
                    "t_air": 20.0 + h - 8 + m / 60,
                    "timestamp": t,
                    "wind": 1.0 if 12 <= h < 16 else 3.0,
                    "net_radiation": 650.0 if 12 <= h < 14 else 200.0,
                })
        control = make_series(samples, station_id="ctrl",
                              cadence_s=1800)
        summary = derive_day_summary(control, day, cloud_cover_oktas=1.0, tz=UTC)
        assert summary.t_max == 29.5
        assert summary.t_min == 20.0
        # 1.0 m/s at the default 4 m wind height, converted to 10 m
        assert summary.mean_daytime_wind == pytest.approx(
            math.log(1000) / math.log(400), abs=1e-12)
        assert summary.stability_class is StabilityClass.A

    def test_weak_radiation_downgrades_insolation(self):
        day = date(2019, 7, 25)
        samples = [{"t_air": 25.0, "timestamp": T0.replace(hour=h, minute=m),
                    "wind": 1.0, "net_radiation": 300.0}
                   for h in range(10, 17) for m in (0, 30)]
        control = make_series(samples, station_id="ctrl", cadence_s=1800)
        summary = derive_day_summary(control, day, cloud_cover_oktas=1.0, tz=UTC)
        assert summary.stability_class is StabilityClass.AB

    def test_no_samples_on_day(self):
        control = make_series([25.0] * 10, station_id="ctrl")
        with pytest.raises(MatchError, match="2019-08-01"):
            derive_day_summary(control, date(2019, 8, 1), 1.0, UTC)


class TestParseMobileCsv:
    HEADER = "timestamp,point_id,t_air,rh,t_globe,wind\n"

    def test_well_formed(self):
        src = io.StringIO(self.HEADER
                          + "2019-07-25T12:00:00+02:00,P1,30.0,40,45.0,0.8\n"
                          + "2019-07-25T12:00:15+02:00,P1,30.1,41,45.1,0.7\n")
        log = parse_mobile_csv(src)
        assert log.point_ids.tolist() == ["P1", "P1"]
        assert log.columns["t_globe"].tolist() == [45.0, 45.1]

    def test_rows_sorted_by_time(self):
        src = io.StringIO(self.HEADER
                          + "2019-07-25T12:00:15+00:00,P1,30.0,40,45.0,0.8\n"
                          + "2019-07-25T12:00:00+00:00,P1,30.0,40,45.0,0.8\n")
        log = parse_mobile_csv(src)
        assert log.t_us.tolist() == [epoch_us(T0.replace(hour=12)),
                                     epoch_us(T0.replace(hour=12, second=15))]

    def test_blank_rh_kept_as_missing(self):
        src = io.StringIO(self.HEADER
                          + "2019-07-25T12:00:00+00:00,P1,30.0,,45.0,0.8\n")
        assert np.isnan(parse_mobile_csv(src).columns["rh"]).tolist() == [True]

    def test_missing_point_id_column(self):
        src = io.StringIO("timestamp,t_air,rh,t_globe,wind\n"
                          "2019-07-25T12:00:00+00:00,30.0,40,45.0,0.8\n")
        with pytest.raises(SchemaError, match="point_id"):
            parse_mobile_csv(src)

    def test_naive_timestamp_rejected(self):
        src = io.StringIO(self.HEADER + "2019-07-25T12:00:00,P1,30.0,40,45.0,0.8\n")
        with pytest.raises(SchemaError, match="UTC offset"):
            parse_mobile_csv(src)

    def test_empty_log(self):
        with pytest.raises(SchemaError, match="no rows"):
            parse_mobile_csv(io.StringIO(self.HEADER))

    GOOD_ROW = "2019-07-25T12:00:00+00:00,P1,30.0,40,45.0,0.8\n"

    def test_non_numeric_row_dropped_and_counted(self):
        src = io.StringIO(self.HEADER + self.GOOD_ROW
                          + "2019-07-25T12:00:15+00:00,P1,warm,40,45.0,0.8\n")
        log = parse_mobile_csv(src)
        assert len(log) == 1
        assert log.load_report.rows_read == 2
        assert log.load_report.dropped_rows == 1
        assert log.load_report.drop_reasons[0].startswith("line 3:")

    @pytest.mark.parametrize("row", [
        "2019-07-25T12:00:15+00:00,P1,30.0,40,nan,0.8\n",
        "2019-07-25T12:00:15+00:00,P1,30.0,40,45.0,inf\n",
        "2019-07-25T12:00:15+00:00,P1,30.0,40,,0.8\n",
        "2019-07-25T12:00:15+00:00,P1,30.0,130,45.0,0.8\n",
        "2019-07-25T12:00:15+00:00,P1,30.0,40,45.0,-0.5\n",
        "2019-07-25T12:00:15+00:00,,30.0,40,45.0,0.8\n",
    ])
    def test_invalid_value_row_dropped(self, row):
        log = parse_mobile_csv(io.StringIO(self.HEADER + self.GOOD_ROW + row))
        assert log.columns["t_globe"].tolist() == [45.0]
        assert log.load_report.dropped_rows == 1

    @pytest.mark.parametrize("stamp", ["0001-01-01T00:00:00+01:00",
                                       "9999-12-31T23:59:59-01:00"])
    def test_out_of_range_timestamp_dropped(self, stamp):
        row = f"{stamp},P1,30.0,40,45.0,0.8\n"
        log = parse_mobile_csv(io.StringIO(self.HEADER + self.GOOD_ROW + row))
        assert len(log) == 1
        assert log.load_report.drop_reasons == [f"line 3: timestamp out of range: {stamp}"]

    def test_no_surviving_row_is_schema_error(self):
        src = io.StringIO(self.HEADER
                          + "2019-07-25T12:00:00+00:00,P1,30.0,40,nan,0.8\n")
        with pytest.raises(SchemaError, match="non-finite value for t_globe"):
            parse_mobile_csv(src)


BASE_FIELDS = {"t_air": 30.0, "rh": 40.0, "t_globe": 45.0, "wind": 0.8}


class TestSegmentStops:
    def test_two_points_two_segments(self):
        plan = make_plan(("P1", "P2"))
        log = make_mobile_log([("P1", 40, BASE_FIELDS), ("P2", 50, BASE_FIELDS)])
        segments = segment_stops(log, plan)
        assert [(s.point_id, len(s.t_us)) for s in segments] == [("P1", 40),
                                                                 ("P2", 50)]

    def test_segments_are_views_of_the_log(self):
        plan = make_plan(("P1", "P2"))
        log = make_mobile_log([("P1", 40, BASE_FIELDS), ("P2", 50, BASE_FIELDS)])
        for segment in segment_stops(log, plan):
            assert np.shares_memory(segment.t_us, log.t_us)
            for name in FIELDS:
                assert np.shares_memory(segment.columns[name], log.columns[name])

    def test_internal_gap_splits_segment(self):
        plan = make_plan(("P1",))
        log = make_mobile_log([("P1", 20, BASE_FIELDS),
                               ("P1", 25, BASE_FIELDS, T0 + timedelta(seconds=19 * 15 + 90))])
        segments = segment_stops(log, plan)
        assert [s.point_id for s in segments] == ["P1", "P1"]
        assert len(segments[0].t_us) == 20

    def test_sixty_second_gap_does_not_split(self):
        plan = make_plan(("P1",))
        log = make_mobile_log([("P1", 20, BASE_FIELDS),
                               ("P1", 5, BASE_FIELDS, T0 + timedelta(seconds=19 * 15 + 60))])
        segments = segment_stops(log, plan)
        assert len(segments) == 1

    def test_short_dwell_flagged(self):
        plan = make_plan(("P3",))
        log = make_mobile_log([("P3", 10, BASE_FIELDS)])  # 2.5 min dwell
        (segment,) = segment_stops(log, plan)
        assert segment.too_short

    def test_five_minute_dwell_is_long_enough(self):
        plan = make_plan(("P1", "P2"))
        # 21 readings span exactly 300 s, 20 readings 285 s
        log = make_mobile_log([("P1", 21, BASE_FIELDS), ("P2", 20, BASE_FIELDS)])
        assert [s.too_short for s in segment_stops(log, plan)] == [False, True]

    def test_unknown_point_id_named_in_error(self):
        plan = make_plan(("P1",))
        log = make_mobile_log([("P9", 5, BASE_FIELDS)])
        with pytest.raises(DomainError, match="P9"):
            segment_stops(log, plan)

    def test_first_unknown_point_id_in_time_order_is_named(self):
        plan = make_plan(("P1",))
        log = make_mobile_log([("P1", 5, BASE_FIELDS), ("P8", 5, BASE_FIELDS),
                               ("P7", 5, BASE_FIELDS)])
        with pytest.raises(DomainError, match="'P8'"):
            segment_stops(log, plan)

    def test_half_logs_yield_same_segments_as_joined_log(self):
        plan = make_plan(("P1", "P2", "P3"))
        blocks = [("P1", 30, BASE_FIELDS), ("P2", 30, BASE_FIELDS),
                  ("P3", 30, BASE_FIELDS, T0 + timedelta(seconds=60 * 15))]
        joined = segment_stops(make_mobile_log(blocks), plan)
        # the second half starts at the P3 dwell
        halves = (segment_stops(make_mobile_log(blocks[:2]), plan)
                  + segment_stops(make_mobile_log(blocks[2:]), plan))
        assert segment_values(halves) == segment_values(joined)
        assert len(joined) == 3


def segment_values(segments):
    """Each segment's point id, times, columns (bitwise) and flags."""
    return [(s.point_id, s.t_us.tolist(),
             {name: c.view(np.int64).tolist() for name, c in s.columns.items()},
             s.stabilization_window, s.stabilized, s.too_short)
            for s in segments]


class TestDetectStabilization:
    def test_constant_globe_window_is_final_three_minutes(self):
        plan = make_plan(("P1",))
        log = make_mobile_log([("P1", 61, BASE_FIELDS)])  # 15 min dwell
        (segment,) = segment_stops(log, plan)
        out = detect_stabilization(segment)
        assert out.stabilized
        assert out.stabilization_window == (at(720), at(900))

    def test_exponential_approach_settles_late(self):
        # globe relaxes toward 35 degC with a 240 s time constant; the range
        # over a trailing 3 min window is 5*(exp(-t/240) - exp(-(t+180)/240)),
        # which crosses 0.15 degC near t = 688 s
        plan = make_plan(("P1",))
        fields = dict(BASE_FIELDS,
                      t_globe=lambda i: 35.0 - 5.0 * math.exp(-i * 15.0 / 240.0))
        log = make_mobile_log([("P1", 61, fields)])
        (segment,) = segment_stops(log, plan)
        out = detect_stabilization(segment)
        assert out.stabilized
        # the latest feasible window start is kept
        assert out.stabilization_window == (at(720), at(900))
        # brute-force check of the analytic crossing on the same curve
        def window_range(t):
            return 5.0 * (math.exp(-t / 240.0) - math.exp(-(t + 180.0) / 240.0))
        assert window_range(690.0) <= 0.15 < window_range(675.0)

    def test_linear_ramp_never_stabilizes(self):
        plan = make_plan(("P1",))
        fields = dict(BASE_FIELDS, t_globe=lambda i: 40.0 + 0.2 * (i * 15.0 / 60.0))
        log = make_mobile_log([("P1", 61, fields)])
        (segment,) = segment_stops(log, plan)
        out = detect_stabilization(segment)
        assert not out.stabilized
        assert out.stabilization_window is None

    def test_range_equal_to_delta_settles(self):
        plan = make_plan(("P1",))
        fields = dict(BASE_FIELDS, t_globe=lambda i: 40.0 + 0.125 * (i % 2))
        (segment,) = segment_stops(make_mobile_log([("P1", 61, fields)]), plan)
        assert detect_stabilization(segment, 0.125).stabilized
        assert not detect_stabilization(segment, 0.124).stabilized

    def test_window_holds_the_reading_at_its_end(self):
        # the last reading, exactly 3 min after the latest start, is off
        plan = make_plan(("P1",))
        fields = dict(BASE_FIELDS, t_globe=lambda i: 41.0 if i == 60 else 40.0)
        (segment,) = segment_stops(make_mobile_log([("P1", 61, fields)]), plan)
        assert detect_stabilization(segment).stabilization_window == (at(705), at(885))

    def test_idempotent_on_stabilized_window(self):
        plan = make_plan(("P1",))
        fields = dict(BASE_FIELDS,
                      t_globe=lambda i: 35.0 - 5.0 * math.exp(-i * 15.0 / 240.0))
        log = make_mobile_log([("P1", 61, fields)])
        (segment,) = segment_stops(log, plan)
        first = detect_stabilization(segment)
        lo, hi = first.stabilization_window
        inside = (first.t_us >= lo) & (first.t_us <= hi)
        tail = StopSegment(point_id="P1", t_us=first.t_us[inside],
                           columns={name: c[inside] for name, c in first.columns.items()})
        again = detect_stabilization(tail)
        assert again.stabilized
        assert again.stabilization_window == first.stabilization_window

    def test_missing_globe_readings(self):
        plan = make_plan(("P1",))
        log = make_mobile_log([("P1", 25, dict(BASE_FIELDS, t_globe=None))])
        (segment,) = segment_stops(log, plan)
        with pytest.raises(DomainError, match="globe"):
            detect_stabilization(segment)


def stabilized_segment(fields=None, n=61):
    plan = make_plan(("P1",))
    log = make_mobile_log([("P1", n, {**BASE_FIELDS, **(fields or {})})])
    (segment,) = segment_stops(log, plan)
    return detect_stabilization(segment)


class TestAggregatePoint:
    def test_constant_window_returns_the_constants(self):
        drivers = aggregate_point(stabilized_segment({"wind": 1.0}))
        assert drivers.t_air == 30.0
        assert drivers.rh == 40.0
        assert drivers.timestamp == at(810)

    def test_log_profile_wind_conversion(self):
        drivers = aggregate_point(stabilized_segment({"wind": 1.0}))
        assert drivers.wind_10m == pytest.approx(1.378618652832536, abs=1e-12)
        assert drivers.wind_10m == pytest.approx(1.379, abs=1e-3)

    def test_missing_rh_sample_skipped_and_counted(self):
        # the final sample of the window carries no humidity reading
        fields = {"rh": lambda i: None if i == 60 else 40.0}
        drivers = aggregate_point(stabilized_segment(fields))
        assert drivers.rh == 40.0
        assert drivers.sample_counts["rh"] == 12
        assert drivers.sample_counts["t_air"] == 13

    def test_unstabilized_segment_is_unusable(self):
        plan = make_plan(("P1",))
        fields = dict(BASE_FIELDS, t_globe=lambda i: 40.0 + 0.05 * i)
        log = make_mobile_log([("P1", 61, fields)])
        (segment,) = segment_stops(log, plan)
        with pytest.raises(DomainError, match="unusable"):
            aggregate_point(detect_stabilization(segment))

    def test_mrt_computed_on_window_means(self):
        from microclimap.thermal import GlobeSpec, mrt_from_globe
        drivers = aggregate_point(stabilized_segment({"wind": 1.0}))
        assert drivers.t_mrt == mrt_from_globe(45.0, 30.0, 1.0, GlobeSpec())


# Steps between readings (s): repeated times, the 15 s cadence and holes of
# 30, 45 and 60 s (the longest step that does not split a stop).
STEPS = st.sampled_from([0, 0, 15, 15, 15, 30, 45, 60])


@st.composite
def dwells(draw):
    """Readings (step, globe, t_air, rh, wind) whose globe reading walks a level grid.

    On the 1/8 degC grid the ranges of a window hit 0.125 and 0.25 degC
    exactly; on the 0.05 degC grid three levels give float ranges just under
    or just over 0.15. A reading at a repeated time mostly moves the level,
    so a window must hold every reading of its first time.
    """
    base, unit = draw(st.sampled_from([(40.0, 0.125), (45.0, 0.05)]))
    steps = draw(st.lists(STEPS, min_size=1, max_size=40))
    readings, level = [], 0
    for step in steps:
        level += draw(st.sampled_from([0, 1, -1, 2] if step == 0 else [0] * 6 + [1, -1]))
        readings.append((step, base + level * unit, draw(st.floats(20, 40)),
                         draw(st.one_of(st.none(), st.floats(10, 90))), draw(st.floats(0.1, 5))))
    return readings


def both_segments(readings):
    """One dwell as a columnar `StopSegment` and as the reference's per-sample segment."""
    t_us = epoch_us(T0) + np.cumsum([step for step, *_ in readings]) * 1_000_000
    rows = [(t_air, rh, globe, wind, None) for _, globe, t_air, rh, wind in readings]
    table = np.array(rows, dtype=float)  # None -> NaN
    columnar = StopSegment("P1", t_us, {name: table[:, k] for k, name in enumerate(FIELDS)})
    records = [reference.Reading(from_epoch_us(t), *row[:4])
               for t, row in zip(t_us.tolist(), rows)]
    return columnar, reference.SampleSegment("P1", records)


class TestColumnarMatchesPerSampleReference:
    @settings(deadline=None)
    @given(dwells(), st.sampled_from([0.0, 0.125, 0.15, 0.25]))
    def test_same_window_and_drivers(self, readings, delta_c):
        columnar, samples = both_segments(readings)
        got = detect_stabilization(columnar, delta_c)
        expected = reference.detect_stabilization(samples, delta_c)
        window = expected.stabilization_window
        assert got.stabilization_window == (None if window is None
                                             else tuple(map(epoch_us, window)))
        assert got.stabilized is expected.stabilized
        if not expected.stabilized:
            return
        try:
            drivers = reference.aggregate_point(expected)
            drivers = repr(replace(drivers, timestamp=epoch_us(drivers.timestamp)))
        except DomainError as exc:
            with pytest.raises(DomainError) as raised:
                aggregate_point(got)
            assert str(raised.value) == str(exc)
            return
        assert repr(aggregate_point(got)) == drivers

    def test_window_starts_at_first_reading_of_its_time(self):
        # two readings at 15 s; the first is 1 degC warmer, and every window
        # holding 15 s must hold it, so the dwell never settles
        readings = ([(0, 40.0, 30.0, 40.0, 1.0), (15, 41.0, 30.0, 40.0, 1.0)]
                    + [(0 if i == 0 else 15, 40.0, 30.0, 40.0, 1.0) for i in range(13)])
        columnar, samples = both_segments(readings)
        assert not reference.detect_stabilization(samples).stabilized
        assert not detect_stabilization(columnar).stabilized


class TestMatchControl:
    def test_exact_timestamp(self):
        control = make_series([25.0, 26.0, 27.0], station_id="ctrl")
        ref = match_control(at(60), control)
        assert ref.t_air == 26.0
        assert ref.matched_at == at(60)
        assert ref.to_utci_input().t_mrt == 26.0
        assert ref.to_utci_input().wind_10m == 0.5

    def test_nearest_within_tolerance(self):
        control = make_series([25.0, 26.0], station_id="ctrl")
        ref = match_control(at(30), control)
        assert ref.matched_at in (at(0), at(60))

    def test_outage_is_error(self):
        control = make_series([25.0, 26.0], station_id="ctrl")
        with pytest.raises(MatchError, match="ctrl"):
            match_control(at(360), control)


def synthetic_blocks(deltas, t_air=30.0, rh=40.0):
    """Mobile log blocks of 12 min dwells realizing the target offsets."""
    return [(pid, 49, {"t_air": t_air, "rh": rh, "wind": V15_FOR_HALF,
                       "t_globe": globe_for_offset(delta, t_air, rh)})
            for pid, delta in deltas.items()]


def synthetic_campaign(deltas, t_air=30.0, rh=40.0):
    """Plan, mobile log, and control series realizing the target offsets."""
    plan = make_plan(tuple(deltas))
    log = make_mobile_log(synthetic_blocks(deltas, t_air, rh))
    control = make_series([t_air] * 80, start=T0 - timedelta(minutes=10),
                          rh=rh, station_id="ctrl")
    return plan, log, control


class TestProcessCampaign:
    def test_drivers_equal_reference_gives_zero_offsets(self):
        plan, log, control = synthetic_campaign({"P1": 0.0, "P2": 0.0, "P3": 0.0})
        results, report = process_campaign(plan, log, control,
                                           day_summary=good_day())
        assert [r.point_id for r in results] == ["P1", "P2", "P3"]
        for r in results:
            assert r.offset.value == pytest.approx(0.0, abs=1e-6)
        assert report.failures == []

    def test_stop_shorter_than_five_minutes_is_unusable(self):
        plan, _, control = synthetic_campaign({"P1": 1.0, "P2": 0.0})
        (p1, p2) = synthetic_blocks({"P1": 1.0, "P2": 0.0})
        log = make_mobile_log([p1, ("P2", 15, p2[2])])  # a steady 15-sample (210 s) dwell
        results, report = process_campaign(plan, log, control, day_summary=good_day())
        assert [r.point_id for r in results] == ["P1"]
        assert report.failures == [("P2", "segment at P2 lasts 210 s, under the 300 s "
                                          "minimum dwell; point is unusable")]

    def test_stop_without_rh_in_its_window_is_unusable(self):
        plan, _, control = synthetic_campaign({"P1": 1.0, "P2": 0.0})
        (p1, p2) = synthetic_blocks({"P1": 1.0, "P2": 0.0})
        log = make_mobile_log([p1, ("P2", 49, dict(p2[2], rh=None))])  # rh blank in every row
        results, report = process_campaign(plan, log, control, day_summary=good_day())
        assert [r.point_id for r in results] == ["P1"]
        assert report.failures == [("P2", "no rh readings in stabilization window at P2")]

    def test_injected_offset_field_recovered(self):
        targets = {"P1": 5.0, "P2": 1.0, "P3": 0.0}
        plan, log, control = synthetic_campaign(targets)
        results, _ = process_campaign(plan, log, control, day_summary=good_day())
        for r in results:
            assert r.offset.value == pytest.approx(targets[r.point_id], abs=1e-4)
            assert abs(r.offset.value - targets[r.point_id]) < 0.2

    def test_offset_identity_holds_bit_exactly(self):
        plan, log, control = synthetic_campaign({"P1": 3.0, "P2": -1.0})
        results, _ = process_campaign(plan, log, control, day_summary=good_day())
        for r in results:
            assert r.offset.value == r.offset.utci_mobile - r.offset.utci_ref

    def test_rejected_day_refused_with_reasons(self):
        plan, log, control = synthetic_campaign({"P1": 0.0})
        bad = good_day(t_max=24.0, cloud_cover_oktas=5.0)
        with pytest.raises(DayRejectedError) as exc_info:
            process_campaign(plan, log, control, day_summary=bad)
        assert len(exc_info.value.reasons) == 2

    def test_rejected_day_override_recorded(self):
        plan, log, control = synthetic_campaign({"P1": 0.0})
        bad = good_day(t_max=24.0)
        results, report = process_campaign(plan, log, control, day_summary=bad,
                                           override_day_filter=True)
        assert len(results) == 1
        assert not report.day_filter.accepted
        assert "override" in report.summary()

    def test_per_point_failure_does_not_kill_campaign(self):
        _, _, control = synthetic_campaign({"P1": 2.0, "P2": 0.0})
        ramp = {"t_air": 30.0, "rh": 40.0, "wind": V15_FOR_HALF,
                "t_globe": lambda i: 40.0 + 0.05 * i}
        # P3 follows the P2 dwell
        log = make_mobile_log(synthetic_blocks({"P1": 2.0, "P2": 0.0}) + [("P3", 61, ramp)])
        plan = make_plan(("P1", "P2", "P3"))
        results, report = process_campaign(plan, log, control,
                                           day_summary=good_day())
        assert [r.point_id for r in results] == ["P1", "P2"]
        assert [pid for pid, _ in report.failures] == ["P3"]

    def test_unvisited_point_reported(self):
        plan, log, control = synthetic_campaign({"P1": 0.0})
        plan = make_plan(("P1", "P4"))
        results, report = process_campaign(plan, log, control,
                                           day_summary=good_day())
        assert ("P4", "no mobile samples recorded") in report.failures
        assert len(results) == 1

    def test_all_points_failing_is_an_error(self):
        plan = make_plan(("P1",))
        ramp = {"t_air": 30.0, "rh": 40.0, "wind": V15_FOR_HALF,
                "t_globe": lambda i: 40.0 + 0.05 * i}
        log = make_mobile_log([("P1", 61, ramp)])
        control = make_series([30.0] * 40, rh=40.0, station_id="ctrl")
        with pytest.raises(DomainError, match="no usable points"):
            process_campaign(plan, log, control, day_summary=good_day())

    def test_onsite_station_drift_checked(self):
        plan, log, control = synthetic_campaign({"P1": 1.0, "P2": 0.0})
        onsite = make_series([30.0] * 80, start=T0 - timedelta(minutes=10),
                             rh=40.0, station_id="onsite")
        results, report = process_campaign(plan, log, control,
                                           day_summary=good_day(), onsite=onsite)
        assert report.drift is not None
        assert report.drift.verdict.value == "stable"
        assert len(results) == 2

    def onsite_series(self, hot_minute=None, minutes=80):
        values = [{"t_air": 30.0 + 0.02 * i, "t_globe": 33.0 + 0.05 * i, "wind": 1.0}
                  for i in range(minutes)]
        if hot_minute is not None:
            values[hot_minute]["t_air"] = 55.0
        return make_series(values, start=T0 - timedelta(minutes=10), rh=40.0,
                           station_id="onsite")

    def test_drift_over_window_equals_whole_record(self):
        from microclimap.series import drift_diagnostic, offset_series
        plan, log, control = synthetic_campaign({"P1": 1.0, "P2": 0.0})
        onsite = self.onsite_series()
        _, report = process_campaign(plan, log, control,
                                     day_summary=good_day(), onsite=onsite)
        span = (from_epoch_us(int(log.t_us[0])), from_epoch_us(int(log.t_us[-1])))
        whole = drift_diagnostic(offset_series(onsite, control, "utci"), span)
        assert report.drift.n_samples == whole.n_samples
        assert report.drift.amplitude == pytest.approx(whole.amplitude, abs=1e-9)
        assert report.drift.trend_slope == pytest.approx(whole.trend_slope, abs=1e-9)
        assert report.drift.verdict is whole.verdict

    def test_out_of_range_onsite_row_skips_drift_check(self):
        plan, log, control = synthetic_campaign({"P1": 1.0, "P2": 0.0})
        onsite = self.onsite_series(hot_minute=20)  # inside the traverse span
        results, report = process_campaign(plan, log, control,
                                           day_summary=good_day(), onsite=onsite)
        assert len(results) == 2
        assert report.drift is None
        (reason,) = [why for pid, why in report.failures if pid == "__drift__"]
        assert reason.startswith("drift check skipped:") and "t_air=55.0" in reason

    def test_out_of_range_row_outside_span_is_not_evaluated(self):
        plan, log, control = synthetic_campaign({"P1": 1.0, "P2": 0.0})
        onsite = self.onsite_series(hot_minute=2)  # before the traverse starts
        _, report = process_campaign(plan, log, control,
                                     day_summary=good_day(), onsite=onsite)
        assert report.drift is not None

    def test_onsite_without_control_overlap_skips_drift_check(self):
        plan, log, _ = synthetic_campaign({"P1": 1.0})
        # the control starts after the on-site logger's last sample
        control = make_series([30.0] * 20, start=T0 + timedelta(minutes=5), rh=40.0,
                              station_id="ctrl")
        onsite = make_series([30.0] * 3, rh=40.0, station_id="onsite")
        results, report = process_campaign(plan, log, control,
                                           day_summary=good_day(), onsite=onsite)
        assert len(results) == 1
        assert ("__drift__", "drift check skipped: series onsite and ctrl do not "
                "overlap in time") in report.failures

    def test_onsite_without_samples_in_span_skips_drift_check(self):
        plan, log, control = synthetic_campaign({"P1": 1.0})
        onsite = make_series([30.0] * 10, start=T0 + timedelta(days=3), rh=40.0,
                             station_id="onsite")
        _, report = process_campaign(plan, log, control, day_summary=good_day(),
                                     onsite=onsite)
        assert ("__drift__", "drift check skipped: empty offset series") in report.failures


class TestPlanValidation:
    def test_duplicate_point_ids(self):
        with pytest.raises(DomainError, match="duplicate"):
            make_plan(("P1", "P1"))

    def test_point_lookup(self):
        plan = make_plan(("P1", "P2"))
        assert plan.point("P2").point_id == "P2"
        with pytest.raises(DomainError, match="P7"):
            plan.point("P7")
