"""The columnar day blocks and drift check against the per-sample references.

Hypothesis draws offset samples at any microsecond from 1900 to 2100, so
before 1970 too: unsorted and clustered over a few days for the day blocks,
strictly increasing (as `offset_series` gives them) for the drift check.
`analysis._day_blocks` must give the dict loop's sums and counts bit for
bit at every UTC offset a plan can declare, and `series.drift_diagnostic`
the list-based report (amplitude, slope, verdict, threshold, n_samples) or
the same DomainError.
"""

import warnings
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from offset_reference import ListOffsets, day_blocks
from offset_reference import drift_diagnostic as reference_drift

from microclimap.analysis import _day_blocks
from microclimap.errors import DomainError
from microclimap.series import (DriftThresholds, OffsetSeries, drift_diagnostic, epoch_us,
                                from_epoch_us)

DAY_US = 86_400_000_000
FIRST_US = epoch_us(datetime(1900, 1, 1, tzinfo=timezone.utc))
LAST_US = epoch_us(datetime(2100, 1, 1, tzinfo=timezone.utc))
#: every whole-minute offset under 24 h, as `config._parse_tz` reads them
OFFSETS_MIN = st.integers(-(24 * 60 - 1), 24 * 60 - 1)
VALUES = st.floats(-1e300, 1e300)  # sums of 60 stay finite


@st.composite
def sample_times(draw, max_size=60):
    """Unsorted times, most within four days of one instant, some anywhere."""
    base = draw(st.integers(FIRST_US + 4 * DAY_US, LAST_US - 4 * DAY_US))
    near = st.integers(-4 * DAY_US, 4 * DAY_US).map(lambda d: base + d)
    return draw(st.lists(st.one_of(near, st.integers(FIRST_US, LAST_US)),
                         min_size=1, max_size=max_size))


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@given(st.data(), OFFSETS_MIN)
def test_day_blocks_match_dict_loop(data, offset_min):
    t_us = data.draw(sample_times())
    values = data.draw(st.lists(VALUES, min_size=len(t_us), max_size=len(t_us)))
    offset = timedelta(minutes=offset_min)
    sums, counts = _day_blocks(np.array(t_us, dtype=np.int64), np.array(values),
                               offset // timedelta(microseconds=1))
    ref_sums, ref_counts = day_blocks([from_epoch_us(t) for t in t_us], values, offset)
    assert same_bits(sums, ref_sums)
    assert same_bits(counts, ref_counts)


@pytest.mark.parametrize("hours", [-12, -9.5, 0, 2, 5.75, 14])
def test_day_blocks_keep_input_order_within_a_day(hours):
    # one day's values, whose sum in time order would be 1e16 + 2
    t_us = np.array([3, 1, 2], dtype=np.int64) * 3_600_000_000
    values = [1e16, 1.0, 1.0]
    offset = timedelta(hours=hours)
    sums, counts = _day_blocks(t_us, np.array(values), offset // timedelta(microseconds=1))
    ref_sums, ref_counts = day_blocks(list(map(from_epoch_us, t_us.tolist())), values, offset)
    assert sums.tolist() == [1e16] and counts.tolist() == [3.0]
    assert same_bits(sums, ref_sums) and same_bits(counts, ref_counts)


@st.composite
def drift_cases(draw):
    """An increasing offset series, a window in some local zone and a smoothing span."""
    start = draw(st.integers(FIRST_US, LAST_US))
    n = draw(st.integers(5, 80))
    steps = draw(st.lists(st.integers(1, 300_000_000), min_size=n, max_size=n))
    t_us = (start + np.cumsum([0] + steps)).tolist()
    values = draw(st.lists(st.floats(-50, 50), min_size=len(t_us), max_size=len(t_us)))
    first = draw(st.integers(0, len(t_us) // 4))
    last = draw(st.integers(first, len(t_us) - 1))
    slack = st.integers(-120_000_000, 120_000_000)
    lo, hi = t_us[first] + draw(slack), t_us[last] + draw(slack)
    zone = timezone(timedelta(minutes=draw(OFFSETS_MIN)))
    window = (from_epoch_us(lo).astimezone(zone), from_epoch_us(hi).astimezone(zone))
    smoothing = draw(st.sampled_from([60.0, 300.0, 900.0]))
    return t_us, values, window, DriftThresholds(smoothing_seconds=smoothing)


def outcome(check, *args):
    """The drift report's fields, or the DomainError's message."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a poorly conditioned fit warns on both sides
        try:
            report = check(*args)
        except DomainError as exc:
            return str(exc)
    return (report.parameter, report.window, report.amplitude, report.trend_slope,
            report.verdict, report.threshold, report.n_samples)


@given(drift_cases())
def test_drift_diagnostic_matches_list_based_check(case):
    t_us, values, window, thresholds = case
    columns = OffsetSeries("utci", "case", "ctrl", np.array(t_us, dtype=np.int64),
                           np.array(values))
    lists = ListOffsets("utci", [from_epoch_us(t) for t in t_us], values)
    got = outcome(drift_diagnostic, columns, window, thresholds)
    want = outcome(reference_drift, lists, window, thresholds)
    if isinstance(want, tuple):
        assert same_bits(got[2:4], want[2:4])  # amplitude and slope, bit for bit
    assert got == want
