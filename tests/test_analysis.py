import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from microclimap.analysis import (BaciDataset, EffectEstimate, _average_ranks, _day_blocks,
                                  _quantile, baci_effect, correlate_offset_ucp, scatter_csv,
                                  scatter_svg)
from microclimap.errors import DomainError
from microclimap.series import DAY_US, OffsetSeries, epoch_us

UTC = timezone.utc
BEFORE_START = datetime(2019, 7, 1, 0, 0, tzinfo=UTC)
AFTER_START = datetime(2020, 7, 1, 0, 0, tzinfo=UTC)


def offsets(values_per_day, start, days, cadence_s=3600.0, case_id="onsite"):
    """Offset series of `days` consecutive days, `values_per_day(day, i)`."""
    times, values = [], []
    per_day = int(86400 / cadence_s)
    for d in range(days):
        for i in range(per_day):
            times.append(start + timedelta(days=d, seconds=i * cadence_s))
            values.append(values_per_day(d, i))
    return OffsetSeries("utci", case_id, "ctrl", times, values)


def dyadic(x):
    """Round to a multiple of 1/64 so sample means stay exactly representable."""
    return round(x * 64.0) / 64.0


class TestBaciEffect:
    def test_identical_periods_give_near_zero_effect(self):
        def gen(d, i):
            return dyadic(0.5 * math.sin(2 * math.pi * i / 24) + 0.1 * d)

        data = BaciDataset(before=offsets(gen, BEFORE_START, days=6),
                           after=offsets(gen, AFTER_START, days=6))
        estimate = baci_effect(data, seed=1)
        assert estimate.effect == pytest.approx(0.0, abs=1e-12)
        assert estimate.ci_low <= 0.0 <= estimate.ci_high

    def test_uniform_shift_recovered_exactly(self):
        def before(d, i):
            return dyadic(0.5 * math.sin(2 * math.pi * i / 24) + 0.05 * d)

        def after(d, i):
            return before(d, i) - 1.0

        data = BaciDataset(before=offsets(before, BEFORE_START, days=10),
                           after=offsets(after, AFTER_START, days=10))
        estimate = baci_effect(data, seed=7)
        # dyadic offsets make the mean difference exact in binary arithmetic
        assert estimate.effect == -1.0
        assert estimate.ci_high < 0.0
        assert estimate.n_before == estimate.n_after == 240

    def test_empty_before_period(self):
        empty = OffsetSeries("utci", "onsite", "ctrl", [], [])
        data = BaciDataset(before=empty, after=offsets(lambda d, i: 0.1,
                                                       AFTER_START, 2))
        with pytest.raises(DomainError, match="before period"):
            baci_effect(data)

    def test_seed_reproducibility_bit_exact(self):
        def gen(d, i):
            return math.sin(d + 0.3 * i)

        data = BaciDataset(before=offsets(gen, BEFORE_START, days=8),
                           after=offsets(gen, AFTER_START, days=8))
        a = baci_effect(data, seed=42)
        b = baci_effect(data, seed=42)
        assert (a.effect, a.ci_low, a.ci_high) == (b.effect, b.ci_low, b.ci_high)
        c = baci_effect(data, seed=43)
        assert (c.ci_low, c.ci_high) != (a.ci_low, a.ci_high)

    def test_shifting_after_offsets_shifts_effect_additively(self):
        def gen(d, i):
            return dyadic(0.3 * math.cos(i / 5) + 0.02 * d)

        before = offsets(gen, BEFORE_START, days=5)
        after = offsets(gen, AFTER_START, days=5)
        base = baci_effect(BaciDataset(before, after), seed=0)
        shifted_after = OffsetSeries("utci", "onsite", "ctrl", after.t_us,
                                     [v + 0.75 for v in after.values])
        shifted = baci_effect(BaciDataset(before, shifted_after), seed=0)
        assert shifted.effect == pytest.approx(base.effect + 0.75, abs=1e-12)

    def test_overlapping_periods_rejected(self):
        series = offsets(lambda d, i: 0.0, BEFORE_START, days=3)
        with pytest.raises(DomainError, match="overlap"):
            BaciDataset(before=series, after=series)

    def test_parameter_mismatch_rejected(self):
        before = offsets(lambda d, i: 0.0, BEFORE_START, days=1)
        after = OffsetSeries("t_air", "onsite", "ctrl",
                             [AFTER_START], [0.0])
        with pytest.raises(DomainError, match="parameter"):
            BaciDataset(before=before, after=after)

    def test_estimate_invariant_enforced(self):
        with pytest.raises(DomainError, match="bracket"):
            EffectEstimate(effect=1.0, ci_low=2.0, ci_high=3.0,
                           n_before=10, n_after=10)

    def test_summary_format(self):
        text = EffectEstimate(-1.0, -1.4, -0.6, 240, 240).summary()
        assert "-1.000" in text and "baci-bootstrap" in text


def loop_resamples(data, bootstrap_n, seed):
    """The bootstrap distribution one resample at a time, from the same two draws."""
    sums_b, counts_b = _day_blocks(data.before.t_us, data.before.values, 0)
    sums_a, counts_a = _day_blocks(data.after.t_us, data.after.values, 0)
    rng = np.random.default_rng(seed)
    ib = rng.integers(0, len(sums_b), (bootstrap_n, len(sums_b)))
    ia = rng.integers(0, len(sums_a), (bootstrap_n, len(sums_a)))
    return np.array([sums_a[ia[k]].sum() / counts_a[ia[k]].sum()
                     - sums_b[ib[k]].sum() / counts_b[ib[k]].sum()
                     for k in range(bootstrap_n)])


class TestDayBlockBootstrap:
    """One Generator draws a (resamples, days) index matrix per period."""

    @given(st.integers(2, 9), st.integers(2, 9), st.integers(0, 2**32 - 1),
           st.integers(1, 300))
    def test_matches_resample_loop(self, days_b, days_a, seed, bootstrap_n):
        def gen(d, i):
            return math.sin(3 * d + 0.7 * i) + 0.1 * d

        data = BaciDataset(before=offsets(gen, BEFORE_START, days=days_b, cadence_s=7200.0),
                           after=offsets(gen, AFTER_START, days=days_a, cadence_s=5400.0))
        estimate = baci_effect(data, bootstrap_n=bootstrap_n, seed=seed)
        ordered = np.sort(loop_resamples(data, bootstrap_n, seed))
        alpha = (1.0 - 0.95) / 2.0  # as baci_effect computes it; not exactly 0.025
        assert estimate.ci_low == min(_quantile(ordered, alpha), estimate.effect)
        assert estimate.ci_high == max(_quantile(ordered, 1.0 - alpha), estimate.effect)

    @given(st.integers(0, 2**32 - 2))
    def test_reproducible_per_seed_and_seed_dependent(self, seed):
        def gen(d, i):
            return math.sin(d + 0.3 * i)

        data = BaciDataset(before=offsets(gen, BEFORE_START, days=5, cadence_s=7200.0),
                           after=offsets(gen, AFTER_START, days=4, cadence_s=7200.0))
        a = baci_effect(data, bootstrap_n=500, seed=seed)
        b = baci_effect(data, bootstrap_n=500, seed=seed)
        c = baci_effect(data, bootstrap_n=500, seed=seed + 1)
        assert (a.ci_low, a.ci_high) == (b.ci_low, b.ci_high)
        assert (c.ci_low, c.ci_high) != (a.ci_low, a.ci_high)

    @pytest.mark.parametrize("seed", range(0, 100, 7))
    def test_two_blocks_give_the_support_extremes(self, seed):
        # 2000 draws hit each extreme pair with probability 1/16, about 125
        # times, so both 2.5 % and 97.5 % percentiles land on the extremes
        def gen(d, i):
            return math.cos(5 * d + i) + 0.25 * d

        data = BaciDataset(before=offsets(gen, BEFORE_START, days=2, cadence_s=3600.0),
                           after=offsets(gen, AFTER_START, days=2, cadence_s=1800.0))

        def support(series):
            sums, counts = _day_blocks(series.t_us, series.values, 0)
            return [(sums[i] + sums[j]) / (counts[i] + counts[j])
                    for i in range(len(sums)) for j in range(len(sums))]

        before, after = support(data.before), support(data.after)
        estimate = baci_effect(data, seed=seed)
        assert estimate.ci_low == min(min(after) - max(before), estimate.effect)
        assert estimate.ci_high == max(max(after) - min(before), estimate.effect)


@pytest.mark.parametrize("days_b, days_a, periods", [
    (1, 1, "the before and after periods each hold"),
    (1, 2, "the before period holds"),
    (2, 1, "the after period holds"),
])
@pytest.mark.parametrize("seed", range(0, 100, 7))
def test_one_block_period_gives_no_interval(days_b, days_a, periods, seed):
    # a one-block period has nothing to resample, so no seed yields an interval
    def gen(d, i):
        return dyadic(math.cos(5 * d + i) + 0.25 * d)

    data = BaciDataset(before=offsets(gen, BEFORE_START, days=days_b),
                       after=offsets(lambda d, i: gen(d, i) - 1.0, AFTER_START, days=days_a))
    estimate = baci_effect(data, seed=seed)
    assert (estimate.ci_low, estimate.ci_high) == (None, None)
    assert estimate.effect == np.mean(data.after.values) - np.mean(data.before.values)
    assert estimate.summary() == (
        f"BACI effect: {estimate.effect:+.3f} degC (CI unavailable: {periods} one day "
        f"block, and a day-block bootstrap needs two or more, n_before={24 * days_b}, "
        f"n_after={24 * days_a}, baci-bootstrap)")


def test_two_block_periods_give_an_interval():
    data = BaciDataset(before=offsets(lambda d, i: dyadic(0.1 * d + 0.01 * i), BEFORE_START, 2),
                       after=offsets(lambda d, i: dyadic(0.3 * d - 0.01 * i), AFTER_START, 2))
    estimate = baci_effect(data, seed=3)
    assert estimate.ci_low < estimate.ci_high
    assert estimate.ci_low <= estimate.effect <= estimate.ci_high
    assert "95% CI [" in estimate.summary()


def noisy_days(rng, mean, days, start):
    """Offsets over `days` days of 600 one-minute samples: each day's mean is
    drawn from N(mean, 0.5**2) and each sample adds N(0, 0.3**2) noise."""
    t_us = epoch_us(start) + (np.arange(days)[:, None] * DAY_US
                              + np.arange(600) * 60_000_000).ravel()
    values = (rng.normal(mean, 0.5, (days, 1)) + rng.normal(0.0, 0.3, (days, 600))).ravel()
    return OffsetSeries("utci", "case", "control", t_us, values)


@pytest.mark.parametrize("days, floor", [(3, 0.75), (7, 0.87)])
def test_interval_coverage_of_the_true_effect(days, floor):
    """The share of 400 seeded studies whose 95% interval holds the true effect
    of -1.0 degC; it was 0.8075 at 3 days per period and 0.905 at 7, and the
    floors lie about 2.9 and 2.4 binomial standard errors below them."""
    rng = np.random.default_rng(2019)
    covered = 0
    for seed in range(400):
        estimate = baci_effect(BaciDataset(before=noisy_days(rng, 0.0, days, BEFORE_START),
                                           after=noisy_days(rng, -1.0, days, AFTER_START)),
                               seed=seed)
        covered += estimate.ci_low <= -1.0 <= estimate.ci_high
    assert covered / 400 >= floor


class TestLocalDayBlocks:
    """Day blocks are local dates at the dataset's UTC offset."""

    PLUS_TWO = timezone(timedelta(hours=2))

    def local_day(self, day, level):
        """Every half hour of one local day at +02:00, which starts at 22:00 UTC."""
        start = datetime.combine(day, datetime.min.time(), self.PLUS_TWO)
        return OffsetSeries("utci", "case", "ctrl",
                            [start + timedelta(minutes=m) for m in range(0, 1440, 30)],
                            [dyadic(level + 0.01 * i) for i in range(48)])

    def test_local_day_straddling_utc_midnight_is_one_block(self):
        series = self.local_day(BEFORE_START.date(), 0.5)
        sums, counts = _day_blocks(series.t_us, series.values, 2 * 3600 * 10**6)
        assert counts.tolist() == [48.0]
        assert sums.tolist() == [sum(series.values.tolist())]
        # on UTC dates the same day is cut at UTC midnight (02:00 local), after 4 samples
        sums, counts = _day_blocks(series.t_us, series.values, 0)
        assert counts.tolist() == [4.0, 44.0]
        assert sums.tolist() == [sum(series.values[:4].tolist()),
                                 sum(series.values[4:].tolist())]

    def test_baci_blocks_on_the_dataset_offset(self):
        before = self.local_day(BEFORE_START.date(), 0.5)
        after = self.local_day(AFTER_START.date(), -0.5)
        local = baci_effect(BaciDataset(before, after, utc_offset=timedelta(hours=2)), seed=3)
        assert (local.ci_low, local.ci_high) == (None, None)
        assert "the before and after periods each hold one day block" in local.summary()
        utc = baci_effect(BaciDataset(before, after), seed=3)  # UTC dates by default
        assert utc.ci_low < utc.effect < utc.ci_high
        assert local.effect == utc.effect == -1.0


def test_offset_series_holds_columns():
    series = offsets(lambda d, i: 0.25 * i, BEFORE_START, days=1)
    assert series.t_us.dtype == np.int64 and series.values.dtype == np.float64
    assert series.t_us[1] - series.t_us[0] == 3600 * 10**6
    assert series.t_us.tolist() == [epoch_us(BEFORE_START + timedelta(hours=i))
                                    for i in range(24)]
    again = OffsetSeries("utci", "onsite", "ctrl", series.t_us, series.values.tolist())
    assert again.t_us is series.t_us and again.values.tolist() == series.values.tolist()


def test_estimate_without_an_interval_says_why():
    with pytest.raises(DomainError, match="without an interval must say why"):
        EffectEstimate(-1.0, None, None, 24, 24)


class TestQuantile:
    """`_quantile` gives `np.quantile`'s default ("linear") result bit for bit."""

    @given(st.lists(st.floats(-1e12, 1e12), min_size=1, max_size=300),
           st.one_of(st.floats(0.0, 1.0),
                     st.sampled_from([0.0, 0.5, 1.0, (1.0 - 0.95) / 2, 1.0 - (1.0 - 0.95) / 2])))
    def test_matches_np_quantile(self, values, q):
        values = np.array(values)
        got = _quantile(np.sort(values), q)
        want = np.quantile(values, q)
        assert got == want
        assert math.copysign(1.0, got) == math.copysign(1.0, want)


class TestCorrelateOffsetUcp:
    def test_strictly_increasing_pairs(self):
        pairs = [(0.5, 0.1), (1.0, 0.3), (2.5, 0.6), (4.0, 0.9)]
        result = correlate_offset_ucp(pairs)
        assert result.spearman_rho == 1.0
        assert result.n == 4

    def test_strictly_decreasing_pairs(self):
        pairs = [(4.0, 0.1), (2.0, 0.4), (1.0, 0.7), (0.5, 0.9)]
        assert correlate_offset_ucp(pairs).spearman_rho == -1.0

    def test_linear_pairs_have_unit_pearson(self):
        pairs = [(2.0 * u, u) for u in (0.1, 0.3, 0.5, 0.8)]
        result = correlate_offset_ucp(pairs)
        assert result.pearson_r == pytest.approx(1.0, abs=1e-12)

    def test_noisy_proportional_offsets_positive(self):
        rng = np.random.default_rng(20190725)
        ucp = rng.uniform(0.05, 0.95, 40)
        offset = 5.0 * ucp + rng.normal(0.0, 0.4, 40)
        result = correlate_offset_ucp(list(zip(offset, ucp)))
        assert result.spearman_rho > 0.7

    def test_too_few_pairs(self):
        with pytest.raises(DomainError, match="3 pairs"):
            correlate_offset_ucp([(1.0, 0.2), (2.0, 0.4)])

    def test_ucp_out_of_range(self):
        with pytest.raises(DomainError, match="0, 1"):
            correlate_offset_ucp([(1.0, 0.2), (2.0, 0.4), (3.0, 1.4)])

    def test_constant_input_undefined(self):
        with pytest.raises(DomainError, match="constant"):
            correlate_offset_ucp([(1.0, 0.5), (2.0, 0.5), (3.0, 0.5)])

    @given(st.lists(st.tuples(st.floats(-5, 5), st.floats(1e-3, 1)),
                    min_size=4, max_size=20,
                    unique_by=(lambda p: p[0], lambda p: p[1])))
    def test_spearman_invariant_under_monotone_transform(self, pairs):
        base = correlate_offset_ucp(pairs)
        # power-of-two scalings are exact, so ranks are preserved even for
        # adjacent floating-point inputs
        warped = [(o * 8.0, u / 4.0) for o, u in pairs]
        again = correlate_offset_ucp(warped)
        assert again.spearman_rho == pytest.approx(base.spearman_rho, abs=1e-12)


class TestAverageRanks:
    def test_ties_share_their_mean_rank(self):
        ranks = _average_ranks(np.array([3.0, 1.0, 3.0, 2.0, 1.0, 3.0]))
        assert ranks.tolist() == [5.0, 1.5, 5.0, 3.0, 1.5, 5.0]

    def test_distinct_values_rank_by_order(self):
        assert _average_ranks(np.array([0.3, -1.0, 7.5])).tolist() == [2.0, 1.0, 3.0]

    def test_non_finite_input_rejected(self):
        with pytest.raises(DomainError, match="non-finite"):
            correlate_offset_ucp([(1.0, 0.2), (math.nan, 0.4), (3.0, 0.6)])


class TestScatterExport:
    PAIRS = [(0.5, 0.12), (2.0, 0.55), (4.5, 0.91)]

    def test_one_marker_per_pair(self):
        svg = scatter_svg(self.PAIRS)
        assert svg.count("<circle") == 3
        assert svg.startswith("<svg ")

    def test_single_pair(self):
        assert scatter_svg([(1.0, 0.5)]).count("<circle") == 1

    def test_byte_deterministic(self):
        assert scatter_svg(self.PAIRS) == scatter_svg(self.PAIRS)
        assert scatter_csv(self.PAIRS) == scatter_csv(self.PAIRS)

    def test_empty_input(self):
        with pytest.raises(DomainError):
            scatter_svg([])
        with pytest.raises(DomainError):
            scatter_csv([])

    def test_csv_round_trips_values(self):
        body = scatter_csv(self.PAIRS)
        lines = body.strip().split("\n")
        assert lines[0] == "utci_offset_c,ucp"
        parsed = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
        assert parsed == self.PAIRS
