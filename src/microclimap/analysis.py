"""Statistical layer: BACI effect estimation and offset-vs-UCP association.

The BACI (before-after-control-impact) estimator works on case-minus-
control offset series so that common weather variation cancels; its
confidence interval bootstraps whole days rather than individual samples
because 1-minute weather readings are strongly autocorrelated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import timedelta

import numpy as np

from .errors import DomainError
from .series import DAY_US, OffsetSeries


@dataclass
class BaciDataset:
    """Offsets for one parameter split into before/after periods, with the
    fixed UTC offset of the local days the bootstrap blocks on."""

    before: OffsetSeries
    after: OffsetSeries
    utc_offset: timedelta = timedelta(0)

    def __post_init__(self):
        if self.before.parameter != self.after.parameter:
            raise DomainError(
                f"parameter mismatch: {self.before.parameter} vs {self.after.parameter}")
        before, after = self.before.t_us, self.after.t_us
        if (len(before) and len(after)
                and before.max() >= after.min() and after.max() >= before.min()):
            raise DomainError("before and after periods overlap in time")


@dataclass(frozen=True)
class EffectEstimate:
    """A BACI effect with its bootstrap interval, or the reason there is none."""

    effect: float    # degC, mean(after) - mean(before)
    ci_low: float | None
    ci_high: float | None
    n_before: int
    n_after: int
    ci_unavailable: str | None = None  # why the data support no interval

    def __post_init__(self):
        if self.ci_low is None or self.ci_high is None:
            if self.ci_unavailable is None:
                raise DomainError("an estimate without an interval must say why")
        elif not self.ci_low <= self.effect <= self.ci_high:
            raise DomainError(
                f"confidence interval [{self.ci_low}, {self.ci_high}] does not "
                f"bracket the effect {self.effect}")

    def summary(self) -> str:
        interval = (f"CI unavailable: {self.ci_unavailable}" if self.ci_low is None
                    else f"95% CI [{self.ci_low:+.3f}, {self.ci_high:+.3f}]")
        return (f"BACI effect: {self.effect:+.3f} degC ({interval}, "
                f"n_before={self.n_before}, n_after={self.n_after}, baci-bootstrap)")


def _day_blocks(t_us: np.ndarray, values: np.ndarray, utc_offset_us: int):
    """Sums (added in input order) and counts of `values` per local date, in date order."""
    _, day = np.unique((t_us + utc_offset_us) // DAY_US, return_inverse=True)
    return np.bincount(day, weights=values), np.bincount(day).astype(float)


def _quantile(ordered: np.ndarray, q: float) -> float:
    """`np.quantile(ordered, q)` of sorted values, with the same default "linear" rule.

    Written out because `np.quantile` imports `numpy.ma` on first use, which
    costs about 18 ms per process.
    """
    v = (len(ordered) - 1) * q
    lo = math.floor(v)
    hi = lo + 1
    if hi >= len(ordered):  # numpy then reads the last value at index -1 for both
        lo = hi = -1
    a, b = float(ordered[lo]), float(ordered[hi])
    g = v - lo
    return b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g


def baci_effect(data: BaciDataset, bootstrap_n: int = 2000, seed: int = 0) -> EffectEstimate:
    """Mean after-minus-before offset with a day-block 95% percentile bootstrap CI.

    Days (not samples), local dates at `data.utc_offset`, are resampled
    independently in each period with replacement. One Generator seeded with
    `seed` draws every resample at once, a `(bootstrap_n, days)` index matrix
    for the before period and then one for the after period, so the estimate
    is bit-reproducible for a fixed seed. A period of one day block has no
    spread to resample, so no interval is drawn and the estimate says why.
    """
    before, after = data.before, data.after
    if not len(before.values):
        raise DomainError("before period is empty")
    if not len(after.values):
        raise DomainError("after period is empty")

    effect = float(np.mean(after.values) - np.mean(before.values))

    offset_us = data.utc_offset // timedelta(microseconds=1)
    sums_b, counts_b = _day_blocks(before.t_us, before.values, offset_us)
    sums_a, counts_a = _day_blocks(after.t_us, after.values, offset_us)
    single = [name for name, sums in (("before", sums_b), ("after", sums_a)) if len(sums) < 2]
    if single:
        periods = (f"the {single[0]} period holds" if len(single) == 1
                   else "the before and after periods each hold")
        return EffectEstimate(
            effect=effect, ci_low=None, ci_high=None,
            n_before=len(before.values), n_after=len(after.values),
            ci_unavailable=f"{periods} one day block, and a day-block bootstrap "
                           "needs two or more")

    rng = np.random.default_rng(seed)
    ib = rng.integers(0, len(sums_b), (bootstrap_n, len(sums_b)))
    ia = rng.integers(0, len(sums_a), (bootstrap_n, len(sums_a)))
    resampled = (sums_a[ia].sum(axis=1) / counts_a[ia].sum(axis=1)
                 - sums_b[ib].sum(axis=1) / counts_b[ib].sum(axis=1))
    alpha = (1.0 - 0.95) / 2.0  # 0.025000000000000022, the tail each bound cuts
    resampled.sort()
    ci_low = _quantile(resampled, alpha)
    ci_high = _quantile(resampled, 1.0 - alpha)
    return EffectEstimate(
        effect=effect,
        ci_low=min(ci_low, effect),
        ci_high=max(ci_high, effect),
        n_before=len(before.values),
        n_after=len(after.values),
    )


@dataclass(frozen=True)
class CorrelationResult:
    spearman_rho: float
    pearson_r: float
    n: int


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; each group of tied values shares the mean of its ranks."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(ordered)]
    # a group holding sorted positions start..end-1 has ranks start+1..end
    group_rank = 0.5 * (starts + 1 + ends)
    ranks = np.empty(len(values))
    ranks[order] = np.repeat(group_rank, ends - starts)
    return ranks


def correlate_offset_ucp(pairs: list[tuple[float, float]]) -> CorrelationResult:
    """Spearman (average-rank ties) and Pearson correlation of (offset, ucp) pairs.

    Spearman's rho is the Pearson correlation of the average ranks, the
    same computation as ``scipy.stats.spearmanr``.
    """
    if len(pairs) < 3:
        raise DomainError(f"need at least 3 pairs, got {len(pairs)}")
    offsets = np.array([p[0] for p in pairs])
    ucp = np.array([p[1] for p in pairs])
    if not (np.isfinite(offsets).all() and np.isfinite(ucp).all()):
        raise DomainError("correlation undefined for non-finite input")
    if ucp.min() < 0 or ucp.max() > 1:
        raise DomainError("UCP values must lie in [0, 1]")
    if np.ptp(offsets) == 0 or np.ptp(ucp) == 0:
        raise DomainError("correlation undefined for constant input")
    rho = float(np.corrcoef(_average_ranks(offsets), _average_ranks(ucp))[1, 0])
    r = float(np.corrcoef(offsets, ucp)[1, 0])
    return CorrelationResult(spearman_rho=rho, pearson_r=r, n=len(pairs))


_SVG_WIDTH = 640
_SVG_HEIGHT = 480
_SVG_MARGIN = 50
_SVG_TICKS = 5


def _ticks(lo: float, hi: float) -> list[float]:
    return [lo + (hi - lo) * i / (_SVG_TICKS - 1) for i in range(_SVG_TICKS)]


def scatter_svg(pairs: list[tuple[float, float]]) -> str:
    """Minimal static SVG scatter plot; byte-deterministic for fixed input."""
    if not pairs:
        raise DomainError("no pairs to plot")
    xs = [p[1] for p in pairs]
    ys = [p[0] for p in pairs]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    plot_w = _SVG_WIDTH - 2 * _SVG_MARGIN
    plot_h = _SVG_HEIGHT - 2 * _SVG_MARGIN

    def px(x):
        return _SVG_MARGIN + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return _SVG_HEIGHT - _SVG_MARGIN - (y - y_lo) / (y_hi - y_lo) * plot_h

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" '
        f'height="{_SVG_HEIGHT}" viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        f'<rect x="0" y="0" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
        f'<line x1="{_SVG_MARGIN}" y1="{_SVG_HEIGHT - _SVG_MARGIN}" '
        f'x2="{_SVG_WIDTH - _SVG_MARGIN}" y2="{_SVG_HEIGHT - _SVG_MARGIN}" stroke="black"/>',
        f'<line x1="{_SVG_MARGIN}" y1="{_SVG_MARGIN}" '
        f'x2="{_SVG_MARGIN}" y2="{_SVG_HEIGHT - _SVG_MARGIN}" stroke="black"/>',
    ]
    for tick in _ticks(x_lo, x_hi):
        x = px(tick)
        lines.append(f'<line x1="{x:.2f}" y1="{_SVG_HEIGHT - _SVG_MARGIN}" '
                     f'x2="{x:.2f}" y2="{_SVG_HEIGHT - _SVG_MARGIN + 5}" stroke="black"/>')
        lines.append(f'<text x="{x:.2f}" y="{_SVG_HEIGHT - _SVG_MARGIN + 18}" '
                     f'font-size="10" text-anchor="middle">{tick:.3f}</text>')
    for tick in _ticks(y_lo, y_hi):
        y = py(tick)
        lines.append(f'<line x1="{_SVG_MARGIN - 5}" y1="{y:.2f}" '
                     f'x2="{_SVG_MARGIN}" y2="{y:.2f}" stroke="black"/>')
        lines.append(f'<text x="{_SVG_MARGIN - 8}" y="{y + 3:.2f}" '
                     f'font-size="10" text-anchor="end">{tick:.3f}</text>')
    lines.append(f'<text x="{_SVG_WIDTH / 2:.0f}" y="{_SVG_HEIGHT - 10}" '
                 f'font-size="12" text-anchor="middle">ucp</text>')
    lines.append(f'<text x="15" y="{_SVG_HEIGHT / 2:.0f}" font-size="12" '
                 f'text-anchor="middle" transform="rotate(-90 15 {_SVG_HEIGHT / 2:.0f})">'
                 'utci_offset_c</text>')
    for offset, ucp in pairs:
        lines.append(f'<circle cx="{px(ucp):.2f}" cy="{py(offset):.2f}" r="3" '
                     f'fill="steelblue" fill-opacity="0.8"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def scatter_csv(pairs: list[tuple[float, float]]) -> str:
    """CSV body of (utci_offset_c, ucp) pairs, deterministic formatting."""
    if not pairs:
        raise DomainError("no pairs to export")
    rows = ["utci_offset_c,ucp"]
    rows.extend(f"{repr(o)},{repr(u)}" for o, u in pairs)
    return "\n".join(rows) + "\n"
