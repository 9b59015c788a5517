"""correlate_offset_ucp against scipy.stats on inputs with many ties.

scipy is a test-only dependency, so the module is skipped without it.
"""

from hypothesis import assume, given
from hypothesis import strategies as st
import pytest

from microclimap.analysis import correlate_offset_ucp

stats = pytest.importorskip("scipy.stats")


@st.composite
def tied_pairs(draw):
    """(offset, ucp) pairs on a 1- or 2-decimal grid, so values repeat often."""
    n = draw(st.integers(3, 400))
    scale = 10 ** draw(st.integers(1, 2))
    offsets = draw(st.lists(st.integers(-5 * scale, 5 * scale), min_size=n, max_size=n))
    ucp = draw(st.lists(st.integers(0, scale), min_size=n, max_size=n))
    return [(o / scale, u / scale) for o, u in zip(offsets, ucp)]


@given(tied_pairs())
def test_matches_scipy(pairs):
    offsets, ucp = zip(*pairs)
    assume(len(set(offsets)) > 1 and len(set(ucp)) > 1)
    result = correlate_offset_ucp(pairs)
    assert result.spearman_rho == float(stats.spearmanr(offsets, ucp).statistic)
    assert result.pearson_r == pytest.approx(
        float(stats.pearsonr(offsets, ucp).statistic), abs=1e-12)
