"""Numeric kernels: correctness of each metric primitive and the clip kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from yumalab.consensus import clip_benchmarks
from yumalab.metrics import coalition_fraction, gini, hhi, pearson, top_share


@pytest.fixture(scope="module", autouse=True, params=["pure"])
def numpy_implementation():
    """Keeps the "[pure]" id suffix these tests carried while a second,
    compiled backend existed, so their ids stay comparable across runs."""


class TestGini:
    def test_single_holder(self):
        assert gini(np.array([0.0, 0.0, 0.0, 1.0])) == pytest.approx(0.75, abs=1e-12)

    def test_uniform_ladder(self):
        assert gini(np.array([1.0, 2.0, 3.0, 4.0])) == pytest.approx(0.25, abs=1e-12)

    def test_equal_values(self):
        assert gini(np.full(10, 3.0)) == pytest.approx(0.0, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.pareto(1.5, size=rng.integers(2, 60)) + 0.1
            assert gini(x * 1000.0) == pytest.approx(gini(x), abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.random(40)
        g = gini(x)
        for _ in range(10):
            assert gini(rng.permutation(x)) == pytest.approx(g, abs=1e-12)


class TestHHI:
    def test_known_value(self):
        shares = np.array([0.5, 0.3, 0.2])
        assert hhi(shares) == pytest.approx(0.38, abs=1e-12)

    def test_monopoly(self):
        assert hhi(np.array([1.0])) == pytest.approx(1.0)

    def test_equal_split_is_reciprocal_n(self):
        for n in (2, 5, 17):
            shares = np.full(n, 1.0 / n)
            assert hhi(shares) == pytest.approx(1.0 / n, abs=1e-12)


class TestTopkSum:
    def test_selects_largest(self):
        x = np.array([5.0, 1.0, 9.0, 3.0])
        assert top_share(x, 0.5) == pytest.approx(14.0 / 18.0)

    def test_k_equals_n(self):
        x = np.array([1.0, 2.0])
        assert top_share(x, 1.0) == pytest.approx(1.0)


class TestPearson:
    def test_perfect_line(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert pearson(x, 2.0 * x + 1.0) == pytest.approx(1.0, abs=1e-12)
        assert pearson(x, -x) == pytest.approx(-1.0, abs=1e-12)

    def test_constant_input_is_none(self):
        assert pearson(np.full(4, 2.0), np.array([1.0, 2.0, 3.0, 4.0])) is None

    def test_matches_numpy_corrcoef(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(3, 50))
            x, y = rng.random(n), rng.random(n)
            expected = float(np.corrcoef(x, y)[0, 1])
            assert pearson(x, y) == pytest.approx(expected, abs=1e-10)


class TestCoalitionCount:
    def test_single_whale(self):
        stakes = np.array([100.0, 1.0, 1.0, 1.0])
        assert coalition_fraction(stakes, 0.51) == 1 / 4

    def test_equal_stakes(self):
        stakes = np.full(100, 1.0)
        assert coalition_fraction(stakes, 0.51) == 51 / 100

    def test_threshold_is_inclusive(self):
        stakes = np.array([1.0, 1.0])
        assert coalition_fraction(stakes, 0.5) == 1 / 2


def per_column_clip(weights, stakes, kappa):
    """Reference oracle: the clip kernel as one sort and search per miner."""
    w = np.asarray(weights, dtype=np.float64)
    s = np.asarray(stakes, dtype=np.float64)
    target = kappa * float(np.sum(s))
    out = np.empty(w.shape[1], dtype=np.float64)
    for j in range(w.shape[1]):
        column = w[:, j]
        order = np.argsort(-column, kind="stable")
        sorted_w = column[order]
        backing = np.cumsum(s[order])
        # Last index of each run of equal weights: the full stake backing
        # that candidate value.
        ends = np.nonzero(np.diff(sorted_w))[0]
        ends = np.append(ends, sorted_w.shape[0] - 1)
        pick = int(np.searchsorted(backing[ends], target, side="left"))
        if pick >= ends.shape[0]:
            pick = ends.shape[0] - 1
        out[j] = sorted_w[ends[pick]]
    return out


WEIGHT_VALUES = {
    "tenths": st.integers(0, 10).map(lambda k: k / 10),
    "thirds": st.integers(0, 3).map(lambda k: k / 3),
    "any": st.floats(0.0, 1.0),
}


@st.composite
def clip_cases(draw):
    """Tie-heavy weight matrices, stakes with zeros (at least one positive)
    and kappa in (0, 1] with its endpoints 0.5 and 1.0 drawn often."""
    n_val = draw(st.integers(1, 40))
    n_min = draw(st.integers(1, 40))
    values = WEIGHT_VALUES[draw(st.sampled_from(sorted(WEIGHT_VALUES)))]
    weights = draw(arrays(np.float64, (n_val, n_min), elements=values))
    flat = draw(arrays(np.bool_, n_min))
    weights[:, flat] = weights[0, flat]
    stakes = draw(arrays(np.float64, n_val, elements=st.one_of(
        st.just(0.0), st.integers(1, 5).map(float), st.floats(0.0, 100.0))))
    if not np.any(stakes > 0.0):
        stakes[draw(st.integers(0, n_val - 1))] = draw(st.floats(0.01, 100.0))
    kappa = draw(st.one_of(st.just(0.5), st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)))
    return weights, stakes, kappa


class TestClipBenchmarks:
    def kappa_half(self, stakes, column):
        return self.kappa_half_with(stakes, column, 0.5)

    def kappa_half_with(self, stakes, column, kappa):
        weights = np.array(column, dtype=np.float64).reshape(-1, 1)
        return float(clip_benchmarks(weights, np.asarray(stakes, dtype=np.float64), kappa)[0])

    def test_majority_backs_lower_weight(self):
        # The 0.9 weight is backed by only a quarter of the stake, so the
        # benchmark falls to 0.5 which the heavy validator supports.
        assert self.kappa_half([3.0, 1.0], [0.5, 0.9]) == 0.5

    def test_split_stake_takes_larger_weight(self):
        # Equal stakes: weight 0.8 is backed by exactly half the stake.
        assert self.kappa_half([1.0, 1.0], [0.2, 0.8]) == 0.8

    def test_zero_stake_validators_contribute_no_backing(self):
        assert self.kappa_half([0.0, 1.0], [0.9, 0.1]) == 0.1

    def test_all_equal_weights(self):
        assert self.kappa_half([1.0, 2.0, 3.0], [0.4, 0.4, 0.4]) == 0.4

    def test_smallest_weight_is_floor(self):
        # No candidate reaches the backing target except the smallest one,
        # which is backed by all stake by construction.
        assert self.kappa_half([1.0, 1.0, 8.0], [0.9, 0.5, 0.1]) == 0.1

    def test_multiple_columns_independent(self):
        stakes = np.array([3.0, 1.0])
        weights = np.array([[0.5, 0.1], [0.9, 0.9]])
        np.testing.assert_allclose(clip_benchmarks(weights, stakes, 0.5), [0.5, 0.1])

    def test_kappa_one_requires_unanimous_backing(self):
        assert self.kappa_half_with([1.0, 1.0], [0.3, 0.7], 1.0) == 0.3

    @settings(max_examples=200, deadline=None)
    @given(clip_cases())
    def test_matches_per_column_oracle(self, case):
        weights, stakes, kappa = case
        expected = per_column_clip(weights, stakes, kappa)
        assert clip_benchmarks(weights, stakes, kappa).tobytes() == expected.tobytes()
