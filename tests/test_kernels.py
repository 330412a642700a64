"""Numeric kernels: correctness of each metric primitive, its batched form, the
quantile helpers and the clip kernel."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from yumalab.consensus import clip_benchmarks
from yumalab.metrics import (
    _blocks,
    _centred_rows,
    _coalition_rows,
    _concentration,
    _median,
    _pearson_rows,
    _percentiles,
    coalition_fraction,
    gini,
    hhi,
    pearson,
    top_share,
)


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


# The concentration, coalition and correlation kernels compute a batch of
# equal-length rows at once; the public functions pass a batch of one. A
# batch must give each row the bits that row gives alone, and those must be
# the bits of the per-vector NumPy formulas below (np.dot, np.sum,
# np.partition, np.searchsorted on one vector), which the reports were
# computed with before they were batched. The drawn batches mix lengths at
# the edges of NumPy's pairwise-summation blocks (8, 128) and beyond, and
# hold ties, zeros of both signs, subnormals and values up to the float64
# maximum, whose sums overflow; the overflows are compared as values, so
# they run with NumPy's errors ignored.


def vector_concentration(x):
    """(gini, hhi, top-1% share) of a vector with positive mass."""
    n = x.shape[0]
    ascending = np.sort(x)
    total, sorted_total = float(np.sum(x)), float(np.sum(ascending))
    gini_value = (2.0 * float(np.dot(np.arange(1.0, n + 1.0), ascending)) - (n + 1.0) * sorted_total) / (
        n * sorted_total)
    shares = x / total
    k = math.ceil(0.01 * n)
    top = float(np.sum(x)) if k >= n else float(np.max(x)) if k == 1 else float(np.sum(np.partition(x, n - k)[n - k:]))
    return gini_value, float(np.dot(shares, shares)), top / total


def vector_coalition(x, threshold):
    cumulative = np.cumsum(np.sort(x)[::-1])
    m = int(np.searchsorted(cumulative, threshold * float(cumulative[-1]), side="left")) + 1
    return min(m, x.shape[0]) / x.shape[0]


def vector_pearson(x, y):
    """NaN on zero variance, and where the quotient is NaN (sums of squares
    beyond the float range), which min and max would turn into -1.0."""
    dx, dy = x - float(np.mean(x)), y - float(np.mean(y))
    sxx, syy = float(np.dot(dx, dx)), float(np.dot(dy, dy))
    if sxx == 0.0 or syy == 0.0:
        return math.nan
    product = sxx * syy
    scale = math.sqrt(product) if 2.2250738585072014e-308 <= product < math.inf else math.sqrt(sxx) * math.sqrt(syy)
    r = float(np.dot(dx, dy)) / scale
    return r if r != r else min(1.0, max(-1.0, r))
EDGE_LENGTHS = (1, 7, 8, 9, 128, 129, 1025)
SPECIALS = np.array([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.0, 3.0, 1.7976931348623157e308])


@st.composite
def batches(draw, signed=False):
    """(values, offsets): segments values[offsets[s]:offsets[s + 1]] of
    mixed lengths, some empty, most sharing a length with another."""
    lengths = draw(st.lists(st.sampled_from(EDGE_LENGTHS) | st.integers(0, 12), min_size=1, max_size=8))
    lengths += draw(st.permutations(lengths))[:draw(st.integers(0, len(lengths)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = sum(lengths)
    # Binary exponents up to `top`, over a range narrow enough that the
    # order of a sum shows in its last bits, or over the whole float range.
    top = draw(st.sampled_from([0, 64, 1000, 1024]))
    spread = draw(st.sampled_from([1, 8, 2098]))
    values = np.ldexp(rng.random(n), rng.integers(max(top - spread, -1074), top + 1, n))
    specials = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    values[specials] = rng.choice(SPECIALS, np.count_nonzero(specials))
    ties = rng.random(n) < 0.2
    values[ties] = rng.choice(values, np.count_nonzero(ties))
    if signed:
        values[rng.random(n) < 0.5] *= -1.0
    return values, np.append(0, np.cumsum(lengths))


def segment_values(values, offsets):
    return [values[start:stop] for start, stop in zip(offsets[:-1], offsets[1:])]


def hexes(values):
    return [float(value).hex() for value in values]


BATCH_SETTINGS = settings(max_examples=120, deadline=None)


class TestBatchedKernelsMatchPublicFunctions:
    @BATCH_SETTINGS
    @given(batch=batches())
    def test_concentration(self, batch):
        values, offsets = batch
        with np.errstate(all="ignore"):
            batched = _concentration(values, offsets)
            for s, x in enumerate(segment_values(values, offsets)):
                if x.shape[0] and np.sum(x) > 0.0:
                    alone, vector = (gini(x), hhi(x), top_share(x)), vector_concentration(x)
                else:
                    alone = vector = (math.nan,) * 3
                assert hexes(batched[:, s]) == hexes(alone) == hexes(vector)

    @BATCH_SETTINGS
    @given(batch=batches(), threshold=st.sampled_from([0.51, 1.0 / 3.0, 1.0, 5e-324]))
    def test_coalition_fraction(self, batch, threshold):
        values, offsets = batch
        with np.errstate(all="ignore"):
            for segments, block in _blocks(values, offsets):
                mass = np.sum(block, axis=1) > 0.0
                batched = _coalition_rows(np.sort(block[mass], axis=1), threshold)
                rows = [values[offsets[s]:offsets[s + 1]] for s in segments[mass]]
                alone = [coalition_fraction(x, threshold) for x in rows]
                assert hexes(batched) == hexes(alone) == hexes(vector_coalition(x, threshold) for x in rows)

    @BATCH_SETTINGS
    @given(x=batches(signed=True), data=st.data())
    def test_pearson(self, x, data):
        values, offsets = x
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        others = np.where(rng.random(values.shape[0]) < 0.5, values[rng.permutation(values.shape[0])], values * 0.5)
        with np.errstate(all="ignore"):
            for segments, block in _blocks(values, offsets):
                if block.shape[1] < 2:
                    continue
                other = others[offsets[segments, None] + np.arange(block.shape[1])]
                batched = _pearson_rows(_centred_rows(block), _centred_rows(other))
                pairs = [(values[offsets[s]:offsets[s + 1]], others[offsets[s]:offsets[s + 1]]) for s in segments]
                alone = [pearson(x, y) for x, y in pairs]
                assert (hexes(batched) == hexes(math.nan if r is None else r for r in alone)
                        == hexes(vector_pearson(x, y) for x, y in pairs))


# _median and _percentiles stand in for np.median and np.percentile, which
# import numpy.ma; they must give NumPy's bits, and under the CLI's errstate
# the same FloatingPointError where a middle pair overflows.
MAX = 1.7976931348623157e308
QUANTILE_VALUES = st.lists(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, 1.0, 0.5, MAX, -MAX])
    | st.floats(allow_nan=False, allow_infinity=False),
    min_size=1, max_size=40,
)


def quantile_outcome(compute, errors):
    with np.errstate(**errors):
        try:
            return hexes(compute())
        except FloatingPointError as exc:
            return str(exc)


class TestQuantilesMatchNumPy:
    @pytest.mark.parametrize("errors", [{"all": "ignore"}, {"over": "raise", "divide": "raise", "invalid": "raise"}],
                             ids=["ignored", "cli"])
    @settings(max_examples=300, deadline=None)
    @given(values=QUANTILE_VALUES)
    @example(values=[MAX, MAX])
    @example(values=[-MAX, MAX])
    @example(values=[1.0, -MAX, MAX, 2.0])
    @example(values=[-0.0])
    @example(values=[-0.0, -0.0])
    @example(values=[0.0] * 8 + [-0.0])
    @example(values=[0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 1.0])
    def test_median_and_percentiles(self, errors, values):
        assert (quantile_outcome(lambda: [_median(values)], errors)
                == quantile_outcome(lambda: [np.median(values)], errors))
        assert (quantile_outcome(lambda: _percentiles(values, (10.0, 50.0, 90.0)), errors)
                == quantile_outcome(lambda: np.percentile(values, [10.0, 50.0, 90.0]), errors))

    def test_an_overflowing_middle_pair_raises_as_numpy_does(self):
        errors = {"over": "raise", "divide": "raise", "invalid": "raise"}
        assert quantile_outcome(lambda: [_median([MAX, MAX])], errors) == "overflow encountered in reduce"
        assert (quantile_outcome(lambda: _percentiles([-MAX, MAX], (10.0, 50.0, 90.0)), errors)
                == "overflow encountered in subtract")
