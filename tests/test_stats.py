import math
import tracemalloc

import numpy as np
import pytest
from scipy import special as sps
from scipy import stats as scipy_stats

from gausszig import (
    Lcg48,
    ScriptedSource,
    SplitMix64,
    chi_square_gof,
    equal_probability_edges,
    ks_test,
    low_bits_chi_square,
    moments,
    normal_cdf,
    normal_quantile,
)
from gausszig import stats
from gausszig.stats import (
    BLOCK,
    MomentSummary,
    chi_square_sf,
    regularized_gamma_q,
    uniform_counts_gof,
)

from conftest import adaptive_simpson


class TestNormalCdf:
    def test_symmetry_point(self):
        assert normal_cdf(0.0) == 0.5

    def test_vector_cdf_is_normal_cdf_bit_for_bit(self):
        ends = [s * v for v in (0.0, 5e-324, 1e-300, 8.3, 38.5, 40.0)
                for s in (1.0, -1.0)]
        x = np.concatenate(
            [ends, np.random.default_rng(83).normal(0.0, 4.0, size=10_000)])
        expected = np.array([normal_cdf(v) for v in x.tolist()])
        assert stats._normal_cdf_at(x).tobytes() == expected.tobytes()

    def test_saturation(self):
        assert abs(normal_cdf(10.0) - 1.0) < 1e-12
        assert normal_cdf(-40.0) >= 0.0

    def test_phi_of_one_against_quadrature(self):
        oracle = 0.5 + adaptive_simpson(
            lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi), 0.0, 1.0)
        assert abs(normal_cdf(1.0) - 0.8413447461) < 1e-9
        assert abs(normal_cdf(1.0) - oracle) < 1e-12

    def test_quadrature_agreement_on_grid(self):
        # oracle: panel-by-panel quadrature of the density accumulated from 0,
        # mapped onto the negative half-grid by index symmetry
        grid = [float(x) for x in np.linspace(-8.0, 8.0, 1000)]
        half = len(grid) // 2  # grid[half:] are the positive points

        def dens(t):
            return math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)

        acc, prev = 0.0, 0.0
        cdf_pos = []
        for x in grid[half:]:
            acc += adaptive_simpson(dens, prev, x, tol=1e-14)
            cdf_pos.append(0.5 + acc)
            prev = x
        for i, x in enumerate(grid):
            if i >= half:
                oracle = cdf_pos[i - half]
            else:
                oracle = 1.0 - cdf_pos[len(grid) - 1 - i - half]
            assert abs(normal_cdf(x) - oracle) < 1e-9

    def test_monotone_on_sorted_grid(self):
        grid = np.linspace(-12.0, 12.0, 4001)
        vals = [normal_cdf(float(x)) for x in grid]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            normal_cdf(bad)


class TestNormalQuantile:
    def test_round_trip(self):
        for p in (0.001, 0.01, 0.3, 0.5, 0.77, 0.99, 0.999):
            assert abs(normal_cdf(normal_quantile(p)) - p) < 1e-12

    def test_against_scipy(self):
        for p in (0.01, 0.1, 0.25, 0.5, 0.9, 0.975):
            assert abs(normal_quantile(p) - scipy_stats.norm.ppf(p)) < 1e-9

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 2.0])
    def test_rejects_out_of_range(self, p):
        with pytest.raises(ValueError):
            normal_quantile(p)

    @staticmethod
    def _full_bisection(p):
        # the quantile as it was computed before the early exit: all 200
        # halvings, whether or not they still move lo or hi
        lo, hi = -40.0, 40.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if normal_cdf(mid) < p:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def test_early_exit_is_bit_identical_to_full_bisection(self):
        rng = np.random.default_rng(11)
        ps = [j / bins for bins in (2, 10, 100, 1000) for j in range(1, bins)]
        ps += rng.random(2000).tolist()
        ps += (10.0 ** rng.uniform(-300, -1, 100)).tolist()
        ps += [1e-300, 5e-324, 0.5 - 1e-17, 1 - 2 ** -53]
        for p in ps:
            assert normal_quantile(p) == self._full_bisection(p), p


class TestSpecialFunctions:
    def test_gamma_q_against_scipy(self):
        for s in (0.5, 1.0, 2.5, 50.0, 127.5):
            for x in (0.0, 0.3, 1.0, 5.0, 40.0, 200.0):
                assert abs(regularized_gamma_q(s, x)
                           - sps.gammaincc(s, x)) < 1e-12

    def test_chi_square_sf_known_value(self):
        # P(chi2_1 >= 4) = erfc(sqrt(2))
        assert abs(chi_square_sf(4.0, 1) - 0.045500263896358) < 1e-12

    def test_chi_square_sf_against_scipy(self):
        for dof in (1, 2, 10, 99, 255):
            for stat in (0.0, 0.5, float(dof), 3.0 * dof):
                assert abs(chi_square_sf(stat, dof)
                           - scipy_stats.chi2.sf(stat, dof)) < 1e-11


class TestMoments:
    def test_alternating_pm_one(self):
        s = moments([-1.0, 1.0, -1.0, 1.0])
        assert s.mean == 0.0
        assert abs(s.variance - 4.0 / 3.0) < 1e-15

    def test_constant_sample_degenerates_to_zero_shape(self):
        # 0.1 * 10 sums to 0.9999999999999999, so sum/n misses the constant
        for value in (3.25, 0.1):
            s = moments([value] * 10)
            assert s.mean == value
            assert s.variance == 0.0
            assert s.skewness == 0.0
            assert s.excess_kurtosis == 0.0

    def test_requires_four_samples(self):
        with pytest.raises(ValueError):
            moments([1.0, 2.0, 3.0])

    def test_against_scipy_population_conventions(self):
        rng = np.random.default_rng(7)
        data = rng.gamma(2.0, size=5000)
        s = moments(data)
        assert abs(s.mean - np.mean(data)) < 1e-12
        assert abs(s.variance - np.var(data, ddof=1)) < 1e-10
        assert abs(s.skewness - scipy_stats.skew(data)) < 1e-10
        assert abs(s.excess_kurtosis - scipy_stats.kurtosis(data)) < 1e-9

    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_against_scipy_at_block_boundaries(self, n):
        data = np.random.default_rng(n).gamma(2.0, size=n)
        s = moments(data)
        assert s.n == n
        assert abs(s.mean - np.mean(data)) < 1e-12
        assert abs(s.variance - np.var(data, ddof=1)) < 1e-10
        assert abs(s.skewness - scipy_stats.skew(data)) < 1e-10
        assert abs(s.excess_kurtosis - scipy_stats.kurtosis(data)) < 1e-9

    def test_list_and_array_give_identical_summaries(self):
        data = np.random.default_rng(13).normal(size=BLOCK + 3)
        assert moments(data.tolist()) == moments(data)

    def test_one_pass_is_stable_under_large_offset(self):
        rng = np.random.default_rng(11)
        data = rng.normal(size=2000)
        shifted = data + 1e9
        s = moments(shifted)
        assert abs(s.variance - np.var(shifted, ddof=1)) < 1e-6

    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_bit_identical_to_the_block_loop_with_fresh_temporaries(self, n):
        data = np.random.default_rng(n).normal(0.3, 1.7, size=n)
        assert moments(data) == _moments_fresh_temporaries(data)


def _moments_fresh_temporaries(arr):
    """moments as it was computed before the block loop reused two buffers:
    d, d^2, d^3 and d^4 as new arrays in every block."""
    n = arr.shape[0]
    lo, hi = arr.min(), arr.max()
    mean = float(lo) if lo == hi else float(arr.sum()) / n
    m2 = m3 = m4 = 0.0
    for start in range(0, n, BLOCK):
        d = arr[start:start + BLOCK] - mean
        d2 = d * d
        m2 += float(d2.sum())
        m3 += float((d2 * d).sum())
        m4 += float((d2 * d2).sum())
    if m2 == 0.0:
        skew = kurt = 0.0
    else:
        skew = math.sqrt(float(n)) * m3 / m2 ** 1.5
        kurt = n * m4 / (m2 * m2) - 3.0
    return MomentSummary(n=n, mean=mean, variance=m2 / (n - 1),
                         skewness=skew, excess_kurtosis=kurt)


def ks_reference(samples):
    """Per-element KS distance against the standard normal."""
    xs = sorted(float(v) for v in samples)
    n = len(xs)
    d = 0.0
    for i, v in enumerate(xs, start=1):
        f = 0.5 * math.erfc(-v / math.sqrt(2.0))
        d = max(d, i / n - f, f - (i - 1) / n)
    return d


def _engine_deviates(n):
    from gausszig import engine, make_sampler, make_source

    buf = np.empty(n, dtype=np.float64)
    engine.fill_gaussians(make_sampler("ziggurat"),
                          make_source("splitmix", 0x5EEDBA5E), buf)
    return buf


_RUN = stats._KS_RUN


def _grid(n):
    # the sample whose every gap is 0.5/n
    return sps.ndtri((np.arange(n) + 0.5) / n)


def _tied(x, start, stop, at, peak):
    # points start..stop-1 all at x[at], which keeps x ascending, and the
    # largest gap then at the 1-based index peak alone
    x[start:stop] = x[at]
    f = np.array([normal_cdf(v) for v in x.tolist()])
    i = np.arange(1, x.shape[0] + 1)
    gaps = np.maximum(i / x.shape[0] - f, f - (i - 1) / x.shape[0])
    assert np.flatnonzero(gaps == gaps.max()).tolist() == [peak - 1]
    return x


def _near_equal_maxima(skip):
    # two runs of ties whose first gaps, F - i/n, are their largest and
    # differ by less than 1e-12. The second is a whole run, whose bound falls
    # just below the largest gap found. The first leaves the first skip
    # points of its run untied: with skip = 1, a run bound of
    # F(x_b) - (a+2)/n, 2/n too tight, drops the maximum's run
    n, a, b = 6 * _RUN, _RUN, 4 * _RUN
    x = _grid(n)
    x[a + skip:a + _RUN] = xa = float(
        sps.ndtri((a + skip + 3 * _RUN // 4) / n))
    ga = normal_cdf(xa) - (a + skip) / n
    x[b:b + _RUN] = xb = normal_quantile(b / n + ga - 5e-13)
    gb = normal_cdf(xb) - b / n
    assert 0.0 < ga - gb < 1e-12
    return x


# a 0-based index that is an end of no run before the last level, whose runs
# are pairs: every earlier level's runs are a multiple of 2 * _KS_SPLIT
# points long, so their ends are 0 or -1 modulo 2 * _KS_SPLIT, and _MID is
# _KS_SPLIT - 1 modulo it
_MID = _RUN + 3 * stats._KS_SPLIT - 1


KS_CASES = {
    "engine_1e5": lambda: _engine_deviates(100_000),
    "max_inside_a_run": lambda: _tied(_grid(2 * _RUN), _MID, _MID + 40,
                                      _MID + 30, _MID + 1),
    "max_at_index_1": lambda: _tied(_grid(1000), 0, 8, 6, 1),
    # index n is the last run alone
    "max_at_index_n": lambda: _tied(_grid(3 * _RUN + 1), 3 * _RUN - 7,
                                    3 * _RUN + 1, 3 * _RUN - 6, 3 * _RUN + 1),
    "below_one_run": lambda: np.random.default_rng(67).normal(size=_RUN - 28),
    "runs_minus_1": lambda: np.random.default_rng(71).normal(size=3 * _RUN - 1),
    "runs_plus_1": lambda: np.random.default_rng(73).normal(size=3 * _RUN + 1),
    "near_equal_maxima": lambda: _near_equal_maxima(0),
    "max_beside_a_run_start": lambda: _near_equal_maxima(1),
    # mirrored, the maximum, (i+1)/n - F, is beside a run's last point
    "max_beside_a_run_end": lambda: -_near_equal_maxima(1)[::-1],
    # every run survives its bound down to the pairs, over two pieces
    "grid_over_pieces": lambda: _grid(stats._KS_PIECE + 5),
    "shifted_normal": lambda: np.random.default_rng(31).normal(0.3, 1.2, 20_000),
    # every index's gap is ~0.5/n, so every index is a near-tie
    "quantile_grid": lambda: [normal_quantile((i - 0.5) / 2000)
                              for i in range(1, 2001)],
    "beyond_8_sigma": lambda: np.concatenate([
        np.random.default_rng(37).normal(size=500),
        [-30.0, -9.5, -8.25, 8.1, 9.0, 12.0, 40.0]]),
    "heavy_ties": lambda: [0.0] * 4 + [1.0] * 4,
    "single_point": lambda: [0.7],
    "block_minus_1": lambda: np.random.default_rng(41).normal(size=BLOCK - 1),
    "block_plus_1": lambda: np.random.default_rng(43).normal(size=BLOCK + 1),
}


class TestKs:
    @pytest.mark.parametrize("case", sorted(KS_CASES))
    def test_bit_identical_to_per_element_reference(self, case):
        samples = KS_CASES[case]()
        assert ks_test(samples).d_statistic == ks_reference(samples)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            ks_test([0.1, bad, -0.3, 0.5])

    def test_single_point_at_zero(self):
        rep = ks_test([0.0])
        assert rep.d_statistic == 0.5

    def test_quantile_grid_is_nearly_perfect(self):
        n = 100
        samples = [normal_quantile((i - 0.5) / n) for i in range(1, n + 1)]
        rep = ks_test(samples)
        assert rep.d_statistic <= 0.5 / n + 1e-9

    def test_statistic_bounded(self):
        rng = np.random.default_rng(3)
        rep = ks_test(rng.uniform(-5, 5, size=1000))
        assert 0.0 <= rep.d_statistic <= 1.0

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ks_test([])

    def test_critical_value_matches_asymptotic_table(self):
        rep = ks_test([0.0] * 4 + [1.0] * 4)
        # c(0.05) = 1.3581, the classic two-sided asymptotic constant
        assert abs(rep.critical_value(0.05) * math.sqrt(8) - 1.3581) < 1e-4

    def test_detects_wrong_distribution(self):
        rng = np.random.default_rng(5)
        rep = ks_test(rng.normal(1.0, 1.0, size=10_000))
        assert not rep.passes(0.001)


class TestChiSquareGof:
    def test_perfect_fit_gives_zero_statistic(self):
        samples = [-0.5] * 50 + [0.5] * 50
        rep = chi_square_gof(samples, [0.0])
        assert rep.statistic == 0.0
        assert rep.p_value == 1.0

    def test_hand_worked_two_bin_example(self):
        samples = [-0.5] * 60 + [0.5] * 40
        rep = chi_square_gof(samples, [0.0])
        assert abs(rep.statistic - 4.0) < 1e-12
        assert rep.dof == 1
        assert abs(rep.p_value - 0.0455) < 1e-3

    def test_small_expected_bins_are_merged(self):
        rng = np.random.default_rng(19)
        samples = rng.normal(size=300)
        rep = chi_square_gof(samples, equal_probability_edges(100))
        # 300/100 = 3 expected per raw bin -> merging must bring all >= 5
        assert rep.dof < 99
        assert rep.p_value >= 0.0

    def test_too_few_bins_after_merge_rejected(self):
        with pytest.raises(ValueError):
            chi_square_gof([0.0, 0.1, -0.1, 0.2], [0.0])

    def test_gaussian_sample_passes_100_equal_bins(self):
        rng = np.random.default_rng(23)
        rep = chi_square_gof(rng.normal(size=100_000),
                             equal_probability_edges(100))
        assert rep.passes(0.001)

    def test_shifted_sample_fails(self):
        rng = np.random.default_rng(29)
        rep = chi_square_gof(rng.normal(0.3, 1.0, size=100_000),
                             equal_probability_edges(100))
        assert not rep.passes(0.001)


def _descending_only_across_a_block_boundary():
    # ascending within each check block, but the second block starts with
    # the smallest value
    arr = np.sort(np.random.default_rng(47).normal(size=2 * BLOCK + 9))
    arr[BLOCK] = arr[0] - 1.0
    return arr


ORDER_CASES = {
    "engine_1e5": lambda: _engine_deviates(100_000),
    "block_plus_1": lambda: np.random.default_rng(43).normal(size=BLOCK + 1),
    "descent_across_blocks": _descending_only_across_a_block_boundary,
}


class TestSortedSample:
    """ks_test and chi_square_gof read one sorted sample and sort a copy
    only when their input is not ascending."""

    @pytest.mark.parametrize("case", sorted(ORDER_CASES))
    def test_shuffled_and_sorted_give_identical_reports(self, case):
        arr = np.asarray(ORDER_CASES[case](), dtype=np.float64)
        shuffled = np.random.default_rng(53).permutation(arr)
        ordered = np.sort(arr)
        edges = equal_probability_edges(100)
        assert ks_test(shuffled) == ks_test(ordered) == ks_test(arr)
        assert (chi_square_gof(shuffled, edges)
                == chi_square_gof(ordered, edges)
                == chi_square_gof(arr, edges))

    @pytest.mark.parametrize("order", ["shuffled", "sorted"])
    def test_input_array_is_not_modified(self, order):
        arr = _engine_deviates(BLOCK + 3)
        if order == "sorted":
            arr.sort()
        before = arr.copy()
        ks_test(arr)
        chi_square_gof(arr, equal_probability_edges(100))
        assert np.array_equal(arr.view(np.uint64), before.view(np.uint64))

    @pytest.mark.parametrize("n,at", [(4, 1), (2 * BLOCK + 9, BLOCK),
                                      (2 * BLOCK + 9, BLOCK - 1)])
    def test_nan_inside_an_ascending_sample_is_refused(self, n, at):
        # a nan compares false both ways, so it must not pass as ascending
        arr = np.sort(np.random.default_rng(59).normal(size=n))
        arr[at] = np.nan
        with pytest.raises(ValueError):
            ks_test(arr)

    def test_counts_match_per_value_binning(self):
        # values on the edges go to the bin above, as searchsorted "right"
        # over the edges puts them; the tails are open
        edges = np.array([-1.0, -0.25, 0.0, 0.5, 1.5])
        rng = np.random.default_rng(61)
        x = np.concatenate([rng.normal(size=400), np.repeat(edges, 7),
                            [-np.inf] * 3 + [np.inf] * 5])
        rng.shuffle(x)
        per_value = np.bincount(np.searchsorted(edges, x, side="right"),
                                minlength=edges.shape[0] + 1)
        # one value well inside each bin, as often as per_value counts it
        inside = np.concatenate([[edges[0] - 1.0],
                                 (edges[:-1] + edges[1:]) / 2.0,
                                 [edges[-1] + 1.0]])
        rep = chi_square_gof(np.repeat(inside, per_value), edges)
        assert rep.dof == edges.shape[0]  # nothing merged
        assert chi_square_gof(x, edges) == rep
        assert chi_square_gof(np.sort(x), edges) == rep

    def test_ks_evaluates_the_cdf_at_few_points(self, monkeypatch):
        arr = np.sort(_engine_deviates(1_000_000))
        sizes = []
        cdf_at = stats._normal_cdf_at

        def counting(x):
            sizes.append(x.size)
            return cdf_at(x)

        monkeypatch.setattr(stats, "_normal_cdf_at", counting)
        ks_test(arr)
        assert sum(sizes) < 0.05 * arr.shape[0]

    @pytest.mark.parametrize("gate,limit", [(ks_test, 1.5e6),
                                            (moments, 1.2e6)])
    def test_gate_scratch_is_small(self, gate, limit):
        arr = np.sort(_engine_deviates(1_000_000))
        tracemalloc.start()
        try:
            gate(arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit

    def test_sorted_sample_is_read_without_an_n_sized_copy(self):
        arr = np.sort(_engine_deviates(1_000_000))
        edges = equal_probability_edges(100)
        tracemalloc.start()
        try:
            ks_test(arr)
            chi_square_gof(arr, edges)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < arr.nbytes / 2


class TestUniformCounts:
    def test_exact_uniform(self):
        rep = uniform_counts_gof([10, 10, 10, 10])
        assert rep.statistic == 0.0
        assert rep.p_value == 1.0

    def test_degenerate_pile_up(self):
        rep = uniform_counts_gof([400, 0, 0, 0])
        assert rep.p_value < 1e-100

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            uniform_counts_gof([0, 0])


class TestLowBits:
    def test_splitmix_k8_passes(self):
        rep = low_bits_chi_square(SplitMix64(0xBEEF), 8, 300_000)
        assert rep.passes(0.001)

    def test_all_zero_script_fails_catastrophically(self):
        rep = low_bits_chi_square(ScriptedSource([0] * 400), 2, 400)
        assert rep.p_value < 1e-100

    def test_sample_size_floor_enforced(self):
        with pytest.raises(ValueError):
            low_bits_chi_square(SplitMix64(0), 8, 25_599)

    @pytest.mark.parametrize("k", [0, 9, -1])
    def test_bit_width_bounds(self, k):
        with pytest.raises(ValueError):
            low_bits_chi_square(SplitMix64(0), k, 1_000_000)

    def test_scripted_and_engine_paths_agree(self):
        n = 25_600
        src = SplitMix64(0x1DEA)
        words = [src.next_u64() for _ in range(n)]
        rep_script = low_bits_chi_square(ScriptedSource(words), 8, n)
        rep_engine = low_bits_chi_square(SplitMix64(0x1DEA), 8, n)
        assert rep_script.statistic == rep_engine.statistic

    @pytest.mark.parametrize("make", [SplitMix64, Lcg48])
    def test_blocked_counts_match_per_call_reference(self, make):
        from gausszig import engine

        n = 3 * engine.BLOCK + 5
        ref_src = make(0x1DEA)
        counts = np.zeros(256, dtype=np.int64)
        for _ in range(n):
            counts[ref_src.next_u64() & 0xFF] += 1
        src = make(0x1DEA)
        assert low_bits_chi_square(src, 8, n) == uniform_counts_gof(counts)
        assert src.state == ref_src.state


class TestMomentTolerancesAtScale:
    def test_million_deviate_moments_meet_all_four_bounds(self):
        from gausszig import engine, make_sampler, make_source

        sampler = make_sampler("ziggurat")
        source = make_source("splitmix", 0x5EEDBA5E)
        buf = np.empty(1_000_000, dtype=np.float64)
        engine.fill_gaussians(sampler, source, buf)
        s = moments(buf)
        assert abs(s.mean) < 0.004
        assert abs(s.variance - 1.0) < 0.01
        assert abs(s.skewness) < 0.01
        assert abs(s.excess_kurtosis) < 0.05


class TestEqualProbabilityEdges:
    def test_count_and_symmetry(self):
        edges = equal_probability_edges(100)
        assert len(edges) == 99
        assert abs(edges[49]) < 1e-9  # median edge at zero
        for lo, hi in zip(edges, edges[1:]):
            assert lo < hi
        assert abs(edges[0] + edges[-1]) < 1e-9

    def test_against_scipy_ppf(self):
        edges = equal_probability_edges(10)
        want= scipy_stats.norm.ppf(np.arange(1, 10) / 10)
        assert np.allclose(edges, want, atol=1e-9)

    def test_requires_two_bins(self):
        with pytest.raises(ValueError):
            equal_probability_edges(1)

    @pytest.mark.parametrize("bins", [2, 10, 100, 1000])
    def test_each_call_returns_the_same_edges_in_a_new_list(self, bins):
        edges = equal_probability_edges(bins)
        assert edges == [normal_quantile(j / bins) for j in range(1, bins)]
        edges[0] = 99.0
        assert equal_probability_edges(bins)[0] == normal_quantile(1 / bins)


class TestReportSerialization:
    def test_gof_report_json_shape(self):
        rep = uniform_counts_gof([12, 8, 10, 10])
        doc = rep.to_json_dict("demo", 0.001, n=40, seed=7)
        assert set(doc) == {"test", "statistic", "dof", "p_value", "alpha",
                            "verdict", "n", "seed"}
        assert doc["verdict"] in ("pass", "fail")

    def test_ks_report_json_shape(self):
        rep = ks_test([0.1, -0.2, 0.3, 0.5])
        doc = rep.to_json_dict(0.001, seed=1)
        assert doc["test"] == "ks"
        assert doc["critical_value"] > 0
