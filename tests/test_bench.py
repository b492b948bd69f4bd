import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from gausszig import (
    BenchConfig,
    BenchResult,
    UnsanctionedPairing,
    confidence_interval,
    percent_faster,
    render_table,
    run_benchmark,
    student_t_quantile,
)
from gausszig.bench import BATCH_OPS, timer_resolution_ns


class TestStudentT:
    def test_dof4_999_matches_published_quantile(self):
        assert abs(student_t_quantile(0.999, 4) - 8.6103) < 1e-4

    def test_against_scipy_grid(self):
        for dof in (1, 2, 3, 4, 5, 10, 30, 31):
            for level in (0.9, 0.99, 0.999):
                want = scipy_stats.t.ppf(0.5 + level / 2, dof)
                assert abs(student_t_quantile(level, dof) - want) < 1e-8

    def test_input_validation(self):
        with pytest.raises(ValueError):
            student_t_quantile(1.5, 4)
        with pytest.raises(ValueError):
            student_t_quantile(0.9, 0)


class TestConfidenceInterval:
    def test_hand_worked_example(self):
        lo, hi = confidence_interval([10, 12, 11, 13, 9], 0.999)
        assert abs((lo + hi) / 2 - 11.0) < 1e-12
        assert abs((hi - lo) / 2 - 6.088) < 1e-3

    def test_zero_variance_collapses(self):
        lo, hi = confidence_interval([5.0, 5.0, 5.0], 0.95)
        assert lo == hi == 5.0

    def test_scale_equivariance(self):
        xs = [10.0, 12.0, 11.0, 13.0, 9.0]
        lo1, hi1 = confidence_interval(xs, 0.99)
        lo2, hi2 = confidence_interval([2 * x for x in xs], 0.99)
        assert abs(lo2 - 2 * lo1) < 1e-9
        assert abs(hi2 - 2 * hi1) < 1e-9

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            confidence_interval([1.0], 0.999)

    def test_coverage_at_999_level(self):
        # 10^4 trials of n=5 known-normal iteration data; the 99.9% CI must
        # cover the true mean in at least 99% of trials
        rng = np.random.default_rng(1234)
        n, trials = 5, 10_000
        t_mult = student_t_quantile(0.999, n - 1)
        data = rng.normal(50.0, 7.0, size=(trials, n))
        means = data.mean(axis=1)
        sds = data.std(axis=1, ddof=1)
        half = t_mult * sds / math.sqrt(n)
        covered = np.abs(means - 50.0) <= half
        assert covered.mean() >= 0.99


class TestPercentFaster:
    @pytest.mark.parametrize("baseline,candidate,expected", [
        (103.037, 17.393, 83.12),
        (88.774, 10.901, 87.72),
        (10.089, 8.927, 11.52),
        (10.901, 10.392, 4.67),
    ])
    def test_headline_figures(self, baseline, candidate, expected):
        assert abs(percent_faster(baseline, candidate) - expected) < 0.01

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            percent_faster(0.0, 1.0)
        with pytest.raises(ValueError):
            percent_faster(1.0, -2.0)


def _result(sampler_id, source_id, ns, ci=0.3):
    return BenchResult(
        sampler_id=sampler_id, source_id=source_id, ns_per_op=ns,
        ci_half_width=ci, per_iteration_ns_per_op=[ns, ns], ops_total=1000,
        checksum=12345, seed=1, confidence=0.999, engine_used="numpy")


class TestRenderTable:
    def test_markdown_cell_format(self):
        text = render_table([_result("ziggurat", "lcg48", 17.393, 0.300)], "md")
        assert "17.393 ± 0.300 ns/op" in text
        assert "| PRNG |" in text

    def test_markdown_pivots_sources_by_samplers(self):
        rows = [_result("polar", "lcg48", 100.0), _result("ziggurat", "lcg48", 17.0),
                _result("polar", "splitmix", 90.0)]
        text = render_table(rows, "md")
        lines = text.splitlines()
        assert lines[0] == "| PRNG | polar | ziggurat |"
        assert any("n/a" in ln for ln in lines)  # splitmix lacks ziggurat here

    def test_csv_columns(self):
        text = render_table([_result("polar", "splitmix", 9.5)], "csv")
        header, row = text.splitlines()
        assert header == "source,sampler,ns_per_op,ci_half_width,iters,ops_total,seed"
        assert row.startswith("splitmix,polar,9.500,")

    def test_empty_rows_refused(self):
        with pytest.raises(ValueError):
            render_table([], "md")

    def test_unknown_format_refused(self):
        with pytest.raises(ValueError):
            render_table([_result("polar", "lcg48", 1.0)], "xml")


class TestBenchConfig:
    def test_paper_defaults(self):
        cfg = BenchConfig.paper()
        assert (cfg.warmup_iters, cfg.warmup_secs) == (5, 10.0)
        assert (cfg.measure_iters, cfg.measure_secs) == (5, 10.0)
        assert cfg.confidence == 0.999

    def test_smoke_profile(self):
        cfg = BenchConfig.smoke()
        assert (cfg.measure_iters, cfg.measure_secs) == (2, 0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            BenchConfig(measure_iters=1)
        with pytest.raises(ValueError):
            BenchConfig(measure_secs=0.0)
        with pytest.raises(ValueError):
            BenchConfig(confidence=1.0)


class TestRunBenchmark:
    def test_timer_is_fine_grained_here(self):
        assert timer_resolution_ns() <= 1000

    def test_smoke_run_structure(self):
        cfg = BenchConfig.smoke(seed=77)
        res = run_benchmark("ziggurat", "splitmix", cfg)
        assert len(res.per_iteration_ns_per_op) == cfg.measure_iters
        assert res.ops_total >= cfg.measure_iters * BATCH_OPS
        assert res.checksum != 0
        assert res.ns_per_op > 0
        assert res.ci_half_width >= 0
        assert res.engine_used == "numpy"

    def test_smoke_run_completes_quickly(self):
        import time

        cfg = BenchConfig.smoke(seed=5)
        t0 = time.perf_counter()
        run_benchmark("polar", "lcg48", cfg)
        # 2x0.1s warmup + 2x0.1s measurement + slack for batch granularity
        assert time.perf_counter() - t0 < 10.0

    def test_checksum_deterministic_under_seed(self):
        cfg = BenchConfig.smoke(seed=31337)
        a = run_benchmark("ziggurat", "lcg48", cfg)
        b = run_benchmark("ziggurat", "lcg48", cfg)
        assert a.checksum == b.checksum

    def test_checksum_differs_across_seeds(self):
        a = run_benchmark("ziggurat", "lcg48", BenchConfig.smoke(seed=1))
        b = run_benchmark("ziggurat", "lcg48", BenchConfig.smoke(seed=2))
        assert a.checksum != b.checksum

    def test_checksum_is_fold_of_every_witness_deviate(self):
        from gausszig import engine, make_sampler, make_source
        from gausszig.bench import WITNESS_OPS

        res = run_benchmark("polar", "splitmix", BenchConfig.smoke(seed=60))
        buf = np.empty(WITNESS_OPS, dtype=np.float64)
        engine.fill_gaussians(make_sampler("polar"), make_source("splitmix", 60), buf)
        bits = buf.view(np.uint64)
        assert res.checksum == int(np.bitwise_xor.reduce(bits))
        # perturbing any single deviate must change the fold
        perturbed = int(np.bitwise_xor.reduce(bits[1:]))
        assert perturbed != res.checksum or bits[0] == 0

    def test_python_engine_reports_same_checksum(self):
        cfg = BenchConfig.smoke(seed=11)
        fast = run_benchmark("ziggurat", "splitmix", cfg, engine_mode="numpy")
        slow = run_benchmark("ziggurat", "splitmix", cfg, engine_mode="python")
        assert slow.engine_used == "python"
        assert fast.checksum == slow.checksum

    def test_unsanctioned_pairing_refused(self):
        with pytest.raises(UnsanctionedPairing):
            run_benchmark("modified-ziggurat", "lcg48", BenchConfig.smoke())

    def test_unknown_engine_mode_refused(self):
        with pytest.raises(ValueError):
            run_benchmark("polar", "lcg48", BenchConfig.smoke(), engine_mode="gpu")
