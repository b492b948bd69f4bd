"""Acceptance gates, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -rA` to see every line. The
timing criterion uses the full measurement profile and takes ~100 s per
sampler/source pairing.
"""

import math

import numpy as np
import pytest

from gausszig import (
    BenchConfig,
    Lcg48,
    ScriptedSource,
    SplitMix64,
    confidence_interval,
    low_bits_chi_square,
    make_sampler,
    make_source,
    percent_faster,
    run_benchmark,
)
from gausszig import engine
from gausszig.config import DEFAULT_SEED
from gausszig.stats import (
    chi_square_gof,
    equal_probability_edges,
    ks_test,
    moments,
    uniform_counts_gof,
)
from gausszig.tables import build_ziggurat_tables, density, solve_boundary, tail_area

from conftest import gauss_tail_quadrature

SANCTIONED = [("lcg48", "polar"), ("lcg48", "ziggurat"),
              ("splitmix", "polar"), ("splitmix", "ziggurat"),
              ("splitmix", "modified-ziggurat")]


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} :: {detail}")
    return ok


class TestCriterion2PercentFasterArithmetic:
    @pytest.mark.parametrize("baseline,candidate,expected", [
        (103.037, 17.393, 83.12),
        (88.774, 10.901, 87.72),
        (10.089, 8.927, 11.52),
        (10.901, 10.392, 4.67),
    ])
    def test_headline_figures(self, baseline, candidate, expected):
        got = percent_faster(baseline, candidate)
        ok = abs(got - expected) < 0.01
        report("2 percent-faster",
               ok, f"({baseline}, {candidate}) -> {got:.4f}, expected {expected}")
        assert ok


class TestCriterion3TableConstants:
    @pytest.mark.parametrize("n,expected", [(128, 3.442619855899),
                                            (256, 3.654152885361)])
    def test_boundary_constants(self, n, expected):
        r = solve_boundary(n)
        ok = abs(r - expected) < 1e-9
        report("3 table-constants", ok,
               f"r({n}) = {r:.12f}, expected {expected} ± 1e-9")
        assert ok

    @pytest.mark.parametrize("n", [128, 256])
    def test_quadrature_oracle_confirms_solution(self, n):
        t = build_ziggurat_tables(n)
        quad_tail = gauss_tail_quadrature(t.r)
        err_tail = abs(tail_area(t.r) - quad_tail)
        err_v = abs(t.v - (t.r * density(t.r) + quad_tail))
        ok = err_tail < 1e-12 and err_v < 1e-12
        report("3 table-constants", ok,
               f"n={n}: |tail - quadrature| = {err_tail:.2e}, "
               f"|v - closure| = {err_v:.2e}")
        assert ok


class TestCriterion4DistributionalGates:
    @pytest.mark.parametrize("source_id,sampler_id", SANCTIONED)
    def test_million_deviate_gates(self, source_id, sampler_id):
        n = 1_000_000
        sampler = make_sampler(sampler_id)
        source = make_source(source_id, DEFAULT_SEED)
        buf = np.empty(n, dtype=np.float64)
        engine.fill_gaussians(sampler, source, buf)

        ks = ks_test(buf)
        chi = chi_square_gof(buf, equal_probability_edges(100))
        mom = moments(buf)
        ks_ok = ks.passes(0.001)
        chi_ok = chi.passes(0.001)
        mom_ok = abs(mom.mean) < 0.004 and abs(mom.variance - 1.0) < 0.01
        ok = ks_ok and chi_ok and mom_ok
        report("4 distributional-gates", ok,
               f"{sampler_id}/{source_id}: KS D={ks.d_statistic:.6f} "
               f"(crit {ks.critical_value(0.001):.6f}), chi2 p={chi.p_value:.4f}, "
               f"mean={mom.mean:+.5f}, var={mom.variance:.5f}")
        assert ok


class TestCriterion5LowBitDefect:
    def test_lcg48_low_bit_fails_frequency_test(self):
        rep = low_bits_chi_square(Lcg48(DEFAULT_SEED), 1, 1_000_000)
        ok = rep.p_value < 1e-6
        report("5 low-bit-defect (lcg48 k=1 must fail)", ok,
               f"chi2={rep.statistic:.4f}, p={rep.p_value:.6f}, need p < 1e-6")
        assert ok

    def test_splitmix_low_byte_passes_frequency_test(self):
        rep = low_bits_chi_square(SplitMix64(DEFAULT_SEED), 8, 1_000_000)
        ok = rep.p_value > 0.001
        report("5 low-bit-defect (splitmix k=8 must pass)", ok,
               f"chi2={rep.statistic:.1f}, p={rep.p_value:.4f}, need p > 0.001")
        assert ok

    def test_modified_ziggurat_occupancy_fails_over_lcg48(self):
        sampler = make_sampler("modified-ziggurat")
        _, counts = sampler.sample_with_occupancy(Lcg48(DEFAULT_SEED), 100_000)
        rep = uniform_counts_gof(counts)
        ok = not rep.passes(0.001)
        report("5 low-bit-defect (occupancy over lcg48 must fail)", ok,
               f"chi2={rep.statistic:.1f}, dof={rep.dof}, p={rep.p_value:.4f}, "
               f"need p <= 0.001")
        assert ok

    def test_modified_ziggurat_occupancy_passes_over_splitmix(self):
        sampler = make_sampler("modified-ziggurat")
        _, counts = sampler.sample_with_occupancy(SplitMix64(DEFAULT_SEED), 100_000)
        rep = uniform_counts_gof(counts)
        ok = rep.passes(0.001)
        report("5 low-bit-defect (occupancy over splitmix must pass)", ok,
               f"chi2={rep.statistic:.1f}, dof={rep.dof}, p={rep.p_value:.4f}")
        assert ok


class TestCriterion6SingleDrawFastPath:
    def test_million_call_cursor_accounting(self):
        feeder = SplitMix64(DEFAULT_SEED)
        words = np.empty(1_300_000, dtype=np.uint64)
        engine.fill_u64(feeder, words)
        script = ScriptedSource(words.tolist())
        sampler = make_sampler("modified-ziggurat")
        calls = 1_000_000
        single = 0
        for _ in range(calls):
            before = script.cursor
            sampler.next_gaussian(script)
            single += script.cursor - before == 1
        frac = single / calls
        ok = frac >= 0.97
        report("6 single-draw-fast-path", ok,
               f"{frac:.5f} of {calls} calls consumed exactly one u64 (need >= 0.97)")
        assert ok


class TestCriterion7OracleEquivalence:
    def test_lcg48_first_1000_against_direct_recurrence(self):
        mask = (1 << 48) - 1
        s = (0 ^ 0x5DEECE66D) & mask
        expected = []
        for _ in range(1000):
            s = (0x5DEECE66D * s + 0xB) & mask
            expected.append(s >> 16)
        src = Lcg48(0)
        got = [src.next_bits(32) for _ in range(1000)]
        first_signed = got[0] - (1 << 32) if got[0] >= (1 << 31) else got[0]
        ok = got == expected and first_signed == -1155484576
        report("7 oracle-equivalence (lcg48)", ok,
               f"first draw signed = {first_signed}, 1000-draw match = {got == expected}")
        assert ok

    def test_splitmix_seed0_against_hand_mix(self):
        m64 = (1 << 64) - 1
        z = 0x9E3779B97F4A7C15  # state 0 + gamma
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & m64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & m64
        z ^= z >> 31
        got = SplitMix64(0).next_u64()
        ok = got == z == 0xE220A8397B1DCDAF
        report("7 oracle-equivalence (splitmix)", ok,
               f"seed-0 first output = {got:#018x}")
        assert ok


class TestCriterion8ConfidenceIntervalMath:
    def test_hand_computed_student_t_interval(self):
        lo, hi = confidence_interval([10, 12, 11, 13, 9], 0.999)
        mean = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        ok = abs(mean - 11.0) < 1e-9 and abs(half - 6.088) < 1e-3
        report("8 ci-math", ok, f"mean = {mean}, half-width = {half:.6f}, "
                               f"expected 11 ± 6.088 (±0.001)")
        assert ok


class TestCriterion1OrderingReproduction:
    @pytest.mark.slow
    @pytest.mark.parametrize("source_id", ["lcg48", "splitmix"])
    def test_ziggurat_at_least_twice_as_fast_as_polar(self, source_id):
        cfg = BenchConfig.paper(DEFAULT_SEED)
        polar = run_benchmark("polar", source_id, cfg)
        zig = run_benchmark("ziggurat", source_id, cfg)
        ratio = polar.ns_per_op / zig.ns_per_op
        ok = ratio >= 2.0
        report("1 ordering-reproduction", ok,
               f"{source_id}: polar {polar.ns_per_op:.3f} ± "
               f"{polar.ci_half_width:.3f} ns/op vs ziggurat "
               f"{zig.ns_per_op:.3f} ± {zig.ci_half_width:.3f} ns/op, "
               f"ratio {ratio:.2f}x (need >= 2.0x)")
        assert ok
