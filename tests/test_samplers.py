import math

import pytest

from gausszig import (
    GaussianSampler,
    Lcg48,
    ModifiedZigguratSampler,
    PolarSampler,
    RejectionLoopExceeded,
    ScriptExhausted,
    ScriptedSource,
    SplitMix64,
    UnsanctionedPairing,
    ZigguratSampler,
    gaussian_affine,
    is_sanctioned,
    make_sampler,
    require_sanctioned,
    tail_sample,
)
from gausszig import samplers as samplers_mod

from conftest import CountingSource


def unit_word(u: float) -> int:
    """Script word whose next_f64_unit is u quantized to the 53-bit grid."""
    return round(u * (1 << 53)) << 11


def high_layout_word(t, i: int, m: int) -> int:
    """Positive ziggurat word: layer i just below sign bit 63, mantissa m below."""
    return (i << (63 - t.index_bits)) | m


def low_layout_word(t, i: int, m: int) -> int:
    """Positive modified-ziggurat word: layer i low, mantissa m above the sign."""
    return i | (m << (t.index_bits + 1))


#: (sampler class, tables fixture, word builder) for each bit layout
LAYOUTS = pytest.mark.parametrize("cls,tables_name,word", [
    pytest.param(ZigguratSampler, "tables128", high_layout_word, id="high"),
    pytest.param(ModifiedZigguratSampler, "tables256", low_layout_word, id="low"),
])


class TestTailSample:
    def test_hand_worked_accept(self):
        src = ScriptedSource([unit_word(math.exp(-1.0)), unit_word(math.exp(-0.5))])
        got = tail_sample(src, 3.442619856)
        assert abs(got - 3.733097) < 1e-6

    def test_hand_worked_reject_consumes_next_pair(self):
        words = [unit_word(math.exp(-10.0)), unit_word(math.exp(-0.001)),
                 unit_word(math.exp(-0.5)), unit_word(math.exp(-1.0))]
        src = ScriptedSource(words)
        got = tail_sample(src, 1.0)
        assert src.cursor == 4
        assert abs(got - 1.5) < 1e-9

    def test_zero_uniforms_are_redrawn(self):
        src = ScriptedSource([0, unit_word(0.9),
                              unit_word(math.exp(-1.0)), unit_word(math.exp(-0.5))])
        got = tail_sample(src, 3.442619856)
        assert src.cursor == 4
        assert got > 3.442619856

    def test_always_returns_beyond_boundary(self):
        src = SplitMix64(31415)
        assert all(tail_sample(src, 3.4426) > 3.4426 for _ in range(2000))

    def test_rejects_nonpositive_boundary(self):
        with pytest.raises(ValueError):
            tail_sample(SplitMix64(0), 0.0)

    def test_guard_trips_on_pathological_source(self, monkeypatch):
        monkeypatch.setattr(samplers_mod, "LOOP_GUARD", 8)

        class AlwaysReject(ScriptedSource):
            def __init__(self):
                super().__init__([])

            def next_u64(self):
                # u1 huge -> x huge -> 2y > x^2 never holds
                return unit_word(math.exp(-50.0))

        with pytest.raises(RejectionLoopExceeded):
            tail_sample(AlwaysReject(), 1.0)


class TestPolar:
    def test_hand_worked_example(self):
        src = ScriptedSource([unit_word(0.75), unit_word(0.5)])
        p = PolarSampler()
        assert abs(p.next_gaussian(src) - 1.665109) < 1e-6
        assert p.spare == 0.0

    def test_zero_valued_spare_is_still_consumed(self):
        src = ScriptedSource([unit_word(0.75), unit_word(0.5)])
        p = PolarSampler()
        p.next_gaussian(src)
        assert p.next_gaussian(src) == 0.0
        assert src.cursor == 2  # spare call drew nothing
        assert p.spare is None

    def test_degenerate_s_zero_rejected(self):
        src = ScriptedSource([unit_word(0.5), unit_word(0.5),
                              unit_word(0.75), unit_word(0.5)])
        p = PolarSampler()
        p.next_gaussian(src)
        assert src.cursor == 4

    def test_s_at_or_above_one_rejected(self):
        src = ScriptedSource([unit_word(0.999999), unit_word(0.999999),
                              unit_word(0.75), unit_word(0.5)])
        p = PolarSampler()
        p.next_gaussian(src)
        assert src.cursor == 4

    def test_pair_consumption_near_4_over_pi(self):
        counter = CountingSource(SplitMix64(2718))
        p = PolarSampler()
        pairs = 1_000_000
        for _ in range(pairs):
            p.next_gaussian(counter)
            p.next_gaussian(counter)  # spare, free
        pairs_drawn = counter.draws / 2
        assert abs(pairs_drawn / pairs - 4.0 / math.pi) < 0.01

    def test_guard_trips_when_source_pins_s_to_zero(self, monkeypatch):
        monkeypatch.setattr(samplers_mod, "LOOP_GUARD", 8)

        class HalfForever(ScriptedSource):
            def __init__(self):
                super().__init__([])

            def next_u64(self):
                return unit_word(0.5)

        with pytest.raises(RejectionLoopExceeded):
            PolarSampler().next_gaussian(HalfForever())


class TestZiggurat:
    def test_fast_path_returns_exact_table_product(self, tables128):
        t = tables128
        m = t.ktab[5] // 2
        src = ScriptedSource([(5 << 56) | m])
        x = ZigguratSampler(t).next_gaussian(src)
        assert x == m * t.wtab[5]
        assert src.cursor == 1

    def test_sign_bit_flip_negates_exactly(self, tables128):
        t = tables128
        z = ZigguratSampler(t)
        src = SplitMix64(8088)
        words = []
        while len(words) < 500:
            u = src.next_u64()
            i = (u >> 56) & 0x7F
            if (u & ((1 << 56) - 1)) < t.ktab[i]:
                words.append(u & ~(1 << 63))
        plain = [z.next_gaussian(ScriptedSource([w])) for w in words]
        flipped = [z.next_gaussian(ScriptedSource([w | (1 << 63)])) for w in words]
        assert flipped == [-x for x in plain]

    def test_base_layer_overflow_enters_tail(self, tables128):
        t = tables128
        src = ScriptedSource([t.ktab[0] + 7,
                              unit_word(math.exp(-1.0)), unit_word(math.exp(-0.5))])
        x = ZigguratSampler(t).next_gaussian(src)
        assert x > t.r

    def test_wedge_accepts_at_low_band(self, tables128):
        t = tables128
        m = (t.ktab[1] + (1 << 56)) // 2  # mid-wedge: f(x) is far from both bands
        src = ScriptedSource([(1 << 56) | m, 0])
        x = ZigguratSampler(t).next_gaussian(src)
        assert x == m * t.wtab[1]
        assert src.cursor == 2

    def test_wedge_rejects_at_high_band_and_loops(self, tables128):
        t = tables128
        m = (t.ktab[1] + (1 << 56)) // 2
        fast = (5 << 56) | (t.ktab[5] // 2)
        src = ScriptedSource([(1 << 56) | m, (1 << 64) - 1, fast])
        x = ZigguratSampler(t).next_gaussian(src)
        assert x == (t.ktab[5] // 2) * t.wtab[5]
        assert src.cursor == 3

    def test_default_tables_have_128_layers(self):
        assert ZigguratSampler().tables.n == 128

    def test_fast_path_fraction_exceeds_097(self, tables128):
        z = ZigguratSampler(tables128)
        counter = CountingSource(SplitMix64(0xACCE55))
        calls = 200_000
        single = 0
        for _ in range(calls):
            before = counter.draws
            z.next_gaussian(counter)
            single += counter.draws - before == 1
        assert single / calls >= 0.97

    @LAYOUTS
    def test_occupancy_counts_sum_to_selections(self, request, cls, tables_name, word):
        t = request.getfixturevalue(tables_name)
        _, counts = cls(t).sample_with_occupancy(SplitMix64(5), 5000)
        assert sum(counts) >= 5000
        assert len(counts) == t.n

    @LAYOUTS
    def test_guard_trips_on_stuck_source(self, monkeypatch, request, cls,
                                         tables_name, word):
        monkeypatch.setattr(samplers_mod, "LOOP_GUARD", 8)
        t = request.getfixturevalue(tables_name)

        class StuckWedge(ScriptedSource):
            def __init__(self):
                super().__init__([])
                mid_wedge = (t.ktab[1] + (1 << t.mantissa_bits)) // 2
                self.reject_word = word(t, 1, mid_wedge)
                self.phase = 0

            def next_u64(self):
                self.phase ^= 1
                return self.reject_word if self.phase else (1 << 64) - 1

        with pytest.raises(RejectionLoopExceeded):
            cls(t).next_gaussian(StuckWedge())

    @pytest.mark.parametrize("tables_name", ["tables128", "tables256"])
    def test_layouts_are_a_bit_permutation(self, request, tables_name):
        # moving the low layout's index and sign to the top and its mantissa
        # to the bottom gives the high layout's word for the same attempt;
        # one attempt only, since a rejection reads its next word in the
        # other layout
        t = request.getfixturevalue(tables_name)
        b = t.index_bits

        def perm(u):
            return ((u & (2 * t.n - 1)) << (63 - b)) | (u >> (b + 1))

        def draw(sampler, words):
            try:
                return sampler.next_gaussian(ScriptedSource(words)).hex()
            except ScriptExhausted:
                return "exhausted"

        low, high = ModifiedZigguratSampler(t), ZigguratSampler(t)
        src = SplitMix64(0x5EED)
        for _ in range(20_000):
            u, v = src.next_u64(), src.next_u64()
            assert draw(low, [u, v]) == draw(high, [perm(u), v]), hex(u)


class TestModifiedZiggurat:
    def test_fast_path_is_single_draw_with_low_bit_index(self, tables256):
        t = tables256
        m = t.ktab[5] // 2
        src = ScriptedSource([5 | (m << 9)])
        x = ModifiedZigguratSampler(t).next_gaussian(src)
        assert x == m * t.wtab[5]
        assert src.cursor == 1

    def test_sign_lives_at_bit_8(self, tables256):
        t = tables256
        m = t.ktab[5] // 2
        mz = ModifiedZigguratSampler(t)
        plus = mz.next_gaussian(ScriptedSource([5 | (m << 9)]))
        minus = mz.next_gaussian(ScriptedSource([5 | (1 << 8) | (m << 9)]))
        assert minus == -plus

    def test_base_layer_overflow_enters_tail(self, tables256):
        t = tables256
        src = ScriptedSource([(t.ktab[0] + 1) << 9,
                              unit_word(math.exp(-1.0)), unit_word(math.exp(-0.5))])
        x = ModifiedZigguratSampler(t).next_gaussian(src)
        assert x > t.r

    def test_default_tables_have_256_layers(self):
        assert ModifiedZigguratSampler().tables.n == 256

    def test_single_draw_fraction_with_splitmix(self, tables256):
        mz = ModifiedZigguratSampler(tables256)
        counter = CountingSource(SplitMix64(0xFA57))
        calls = 200_000
        single = 0
        for _ in range(calls):
            before = counter.draws
            mz.next_gaussian(counter)
            single += counter.draws - before == 1
        assert single / calls >= 0.97


class TestDistributionSmoke:
    @pytest.mark.parametrize("sampler_id", ["polar", "ziggurat", "modified-ziggurat"])
    def test_loose_moments_over_1e5(self, sampler_id):
        sampler = make_sampler(sampler_id)
        src = SplitMix64(1234)
        n = 100_000
        total = 0.0
        total_sq = 0.0
        for _ in range(n):
            x = sampler.next_gaussian(src)
            total += x
            total_sq += x * x
        mean = total / n
        var = total_sq / n - mean * mean
        assert abs(mean) < 0.02
        assert abs(var - 1.0) < 0.03


class TestAffine:
    def test_identity_passthrough(self):
        a, b = SplitMix64(9), SplitMix64(9)
        z1, z2 = ZigguratSampler(), ZigguratSampler()
        raw = z1.next_gaussian(a)
        assert gaussian_affine(b, z2, 0.0, 1.0) == raw

    def test_sigma_zero_pins_to_mu(self):
        assert gaussian_affine(SplitMix64(3), PolarSampler(), 7.5, 0.0) == 7.5

    def test_affine_arithmetic(self, tables128):
        t = tables128
        m = t.ktab[4] // 3
        word = (4 << 56) | m
        raw = ZigguratSampler(t).next_gaussian(ScriptedSource([word]))
        shifted = gaussian_affine(ScriptedSource([word]), ZigguratSampler(t), 5.0, 2.0)
        assert shifted == 5.0 + 2.0 * raw

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            gaussian_affine(SplitMix64(0), PolarSampler(), 0.0, -1.0)

    @pytest.mark.parametrize("sigma", [math.nan, -math.inf])
    def test_nan_and_negative_infinite_sigma_rejected(self, sigma):
        with pytest.raises(ValueError):
            gaussian_affine(SplitMix64(0), PolarSampler(), 0.0, sigma)

    # with the test above, every non-finite mu and sigma is refused, as the
    # CLI refuses them
    @pytest.mark.parametrize("mu,sigma", [(0.0, math.inf), (math.nan, 1.0),
                                          (math.inf, 1.0), (-math.inf, 1.0)])
    def test_infinite_sigma_and_non_finite_mu_rejected(self, mu, sigma):
        src, sampler = SplitMix64(4), PolarSampler()
        with pytest.raises(ValueError):
            gaussian_affine(src, sampler, mu, sigma)
        # refused before any draw
        assert src.state == SplitMix64(4).state and sampler.spare is None


class TestPairingGate:
    def test_matrix(self):
        assert is_sanctioned("lcg48", "polar")
        assert is_sanctioned("lcg48", "ziggurat")
        assert is_sanctioned("splitmix", "polar")
        assert is_sanctioned("splitmix", "ziggurat")
        assert is_sanctioned("splitmix", "modified-ziggurat")
        assert not is_sanctioned("lcg48", "modified-ziggurat")

    def test_refusal_names_the_defect(self):
        with pytest.raises(UnsanctionedPairing, match="low-order"):
            require_sanctioned("lcg48", "modified-ziggurat")

    def test_sanctioned_pairs_pass_silently(self):
        require_sanctioned("splitmix", "modified-ziggurat")


class TestRegistry:
    def test_make_sampler_ids(self):
        assert make_sampler("polar").algorithm_id == "polar"
        assert make_sampler("ziggurat").algorithm_id == "ziggurat"
        assert make_sampler("modified-ziggurat").algorithm_id == "modified-ziggurat"

    def test_custom_layer_counts(self):
        assert make_sampler("ziggurat", layers=256).tables.n == 256
        assert make_sampler("modified-ziggurat", layers=128).tables.n == 128
        for sampler_id in ("ziggurat", "modified-ziggurat"):
            with pytest.raises(ValueError):
                make_sampler(sampler_id, layers=0)

    def test_polar_takes_no_layers(self):
        with pytest.raises(ValueError):
            make_sampler("polar", layers=128)

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            make_sampler("box-muller")

    def test_base_class_draws_nothing(self):
        src = CountingSource(SplitMix64(1))
        with pytest.raises(NotImplementedError):
            GaussianSampler().next_gaussian(src)
        assert src.draws == 0
