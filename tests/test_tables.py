import math

import pytest

from gausszig import ZigguratTables, build_ziggurat_tables, tables_from_json, tables_to_json
from gausszig.tables import density, solve_boundary, tail_area

from conftest import gauss_tail_quadrature

R128 = 3.442619855899
R256 = 3.654152885361


class TestBoundarySolve:
    def test_r_128_matches_reference_within_1e9(self):
        assert abs(solve_boundary(128) - R128) < 1e-9

    def test_r_256_matches_reference_within_1e9(self):
        assert abs(solve_boundary(256) - R256) < 1e-9

    @pytest.mark.parametrize("n", [128, 256])
    def test_tail_area_agrees_with_quadrature_oracle(self, n):
        r = solve_boundary(n)
        assert abs(tail_area(r) - gauss_tail_quadrature(r)) < 1e-12

    @pytest.mark.parametrize("n", [128, 256])
    def test_base_area_closes_against_quadrature(self, n):
        t = build_ziggurat_tables(n)
        v_oracle = t.r * density(t.r) + gauss_tail_quadrature(t.r)
        assert abs(t.v - v_oracle) < 1e-12


class TestTableInvariants:
    @pytest.mark.parametrize("n", [8, 64, 128, 256])
    def test_boundaries_strictly_decrease_to_zero(self, n):
        t = build_ziggurat_tables(n)
        assert t.x[n] == 0.0
        assert t.x[1] == t.r
        assert all(t.x[i] > t.x[i + 1] for i in range(n))

    def test_virtual_base_width(self, tables128):
        t = tables128
        assert t.x[0] == t.v / density(t.r)

    @pytest.mark.parametrize("n", [128, 256])
    def test_every_layer_area_equals_v(self, n):
        t = build_ziggurat_tables(n)
        for i in range(1, n):
            area = t.x[i] * (density(t.x[i + 1]) - density(t.x[i]))
            assert abs(area - t.v) < 1e-9 * t.v

    def test_ytab_strictly_increasing_and_capped_at_density_of_zero(self, tables128):
        t = tables128
        assert all(t.ytab[i] < t.ytab[i + 1] for i in range(t.n))
        assert t.ytab[-1] <= density(0.0) == 1.0

    def test_bit_layout_derivations(self, tables128, tables256):
        assert (tables128.index_bits, tables128.mantissa_bits) == (7, 56)
        assert (tables256.index_bits, tables256.mantissa_bits) == (8, 55)

    def test_ktab_thresholds_keep_fast_path_inside_next_layer(self, tables128):
        t = tables128
        scale = 1 << t.mantissa_bits
        for i in range(t.n):
            assert t.ktab[i] == int(scale * (t.x[i + 1] / t.x[i]))
            if t.ktab[i]:
                # accepted candidates stay inside the next boundary up to
                # the 1-ulp slop of the scaled-width multiply
                assert (t.ktab[i] - 1) * t.wtab[i] <= t.x[i + 1] * (1 + 1e-15)

    def test_top_layer_has_zero_threshold(self, tables128):
        assert tables128.ktab[-1] == 0


class TestValidation:
    @pytest.mark.parametrize("n", [100, 0, 7, 129, -8, 1 << 16])
    def test_non_power_of_two_rejected(self, n):
        with pytest.raises(ValueError):
            build_ziggurat_tables(n)


class TestSerialization:
    @pytest.mark.parametrize("n", [128, 256])
    def test_json_round_trip_is_bit_exact(self, n):
        t = build_ziggurat_tables(n)
        back = tables_from_json(tables_to_json(t))
        assert back == t  # dataclass equality covers every field bit-exactly

    def test_json_reals_carry_17_significant_digits(self, tables128):
        text = tables_to_json(tables128)
        assert "3.4426198558966377" in text

    def test_corrupted_document_rejected(self, tables128):
        import json

        doc = json.loads(tables_to_json(tables128))
        doc["x"][3], doc["x"][4] = doc["x"][4], doc["x"][3]
        with pytest.raises(Exception):
            tables_from_json(json.dumps(doc))

    def test_tables_are_immutable(self, tables128):
        with pytest.raises(Exception):
            tables128.r = 1.0
