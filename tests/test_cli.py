import functools
import json
import tracemalloc

import numpy as np
import pytest

from gausszig import (BenchResult, cli, make_sampler, make_source,
                      percent_faster, tables_from_json)
from gausszig.cli import SAMPLE_BLOCK, main
from gausszig.config import DEFAULT_SEED, MAX_N, SEED_ENV_VAR


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@functools.cache
def per_call_stream(source_id, sampler_id, seed, n):
    """n deviates from fresh objects through the per-call reference path."""
    sampler = make_sampler(sampler_id)
    source = make_source(source_id, seed)
    return np.array([sampler.next_gaussian(source) for _ in range(n)])


def first_difference(text, expected):
    """Index of the first line where text departs from expected, else None.

    Cheap to report on megabyte outputs, where a full assertion diff is not.
    """
    if text == expected:
        return None
    pairs = zip(text.splitlines(True), expected.splitlines(True))
    return next((j for j, (a, b) in enumerate(pairs) if a != b),
                f"{len(text)} vs {len(expected)} chars")


class TestSample:
    def test_same_seed_gives_byte_identical_output(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            rc = main(["sample", "--source", "splitmix", "--sampler", "ziggurat",
                       "--seed", "42", "--n", "1000", "--out", str(path)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_affine_stream_is_elementwise_transform(self, capsys):
        rc, base, _ = run_cli(capsys, "sample", "--source", "splitmix",
                              "--sampler", "polar", "--seed", "9", "--n", "50")
        assert rc == 0
        rc, shifted, _ = run_cli(capsys, "sample", "--source", "splitmix",
                                 "--sampler", "polar", "--seed", "9", "--n", "50",
                                 "--mu", "5", "--sigma", "2")
        assert rc == 0
        base_vals = [float(v) for v in base.split()]
        shifted_vals = [float(v) for v in shifted.split()]
        assert shifted_vals == [5.0 + 2.0 * v for v in base_vals]

    def test_n_zero_is_empty_success(self, capsys):
        rc, out, _ = run_cli(capsys, "sample", "--source", "lcg48",
                             "--sampler", "polar", "--n", "0")
        assert rc == 0
        assert out.strip() == ""

    def test_output_carries_17_significant_digits(self, capsys):
        rc, out, _ = run_cli(capsys, "sample", "--source", "splitmix",
                             "--sampler", "ziggurat", "--seed", "42", "--n", "5")
        assert rc == 0
        line = out.splitlines()[0]
        assert float(line) != 0.0
        mantissa = line.lstrip("-0.").replace(".", "").rstrip("0")
        assert len(mantissa) >= 15  # shortest-repr would often be shorter

    def test_missing_sampler_is_invalid_request(self, capsys):
        rc, _, err = run_cli(capsys, "sample", "--source", "lcg48")
        assert rc == 2

    def test_negative_n_refused(self, capsys):
        rc, _, _ = run_cli(capsys, "sample", "--source", "lcg48",
                           "--sampler", "polar", "--n", "-5")
        assert rc == 2

    def test_n_above_limit_refused(self, capsys):
        rc, _, err = run_cli(capsys, "sample", "--source", "lcg48",
                             "--sampler", "polar", "--n", str(10**15))
        assert rc == 2
        assert str(MAX_N) in err

    @pytest.mark.parametrize("flag", ["--mu", "--sigma"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_affine_refused(self, capsys, flag, value):
        rc, out, err = run_cli(capsys, "sample", "--source", "lcg48",
                               "--sampler", "polar", "--n", "3",
                               f"{flag}={value}")
        assert rc == 2
        assert out == ""
        assert f"{flag} must be finite" in err

    @pytest.mark.parametrize("n", [1, SAMPLE_BLOCK - 1, SAMPLE_BLOCK,
                                   SAMPLE_BLOCK + 1, 2 * SAMPLE_BLOCK + 3])
    @pytest.mark.parametrize("source_id,sampler_id",
                             [("splitmix", "ziggurat"), ("lcg48", "polar")])
    @pytest.mark.parametrize("affine", [(), ("--mu", "5", "--sigma", "2")])
    def test_streamed_output_matches_per_call_reference(
            self, capsys, tmp_path, n, source_id, sampler_id, affine):
        ref = per_call_stream(source_id, sampler_id, 7,
                              2 * SAMPLE_BLOCK + 3)[:n]
        if affine:
            ref = 5.0 + 2.0 * ref
        expected = "".join(format(x, ".17g") + "\n" for x in ref)
        argv = ["sample", "--source", source_id, "--sampler", sampler_id,
                "--seed", "7", "--n", str(n), *affine]
        out = tmp_path / "x.txt"
        assert main(argv + ["--out", str(out)]) == 0
        assert first_difference(out.read_text(), expected) is None
        rc, stdout, _ = run_cli(capsys, *argv)
        assert rc == 0
        assert first_difference(stdout, expected) is None
        if not affine:
            reloaded = np.array([float(line) for line in stdout.splitlines()])
            assert np.array_equal(reloaded.view(np.uint64),
                                  ref.view(np.uint64))

    def test_memory_does_not_grow_with_n(self, tmp_path):
        argv = ["sample", "--source", "splitmix", "--sampler", "ziggurat",
                "--out", str(tmp_path / "x.txt"), "--n"]
        assert main(argv + ["1000"]) == 0  # fills the engine's caches
        peaks = []
        for n in (SAMPLE_BLOCK, 4 * SAMPLE_BLOCK):
            tracemalloc.start()
            try:
                assert main(argv + [str(n)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]

    def test_unwritable_output_is_io_error(self, capsys):
        rc, _, err = run_cli(capsys, "sample", "--source", "lcg48",
                             "--sampler", "polar", "--n", "1",
                             "--out", "/nonexistent-dir/x.txt")
        assert rc == 3

    def test_seed_env_var_override(self, capsys, monkeypatch):
        rc, default_out, _ = run_cli(capsys, "sample", "--source", "splitmix",
                                     "--sampler", "ziggurat", "--n", "5")
        monkeypatch.setenv("GAUSSZIG_SEED", "0xDEAD")
        rc, env_out, _ = run_cli(capsys, "sample", "--source", "splitmix",
                                 "--sampler", "ziggurat", "--n", "5")
        assert env_out != default_out
        # explicit flag beats the environment
        rc, flag_out, _ = run_cli(capsys, "sample", "--source", "splitmix",
                                  "--sampler", "ziggurat", "--n", "5",
                                  "--seed", str(DEFAULT_SEED))
        assert flag_out == default_out


class TestTables:
    def test_default_is_128_layers_with_reference_boundary(self, capsys):
        rc, out, _ = run_cli(capsys, "tables")
        assert rc == 0
        doc = json.loads(out)
        assert doc["n"] == 128
        assert abs(doc["r"] - 3.442619855899) < 1e-9

    def test_emitted_document_reloads_bit_identically(self, capsys):
        rc, out, _ = run_cli(capsys, "tables", "--n", "256")
        t = tables_from_json(out)
        assert t.n == 256
        rc, out2, _ = run_cli(capsys, "tables", "--n", "256")
        assert out == out2

    def test_non_power_of_two_refused(self, capsys):
        rc, _, err = run_cli(capsys, "tables", "--n", "100")
        assert rc == 2

    def test_count_above_max_layers_refused(self, capsys):
        rc, out, err = run_cli(capsys, "tables", "--n", str(1 << 16))
        assert rc == 2
        assert out == ""
        assert "invalid request" in err


class TestBits:
    def test_splitmix_k8_passes(self, capsys):
        rc, out, _ = run_cli(capsys, "bits", "--source", "splitmix",
                             "--k", "8", "--n", "300000")
        assert rc == 0
        doc = json.loads(out)
        assert doc["verdict"] == "pass"
        assert doc["test"] == "low_bits_k8"

    def test_all_zero_script_fails(self, capsys, tmp_path):
        script = tmp_path / "zeros.txt"
        script.write_text("0\n" * 500)
        rc, out, _ = run_cli(capsys, "bits", "--source", "scripted",
                             "--script", str(script), "--k", "2")
        assert rc == 1
        assert json.loads(out)["verdict"] == "fail"

    def test_scripted_requires_script_path(self, capsys):
        rc, _, _ = run_cli(capsys, "bits", "--source", "scripted", "--k", "2")
        assert rc == 2

    def test_script_shorter_than_n_exits_2(self, capsys, tmp_path):
        script = tmp_path / "short.txt"
        script.write_text("".join(f"{w}\n" for w in range(500)))
        rc, out, err = run_cli(capsys, "bits", "--source", "scripted",
                               "--script", str(script), "--k", "2",
                               "--n", "501")
        assert rc == 2
        assert out == ""
        assert "script exhausted" in err

    def test_hex_words_accepted_in_scripts(self, capsys, tmp_path):
        script = tmp_path / "w.txt"
        script.write_text("0xFF\n" * 300 + "0x00\n" * 100)
        rc, out, _ = run_cli(capsys, "bits", "--source", "scripted",
                             "--script", str(script), "--k", "2")
        assert rc == 1

    def test_n_floor_enforced(self, capsys):
        rc, _, _ = run_cli(capsys, "bits", "--source", "splitmix",
                           "--k", "8", "--n", "100")
        assert rc == 2

    def test_n_above_limit_refused(self, capsys):
        rc, _, err = run_cli(capsys, "bits", "--source", "lcg48",
                             "--k", "1", "--n", str(10**15))
        assert rc == 2
        assert str(MAX_N) in err


class TestVerify:
    def test_sanctioned_pairing_passes(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--source", "splitmix",
                             "--sampler", "ziggurat", "--n", "20000")
        assert rc == 0
        doc = json.loads(out)
        assert doc["verdict"] == "pass"
        tests = {r["test"] for r in doc["reports"]}
        assert {"moments", "ks", "chi_square_equal_prob_bins",
                "layer_occupancy"} <= tests
        assert set(doc["seconds"]) == {"generate", "moments", "ks",
                                       "chi_square_equal_prob_bins",
                                       "layer_occupancy"}
        assert all(v >= 0.0 for v in doc["seconds"].values())

    def test_occupancy_covers_the_whole_sample(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--source", "splitmix",
                             "--sampler", "ziggurat", "--n", "150000")
        assert rc == 0
        reports = {r["test"]: r for r in json.loads(out)["reports"]}
        assert reports["layer_occupancy"]["n"] == 150_000

    def test_polar_bundle_has_no_occupancy(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--source", "lcg48",
                             "--sampler", "polar", "--n", "20000")
        assert rc == 0
        tests = {r["test"] for r in json.loads(out)["reports"]}
        assert "layer_occupancy" not in tests

    def test_small_n_refused(self, capsys):
        rc, _, _ = run_cli(capsys, "verify", "--source", "splitmix",
                           "--sampler", "ziggurat", "--n", "100")
        assert rc == 2

    def test_n_above_limit_refused(self, capsys):
        rc, _, err = run_cli(capsys, "verify", "--source", "splitmix",
                             "--sampler", "ziggurat", "--n", str(10**15))
        assert rc == 2
        assert str(MAX_N) in err

    def test_unsanctioned_pairing_refused_without_force(self, capsys):
        rc, _, err = run_cli(capsys, "verify", "--source", "lcg48",
                             "--sampler", "modified-ziggurat", "--n", "20000")
        assert rc == 2
        assert "low-order" in err

    @pytest.mark.parametrize("source_id,sampler_id,stats", [
        ("splitmix", "ziggurat", {
            "moments": (0.017145794105550928, 1.0050601711403178,
                        0.005760122642999306, 0.03758380013072271),
            "ks": 0.010517307928529007,
            "chi": (116.45999999999614, 0.11098315856388144),
            "occupancy": (149.83464100666177, 127, 0.08133170241126766)}),
        ("lcg48", "polar", {
            "moments": (-0.0030103207127159977, 1.0056327897276591,
                        3.08925970645542e-05, -0.02610041311399769),
            "ks": 0.003929143821060688,
            "chi": (91.7299999999993, 0.6851600252764034),
            "occupancy": None}),
    ])
    def test_bundle_golden(self, capsys, monkeypatch, source_id, sampler_id,
                           stats):
        # every byte of the bundle but the gate timings is pinned
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        rc, out, _ = run_cli(capsys, "verify", "--source", source_id,
                             "--sampler", sampler_id, "--n", "20000")
        assert rc == 0
        n, seed, alpha = 20000, DEFAULT_SEED, 0.001
        mean, variance, skewness, kurtosis = stats["moments"]
        reports = [
            {"test": "moments", "n": n, "mean": mean, "variance": variance,
             "skewness": skewness, "excess_kurtosis": kurtosis,
             "tolerances": {"mean": 0.0282842712474619,
                            "variance": 0.07071067811865475,
                            "skewness": 0.07071067811865475,
                            "excess_kurtosis": 0.3535533905932738},
             "verdict": "pass", "seed": seed},
            {"test": "ks", "statistic": stats["ks"], "dof": None,
             "p_value": None, "critical_value": 0.013784867119002345,
             "alpha": alpha, "verdict": "pass", "n": n, "seed": seed},
            {"test": "chi_square_equal_prob_bins",
             "statistic": stats["chi"][0], "dof": 99,
             "p_value": stats["chi"][1], "alpha": alpha, "verdict": "pass",
             "n": n, "seed": seed},
        ]
        if stats["occupancy"] is not None:
            statistic, dof, p_value = stats["occupancy"]
            reports.append({"test": "layer_occupancy", "statistic": statistic,
                            "dof": dof, "p_value": p_value, "alpha": alpha,
                            "verdict": "pass", "n": n, "seed": seed})
        seconds = json.loads(out)["seconds"]
        bundle = {"source": source_id, "sampler": sampler_id, "seed": seed,
                  "n": n, "alpha": alpha, "sanctioned": True,
                  "verdict": "pass", "reports": reports, "seconds": seconds}
        assert out == json.dumps(bundle, indent=2) + "\n"

    def test_gates_hold_one_sample_sized_array(self, capsys):
        # the sample is sorted in place for the order-statistic gates, so
        # the traced peak is one n-sized array plus block temporaries
        n = 2_000_000
        argv = ["verify", "--source", "lcg48", "--sampler", "ziggurat",
                "--n"]
        assert main(argv + ["20000"]) == 0  # fills the engine's caches
        tracemalloc.start()
        try:
            assert main(argv + [str(n)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak < 1.5 * 8 * n

    def test_force_runs_the_unsafe_pairing_and_reports(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--source", "lcg48",
                             "--sampler", "modified-ziggurat", "--n", "20000",
                             "--force")
        doc = json.loads(out)
        assert doc["sanctioned"] is False
        assert rc in (0, 1)  # exit reflects measured gates
        assert any(r["test"] == "layer_occupancy" for r in doc["reports"])


class TestBench:
    def test_smoke_json_covers_sanctioned_grid(self, capsys):
        rc, out, _ = run_cli(capsys, "bench", "--profile", "smoke",
                             "--format", "json", "--seed", "3")
        assert rc == 0
        docs = json.loads(out)
        pairs = {(d["source_id"], d["sampler_id"]) for d in docs}
        assert pairs == {("lcg48", "polar"), ("lcg48", "ziggurat"),
                         ("splitmix", "polar"), ("splitmix", "ziggurat"),
                         ("splitmix", "modified-ziggurat")}
        ns = {(d["source_id"], d["sampler_id"]): d["ns_per_op"] for d in docs}
        for d in docs:
            if d["sampler_id"] != "polar":
                polar = ns[d["source_id"], "polar"]
                assert d["percent_faster_vs_polar"] == percent_faster(
                    polar, d["ns_per_op"])
            else:
                assert "percent_faster_vs_polar" not in d

    def test_explicit_unsanctioned_pairing_exits_2(self, capsys):
        rc, _, err = run_cli(capsys, "bench", "--source", "lcg48",
                             "--sampler", "modified-ziggurat",
                             "--profile", "smoke")
        assert rc == 2
        assert "low-order" in err

    def test_csv_single_pairing(self, capsys):
        rc, out, _ = run_cli(capsys, "bench", "--source", "splitmix",
                             "--sampler", "ziggurat", "--profile", "smoke",
                             "--format", "csv", "--seed", "8")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "source,sampler,ns_per_op,ci_half_width,iters,ops_total,seed"
        assert lines[1].startswith("splitmix,ziggurat,")

    def test_md_includes_comparisons(self, capsys):
        rc, out, _ = run_cli(capsys, "bench", "--source", "lcg48",
                             "--profile", "smoke", "--format", "md",
                             "--seed", "4")
        assert rc == 0
        assert "ns/op" in out
        assert "% faster than polar" in out

    def test_bench_text_golden(self, capsys):
        # five fixed results, sources interleaved and a ziggurat ahead of
        # its polar, pin every byte of the three formats
        rows = [
            ("ziggurat", "splitmix", 17.3926, 0.4125, [17.1, 17.6852], 1 << 63),
            ("polar", "lcg48", 103.0371, 2.5, [101.2, 104.8742], 7),
            ("polar", "splitmix", 88.7744, 1.0, [88.0, 89.5488], 0),
            ("ziggurat", "lcg48", 17.393, 0.3004, [17.2, 17.586], 12345),
            ("modified-ziggurat", "splitmix", 10.9009, 0.0995,
             [10.85, 10.9518], (1 << 64) - 1),
        ]
        results = [
            BenchResult(sampler_id=sid, source_id=src, ns_per_op=ns,
                        ci_half_width=ci, per_iteration_ns_per_op=its,
                        ops_total=524288, checksum=checksum, seed=3,
                        confidence=0.999, engine_used="numpy")
            for sid, src, ns, ci, its, checksum in rows]
        comparisons = (
            "ziggurat over splitmix: 80.41% faster than polar "
            "(17.393 vs 88.774 ns/op)\n"
            "modified-ziggurat over splitmix: 87.72% faster than polar "
            "(10.901 vs 88.774 ns/op)\n"
            "ziggurat over lcg48: 83.12% faster than polar "
            "(17.393 vs 103.037 ns/op)")

        assert cli._bench_text(results, "md") == (
            "| PRNG | ziggurat | polar | modified-ziggurat |\n"
            "|---|---|---|---|\n"
            "| splitmix | 17.393 ± 0.412 ns/op | 88.774 ± 1.000 ns/op "
            "| 10.901 ± 0.100 ns/op |\n"
            "| lcg48 | 17.393 ± 0.300 ns/op | 103.037 ± 2.500 ns/op | n/a |\n"
            "\n" + comparisons)
        assert capsys.readouterr().err == ""

        assert cli._bench_text(results, "csv") == (
            "source,sampler,ns_per_op,ci_half_width,iters,ops_total,seed\n"
            "splitmix,ziggurat,17.393,0.412,2,524288,3\n"
            "lcg48,polar,103.037,2.500,2,524288,3\n"
            "splitmix,polar,88.774,1.000,2,524288,3\n"
            "lcg48,ziggurat,17.393,0.300,2,524288,3\n"
            "splitmix,modified-ziggurat,10.901,0.100,2,524288,3")
        assert capsys.readouterr().err == comparisons + "\n"

        percent = {0: 80.40809062071949, 3: 83.11967242866889,
                   4: 87.72067172518203}
        docs = []
        for j, (sid, src, ns, ci, its, checksum) in enumerate(rows):
            doc = {"sampler_id": sid, "source_id": src, "ns_per_op": ns,
                   "ci_half_width": ci, "per_iteration_ns_per_op": its,
                   "ops_total": 524288, "checksum": checksum, "seed": 3,
                   "confidence": 0.999, "engine_used": "numpy",
                   "ci_relative": ci / ns}
            if j in percent:
                doc["percent_faster_vs_polar"] = percent[j]
            docs.append(doc)
        assert cli._bench_text(results, "json") == json.dumps(docs, indent=2)
        assert capsys.readouterr().err == ""

    def test_bad_out_path_fails_before_timing(self, capsys, monkeypatch,
                                              tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("timed a pairing before opening --out")

        monkeypatch.setattr(cli, "run_benchmark", refuse)
        rc, _, err = run_cli(capsys, "bench", "--profile", "smoke",
                             "--out", str(tmp_path / "no" / "such.json"))
        assert rc == 3
        assert "I/O error" in err


def test_invalid_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
