"""Command-line interface wiring sources, samplers, gates, and the harness.

Exit codes are a stable scripting contract: 0 success, 1 statistical gate
failure, 2 invalid request, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import engine
from .bench import BenchConfig, percent_faster, render_table, run_benchmark
from .config import (
    DEFAULT_SEED,
    GATE_ALPHA,
    MAX_N,
    MOMENT_TOL_EXCESS_KURTOSIS,
    MOMENT_TOL_MEAN,
    MOMENT_TOL_SKEWNESS,
    MOMENT_TOL_VARIANCE,
    SEED_ENV_VAR,
    VERIFY_DEFAULT_N,
    VERIFY_MIN_N,
)
from .samplers import (
    SAMPLER_IDS,
    UnsanctionedPairing,
    ZigguratSampler,
    is_sanctioned,
    make_sampler,
    require_sanctioned,
)
from .sources import SOURCE_IDS, ScriptedSource, ScriptExhausted, make_source
from .stats import (
    equal_probability_edges,
    chi_square_gof,
    ks_test,
    low_bits_chi_square,
    moments,
    uniform_counts_gof,
)
from .tables import build_ziggurat_tables, tables_to_json

#: deviates generated and written per block by `sample`
SAMPLE_BLOCK = engine.BLOCK


def _parse_seed(text: str) -> int:
    if text == "random":
        return int.from_bytes(os.urandom(8), "little")
    value = int(text, 0)
    if not 0 <= value < (1 << 64):
        raise ValueError(f"seed must fit in 64 bits, got {text}")
    return value


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return _parse_seed(args.seed)
    env = os.environ.get(SEED_ENV_VAR)
    if env:
        return _parse_seed(env)
    return DEFAULT_SEED


def _open_output(out_path):
    """The --out file opened for writing, or stdout (left open on exit)."""
    if out_path:
        return open(out_path, "w")
    return contextlib.nullcontext(sys.stdout)


def _write_output(text: str, out_path) -> None:
    if text and not text.endswith("\n"):
        text += "\n"
    with _open_output(out_path) as fh:
        fh.write(text)


def cmd_bench(args) -> int:
    seed = _resolve_seed(args)
    cfg = (BenchConfig.paper(seed) if args.profile == "paper"
           else BenchConfig.smoke(seed))

    sources = [args.source] if args.source else list(SOURCE_IDS)
    samplers = [args.sampler] if args.sampler else list(SAMPLER_IDS)
    pairs = []
    for source_id in sources:
        for sampler_id in samplers:
            if is_sanctioned(source_id, sampler_id):
                pairs.append((source_id, sampler_id))
            elif args.source and args.sampler:
                require_sanctioned(source_id, sampler_id)  # raises -> exit 2
    if not pairs:
        print("no sanctioned pairings selected", file=sys.stderr)
        return 2

    # open --out before the pairings are timed, so a bad path fails at once
    with _open_output(args.out) as fh:
        results = []
        for source_id, sampler_id in pairs:
            print(f"# benchmarking {sampler_id} over {source_id} "
                  f"({args.profile} profile)", file=sys.stderr)
            results.append(run_benchmark(sampler_id, source_id, cfg,
                                         engine_mode=args.engine))
        fh.write(_bench_text(results, args.format) + "\n")
    return 0


def _bench_text(results, fmt: str) -> str:
    """The bench output; md and csv also state how each ziggurat compares
    with polar over the same source (md in the table text, csv on stderr)."""
    comparisons = []  # (candidate, polar, percent faster), source by source
    by_source = {}
    for r in results:
        by_source.setdefault(r.source_id, {})[r.sampler_id] = r
    for group in by_source.values():
        polar = group.get("polar")
        if polar is None:
            continue
        comparisons += [(r, polar, percent_faster(polar.ns_per_op, r.ns_per_op))
                        for sampler_id, r in group.items()
                        if sampler_id != "polar"]

    if fmt == "json":
        pct = {id(r): p for r, _, p in comparisons}
        docs = []
        for r in results:
            doc = asdict(r)
            # the CI's share of the estimate: how much speed a run can tell
            doc["ci_relative"] = r.ci_half_width / r.ns_per_op
            if id(r) in pct:
                doc["percent_faster_vs_polar"] = pct[id(r)]
            docs.append(doc)
        return json.dumps(docs, indent=2)
    text = render_table(results, fmt)
    comp_lines = [
        f"{r.sampler_id} over {r.source_id}: "
        f"{p:.2f}% faster than {polar.sampler_id} "
        f"({r.ns_per_op:.3f} vs {polar.ns_per_op:.3f} ns/op)"
        for r, polar, p in comparisons
    ]
    if fmt == "md" and comp_lines:
        text += "\n\n" + "\n".join(comp_lines)
    elif comp_lines:
        print("\n".join(comp_lines), file=sys.stderr)
    return text


@contextlib.contextmanager
def _timed(seconds: dict, key: str):
    start = time.perf_counter()
    yield
    seconds[key] = time.perf_counter() - start


def cmd_verify(args) -> int:
    seed = _resolve_seed(args)
    if args.n < VERIFY_MIN_N:
        print(f"verify needs --n >= {VERIFY_MIN_N}, got {args.n}",
              file=sys.stderr)
        return 2
    if args.n > MAX_N:
        print(f"verify needs --n <= {MAX_N}, got {args.n}", file=sys.stderr)
        return 2
    if not args.force:
        require_sanctioned(args.source, args.sampler)

    seconds = {}
    with _timed(seconds, "generate"):
        sampler = make_sampler(args.sampler)
        source = make_source(args.source, seed)
        # the ziggurat family counts the layer of every attempt as it goes
        counts = (np.zeros(sampler.tables.n, dtype=np.int64)
                  if isinstance(sampler, ZigguratSampler) else None)
        deviates = np.empty(args.n, dtype=np.float64)
        engine.fill_gaussians(sampler, source, deviates, counts)

    # tolerances are pinned at n = 10^6 and relax as 1/sqrt(n) below it
    scale = max(1.0, (1_000_000 / args.n) ** 0.5)
    with _timed(seconds, "moments"):
        summary = moments(deviates)
    moment_checks = {
        "mean": (abs(summary.mean), MOMENT_TOL_MEAN * scale),
        "variance": (abs(summary.variance - 1.0), MOMENT_TOL_VARIANCE * scale),
        "skewness": (abs(summary.skewness), MOMENT_TOL_SKEWNESS * scale),
        "excess_kurtosis": (abs(summary.excess_kurtosis),
                            MOMENT_TOL_EXCESS_KURTOSIS * scale),
    }
    moments_pass = all(err < tol for err, tol in moment_checks.values())
    moments_doc = summary.to_json_dict()
    moments_doc["tolerances"] = {k: tol for k, (_, tol) in moment_checks.items()}
    moments_doc["verdict"] = "pass" if moments_pass else "fail"
    moments_doc["seed"] = seed

    # moments read the generation order; both order-statistic gates read
    # the one sample, sorted in place, so no n-sized copy is made
    with _timed(seconds, "ks"):
        deviates.sort()
        ks = ks_test(deviates)
    with _timed(seconds, "chi_square_equal_prob_bins"):
        chi = chi_square_gof(deviates, equal_probability_edges(100))

    reports = [
        moments_doc,
        ks.to_json_dict(GATE_ALPHA, seed=seed),
        chi.to_json_dict("chi_square_equal_prob_bins", GATE_ALPHA,
                         n=args.n, seed=seed),
    ]
    all_pass = moments_pass and ks.passes(GATE_ALPHA) and chi.passes(GATE_ALPHA)

    if counts is not None:
        with _timed(seconds, "layer_occupancy"):
            occ = uniform_counts_gof(counts)
        reports.append(occ.to_json_dict("layer_occupancy", GATE_ALPHA,
                                        n=args.n, seed=seed))
        all_pass = all_pass and occ.passes(GATE_ALPHA)

    bundle = {
        "source": args.source,
        "sampler": args.sampler,
        "seed": seed,
        "n": args.n,
        "alpha": GATE_ALPHA,
        "sanctioned": is_sanctioned(args.source, args.sampler),
        "verdict": "pass" if all_pass else "fail",
        "reports": reports,
        "seconds": seconds,
    }
    _write_output(json.dumps(bundle, indent=2), args.out)
    return 0 if all_pass else 1


def cmd_sample(args) -> int:
    seed = _resolve_seed(args)
    if args.n < 0:
        print(f"--n must be >= 0, got {args.n}", file=sys.stderr)
        return 2
    if args.n > MAX_N:
        print(f"--n must be <= {MAX_N}, got {args.n}", file=sys.stderr)
        return 2
    for flag, value in (("--mu", args.mu), ("--sigma", args.sigma)):
        if not math.isfinite(value):
            print(f"{flag} must be finite, got {value}", file=sys.stderr)
            return 2
    if args.sigma < 0:
        print(f"--sigma must be >= 0, got {args.sigma}", file=sys.stderr)
        return 2
    sampler = make_sampler(args.sampler)
    source = make_source(args.source, seed)
    affine = args.mu != 0.0 or args.sigma != 1.0
    # the engine leaves the source where one-shot generation would, so
    # block-by-block fills write the same bytes as one fill of n
    with _open_output(args.out) as fh:
        block = np.empty(min(args.n, SAMPLE_BLOCK), dtype=np.float64)
        for done in range(0, args.n, SAMPLE_BLOCK):
            k = min(SAMPLE_BLOCK, args.n - done)
            deviates = block[:k]
            engine.fill_gaussians(sampler, source, deviates)
            if affine:
                deviates = args.mu + args.sigma * deviates
            fh.write("%.17g\n" * k % tuple(deviates.tolist()))
    return 0


def cmd_tables(args) -> int:
    n = args.n if args.n is not None else 128
    _write_output(tables_to_json(build_ziggurat_tables(n)), args.out)
    return 0


def cmd_bits(args) -> int:
    seed = _resolve_seed(args)
    if args.n is not None and args.n > MAX_N:
        print(f"--n must be <= {MAX_N}, got {args.n}", file=sys.stderr)
        return 2
    if args.source == "scripted":
        if not args.script:
            print("--source scripted requires --script PATH", file=sys.stderr)
            return 2
        with open(args.script) as fh:
            words = [int(line.strip(), 0) for line in fh if line.strip()]
        source = ScriptedSource(words)
        n = args.n if args.n is not None else len(words)
    else:
        source = make_source(args.source, seed)
        n = args.n if args.n is not None else 1_000_000

    report = low_bits_chi_square(source, args.k, n)
    doc = report.to_json_dict(f"low_bits_k{args.k}", GATE_ALPHA, n=n, seed=seed)
    _write_output(json.dumps(doc, indent=2), args.out)
    return 0 if report.passes(GATE_ALPHA) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gausszig",
        description="Gaussian samplers over pluggable PRNGs: benchmark, "
                    "verify, sample, inspect tables, scan low bits.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_sampler=True, sources=SOURCE_IDS):
        p.add_argument("--source", choices=sources, default=None)
        if with_sampler:
            p.add_argument("--sampler", choices=SAMPLER_IDS, default=None)
        p.add_argument("--seed", default=None,
                       help="64-bit seed (decimal or 0x-hex) or 'random'")
        p.add_argument("--out", default=None, help="write output to this path")

    p = sub.add_parser("bench", help="time sampler/source pairings")
    add_common(p)
    p.add_argument("--profile", choices=("paper", "smoke"), default="paper")
    p.add_argument("--format", choices=("md", "csv", "json"), default="md")
    p.add_argument("--engine", choices=("auto", "numpy", "python"),
                   default="auto")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="run distributional gates for a pairing")
    add_common(p)
    p.add_argument("--n", type=int, default=VERIFY_DEFAULT_N)
    p.add_argument("--force", action="store_true",
                   help="run an unsanctioned pairing anyway")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sample", help="write deviates, one per line")
    add_common(p)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("tables", help="emit ziggurat tables as JSON")
    p.add_argument("--n", type=int, default=None, help="layer count (power of two)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("bits", help="chi-square scan of low-order output bits")
    p.add_argument("--source", choices=("lcg48", "splitmix", "scripted"),
                   required=True)
    p.add_argument("--k", type=int, required=True, help="bit count, 1..8")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", default=None)
    p.add_argument("--script", default=None,
                   help="word file for --source scripted (one u64 per line)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bits)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command in ("verify", "sample"):
        if not args.source or not args.sampler:
            print(f"{args.command} requires --source and --sampler",
                  file=sys.stderr)
            return 2

    try:
        return args.func(args)
    except UnsanctionedPairing as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except (ScriptExhausted, ValueError) as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
