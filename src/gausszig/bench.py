"""Microbenchmark harness: warmup then timed iterations, ns/op with t-CIs.

One benchmark condition pairs a sampler with a source. Warmup iterations run
on throwaway state (they also build the engine's cached arrays, the analogue
of VM warmup); measurement restarts from the configured seed and times tight
batch fills through the numpy block engine, at least 10^5 ops per timer
read. A fixed-length witness stream is checksummed before timing so the
reported checksum is deterministic under the seed no matter how many ops the
wall clock allows.

The CI multiplier is the two-sided Student-t quantile at measure_iters - 1
degrees of freedom. For an integer dof the t CDF is a finite trigonometric
sum (Abramowitz & Stegun 26.7.3-26.7.4), which `student_t_quantile` inverts
by bisection; no special-function library is needed.

Everything runs single-threaded; one condition at a time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import engine
from .config import DEFAULT_SEED
from .samplers import make_sampler, require_sanctioned
from .sources import make_source

#: ops per timer read; large enough to keep timer overhead below 0.1%
BATCH_OPS = 1 << 17
#: length of the deterministic checksum witness stream
WITNESS_OPS = 1 << 20
#: coarsest acceptable perf_counter_ns resolution
MAX_TIMER_RESOLUTION_NS = 1_000


class TimerResolutionError(RuntimeError):
    """The monotonic timer is too coarse to benchmark with."""


@dataclass
class BenchConfig:
    """Iteration plan and confidence level for one benchmark run."""

    warmup_iters: int = 5
    warmup_secs: float = 10.0
    measure_iters: int = 5
    measure_secs: float = 10.0
    confidence: float = 0.999
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.measure_iters < 2:
            raise ValueError("need at least 2 measurement iterations for a CI")
        if self.warmup_iters < 0:
            raise ValueError("warmup_iters must be >= 0")
        if self.warmup_secs <= 0 or self.measure_secs <= 0:
            raise ValueError("iteration durations must be positive")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")

    @classmethod
    def paper(cls, seed: int = DEFAULT_SEED) -> "BenchConfig":
        return cls(seed=seed)

    @classmethod
    def smoke(cls, seed: int = DEFAULT_SEED) -> "BenchConfig":
        return cls(warmup_iters=2, warmup_secs=0.1,
                   measure_iters=2, measure_secs=0.1, seed=seed)


@dataclass
class BenchResult:
    """ns/op point estimate with CI half-width and raw iteration data."""

    sampler_id: str
    source_id: str
    ns_per_op: float
    ci_half_width: float
    per_iteration_ns_per_op: list
    ops_total: int
    checksum: int
    seed: int
    confidence: float
    engine_used: str


def _t_central(t: float, dof: int) -> float:
    """P(|T| <= t) for Student's t with an integer number of degrees of freedom.

    The finite trigonometric sum of Abramowitz & Stegun 26.7.3-26.7.4, with
    theta = atan(t/sqrt(dof)): sin(theta) * sum(a_j) for even dof and
    2/pi * (theta + sin(theta)cos(theta) * sum(b_j)) for odd dof, over
    dof//2 terms a_j = a_{j-1} cos^2(theta) (2j-1)/(2j) or
    b_j = b_{j-1} cos^2(theta) 2j/(2j+1), from a_0 = b_0 = 1.
    """
    theta = math.atan(t / math.sqrt(dof))
    c = math.cos(theta) ** 2
    odd = dof % 2
    term, total = 1.0, 0.0
    for j in range(1, dof // 2 + 1):
        total += term
        term *= c * (2 * j - 1 + odd) / (2 * j + odd)
    if odd:
        return 2.0 / math.pi * (theta + math.sin(theta) * math.cos(theta) * total)
    return math.sin(theta) * total


def student_t_quantile(confidence: float, dof: int) -> float:
    """Two-sided Student-t quantile for the given confidence level.

    Inverts the closed-form central probability ``_t_central`` by bisection;
    works for any level in (0, 1).
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if dof < 1:
        raise ValueError(f"dof must be >= 1, got {dof}")
    lo, hi = 0.0, 1e8
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _t_central(mid, dof) < confidence:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def confidence_interval(xs, level: float):
    """Two-sided Student-t CI (lo, hi) for the mean of xs."""
    xs = list(xs)
    n = len(xs)
    if n < 2:
        raise ValueError(f"confidence interval needs n >= 2, got {n}")
    mean = sum(xs) / n
    var = sum((x - mean) ** 2 for x in xs) / (n - 1)
    half = student_t_quantile(level, n - 1) * math.sqrt(var / n)
    return mean - half, mean + half


def percent_faster(baseline_ns: float, candidate_ns: float) -> float:
    """How much faster the candidate is than the baseline, in percent."""
    if baseline_ns <= 0.0 or candidate_ns <= 0.0:
        raise ValueError("ns/op inputs must be positive")
    return 100.0 * (1.0 - candidate_ns / baseline_ns)


def timer_resolution_ns() -> int:
    """Smallest positive delta observed between successive timer reads."""
    best = None
    prev = time.perf_counter_ns()
    for _ in range(2000):
        now = time.perf_counter_ns()
        if now > prev and (best is None or now - prev < best):
            best = now - prev
        prev = now
    return best if best is not None else MAX_TIMER_RESOLUTION_NS + 1


def _checksum_fold(buf: np.ndarray) -> int:
    return int(np.bitwise_xor.reduce(buf.view(np.uint64)))


def _fresh_pair(sampler_id: str, source_id: str, seed: int):
    return make_sampler(sampler_id), make_source(source_id, seed)


def run_benchmark(sampler_id: str, source_id: str,
                  cfg: BenchConfig | None = None,
                  engine_mode: str = "auto") -> BenchResult:
    """Time one sampler/source pairing per the configured iteration plan."""
    cfg = cfg if cfg is not None else BenchConfig()
    require_sanctioned(source_id, sampler_id)

    if engine_mode not in ("auto", "numpy", "python"):
        raise ValueError(f"unknown engine mode: {engine_mode!r}")
    use_engine = engine_mode != "python"

    if timer_resolution_ns() > MAX_TIMER_RESOLUTION_NS:
        raise TimerResolutionError(
            f"timer resolution coarser than {MAX_TIMER_RESOLUTION_NS} ns")

    buf = np.empty(BATCH_OPS, dtype=np.float64)

    def fill(sampler, source, out):
        if use_engine:
            engine.fill_gaussians(sampler, source, out)
        else:
            for j in range(out.shape[0]):
                out[j] = sampler.next_gaussian(source)

    # deterministic checksum witness, outside the timed phase
    witness = np.empty(WITNESS_OPS, dtype=np.float64)
    fill(*_fresh_pair(sampler_id, source_id, cfg.seed), witness)
    checksum = _checksum_fold(witness)

    # warmup on throwaway state (builds the engine's cached arrays)
    sampler, source = _fresh_pair(sampler_id, source_id, cfg.seed)
    for _ in range(cfg.warmup_iters):
        t_end = time.perf_counter() + cfg.warmup_secs
        while time.perf_counter() < t_end:
            fill(sampler, source, buf)

    # measurement from a fresh seed-determined stream
    sampler, source = _fresh_pair(sampler_id, source_id, cfg.seed)
    per_iteration = []
    ops_total = 0
    elision_guard = 0
    for _ in range(cfg.measure_iters):
        iter_ns = 0
        iter_ops = 0
        t_end = time.perf_counter() + cfg.measure_secs
        while True:
            t0 = time.perf_counter_ns()
            fill(sampler, source, buf)
            iter_ns += time.perf_counter_ns() - t0
            iter_ops += BATCH_OPS
            elision_guard ^= _checksum_fold(buf)
            if time.perf_counter() >= t_end:
                break
        per_iteration.append(iter_ns / iter_ops)
        ops_total += iter_ops

    lo, hi = confidence_interval(per_iteration, cfg.confidence)
    return BenchResult(
        sampler_id=sampler_id,
        source_id=source_id,
        ns_per_op=sum(per_iteration) / len(per_iteration),
        ci_half_width=0.5 * (hi - lo),
        per_iteration_ns_per_op=per_iteration,
        ops_total=ops_total,
        checksum=checksum,
        seed=cfg.seed,
        confidence=cfg.confidence,
        engine_used="numpy" if use_engine else "python",
    )


_CSV_HEADER = "source,sampler,ns_per_op,ci_half_width,iters,ops_total,seed"


def render_table(rows, fmt: str) -> str:
    """Render results as markdown (sources x samplers) or CSV."""
    rows = list(rows)
    if not rows:
        raise ValueError("no benchmark results to render")
    if fmt == "csv":
        lines = [_CSV_HEADER]
        for r in rows:
            lines.append(
                f"{r.source_id},{r.sampler_id},{r.ns_per_op:.3f},"
                f"{r.ci_half_width:.3f},{len(r.per_iteration_ns_per_op)},"
                f"{r.ops_total},{r.seed}")
        return "\n".join(lines)
    if fmt == "md":
        samplers = []
        for r in rows:
            if r.sampler_id not in samplers:
                samplers.append(r.sampler_id)
        sources = []
        for r in rows:
            if r.source_id not in sources:
                sources.append(r.source_id)
        cell = {(r.source_id, r.sampler_id): r for r in rows}
        header = "| PRNG | " + " | ".join(samplers) + " |"
        rule = "|---" * (len(samplers) + 1) + "|"
        lines = [header, rule]
        for src in sources:
            cells = []
            for sid in samplers:
                r = cell.get((src, sid))
                cells.append(
                    f"{r.ns_per_op:.3f} ± {r.ci_half_width:.3f} ns/op"
                    if r is not None else "n/a")
            lines.append("| " + src + " | " + " | ".join(cells) + " |")
        return "\n".join(lines)
    raise ValueError(f"unknown table format: {fmt!r}")
