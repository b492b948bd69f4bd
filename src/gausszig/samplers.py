"""The three standard-normal samplers, all driven by a caller-supplied source.

Two ziggurat variants share the table machinery but differ in where they read
the layer index from one 64-bit draw:

* original ziggurat: sign bit 63, index in the HIGH bits (62 down), mantissa
  below. Layer selection never touches low-order bits, so any uniform source
  is safe, including the LCG.
* modified ziggurat: index in the LOW bits, sign just above it, mantissa in
  the remaining high bits. The common fast path costs exactly one draw, but
  layer selection inherits whatever structure the source's low bits carry,
  so the LCG pairing is refused.

The polar method is the classic two-at-a-time disk rejection with a cached
spare deviate.
"""

from __future__ import annotations

import abc
import math

from .sources import UniformSource
from .tables import ZigguratTables, build_ziggurat_tables

#: rejection-loop iteration cap; tripping it means the source is broken
LOOP_GUARD = 1_000_000

_UNIT_SCALE = 1.1102230246251565e-16  # 2^-53


class RejectionLoopExceeded(RuntimeError):
    """A rejection loop ran LOOP_GUARD times without accepting."""


class UnsanctionedPairing(ValueError):
    """Requested a sampler/source pairing known to be statistically unsafe."""


def tail_sample(src: UniformSource, r: float) -> float:
    """Draw from the normal tail beyond r > 0 (always returns > r).

    Classic log-based tail rejection: x = -ln(u1)/r, y = -ln(u2), accept
    when 2y > x^2. Zero uniforms are redrawn so the logs stay finite.
    """
    if not r > 0.0:
        raise ValueError(f"tail boundary must be positive, got {r}")
    for _ in range(LOOP_GUARD):
        u1 = src.next_f64_unit()
        u2 = src.next_f64_unit()
        if u1 <= 0.0 or u2 <= 0.0:
            continue
        x = -math.log(u1) / r
        y = -math.log(u2)
        if 2.0 * y > x * x:
            return r + x
    raise RejectionLoopExceeded("tail sampler exceeded its iteration guard")


class GaussianSampler(abc.ABC):
    """A standard-normal sampler fed by an external uniform source."""

    algorithm_id: str = "abstract"

    @abc.abstractmethod
    def next_gaussian(self, src: UniformSource) -> float:
        """Return one N(0, 1) deviate, consuming draws from src."""


class ZigguratSampler(GaussianSampler):
    """Original (GSL-style) ziggurat; index and sign from the high bits."""

    algorithm_id = "ziggurat"

    def __init__(self, tables: ZigguratTables | None = None):
        self.tables = tables if tables is not None else build_ziggurat_tables(128)
        t = self.tables
        self._idx_shift = 63 - t.index_bits
        self._idx_mask = t.n - 1
        self._m_mask = (1 << t.mantissa_bits) - 1

    def next_gaussian(self, src: UniformSource) -> float:
        return self._draw(src, None)

    def sample_with_occupancy(self, src: UniformSource, n_calls: int):
        """Return (deviates, per-layer selection counts over all iterations)."""
        counts = [0] * self.tables.n
        out = [self._draw(src, counts) for _ in range(n_calls)]
        return out, counts

    def _draw(self, src: UniformSource, counts) -> float:
        t = self.tables
        ktab, wtab, ytab, r = t.ktab, t.wtab, t.ytab, t.r
        idx_shift, idx_mask, m_mask = self._idx_shift, self._idx_mask, self._m_mask
        for _ in range(LOOP_GUARD):
            u = src.next_u64()
            i = (u >> idx_shift) & idx_mask
            m = u & m_mask
            if counts is not None:
                counts[i] += 1
            if m < ktab[i]:
                x = m * wtab[i]
                return x if u >> 63 == 0 else -x
            if i == 0:
                x = tail_sample(src, r)
                return x if u >> 63 == 0 else -x
            x = m * wtab[i]
            y = ytab[i] + src.next_f64_unit() * (ytab[i + 1] - ytab[i])
            if y < math.exp(-0.5 * x * x):
                return x if u >> 63 == 0 else -x
        raise RejectionLoopExceeded("ziggurat exceeded its iteration guard")


class ModifiedZigguratSampler(GaussianSampler):
    """Single-draw-fast-path ziggurat; index from the LOW bits of the draw.

    Identical in law to the original ziggurat. The fast path consumes exactly
    one u64; the rare overhang/tail paths draw more and use the exact density
    for acceptance. Requires full-quality low-order bits from the source.
    """

    algorithm_id = "modified-ziggurat"

    def __init__(self, tables: ZigguratTables | None = None):
        self.tables = tables if tables is not None else build_ziggurat_tables(256)
        t = self.tables
        self._idx_mask = t.n - 1
        self._sign_bit = t.index_bits
        self._m_shift = t.index_bits + 1

    def next_gaussian(self, src: UniformSource) -> float:
        return self._draw(src, None)

    def sample_with_occupancy(self, src: UniformSource, n_calls: int):
        """Return (deviates, per-layer selection counts over all iterations)."""
        counts = [0] * self.tables.n
        out = [self._draw(src, counts) for _ in range(n_calls)]
        return out, counts

    def _draw(self, src: UniformSource, counts) -> float:
        t = self.tables
        ktab, wtab, ytab, r = t.ktab, t.wtab, t.ytab, t.r
        idx_mask, sign_bit, m_shift = self._idx_mask, self._sign_bit, self._m_shift
        for _ in range(LOOP_GUARD):
            u = src.next_u64()
            i = u & idx_mask
            m = u >> m_shift
            if counts is not None:
                counts[i] += 1
            negative = (u >> sign_bit) & 1
            if m < ktab[i]:
                x = m * wtab[i]
                return -x if negative else x
            if i == 0:
                x = tail_sample(src, r)
                return -x if negative else x
            x = m * wtab[i]
            y = ytab[i] + src.next_f64_unit() * (ytab[i + 1] - ytab[i])
            if y < math.exp(-0.5 * x * x):
                return -x if negative else x
        raise RejectionLoopExceeded("modified ziggurat exceeded its iteration guard")


class PolarSampler(GaussianSampler):
    """Marsaglia polar method with the usual one-deep spare cache."""

    algorithm_id = "polar"

    def __init__(self):
        self.spare: float | None = None

    def reset(self) -> None:
        self.spare = None

    def next_gaussian(self, src: UniformSource) -> float:
        spare = self.spare
        if spare is not None:
            self.spare = None
            return spare
        for _ in range(LOOP_GUARD):
            v1 = 2.0 * src.next_f64_unit() - 1.0
            v2 = 2.0 * src.next_f64_unit() - 1.0
            s = v1 * v1 + v2 * v2
            if 0.0 < s < 1.0:
                mul = math.sqrt(-2.0 * math.log(s) / s)
                self.spare = v2 * mul
                return v1 * mul
        raise RejectionLoopExceeded("polar method exceeded its iteration guard")


def gaussian_affine(src: UniformSource, sampler: GaussianSampler,
                    mu: float, sigma: float) -> float:
    """Return one N(mu, sigma^2) deviate; sigma must be >= 0."""
    if sigma < 0.0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    return mu + sigma * sampler.next_gaussian(src)


SAMPLER_IDS = ("polar", "ziggurat", "modified-ziggurat")

# The one pairing with a known statistical hazard: the modified ziggurat
# selects layers from low-order bits, and the LCG's low state bits have
# short periods.
_UNSAFE_PAIRINGS = {("lcg48", "modified-ziggurat")}


def is_sanctioned(source_id: str, sampler_id: str) -> bool:
    return (source_id, sampler_id) not in _UNSAFE_PAIRINGS


def require_sanctioned(source_id: str, sampler_id: str) -> None:
    if not is_sanctioned(source_id, sampler_id):
        raise UnsanctionedPairing(
            f"{sampler_id} over {source_id} is refused: the modified ziggurat "
            "takes its layer index from the low-order bits of each draw, and "
            "the LCG's low-order state bits have short periods (bit j of the "
            "raw state cycles with period 2^(j+1))"
        )


def make_sampler(sampler_id: str, layers: int | None = None) -> GaussianSampler:
    """Instantiate a sampler by identifier, optionally with a custom layer count."""
    if sampler_id == "polar":
        if layers is not None:
            raise ValueError("polar sampler takes no layer count")
        return PolarSampler()
    if sampler_id == "ziggurat":
        tables = build_ziggurat_tables(layers) if layers else None
        return ZigguratSampler(tables)
    if sampler_id == "modified-ziggurat":
        tables = build_ziggurat_tables(layers) if layers else None
        return ModifiedZigguratSampler(tables)
    raise ValueError(f"unknown sampler id: {sampler_id!r}")
