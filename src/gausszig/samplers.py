"""The three standard-normal samplers, all driven by a caller-supplied source.

One ziggurat class serves both of the paper's variants. Each attempt reads
one 64-bit word; the tables, the wedge test, the tail and the occupancy
count are shared, and only the bit layout of the word differs:

* high layout (``ziggurat``, 128 layers): sign bit 63, index in the HIGH
  bits (62 down), mantissa below. Layer selection never touches low-order
  bits, so any uniform source is safe, including the LCG.
* low layout (``modified-ziggurat``, 256 layers): index in the LOW bits,
  sign just above it, mantissa in the remaining high bits. The common fast
  path costs exactly one draw, but layer selection inherits whatever
  structure the source's low bits carry, so the LCG pairing is refused.

The polar method is the classic two-at-a-time disk rejection with a cached
spare deviate.
"""

from __future__ import annotations

import functools
import math

from .sources import UniformSource
from .tables import ZigguratTables, build_ziggurat_tables

#: rejection-loop iteration cap; tripping it means the source is broken
LOOP_GUARD = 1_000_000


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


class GaussianSampler:
    """A standard-normal sampler fed by an external uniform source.

    Not an ABC: the engine's isinstance test on every fill costs several
    times more through ``ABCMeta.__instancecheck__``."""

    algorithm_id: str = "abstract"
    #: the batch engine's last block for this sampler (see gausszig.engine)
    read_ahead = None

    def next_gaussian(self, src: UniformSource) -> float:
        """Return one N(0, 1) deviate, consuming draws from src."""
        raise NotImplementedError(
            f"{type(self).__name__} does not define next_gaussian")


class ZigguratSampler(GaussianSampler):
    """Ziggurat reading one 64-bit word per attempt, in the high layout.

    A subclass takes the low layout by setting ``low_bit_layout``. The
    layout becomes ``idx_shift``, ``sign_bit``, ``m_shift`` and ``m_mask``,
    which the per-call draw and the batch engine both read. In both layouts
    the sign bit sits just above the index, so ``(u >> idx_shift) & (2n-1)``
    is sign*n + layer.
    """

    algorithm_id = "ziggurat"
    default_layers = 128
    low_bit_layout = False

    def __init__(self, tables: ZigguratTables | None = None):
        if tables is None:
            tables = build_ziggurat_tables(self.default_layers)
        self.tables = tables
        b = tables.index_bits
        if self.low_bit_layout:
            self.idx_shift, self.sign_bit, self.m_shift = 0, b, b + 1
        else:
            self.idx_shift, self.sign_bit, self.m_shift = 63 - b, 63, 0
        self.m_mask = (1 << tables.mantissa_bits) - 1
        # unpacked once per draw: one load in place of nine keeps it fast
        self._draw_args = (tables.ktab, tables.wtab, tables.ytab, tables.r,
                           tables.n - 1, self.idx_shift, self.sign_bit,
                           self.m_shift, self.m_mask)

    @functools.cached_property
    def engine_tables(self):
        """The batch engine's (ktab, wtab), indexed by sign*n + layer, with
        wtab negated in the top half; built on the engine's first read."""
        import numpy as np

        ktab = np.array(self.tables.ktab, dtype=np.uint64)
        wtab = np.array(self.tables.wtab, dtype=np.float64)
        return (np.concatenate([ktab, ktab]), np.concatenate([wtab, -wtab]))

    def next_gaussian(self, src: UniformSource) -> float:
        return self._draw(src, None)

    def sample_with_occupancy(self, src: UniformSource, n_calls: int):
        """Return (deviates, per-layer selection counts over all iterations)."""
        counts = [0] * self.tables.n
        out = [self._draw(src, counts) for _ in range(n_calls)]
        return out, counts

    def _draw(self, src: UniformSource, counts) -> float:
        (ktab, wtab, ytab, r, idx_mask,
         idx_shift, sign_bit, m_shift, m_mask) = self._draw_args
        for _ in range(LOOP_GUARD):
            u = src.next_u64()
            i = (u >> idx_shift) & idx_mask
            m = (u >> m_shift) & m_mask
            if counts is not None:
                counts[i] += 1
            if m < ktab[i]:
                x = m * wtab[i]
            elif i == 0:
                x = tail_sample(src, r)
            else:
                x = m * wtab[i]
                y = ytab[i] + src.next_f64_unit() * (ytab[i + 1] - ytab[i])
                if not y < math.exp(-0.5 * x * x):
                    continue
            return -x if (u >> sign_bit) & 1 else x
        raise RejectionLoopExceeded(
            f"{self.algorithm_id} exceeded its iteration guard")


class ModifiedZigguratSampler(ZigguratSampler):
    """The ziggurat in the low layout: the fast path costs exactly one draw,
    but layer selection needs full-quality low-order bits from the source."""

    algorithm_id = "modified-ziggurat"
    default_layers = 256
    low_bit_layout = True


class PolarSampler(GaussianSampler):
    """Marsaglia polar method with the usual one-deep spare cache."""

    algorithm_id = "polar"

    def __init__(self):
        self.spare: float | None = None

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
    """Return one N(mu, sigma^2) deviate; mu must be finite and sigma finite
    and >= 0."""
    if not (math.isfinite(mu) and math.isfinite(sigma) and sigma >= 0.0):
        raise ValueError(f"mu must be finite and sigma finite and >= 0, "
                         f"got mu={mu}, sigma={sigma}")
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
    for cls in (ZigguratSampler, ModifiedZigguratSampler):
        if sampler_id == cls.algorithm_id:
            return cls(None if layers is None else build_ziggurat_tables(layers))
    raise ValueError(f"unknown sampler id: {sampler_id!r}")
