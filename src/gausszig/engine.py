"""numpy block engine for the samplers, bit-identical to the per-call path.

Bulk generation and the benchmark harness fill arrays through this module.
Words are made in blocks of at most ``BLOCK`` with numpy: SplitMix64 as
``mix64(state + k*gamma)``, the 48-bit LCG through the jump-ahead
coefficients ``a^k`` and ``c_k`` mod 2^48, two states per u64.

Whether a ziggurat word takes the fast path depends on that word alone, so
one vector test accepts every fast word of a block at once. The other
positions are walked once per block in plain Python ints. A wedge attempt
at word s always reads exactly words s and s+1, so it is decided in the
walk with the per-call expressions, ``y = ytab[i] + u*(ytab[i+1]-ytab[i])``
against ``math.exp(-0.5*x*x)``; only tails call into :mod:`gausszig.samplers`
(``tail_sample``), reading the block's following words and then the source.
The same walk counts the layer of every attempt when occupancy is asked for.
Polar attempts always start on an even word, so the pair acceptance is one
vector test too, and the log of each accepted pair comes from ``math.log``.
No accept/reject decision and no output value comes from ``np.log`` or
``np.exp``, whose roundings differ from ``math``'s on some inputs.

A fill that stops inside a block rewinds the source to its state just after
the last word used. The deviates, the final source state and the polar spare
are therefore exactly those of ``sampler.next_gaussian(source)`` called once
per element; the test suite pins that.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import sources
from .samplers import (
    LOOP_GUARD,
    GaussianSampler,
    PolarSampler,
    RejectionLoopExceeded,
    ZigguratSampler,
    tail_sample,
)
from .sources import (
    LCG_INC,
    LCG_MULT,
    MASK48,
    MASK64,
    Lcg48,
    SplitMix64,
    UniformSource,
)

#: most words made per numpy round; bounds the engine's scratch memory
BLOCK = 1 << 14
#: shorter fills run per call, which is cheaper than one numpy round
PER_CALL_BELOW = 24

# LCG words come in rows of _ROW, each row jumped to from the block's start
_ROW = 64
_M48 = np.uint64(MASK48)
_MIX_A = np.uint64(sources._MIX_A)
_MIX_B = np.uint64(sources._MIX_B)
_UNIT_SCALE = sources._UNIT_SCALE


def available() -> bool:
    """The engine needs nothing beyond numpy, so it is always available."""
    return True


def supports(source: UniformSource) -> bool:
    """Whether the engine makes this source's words in blocks."""
    return isinstance(source, (Lcg48, SplitMix64))


def _lcg_jump(k: int):
    """(A, C) such that the LCG state k steps after s is (A*s + C) mod 2^48.

    C = c * (a^k - 1)/(a - 1); a - 1 is even, so the power is taken mod
    (a - 1) * 2^48, where the division is exact.
    """
    a_k = pow(LCG_MULT, k, (LCG_MULT - 1) << 48)
    return a_k & MASK48, LCG_INC * ((a_k - 1) // (LCG_MULT - 1)) & MASK48


@lru_cache(maxsize=None)
def _lcg_tables():
    """Jump-ahead coefficients that make LCG words _ROW to a row.

    Word j of a row takes its high half from step 2j+1 after the row's start
    and its low half from step 2j+2; rows start every 2*_ROW steps.
    """
    def arrays(steps):
        a, c = zip(*map(_lcg_jump, steps))
        return np.array(a, dtype=np.uint64), np.array(c, dtype=np.uint64)

    return (*arrays(range(1, 2 * _ROW, 2)), *arrays(range(2, 2 * _ROW + 1, 2)),
            *arrays(range(0, 2 * BLOCK, 2 * _ROW)))


def _words(source: UniformSource, k: int) -> np.ndarray:
    """The next k <= BLOCK words of a supported source; the source moves past them."""
    if isinstance(source, SplitMix64):
        z = np.arange(1, k + 1, dtype=np.uint64)
        z *= np.uint64(source.gamma)
        z += np.uint64(source.state)
        source.state = (source.state + k * source.gamma) & MASK64
        z ^= z >> np.uint64(30)
        z *= _MIX_A
        z ^= z >> np.uint64(27)
        z *= _MIX_B
        z ^= z >> np.uint64(31)
        return z
    a_hi, c_hi, a_lo, c_lo, a_row, c_row = _lcg_tables()
    rows = -(-k // _ROW)
    start = a_row[:rows] * np.uint64(source.state)
    start += c_row[:rows]
    start &= _M48
    start = start[:, None]
    hi = a_hi * start
    hi += c_hi
    hi >>= np.uint64(16)
    hi <<= np.uint64(32)  # state bits 16..47 to word bits 32..63; the rest fall off
    lo = a_lo * start
    lo += c_lo
    lo &= _M48
    source.state = lo.item(k - 1)
    lo >>= np.uint64(16)
    hi |= lo
    return hi.reshape(-1)[:k]


def _rewind(source: UniformSource, start: int, used: int) -> None:
    """Set the source to its state `used` words after state `start`."""
    if isinstance(source, SplitMix64):
        source.state = (start + used * source.gamma) & MASK64
    else:
        a, c = _lcg_jump(2 * used)
        source.state = (a * start + c) & MASK48


class _BlockReader(UniformSource):
    """Serves a block's words from `cursor` on, then the source's next words."""

    def __init__(self, words: np.ndarray, source: UniformSource):
        self.words = words
        self.size = words.shape[0]
        self.source = source
        self.cursor = 0

    def next_u64(self) -> int:
        j = self.cursor
        self.cursor = j + 1
        if j < self.size:
            return self.words.item(j)
        return self.source.next_u64()


def _fast_path(sampler: ZigguratSampler, w: np.ndarray):
    """(values, idx, fast): each word's fast-path deviate, its sign*n + layer,
    and where the fast path applies.

    The shifts and masks are the sampler's own, so the engine knows neither
    layout. The sign bit sits just above the layer index in both, so
    ``(w >> idx_shift) & (2n - 1)`` is sign*n + layer, which indexes the
    doubled tables. m * -wtab[i] == -(m * wtab[i]) exactly.
    """
    ktab, wtab = sampler.engine_tables
    idx = w >> sampler.idx_shift
    idx &= ktab.shape[0] - 1
    m = w >> sampler.m_shift
    m &= sampler.m_mask
    idx = idx.astype(np.intp)
    fast = m < ktab[idx]
    x = m.astype(np.float64)
    x *= wtab[idx]
    return x, idx, fast


def _fill_ziggurat(sampler: ZigguratSampler, source: UniformSource,
                   out: np.ndarray, counts: np.ndarray | None) -> None:
    t = sampler.tables
    layer_mask = t.n - 1
    ytab = t.ytab
    n = out.shape[0]
    filled = 0
    misses = 0  # rejected attempts since the last deviate, across rounds
    while filled < n:
        need = n - filled
        k = min(BLOCK, need + (need >> 4) + 16)  # slow paths read extra words
        start = source.state
        words = _words(source, k)
        # keep starts as the fast mask and ends as the mask of deviates
        values, idx, keep = _fast_path(sampler, words)
        slow = np.flatnonzero(~keep)
        pos = 0  # first word no attempt has read yet
        lost = 0  # words before pos that gave no deviate
        eaten, taken, rejected = [], [], []
        for s, ii, x, w in zip(slow.tolist(), idx[slow].tolist(),
                               values[slow].tolist(),
                               words.take(slow + 1, mode="clip").tolist()):
            if s < pos:
                continue  # read by the previous attempt
            if s - lost >= need:
                break  # the words before s already hold the request
            if s > pos:
                misses = 0  # fast deviates lie between
            i = ii & layer_mask
            if i == 0:
                reader = _BlockReader(words, source)
                reader.cursor = s + 1
                v = tail_sample(reader, t.r)
                pos = reader.cursor  # past the block if the tail ran over it
                eaten.extend(range(s + 1, min(pos, k)))
                lost += pos - s - 1
                taken.append(s)
                values[s] = -v if ii else v
                misses = 0
                continue
            # a wedge attempt reads exactly its own word and the next one
            pos = s + 2
            lost += 1
            if s + 1 < k:
                eaten.append(s + 1)
            else:
                w = source.next_u64()
            y = ytab[i] + ((w >> 11) * _UNIT_SCALE) * (ytab[i + 1] - ytab[i])
            if y < math.exp(-0.5 * x * x):
                taken.append(s)
                misses = 0
                continue
            rejected.append(s)
            lost += 1
            misses += 1
            if misses >= LOOP_GUARD:
                raise RejectionLoopExceeded(
                    f"{sampler.algorithm_id} exceeded its iteration guard")
        if pos < k:
            misses = 0  # the block ends in fast deviates
        keep[eaten] = False
        keep[taken] = True
        got = min(need, max(k, pos) - lost)
        out[filled:filled + got] = values[keep][:got]
        filled += got
        end = got + lost  # words read by the deviates used and the attempts before
        if counts is not None:
            keep[rejected] = True  # every attempt, whether it gave a deviate or not
            counts += np.bincount(idx[:end][keep[:end]] & layer_mask,
                                  minlength=t.n)
        if end < k:
            _rewind(source, start, end)


def _fill_polar(sampler: PolarSampler, source: UniformSource,
                out: np.ndarray) -> None:
    n = out.shape[0]
    filled = 0
    if n and sampler.spare is not None:
        out[0] = sampler.spare
        sampler.spare = None
        filled = 1
    misses = 0  # rejected attempts since the last accepted one
    while filled < n:
        pairs = (n - filled + 1) // 2
        # pi/4 of attempts accept; ask for 1.31 per pair needed
        attempts = min(BLOCK // 2, pairs + (pairs >> 2) + (pairs >> 4) + 16)
        start = source.state
        v = (_words(source, 2 * attempts) >> np.uint64(11)).astype(np.float64)
        v *= _UNIT_SCALE
        v *= 2.0
        v -= 1.0
        v1, v2 = v[0::2], v[1::2]
        s = v1 * v1
        s += v2 * v2
        accepted = np.flatnonzero((s > 0.0) & (s < 1.0))
        first = accepted[0] if accepted.size else attempts
        if misses + first >= LOOP_GUARD:
            raise RejectionLoopExceeded("polar method exceeded its iteration guard")
        take = accepted[:pairs]
        s = s[take]
        mul = np.fromiter(map(math.log, s.tolist()), np.float64, take.size)
        mul *= -2.0
        mul /= s
        np.sqrt(mul, out=mul)
        dev = np.empty(2 * take.size, dtype=np.float64)
        np.multiply(v1[take], mul, out=dev[0::2])
        np.multiply(v2[take], mul, out=dev[1::2])
        got = min(dev.shape[0], n - filled)
        out[filled:filled + got] = dev[:got]
        filled += got
        if got < dev.shape[0]:
            sampler.spare = dev.item(got)
        if take.size == pairs:
            used = 2 * (int(take[-1]) + 1)
            if used < 2 * attempts:
                _rewind(source, start, used)
        elif accepted.size:
            misses = attempts - 1 - int(accepted[-1])
        else:
            misses += attempts


def fill_u64(source: UniformSource, out: np.ndarray) -> None:
    """Fill a uint64 array with draws, advancing the source in place."""
    if not supports(source):
        for j in range(out.shape[0]):
            out[j] = source.next_u64()
        return
    for lo in range(0, out.shape[0], BLOCK):
        hi = min(out.shape[0], lo + BLOCK)
        out[lo:hi] = _words(source, hi - lo)


def fill_gaussians(sampler: GaussianSampler, source: UniformSource,
                   out: np.ndarray, counts: np.ndarray | None = None) -> None:
    """Fill a float64 array with deviates, advancing sampler and source state.

    Produces exactly the stream `sampler.next_gaussian(source)` would,
    including the polar spare carried across calls. Falls back to the
    per-call path for sources the engine does not support.

    For a ziggurat sampler, `counts` (int64, one cell per layer) gains the
    layer of every attempt made, as `sample_with_occupancy` counts them.
    """
    if counts is not None:
        if not isinstance(sampler, ZigguratSampler):
            raise TypeError(f"{sampler.algorithm_id} has no layers to count")
        if counts.shape != (sampler.tables.n,):
            raise ValueError(f"counts needs shape ({sampler.tables.n},), "
                             f"got {counts.shape}")
    if out.shape[0] < PER_CALL_BELOW or not supports(source):
        for j in range(out.shape[0]):
            out[j] = (sampler.next_gaussian(source) if counts is None
                      else sampler._draw(source, counts))
        return
    if isinstance(sampler, PolarSampler):
        _fill_polar(sampler, source, out)
    elif isinstance(sampler, ZigguratSampler):
        _fill_ziggurat(sampler, source, out, counts)
    else:
        raise TypeError(f"no engine path for sampler {sampler.algorithm_id!r}")
