"""numpy block engine for the samplers, bit-identical to the per-call path.

Bulk generation and the benchmark harness fill arrays through this module.
Words are made in blocks of at most ``BLOCK`` with numpy, SplitMix64 as
``mix64(state + k*gamma)`` and the 48-bit LCG through the jump-ahead
coefficients ``a^k`` and ``c_k`` mod 2^48, with the source's state after
each word: the SplitMix64 sum before the mix, the LCG state before ``>> 16``.

Every attempt in a block is decided when the block is made. Whether a
ziggurat word takes the fast path depends on that word alone, so one vector
test accepts every fast word. The others are walked in order in plain
Python ints: a wedge attempt at word s reads exactly words s and s+1 and is
decided with the per-call expressions, ``y = ytab[i] + u*(ytab[i+1]-ytab[i])``
against ``math.exp(-0.5*x*x)``; a tail reads the words after s through
``samplers.tail_sample``. An attempt that would read past the block's last
word starts the next block instead. Polar attempts start on even words, so
their acceptance is one vector test, and each accepted pair's deviates take
one ``math.log``. No accept/reject decision and no output value comes from
``np.log`` or ``np.exp``, whose roundings differ from ``math``'s.

So a block carries its deviates in order; a fill of either sampler copies
a slice of them and sets the source to the state after the last attempt it
used. Deviates, final source state, polar spare, layer counts and where
``LOOP_GUARD`` trips are those of ``sampler.next_gaussian(source)`` called
once per element, as the test suite pins.

A block of at most ``READ_AHEAD`` words outlives its fill: the sampler keeps
it (``read_ahead``), and the next fill starts on its unread deviates with no
numpy round. A fill that wants more takes the rest, then makes a new block
from where the source stands, so no word is made twice. A larger block,
made for one long fill, is dropped after it. Every fill on a supported
source takes this path, however short; other sources run per call.

Nothing ties a block to one source object: words are a pure function of the
source's type, gamma and state, so a fill resumes the block whenever the
source is in the state of an unread attempt start (``_Block.seek``), and
otherwise makes a new one. Only ``_words`` and ``supports`` tell the two
sources apart.
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
    Lcg48,
    SplitMix64,
    UniformSource,
)

#: most words made per numpy round; bounds the engine's scratch memory
BLOCK = 1 << 14
#: fewest words in a block; a block this size outlives its fill, and the
#: next fill on the same stream starts on its unread words
READ_AHEAD = 2048

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
    """Whether the engine makes this source's words in blocks: an Lcg48 or a
    SplitMix64 itself, since a subclass may draw other words."""
    return type(source) in (Lcg48, SplitMix64)


@lru_cache(maxsize=None)
def _lcg_tables():
    """Jump-ahead coefficients that make LCG words _ROW to a row.

    Word j of a row takes its high half from step 2j+1 after the row's start
    and its low half from step 2j+2; rows start every 2*_ROW steps. The state
    k steps after s is (A*s + C) mod 2^48: (A, C) for each step of a row come
    from single steps, and the row starts from repeating the row's jump.
    """
    steps = [(1, 0)]
    for _ in range(2 * _ROW):
        a, c = steps[-1]
        steps.append((LCG_MULT * a & MASK48, (LCG_MULT * c + LCG_INC) & MASK48))
    a_row, c_row = steps[-1]
    rows = [(1, 0)]
    for _ in range(BLOCK // _ROW - 1):
        a, c = rows[-1]
        rows.append((a_row * a & MASK48, (a_row * c + c_row) & MASK48))

    def arrays(jumps):
        a, c = zip(*jumps)
        return np.array(a, dtype=np.uint64), np.array(c, dtype=np.uint64)

    return (*arrays(steps[1::2]), *arrays(steps[2::2]), *arrays(rows))


def _words(source: UniformSource, k: int):
    """(words, states): the next k <= BLOCK words of a supported source, and
    its state after each; the source moves past them."""
    if isinstance(source, SplitMix64):
        states = np.arange(1, k + 1, dtype=np.uint64)
        states *= np.uint64(source.gamma)
        states += np.uint64(source.state)
        z = states >> np.uint64(30)
        z ^= states
        z *= _MIX_A
        z ^= z >> np.uint64(27)
        z *= _MIX_B
        z ^= z >> np.uint64(31)
    else:
        a_hi, c_hi, a_lo, c_lo, a_row, c_row = _lcg_tables()
        rows = -(-k // _ROW)
        start = a_row[:rows] * np.uint64(source.state)
        start += c_row[:rows]
        start &= _M48
        start = start[:, None]
        lo = a_lo * start
        lo += c_lo
        lo &= _M48
        states = lo.reshape(-1)[:k]
        z = a_hi * start
        z += c_hi
        z >>= np.uint64(16)
        z <<= np.uint64(32)  # state bits 16..47 to word bits 32..63; the rest fall off
        z |= lo >> np.uint64(16)
        z = z.reshape(-1)[:k]
    source.state = states.item(k - 1)
    return z, states


class _Block:
    """A round of words, decided: the deviates they give, in order (`dev`),
    and the source's state after each word (`states`).

    `width` is both the words of the shortest attempt and the deviates an
    accepted one gives: 1 for the ziggurats, 2 for polar. keep[j] marks an
    accepted attempt on word j*width; `starts`, the word each one starts on,
    is made from it when a fill needs it. Deviate d comes from attempt
    d // width. A ziggurat wedge reads two words and a tail those up to
    `ends[start]`; `tried` marks the words any attempt starts on, and `idx`
    holds each word's sign*n + layer. A rejected attempt reads two words in
    both samplers, so the misses between two deviates are half the words
    between them; `trail` counts those after the last one. `pos` is the read
    position, where an attempt starts, and `dpos` the first deviate whose
    attempt starts there or later.
    """

    __slots__ = ("kind", "states", "dev", "width", "trail", "starts", "ends",
                 "keep", "tried", "idx", "size", "pos", "dpos")

    def __init__(self, source: UniformSource, states: np.ndarray,
                 dev: np.ndarray, width: int, trail: int, keep: np.ndarray,
                 ends=None, tried=None, idx=None):
        self.kind = type(source), getattr(source, "gamma", None)
        self.states, self.dev, self.width, self.trail = states, dev, width, trail
        self.keep, self.ends, self.tried, self.idx = keep, ends, tried, idx
        self.starts, self.size, self.pos, self.dpos = None, states.shape[0], 0, 0

    def attempts(self) -> np.ndarray:
        """The word each accepted attempt starts on."""
        if self.starts is None:
            self.starts = np.flatnonzero(self.keep)
            self.starts *= self.width
        return self.starts

    def end(self, a: int) -> int:
        """The word after accepted attempt a."""
        s = self.attempts().item(a)
        if self.tried is None or s + 1 == self.size or self.tried.item(s + 1):
            return s + self.width
        return self.ends.get(s, s + 2)  # a tail, or else a wedge

    def seek(self, source: UniformSource) -> bool:
        """Move `pos` to where the source sits; False if it is off the block
        or inside an attempt.

        A block on a sampler has pos >= 1, so the source's state at pos is
        states[pos - 1]. Per-call draws between fills move the source ahead,
        to be looked for among the unread states `width` words apart. Every
        even word starts a polar attempt; a ziggurat word must be `tried`.
        """
        if (type(source), getattr(source, "gamma", None)) != self.kind:
            return False
        width, state = self.width, source.state
        if self.states.item(self.pos - 1) == state:
            return True
        hit = np.flatnonzero(self.states[self.pos - 1 + width::width] == state)
        if not hit.size:
            return False
        pos = self.pos + width * (1 + int(hit[0]))
        if pos < self.size and self.tried is not None and not self.tried.item(pos):
            return False
        self.pos = pos
        self.dpos = int(self.attempts().searchsorted(pos)) * width
        return True


def _resume(sampler: GaussianSampler, source: UniformSource) -> _Block | None:
    """The sampler's block if the source sits on it with words unread, and
    the source moved past the block's last word, as a new block leaves it:
    a fill that wants more takes the rest, then makes a new block."""
    block = sampler.read_ahead
    if block is None or not block.seek(source) or block.pos == block.size:
        return None
    source.state = block.states.item(-1)
    return block


def _finish(sampler: GaussianSampler, source: UniformSource, block: _Block,
            end: int) -> None:
    """Leave the source at word `end` of the block. A block of at most
    READ_AHEAD words that still has unread words stays on the sampler; a
    larger one, made for one long fill, is dropped."""
    sampler.read_ahead = None
    if end < block.size:
        source.state = block.states.item(end - 1)
        if block.size <= READ_AHEAD:
            block.pos = end
            sampler.read_ahead = block


class _BlockReader(UniformSource):
    """Serves a block's words from `cursor` on; past the last, IndexError."""

    def __init__(self, words: np.ndarray, cursor: int):
        self.words, self.cursor = words, cursor

    def next_u64(self) -> int:
        self.cursor += 1
        return self.words.item(self.cursor - 1)


def _fast_path(sampler: ZigguratSampler, w: np.ndarray):
    """(values, idx, fast): each word's fast-path deviate, its sign*n + layer,
    and where the fast path applies.

    The shifts and masks are the sampler's own, so the engine knows neither
    layout. The sign bit sits just above the layer index in both, so
    ``(w >> idx_shift) & (2n - 1)`` is sign*n + layer, which indexes the
    doubled tables. m * -wtab[i] == -(m * wtab[i]) exactly.
    """
    ktab, wtab = sampler.engine_tables
    # one of the two fields starts at bit 0 and needs no shift
    idx = (w >> sampler.idx_shift if sampler.idx_shift else w) & (ktab.shape[0] - 1)
    m = (w >> sampler.m_shift if sampler.m_shift else w) & sampler.m_mask
    idx = idx.view(np.intp)
    fast = m < ktab.take(idx)
    x = wtab.take(idx)
    x *= m  # m converts to float64 as astype would; no m-sized temporary
    return x, idx, fast


def _ziggurat_words(need: int) -> int:
    """Words to make for `need` more deviates; slow paths read extra words."""
    return need + (need >> 4) + 16


def _ziggurat_block(sampler: ZigguratSampler, source: UniformSource,
                    need: int) -> _Block | None:
    """A new block for `need` more deviates, every attempt in it decided.

    An attempt the block cannot finish, a wedge on its last word or a tail
    that runs past its end, is cut: the block ends before it, and the next
    block starts with it. If that is the first attempt, a tail (a wedge fits
    in any fresh block), the source is set back and None is returned: the
    fill draws that deviate per call, which a tail gives or raises on, so no
    miss is counted differently.
    """
    start = source.state
    words, states = _words(
        source, min(BLOCK, max(READ_AHEAD, _ziggurat_words(need))))
    values, idx, keep = _fast_path(sampler, words)
    slow = np.flatnonzero(~keep)
    t = sampler.tables
    ytab, layer_mask, exp = t.ytab, t.n - 1, math.exp
    cut = k = words.shape[0]
    pos = 0  # first word no attempt has read
    eaten, taken, rejected, ends = [], [], [], {}
    for s, ii, x, w in zip(slow.tolist(), idx[slow].tolist(),
                           values[slow].tolist(),
                           words.take(slow + 1, mode="clip").tolist()):
        if s < pos:
            continue  # read by the previous attempt
        i = ii & layer_mask
        if i == 0:
            reader = _BlockReader(words, s + 1)
            try:
                v = tail_sample(reader, t.r)
            except (IndexError, RejectionLoopExceeded):
                cut = s
                break
            pos = ends[s] = reader.cursor
            eaten.extend(range(s + 1, pos))
            values[s] = -v if ii else v
        else:
            if s + 1 == k:
                cut = s
                break
            pos = s + 2
            eaten.append(s + 1)
            y = ytab[i] + ((w >> 11) * _UNIT_SCALE) * (ytab[i + 1] - ytab[i])
            if not y < exp(-0.5 * x * x):
                rejected.append(s)
                continue
        taken.append(s)
    if not cut:
        source.state = start
        return None
    source.state = states.item(cut - 1)
    keep[eaten] = False
    keep[taken] = True
    tried = keep.copy()
    tried[rejected] = True
    trail = 0  # rejected attempts that end the block: s = cut - 2, cut - 4, ...
    while trail < len(rejected) and rejected[-1 - trail] == cut - 2 * trail - 2:
        trail += 1
    keep = keep[:cut]
    return _Block(source, states[:cut], values[:cut][keep], 1, trail, keep,
                  ends, tried[:cut], idx[:cut])


def _polar_attempts(pairs: int) -> int:
    """Attempts to make for `pairs` more accepted pairs; pi/4 of attempts
    accept, so this asks for 1.31 per pair and a few more."""
    return pairs + (pairs >> 2) + (pairs >> 4) + 16


def _polar_block(sampler: PolarSampler, source: UniformSource,
                 need: int) -> _Block:
    """A new block for `need` more deviates: one vector test accepts the
    pairs, and each accepted one gives v1*mul and v2*mul in turn, mul taking
    one ``math.log`` with the per-call order of operations."""
    attempts = min(BLOCK // 2,
                   max(READ_AHEAD // 2, _polar_attempts((need + 1) // 2)))
    words, states = _words(source, 2 * attempts)
    v = (words >> np.uint64(11)).astype(np.float64)
    v *= 2.0 * _UNIT_SCALE  # a power of two, so as exact as two steps
    v -= 1.0
    v1, v2 = v[0::2], v[1::2]
    s = v1 * v1
    s += v2 * v2
    ok = (s > 0.0) & (s < 1.0)
    accepted = np.flatnonzero(ok)
    s = s[accepted]
    mul = np.fromiter(map(math.log, s.tolist()), np.float64, accepted.size)
    mul *= -2.0
    mul /= s
    np.sqrt(mul, out=mul)
    dev = np.empty(2 * accepted.size)
    np.multiply(v1[accepted], mul, out=dev[0::2])
    np.multiply(v2[accepted], mul, out=dev[1::2])
    trail = attempts - 1 - int(accepted[-1]) if accepted.size else attempts
    return _Block(source, states, dev, 2, trail, ok)


def _longest_run(block: _Block, d: int, got: int, misses: int) -> int:
    """The most rejected attempts in a row before one of deviates d ..
    d+got-1, or before the block's end if got is 0, `misses` of them before
    the read position. Only a block of LOOP_GUARD words or more can hold
    such a run between two deviates, so only then are those gaps scanned."""
    w, pos = block.width, block.pos
    if not got:
        return misses + (block.size - pos) // 2
    run = misses + int(block.keep[pos // w:].argmax()) * w // 2
    a0, a1 = d // w, (d + got - 1) // w + 1
    if LOOP_GUARD <= block.size and a1 - a0 > 1:
        s = block.attempts()[a0:a1]
        e = np.array([block.end(a) for a in range(a0, a1 - 1)])
        run = max(run, int((s[1:] - e).max()) // 2)
    return run


def _fill_blocks(sampler: GaussianSampler, source: UniformSource,
                 out: np.ndarray, counts: np.ndarray | None, make) -> None:
    """Copy each block's deviates from the read position on, and leave the
    source after the last attempt used."""
    n = out.shape[0]
    filled = 0
    if n and getattr(sampler, "spare", None) is not None:
        out[0] = sampler.spare
        sampler.spare = None
        filled = 1
    misses = 0  # rejected attempts since the last deviate, across blocks
    while filled < n:
        block = _resume(sampler, source) or make(sampler, source, n - filled)
        if block is None:  # see _ziggurat_block
            out[filled] = sampler._draw(source, counts)
            filled += 1
            misses = 0
            continue
        w, pos, d, dev = block.width, block.pos, block.dpos, block.dev
        got = min(n - filled, dev.shape[0] - d)
        if (misses or LOOP_GUARD <= block.size) and (
                _longest_run(block, d, got, misses) >= LOOP_GUARD):
            raise RejectionLoopExceeded(
                f"{sampler.algorithm_id} exceeded its iteration guard")
        out[filled:filled + got] = dev[d:d + got]
        filled += got
        end = block.end((d + got - 1) // w) if filled == n else block.size
        if counts is not None:  # every attempt, deviate or not
            counts += np.bincount(
                block.idx[pos:end][block.tried[pos:end]] & (counts.shape[0] - 1),
                minlength=counts.shape[0])
        if filled < n:  # the block is spent; dropped before the next is made
            misses = block.trail if got else misses + (block.size - pos) // 2
            sampler.read_ahead = block = None
            continue
        if (d + got) % w:  # the second deviate of the last polar pair
            sampler.spare = dev.item(d + got)
        block.dpos = (d + got - 1) // w * w + w
        _finish(sampler, source, block, end)


def _fill_per_call(sampler: GaussianSampler, source: UniformSource,
                   out: np.ndarray, counts: np.ndarray | None) -> None:
    """Fill one deviate per call, for sources the engine does not support."""
    for j in range(out.shape[0]):
        out[j] = (sampler.next_gaussian(source) if counts is None
                  else sampler._draw(source, counts))


def fill_u64(source: UniformSource, out: np.ndarray) -> None:
    """Fill a uint64 array with draws, advancing the source in place."""
    if not supports(source):
        for j in range(out.shape[0]):
            out[j] = source.next_u64()
        return
    for lo in range(0, out.shape[0], BLOCK):
        hi = min(out.shape[0], lo + BLOCK)
        out[lo:hi] = _words(source, hi - lo)[0]


def fill_gaussians(sampler: GaussianSampler, source: UniformSource,
                   out: np.ndarray, counts: np.ndarray | None = None) -> None:
    """Fill a float64 array with deviates, advancing sampler and source state.

    Produces exactly the stream `sampler.next_gaussian(source)` would,
    including the polar spare carried across calls. Every fill on a
    supported source, however short, runs on a block: the sampler's
    read-ahead block if the source sits on it, else a new one. Sources the
    engine does not support run per call.

    For a ziggurat sampler, `counts` (int64, one cell per layer) gains the
    layer of every attempt made, as `sample_with_occupancy` counts them.
    """
    zig = isinstance(sampler, ZigguratSampler)
    if counts is not None:
        if not zig:
            raise TypeError(f"{sampler.algorithm_id} has no layers to count")
        if counts.shape != (sampler.tables.n,):
            raise ValueError(f"counts needs shape ({sampler.tables.n},), "
                             f"got {counts.shape}")
    if not supports(source):
        _fill_per_call(sampler, source, out, counts)
        return
    if zig:
        _fill_blocks(sampler, source, out, counts, _ziggurat_block)
    elif isinstance(sampler, PolarSampler):
        _fill_blocks(sampler, source, out, counts, _polar_block)
    else:
        raise TypeError(f"no engine path for sampler {sampler.algorithm_id!r}")
