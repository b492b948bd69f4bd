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
vector test too. The deviates of every accepted pair are made with the
block, the log from ``math.log``, and a polar fill copies a slice of them.
No accept/reject decision and no output value comes from ``np.log`` or
``np.exp``, whose roundings differ from ``math``'s on some inputs.

Making the words also gives the source's state after each of them: the
SplitMix64 sum ``state + k*gamma`` before the mix, and the LCG state before
``>> 16``. A block keeps these states, and a fill that stops inside it sets
the source to the state after the last word used. The deviates, the final
source state and the polar spare are therefore exactly those of
``sampler.next_gaussian(source)`` called once per element; the test suite
pins that.

A block holds at least ``READ_AHEAD`` words, and a block of that size
outlives its fill: the sampler keeps it (``read_ahead``) with the states and
what was derived from the words. The next fill starts on the unread words,
with no numpy round to make them. A fill that wants more than they hold
takes the rest, then makes a new block from where the source stands, so no
word is made twice. Every fill on a supported source takes this path,
however short; only sources the engine does not support run per call.

Nothing ties the block to one source object. A fill uses it only when the
source's type, gamma and state are those of an unread position, since the
words are a pure function of these; otherwise it makes a new block.
``_Block.seek`` looks for the source's state first at the read position,
then, if per-call draws moved it ahead, among the states that end an unread
attempt. A block made for one long fill is larger than ``READ_AHEAD`` and
is dropped after it, so that no sampler holds more than one block of
``READ_AHEAD`` words between fills. Only ``_words`` and ``supports`` tell
the two sources apart.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache
from itertools import islice

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
    """Whether the engine makes this source's words in blocks."""
    return isinstance(source, (Lcg48, SplitMix64))


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
    """The source's state after each word of a round, and what the sampler
    derived from the words (`data`).

    Position j stands for `width` words: one ziggurat attempt, one polar
    pair. `pos` is the read position. Words are a pure function of the
    source's type, gamma and state, so any source in the state of an unread
    position may be served from the block: the state after word j is
    `states[j]`.
    """

    __slots__ = ("kind", "states", "data", "width", "size", "pos")

    def __init__(self, source: UniformSource, states: np.ndarray, data: tuple,
                 width: int):
        self.kind = type(source), getattr(source, "gamma", None)
        self.states = states
        self.data = data
        self.width = width
        self.size = states.shape[0] // width
        self.pos = 0

    def seek(self, source: UniformSource) -> bool:
        """Move `pos` to where the source sits; False if it is off the block.

        A block on a sampler has pos >= 1, so the source's state at pos is
        states[pos*width - 1]. Per-call draws between fills move the source
        ahead; it is then looked for among the states that end an unread
        attempt. A source at the block's end sits at pos = size, with
        nothing left to read.
        """
        if (type(source), getattr(source, "gamma", None)) != self.kind:
            return False
        width, state = self.width, source.state
        at = self.pos * width - 1
        if self.states.item(at) == state:
            return True
        hit = np.flatnonzero(self.states[at + width::width] == state)
        if not hit.size:
            return False
        self.pos += 1 + int(hit[0])
        return True


def _resume(sampler: GaussianSampler, source: UniformSource) -> _Block | None:
    """The sampler's block if the source sits on it with positions unread,
    and the source moved past the block's last word, as a new block leaves
    it.

    A fill that wants more than the block has left takes the rest, and its
    next round makes a new block from where the source then stands, so no
    word is made twice.
    """
    block = sampler.read_ahead
    if block is None or not block.seek(source) or block.pos == block.size:
        return None
    source.state = block.states.item(-1)
    return block


def _finish(sampler: GaussianSampler, source: UniformSource, block: _Block,
            end: int) -> None:
    """Leave the source at position `end` of the block. A block of at most
    READ_AHEAD words that still has unread words stays on the sampler; a
    larger one, made for one long fill, is dropped."""
    sampler.read_ahead = None
    if end < block.size:
        source.state = block.states.item(end * block.width - 1)
        if block.size * block.width <= READ_AHEAD:
            block.pos = end
            sampler.read_ahead = block


class _BlockReader(UniformSource):
    """Serves a block's words from `cursor` on, then the source's next words."""

    def __init__(self, words: np.ndarray, source: UniformSource, cursor: int):
        self.words = words
        self.size = words.shape[0]
        self.source = source
        self.cursor = cursor

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
                    need: int) -> _Block:
    """A new block for `need` more deviates.

    data: the words; each word's fast-path value, sign*n + layer and fast
    mask; and for the slow positions, four lists: position, sign*n + layer,
    value and the word after it.
    """
    words, states = _words(
        source, min(BLOCK, max(READ_AHEAD, _ziggurat_words(need))))
    values, idx, fast = _fast_path(sampler, words)
    slow = np.flatnonzero(~fast)
    return _Block(source, states, (
        words, values, idx, fast, slow.tolist(), idx[slow].tolist(),
        values[slow].tolist(), words.take(slow + 1, mode="clip").tolist()), 1)


def _fill_ziggurat(sampler: ZigguratSampler, source: UniformSource,
                   out: np.ndarray, counts: np.ndarray | None) -> None:
    t = sampler.tables
    layer_mask = t.n - 1
    ytab = t.ytab
    exp = math.exp
    n = out.shape[0]
    filled = 0
    misses = 0  # rejected attempts since the last deviate, across rounds
    while filled < n:
        need = n - filled
        block = _resume(sampler, source) or _ziggurat_block(sampler, source, need)
        # keep starts as the fast mask and ends as the mask of deviates
        words, values, idx, keep, slow, layers, xs, nexts = block.data
        k = block.size
        # pos: first word no attempt has read yet; lost: words before pos
        # that gave no deviate, the ones before the read position included
        first = pos = lost = block.pos
        eaten, taken, rejected = [], [], []
        walk = islice(zip(slow, layers, xs, nexts), bisect_left(slow, first),
                      None)
        for s, ii, x, w in walk:
            if s < pos:
                continue  # read by the previous attempt
            if s - lost >= need:
                break  # the words before s already hold the request
            if s > pos:
                misses = 0  # fast deviates lie between
            i = ii & layer_mask
            if i == 0:
                reader = _BlockReader(words, source, s + 1)
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
            if y < exp(-0.5 * x * x):
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
        if eaten:
            keep[eaten] = False
        if taken:
            keep[taken] = True
        got = min(need, max(k, pos) - lost)
        end = got + lost  # words read by the deviates used and the attempts before
        out[filled:filled + got] = (
            values[first:end] if lost == first  # no slow attempt among them
            else values[first:end][keep[first:end]])
        filled += got
        if counts is not None:
            if rejected:
                keep[rejected] = True  # every attempt, deviate or not
            counts += np.bincount(idx[first:end][keep[first:end]] & layer_mask,
                                  minlength=t.n)
        _finish(sampler, source, block, end)


def _polar_attempts(pairs: int) -> int:
    """Attempts to make for `pairs` more accepted pairs; pi/4 of attempts
    accept, so this asks for 1.31 per pair and a few more."""
    return pairs + (pairs >> 2) + (pairs >> 4) + 16


def _polar_block(source: UniformSource, pairs: int) -> _Block:
    """A new block for `pairs` more accepted pairs.

    data: the deviates of the accepted attempts, v1*mul and v2*mul of each
    in turn, and the accepted attempts. mul takes one ``math.log`` per
    accepted attempt, with the per-call order of operations.
    """
    attempts = min(BLOCK // 2, max(READ_AHEAD // 2, _polar_attempts(pairs)))
    words, states = _words(source, 2 * attempts)
    v = (words >> np.uint64(11)).astype(np.float64)
    v *= 2.0 * _UNIT_SCALE  # a power of two, so as exact as two steps
    v -= 1.0
    v1, v2 = v[0::2], v[1::2]
    s = v1 * v1
    s += v2 * v2
    accepted = np.flatnonzero((s > 0.0) & (s < 1.0))
    s = s[accepted]
    mul = np.fromiter(map(math.log, s.tolist()), np.float64, accepted.size)
    mul *= -2.0
    mul /= s
    np.sqrt(mul, out=mul)
    dev = np.empty(2 * accepted.size)
    np.multiply(v1[accepted], mul, out=dev[0::2])
    np.multiply(v2[accepted], mul, out=dev[1::2])
    return _Block(source, states, (dev, accepted), 2)


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
        block = (_resume(sampler, source)
                 or _polar_block(source, (n - filled + 1) // 2))
        dev, accepted = block.data
        first = block.pos
        at = int(accepted.searchsorted(first))
        ahead = (int(accepted[at]) if at < accepted.size else block.size) - first
        if misses + ahead >= LOOP_GUARD:
            raise RejectionLoopExceeded("polar method exceeded its iteration guard")
        # deviate 2*at is the first of the first unread accepted attempt; an
        # odd count leaves the second of its last attempt as the spare
        got = min(n - filled, dev.shape[0] - 2 * at)
        out[filled:filled + got] = dev[2 * at:2 * at + got]
        filled += got
        if filled == n:
            if got & 1:
                sampler.spare = dev.item(2 * at + got)
            _finish(sampler, source, block, int(accepted[at + (got - 1) // 2]) + 1)
            break
        sampler.read_ahead = None
        if at < accepted.size:
            misses = block.size - 1 - int(accepted[-1])
        else:
            misses += block.size - first


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
    if counts is not None:
        if not isinstance(sampler, ZigguratSampler):
            raise TypeError(f"{sampler.algorithm_id} has no layers to count")
        if counts.shape != (sampler.tables.n,):
            raise ValueError(f"counts needs shape ({sampler.tables.n},), "
                             f"got {counts.shape}")
    if not supports(source):
        _fill_per_call(sampler, source, out, counts)
        return
    if isinstance(sampler, PolarSampler):
        _fill_polar(sampler, source, out)
    elif isinstance(sampler, ZigguratSampler):
        _fill_ziggurat(sampler, source, out, counts)
    else:
        raise TypeError(f"no engine path for sampler {sampler.algorithm_id!r}")
