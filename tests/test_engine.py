import math
import re

import numpy as np
import pytest

from gausszig import (
    RejectionLoopExceeded,
    ScriptedSource,
    SplitMix64,
    make_sampler,
    make_source,
)
from gausszig import engine
from gausszig import samplers as samplers_mod
from gausszig.sources import LCG_INC, LCG_MULT, MASK48

from conftest import CountingSource

PAIRINGS = [(src, smp)
            for src in ("lcg48", "splitmix")
            for smp in ("polar", "ziggurat", "modified-ziggurat")]
#: every (source, ziggurat layout) pair, the unsanctioned one included
ZIGGURAT_PAIRINGS = [p for p in PAIRINGS if p[1] != "polar"]


def test_engine_is_available():
    assert engine.available()


@pytest.mark.parametrize("source_id,sampler_id", PAIRINGS)
def test_batch_fill_matches_per_call_reference_exactly(source_id, sampler_id):
    n = 300_000  # long enough to hit tail and wedge paths many times
    sampler_e = make_sampler(sampler_id)
    source_e = make_source(source_id, 424242)
    buf = np.empty(n, dtype=np.float64)
    engine.fill_gaussians(sampler_e, source_e, buf)

    sampler_p = make_sampler(sampler_id)
    source_p = make_source(source_id, 424242)
    for j in range(n):
        assert buf[j] == sampler_p.next_gaussian(source_p), f"diverged at {j}"
    assert source_e.state == source_p.state


@pytest.mark.parametrize("source_id,sampler_id", PAIRINGS)
def test_chunked_fills_match_per_call_reference(source_id, sampler_id):
    # fills that stop mid-block must leave the source (and the polar spare)
    # exactly where the per-call path would, so the next fill continues it
    n = 300_000
    sampler_e = make_sampler(sampler_id)
    source_e = make_source(source_id, 2718)
    buf = np.empty(n, dtype=np.float64)
    lo = 0
    for size in (1, 999, 77777, n - 1 - 999 - 77777):
        engine.fill_gaussians(sampler_e, source_e, buf[lo:lo + size])
        lo += size

    sampler_p = make_sampler(sampler_id)
    source_p = make_source(source_id, 2718)
    ref = np.array([sampler_p.next_gaussian(source_p) for _ in range(n)])
    assert np.array_equal(buf.view(np.uint64), ref.view(np.uint64))
    assert source_e.state == source_p.state
    assert getattr(sampler_e, "spare", None) == getattr(sampler_p, "spare", None)


@pytest.mark.parametrize("source_id,sampler_id", ZIGGURAT_PAIRINGS)
def test_fills_ending_next_to_a_slow_deviate(source_id, sampler_id):
    # a fill may stop just before or just after a deviate that took the wedge
    # or tail path (the only ones reading more than one word), or one whose
    # first attempts were rejected wedges; the source must still be left on
    # the exact next word
    n = 20_000
    sampler_p = make_sampler(sampler_id)
    source_p = CountingSource(make_source(source_id, 5))
    ref, slow, rejected = [], [], []
    for j in range(n):
        before = source_p.draws
        (x,), attempts = sampler_p.sample_with_occupancy(source_p, 1)
        ref.append(x)
        if source_p.draws - before > 1:
            slow.append(j)
        if sum(attempts) > 1:
            rejected.append(j)
    # alternately before and after a slow deviate, and likewise for the
    # deviates that began with a rejected wedge
    marks = sorted({j + k % 2 for k, j in enumerate(slow)}
                   | {j + k % 2 for k, j in enumerate(rejected)})
    cuts = sorted({0, n, *marks})
    assert len(cuts) > 100
    rejected = set(rejected)
    assert sum(c in rejected for c in cuts) > 20
    assert sum(c - 1 in rejected for c in cuts) > 20

    sampler_e = make_sampler(sampler_id)
    source_e = make_source(source_id, 5)
    buf = np.empty(n, dtype=np.float64)
    for lo, hi in zip(cuts, cuts[1:]):
        engine.fill_gaussians(sampler_e, source_e, buf[lo:hi])
    assert buf.tolist() == ref
    assert source_e.state == source_p.inner.state


@pytest.mark.parametrize("sampler_id,seed",
                         [("ziggurat", 45), ("modified-ziggurat", 10)])
def test_wedge_on_a_rounds_last_word_starts_the_next_round(sampler_id, seed):
    # a fill longer than one round uses the whole first round; with this
    # seed the round's last word starts a wedge attempt, whose uniform is
    # the first word after the round, so the round ends before the wedge
    # and the next round starts with it
    n = engine.BLOCK + 100
    sampler_p = make_sampler(sampler_id)
    source_p = CountingSource(make_source("splitmix", seed))
    ref = []
    while source_p.draws < engine.BLOCK - 1:
        ref.append(sampler_p.next_gaussian(source_p))
    assert source_p.draws == engine.BLOCK - 1
    before = source_p.draws
    (x,), attempts = sampler_p.sample_with_occupancy(source_p, 1)
    ref.append(x)
    t = sampler_p.tables
    words, _ = engine._words(make_source("splitmix", seed), engine.BLOCK)
    word = words[-1:]
    _, idx, fast = engine._fast_path(sampler_p, word)
    assert not fast[0] and idx[0] & (t.n - 1) != 0  # a wedge, not a tail
    assert source_p.draws - before >= 2
    ref.extend(sampler_p.next_gaussian(source_p) for _ in range(n - len(ref)))

    sampler_e = make_sampler(sampler_id)
    source_e = make_source("splitmix", seed)
    buf = np.empty(n, dtype=np.float64)
    engine.fill_gaussians(sampler_e, source_e, buf)
    assert buf.tolist() == ref
    assert source_e.state == source_p.inner.state


@pytest.mark.parametrize("source_id,sampler_id", ZIGGURAT_PAIRINGS)
def test_chunked_fills_with_eight_layers(source_id, sampler_id):
    # with 8 layers about a fifth of attempts leave the fast path and one in
    # sixty is a tail, so slow positions come back to back and tails run
    # past the end of a round
    n = 60_000
    sampler_e = make_sampler(sampler_id, 8)
    source_e = make_source(source_id, 31)
    buf = np.empty(n, dtype=np.float64)
    lo = 0
    for size in (1, 7, 999, 30_000, n - 1 - 7 - 999 - 30_000):
        engine.fill_gaussians(sampler_e, source_e, buf[lo:lo + size])
        lo += size

    sampler_p = make_sampler(sampler_id, 8)
    source_p = make_source(source_id, 31)
    ref = np.array([sampler_p.next_gaussian(source_p) for _ in range(n)])
    assert np.array_equal(buf.view(np.uint64), ref.view(np.uint64))
    assert source_e.state == source_p.state


@pytest.mark.parametrize("source_id,sampler_id", ZIGGURAT_PAIRINGS)
def test_occupancy_counts_match_per_call_reference(source_id, sampler_id):
    n = 100_000
    sampler_e = make_sampler(sampler_id)
    source_e = make_source(source_id, 1618)
    counts = np.zeros(sampler_e.tables.n, dtype=np.int64)
    buf = np.empty(n, dtype=np.float64)
    lo = 0
    for size in (1, 7, 999, 30_000, n - 1 - 7 - 999 - 30_000):
        engine.fill_gaussians(sampler_e, source_e, buf[lo:lo + size], counts)
        lo += size

    source_p = make_source(source_id, 1618)
    ref, ref_counts = make_sampler(sampler_id).sample_with_occupancy(source_p, n)
    assert buf.tolist() == ref
    assert counts.tolist() == ref_counts
    assert source_e.state == source_p.state


def test_occupancy_counts_refused_for_polar():
    with pytest.raises(TypeError):
        engine.fill_gaussians(make_sampler("polar"), make_source("splitmix", 1),
                              np.empty(100), np.zeros(128, dtype=np.int64))


@pytest.mark.parametrize("cells,n", [(64, 1000), (4, 8), (300, 8)])
def test_occupancy_counts_of_the_wrong_shape_refused(cells, n):
    # the sampler has 128 layers; the check comes before any word is drawn,
    # for a long fill (n = 1000) and a short one (n = 8) alike
    source = make_source("splitmix", 1)
    out = np.full(n, 7.0)
    counts = np.zeros(cells, dtype=np.int64)
    with pytest.raises(ValueError):
        engine.fill_gaussians(make_sampler("ziggurat"), source, out, counts)
    assert source.state == make_source("splitmix", 1).state
    assert (out == 7.0).all()
    assert not counts.any()


class _Tape(SplitMix64):
    """A source whose words come from a tape; its state counts the words
    read, so setting the state back rewinds the tape."""

    def __init__(self, words):
        super().__init__(0)
        self.tape = list(words)

    def next_u64(self):
        self.state += 1
        return self.tape[self.state - 1]


def _tape_words(source, k):
    """_words for a _Tape: its next k words and its state after each."""
    words, states = [], []
    for _ in range(k):
        words.append(source.next_u64())
        states.append(source.state)
    return np.array(words, dtype=np.uint64), np.array(states, dtype=np.uint64)


def _serve_tapes(monkeypatch, words=_tape_words):
    """Have the engine make blocks for a _Tape with `words`; as a subclass
    of a supported source it would otherwise run per call."""
    supports = engine.supports
    monkeypatch.setattr(engine, "supports",
                        lambda source: type(source) is _Tape or supports(source))
    monkeypatch.setattr(engine, "_words", words)


def _stuck_tape(sampler_id, misses):
    """`misses` rejected attempts, then accepted ones for ever."""
    if sampler_id == "polar":
        out_of_disk = ((1 << 64) - 1, (1 << 64) - 1)
        inside = (3 << 61, 1 << 63)  # v1 = 0.5, v2 = 0
        return list(out_of_disk) * misses + list(inside) * 10_000
    z = make_sampler(sampler_id)
    t = z.tables
    # layer 1, mantissa mid-wedge; a uniform of all ones puts y at the top
    # of the wedge, above the density
    mid_wedge = (t.ktab[1] + (1 << t.mantissa_bits)) // 2
    wedge = (1 << z.idx_shift) | (mid_wedge << z.m_shift)
    fast = (5 << z.idx_shift) | (t.ktab[5] // 2 << z.m_shift)
    return [wedge, (1 << 64) - 1] * misses + [fast] * 10_000


@pytest.mark.parametrize("sampler_id", ["polar", "ziggurat", "modified-ziggurat"])
@pytest.mark.parametrize("guard_trips", [False, True])
def test_engine_loop_guard_matches_per_call(monkeypatch, sampler_id,
                                            guard_trips):
    # the misses span several rounds; the engine raises exactly when the
    # per-call loop does: after LOOP_GUARD rejected attempts in a row
    guard = 50
    monkeypatch.setattr(engine, "LOOP_GUARD", guard)
    monkeypatch.setattr(samplers_mod, "LOOP_GUARD", guard)
    _serve_tapes(monkeypatch)
    tape = _stuck_tape(sampler_id, guard if guard_trips else guard - 1)
    n = 40

    sampler_p = make_sampler(sampler_id)
    source_p = ScriptedSource(tape)
    sampler_e = make_sampler(sampler_id)
    buf = np.empty(n, dtype=np.float64)
    if guard_trips:
        with pytest.raises(RejectionLoopExceeded):
            sampler_p.next_gaussian(source_p)
        with pytest.raises(RejectionLoopExceeded, match=re.escape(sampler_id)):
            engine.fill_gaussians(sampler_e, _Tape(tape), buf)
    else:
        ref = [sampler_p.next_gaussian(source_p) for _ in range(n)]
        engine.fill_gaussians(sampler_e, _Tape(tape), buf)
        assert buf.tolist() == ref


@pytest.mark.parametrize("source_id", ["lcg48", "splitmix"])
def test_fill_u64_matches_reference(source_id):
    n = 100_000
    src_e = make_source(source_id, 99)
    buf = np.empty(n, dtype=np.uint64)
    engine.fill_u64(src_e, buf)
    src_p = make_source(source_id, 99)
    for j in range(n):
        assert int(buf[j]) == src_p.next_u64()
    assert src_e.state == src_p.state


def test_engine_and_python_interleave_seamlessly():
    # engine batch, then python calls, must continue the same stream
    sampler_e = make_sampler("ziggurat")
    source_e = make_source("splitmix", 7)
    buf = np.empty(1000, dtype=np.float64)
    engine.fill_gaussians(sampler_e, source_e, buf)
    tail_e = [sampler_e.next_gaussian(source_e) for _ in range(100)]

    sampler_p = make_sampler("ziggurat")
    source_p = make_source("splitmix", 7)
    ref = [sampler_p.next_gaussian(source_p) for _ in range(1100)]
    assert list(buf) == ref[:1000]
    assert tail_e == ref[1000:]


def test_polar_spare_carries_across_batches():
    sampler_e = make_sampler("polar")
    source_e = make_source("lcg48", 3)
    chunks = []
    for size in (101, 57, 42):  # odd sizes force spare handoff
        buf = np.empty(size, dtype=np.float64)
        engine.fill_gaussians(sampler_e, source_e, buf)
        chunks.extend(buf.tolist())

    sampler_p = make_sampler("polar")
    source_p = make_source("lcg48", 3)
    ref = [sampler_p.next_gaussian(source_p) for _ in range(200)]
    assert chunks == ref
    assert sampler_e.spare == sampler_p.spare


def test_scripted_source_falls_back_to_python_path():
    src = SplitMix64(12)
    words = [src.next_u64() for _ in range(5000)]
    sampler = make_sampler("ziggurat")
    buf = np.empty(1000, dtype=np.float64)
    engine.fill_gaussians(sampler, ScriptedSource(words), buf)

    ref_sampler = make_sampler("ziggurat")
    ref_src = ScriptedSource(words)
    ref = [ref_sampler.next_gaussian(ref_src) for _ in range(1000)]
    assert list(buf) == ref


def test_supports_reports_capability():
    assert engine.supports(make_source("lcg48", 0))
    assert engine.supports(make_source("splitmix", 0))
    assert not engine.supports(ScriptedSource([1, 2, 3]))


class _FlippedSplitMix(SplitMix64):
    """A subclass that draws other words than the SplitMix64 it extends."""

    def next_u64(self):
        return super().next_u64() ^ 1


def test_subclass_drawing_other_words_runs_per_call():
    # the engine makes the words of SplitMix64 itself; a subclass that
    # overrides next_u64 must get its own words, one draw at a time
    source, ref_source = _FlippedSplitMix(3), _FlippedSplitMix(3)
    assert not engine.supports(source)
    ref_sampler = make_sampler("modified-ziggurat")
    got = _fill(make_sampler("modified-ziggurat"), source, 50)
    assert got == [ref_sampler.next_gaussian(ref_source) for _ in range(50)]
    assert source.state == ref_source.state


# -- the read-ahead block: a fill that continues a stream starts on the words
# -- the previous fill made and did not use


def _reference(sampler_id, source, layers=None):
    """A per-call sampler and a copy of `source` to drive it."""
    twin = type(source).__new__(type(source))
    twin.__dict__.update(source.__dict__)
    return make_sampler(sampler_id, layers), twin


def _count_words(monkeypatch):
    """Count the engine's calls to its word maker."""
    calls = []
    make = engine._words

    def counted(source, k):
        calls.append(k)
        return make(source, k)

    monkeypatch.setattr(engine, "_words", counted)
    return calls


@pytest.mark.parametrize("source_id", ["lcg48", "splitmix"])
@pytest.mark.parametrize("k", [1, 63, 65, 1024, engine.READ_AHEAD, engine.BLOCK])
def test_words_record_the_source_state_after_each_word(source_id, k):
    source = make_source(source_id, 1234)
    ref = make_source(source_id, 1234)
    words, states = engine._words(source, k)
    ref_words, ref_states = [], []
    for _ in range(k):
        ref_words.append(ref.next_u64())
        ref_states.append(ref.state)
    assert words.tolist() == ref_words
    assert states.tolist() == ref_states
    assert source.state == ref.state == states.item(-1)


def test_lcg_tables_match_jumps_by_pow():
    # (A, C) with state k steps after s = (A*s + C) mod 2^48, from a^k taken
    # mod (a - 1) * 2^48, where the division in C = c * (a^k - 1)/(a - 1)
    # is exact
    a, c = LCG_MULT, LCG_INC

    def jump(k):
        a_k = pow(a, k, (a - 1) << 48)
        return a_k & MASK48, c * ((a_k - 1) // (a - 1)) & MASK48

    def pair(steps):
        return [list(col) for col in zip(*map(jump, steps))]

    row = engine._ROW
    expected = (pair(range(1, 2 * row, 2)) + pair(range(2, 2 * row + 1, 2))
                + pair(range(0, 2 * engine.BLOCK, 2 * row)))
    tables = engine._lcg_tables()
    assert all(t.dtype == np.uint64 for t in tables)
    assert [t.tolist() for t in tables] == expected


@pytest.mark.parametrize("sampler_id,layers", [("polar", None),
                                               ("ziggurat", None),
                                               ("modified-ziggurat", 8)])
def test_lcg_fills_stopping_inside_a_block_take_no_jump(sampler_id, layers):
    # the source is set from the states the block recorded, never by
    # jumping the LCG ahead from the block's start
    sampler, source = make_sampler(sampler_id, layers), make_source("lcg48", 6)
    ref_sampler, ref_source = _reference(sampler_id, source, layers)
    got, ref = [], []
    for size in (1, 7, 30, 5, 999, 3, 3000, 24, 2, 77):
        got += _fill(sampler, source, size)
        ref += [ref_sampler.next_gaussian(ref_source) for _ in range(size)]
        got.append(source.next_u64())
        ref.append(ref_source.next_u64())
    assert got == ref
    assert source.state == ref_source.state
    assert getattr(sampler, "spare", None) == getattr(ref_sampler, "spare", None)


def _fill(sampler, source, n, counts=None):
    out = np.empty(n, dtype=np.float64)
    engine.fill_gaussians(sampler, source, out, counts)
    return out.tolist()


@pytest.mark.parametrize("source_id,sampler_id", PAIRINGS)
@pytest.mark.parametrize("draws", [1, 2, 3, 4, 5])
def test_read_ahead_survives_per_call_draws_between_fills(
        monkeypatch, source_id, sampler_id, draws):
    calls = _count_words(monkeypatch)
    sampler, source = make_sampler(sampler_id), make_source(source_id, 77)
    ref_sampler, ref_source = _reference(sampler_id, source)
    got, ref = [], []
    for size in (100, 40, 300, 25, 64):
        got += _fill(sampler, source, size)
        ref += [ref_sampler.next_gaussian(ref_source) for _ in range(size)]
        got += [sampler.next_gaussian(source) for _ in range(draws)]
        ref += [ref_sampler.next_gaussian(ref_source) for _ in range(draws)]
    assert got == ref
    assert source.state == ref_source.state
    assert getattr(sampler, "spare", None) == getattr(ref_sampler, "spare", None)
    assert len(calls) == 1  # every later fill started on the first block


@pytest.mark.parametrize("sampler_id", ["polar", "ziggurat", "modified-ziggurat"])
@pytest.mark.parametrize("same_gamma", [True, False])
def test_one_sampler_switched_between_two_sources(sampler_id, same_gamma):
    a = SplitMix64(1)
    b = SplitMix64(2) if same_gamma else SplitMix64(2, 0x1234567890ABCDEF)
    sampler = make_sampler(sampler_id)
    ref_sampler = make_sampler(sampler_id)
    ref_a, ref_b = SplitMix64(a.state, a.gamma), SplitMix64(b.state, b.gamma)
    got, ref = [], []
    for k, size in enumerate((50, 30, 700, 24, 99, 1, 3000, 60)):
        src, ref_src = (a, ref_a) if k % 2 == 0 else (b, ref_b)
        got += _fill(sampler, src, size)
        ref += [ref_sampler.next_gaussian(ref_src) for _ in range(size)]
    assert got == ref
    assert (a.state, b.state) == (ref_a.state, ref_b.state)


@pytest.mark.parametrize("source_id,sampler_id", PAIRINGS)
def test_fill_larger_than_the_block_left_makes_one_block(monkeypatch,
                                                         source_id, sampler_id):
    # the long fill takes the rest of the block the first fill made, then
    # makes one block from where that one ends: no word is made twice
    rounds = []  # the source's state before and after each block's words
    make = engine._words

    def recorded(source, k):
        start = source.state
        words, states = make(source, k)
        rounds.append((start, states.item(-1)))
        return words, states

    monkeypatch.setattr(engine, "_words", recorded)
    sampler, source = make_sampler(sampler_id), make_source(source_id, 21)
    ref_sampler, ref_source = _reference(sampler_id, source)
    got = _fill(sampler, source, 300)
    assert len(rounds) == 1
    got += _fill(sampler, source, 3000)
    assert len(rounds) == 2
    assert rounds[1][0] == rounds[0][1]
    assert got == [ref_sampler.next_gaussian(ref_source) for _ in range(3300)]
    assert source.state == ref_source.state
    assert getattr(sampler, "spare", None) == getattr(ref_sampler, "spare", None)


@pytest.mark.parametrize("source_id", ["lcg48", "splitmix"])
def test_resumed_polar_fills_take_no_log(monkeypatch, source_id):
    # a polar block takes its logs when it is made; the fills that start on
    # it copy its deviates and the spare
    calls = _count_words(monkeypatch)
    sampler, source = make_sampler("polar"), make_source(source_id, 4)
    ref_sampler, ref_source = _reference("polar", source)
    sizes = range(1, 24)
    ref = [ref_sampler.next_gaussian(ref_source)
           for _ in range(30 + sum(sizes))]
    got = _fill(sampler, source, 30)
    logs = []
    log = math.log
    monkeypatch.setattr(math, "log", lambda x: logs.append(x) or log(x))
    for size in sizes:
        got += _fill(sampler, source, size)
    assert logs == []
    assert len(calls) == 1
    assert got == ref
    assert (source.state, sampler.spare) == (ref_source.state, ref_sampler.spare)


@pytest.mark.parametrize("sampler_id", ["polar", "ziggurat", "modified-ziggurat"])
def test_same_state_under_another_gamma_is_off_the_block(sampler_id):
    sampler, a = make_sampler(sampler_id), SplitMix64(9)
    _fill(sampler, a, 100)
    b = SplitMix64(a.state, 0x1234567890ABCDEF)  # at the block's read state
    ref_sampler, ref_b = _reference(sampler_id, b)
    assert _fill(sampler, b, 100) == [ref_sampler.next_gaussian(ref_b)
                                      for _ in range(100)]
    assert b.state == ref_b.state


@pytest.mark.parametrize("source_id,sampler_id", PAIRINGS)
def test_source_set_back_gets_no_stale_words(source_id, sampler_id):
    # after a replay the fill must read the words of the state it is given,
    # not those the block would have served next
    sampler, source = make_sampler(sampler_id), make_source(source_id, 5)
    _fill(sampler, source, 6)  # even, so that no polar spare is left
    mark = source.state
    second = _fill(sampler, source, 200)
    source.state = mark
    assert _fill(sampler, source, 200) == second
    source.state = make_source(source_id, 5).state
    ref_sampler, ref_source = _reference(sampler_id, source)
    assert _fill(sampler, source, 300) == [
        ref_sampler.next_gaussian(ref_source) for _ in range(300)]


def _block_words(sampler_id, n):
    """Words in the block a first fill of n deviates makes."""
    if sampler_id == "polar":
        return 2 * max(engine.READ_AHEAD // 2,
                       engine._polar_attempts((n + 1) // 2))
    return max(engine.READ_AHEAD, engine._ziggurat_words(n))


def _fill_ending_at_block_end(sampler_id, source_id, seed, layers):
    """A first fill size whose deviates, per call, read exactly the words of
    the block the engine makes for it, with no polar spare left; or None."""
    sampler = make_sampler(sampler_id, layers)
    source = CountingSource(make_source(source_id, seed))
    made = 0
    while source.draws < 2 * engine.READ_AHEAD:
        sampler.next_gaussian(source)
        made += 1
        if (getattr(sampler, "spare", None) is None
                and source.draws == _block_words(sampler_id, made)):
            return made
    return None


@pytest.mark.parametrize("source_id,sampler_id", PAIRINGS)
def test_fills_ending_exactly_at_the_block_end(monkeypatch, source_id,
                                               sampler_id):
    # a fill whose last deviate reads the block's last word spends the
    # block: no block stays on the sampler, the source is left past it, and
    # the next fill makes one. Eight layers send enough ziggurat attempts
    # down the slow paths for this to happen in a READ_AHEAD block.
    calls = _count_words(monkeypatch)
    layers = None if sampler_id == "polar" else 8
    for seed in range(200):
        made = _fill_ending_at_block_end(sampler_id, source_id, seed, layers)
        if made is not None:
            break
    else:
        pytest.fail("no seed gives a deviate boundary at the block end")
    sampler = make_sampler(sampler_id, layers)
    source = make_source(source_id, seed)
    ref_sampler, ref_source = _reference(sampler_id, source, layers)
    got = _fill(sampler, source, made)
    assert calls == [_block_words(sampler_id, made)]
    assert sampler.read_ahead is None
    got += _fill(sampler, source, 40)
    assert len(calls) == 2
    assert got == [ref_sampler.next_gaussian(ref_source)
                   for _ in range(made + 40)]
    assert source.state == ref_source.state


@pytest.mark.parametrize("source_id,sampler_id", PAIRINGS)
def test_short_fills_run_on_the_block(monkeypatch, source_id, sampler_id):
    # fills of 1..23 deviates start on the block an earlier fill made and
    # never fall back to the sampler's per-call draw
    calls = _count_words(monkeypatch)
    sampler, source = make_sampler(sampler_id), make_source(source_id, 8)
    ref_sampler, ref_source = _reference(sampler_id, source)
    zig = sampler_id != "polar"
    counts = np.zeros(sampler.tables.n, dtype=np.int64) if zig else None
    got = _fill(sampler, source, 30, counts)

    def per_call(*args):
        raise AssertionError("a short fill ran per call")

    monkeypatch.setattr(sampler, "next_gaussian", per_call)
    if zig:
        monkeypatch.setattr(sampler, "_draw", per_call)
    for size in range(1, 24):
        got += _fill(sampler, source, size, counts)
    assert len(calls) == 1
    if zig:
        ref, ref_counts = ref_sampler.sample_with_occupancy(ref_source, len(got))
        assert counts.tolist() == ref_counts
    else:
        ref = [ref_sampler.next_gaussian(ref_source) for _ in range(len(got))]
    assert got == ref
    assert source.state == ref_source.state
    assert getattr(sampler, "spare", None) == getattr(ref_sampler, "spare", None)


@pytest.mark.parametrize("source_id,sampler_id", PAIRINGS)
@pytest.mark.parametrize("skip", [0, 1, 16, 17, 100, 400, "end", "past"])
def test_resumed_at_any_unread_attempt_boundary(monkeypatch, source_id,
                                               sampler_id, skip):
    # raw words drawn between fills move the source past the read position;
    # the next fill resumes the block wherever an unread attempt starts (for
    # the ziggurats, with this seed, every skip below lands on one; any even
    # word for polar). A source at the block's end ("end") or past it
    # ("past") gets a new block.
    calls = _count_words(monkeypatch)
    sampler, source = make_sampler(sampler_id), make_source(source_id, 19)
    ref_sampler, ref_source = _reference(sampler_id, source)
    counted = CountingSource(ref_source)
    ref = [ref_sampler.next_gaussian(counted) for _ in range(30)]
    left = _block_words(sampler_id, 30) - counted.draws
    skip = {"end": left, "past": left + 2}.get(skip, skip)
    ref += [ref_source.next_u64() for _ in range(skip)]
    ref += [ref_sampler.next_gaussian(ref_source) for _ in range(30)]
    got = _fill(sampler, source, 30)  # even, so that no polar spare is left
    got += [source.next_u64() for _ in range(skip)]
    got += _fill(sampler, source, 30)
    assert got == ref
    assert source.state == ref_source.state
    resumed = skip < left and (sampler_id != "polar" or skip % 2 == 0)
    assert len(calls) == 2 - resumed


@pytest.mark.parametrize("source_id", ["lcg48", "splitmix"])
def test_polar_spare_and_odd_offset(source_id):
    # a raw word drawn between fills leaves the source an odd number of
    # words into the block, where no polar attempt starts
    sampler, source = make_sampler("polar"), make_source(source_id, 12)
    ref_sampler, ref_source = _reference("polar", source)
    got = _fill(sampler, source, 31)
    assert sampler.spare is not None
    got.append(source.next_u64())
    got += _fill(sampler, source, 31)
    got.append(source.next_u64())
    got += _fill(sampler, source, 7) + _fill(sampler, source, 100)
    ref = [ref_sampler.next_gaussian(ref_source) for _ in range(31)]
    ref.append(ref_source.next_u64())
    ref += [ref_sampler.next_gaussian(ref_source) for _ in range(31)]
    ref.append(ref_source.next_u64())
    ref += [ref_sampler.next_gaussian(ref_source) for _ in range(107)]
    assert got == ref
    assert (source.state, sampler.spare) == (ref_source.state, ref_sampler.spare)


@pytest.mark.parametrize("source_id,sampler_id", ZIGGURAT_PAIRINGS)
def test_counts_carried_across_read_ahead_fills(monkeypatch, source_id,
                                                sampler_id):
    calls = _count_words(monkeypatch)
    sampler, source = make_sampler(sampler_id, 8), make_source(source_id, 3)
    ref_source = make_source(source_id, 3)
    counts = np.zeros(8, dtype=np.int64)
    sizes = (30, 5, 200, 1, 23, 400, 24, 7, 900)
    got = []
    for size in sizes:
        got += _fill(sampler, source, size, counts)
    ref, ref_counts = make_sampler(sampler_id, 8).sample_with_occupancy(
        ref_source, sum(sizes))
    assert got == ref
    assert counts.tolist() == ref_counts
    assert source.state == ref_source.state
    assert len(calls) < len(sizes) // 2  # most fills started on a block


@pytest.mark.parametrize("source_id,sampler_id", PAIRINGS)
def test_randomized_chunk_plan_matches_per_call(source_id, sampler_id):
    # log-uniform fill sizes 1..4096 with per-call draws between some of
    # them, as a long-lived stream in a program sees them
    rng = np.random.default_rng(sum(map(ord, source_id + sampler_id)))
    layers = None if sampler_id == "polar" else 16
    sampler = make_sampler(sampler_id, layers)
    source = make_source(source_id, int(rng.integers(1 << 30)))
    ref_sampler, ref_source = _reference(sampler_id, source, layers)
    got, ref = [], []
    for _ in range(60):
        size = int(4097 ** rng.random())
        got += _fill(sampler, source, size)
        ref += [ref_sampler.next_gaussian(ref_source) for _ in range(size)]
        if rng.random() < 0.3:
            draws = int(rng.integers(1, 6))
            got += [sampler.next_gaussian(source) for _ in range(draws)]
            ref += [ref_sampler.next_gaussian(ref_source) for _ in range(draws)]
    assert np.array_equal(np.array(got).view(np.uint64),
                          np.array(ref).view(np.uint64))
    assert source.state == ref_source.state
    assert getattr(sampler, "spare", None) == getattr(ref_sampler, "spare", None)


@pytest.mark.parametrize("sampler_id", ["polar", "ziggurat", "modified-ziggurat"])
def test_loop_guard_counts_across_rounds(monkeypatch, sampler_id):
    # more misses in a row than one block holds, with the guard just above
    # them: the engine must carry the count from round to round
    guard = engine.READ_AHEAD * 2
    monkeypatch.setattr(engine, "LOOP_GUARD", guard)
    monkeypatch.setattr(samplers_mod, "LOOP_GUARD", guard)
    calls = []

    def counted(source, k):
        calls.append(k)
        return _tape_words(source, k)

    _serve_tapes(monkeypatch, counted)
    tape = _stuck_tape(sampler_id, guard - 1)
    ref_sampler, ref_source = make_sampler(sampler_id), ScriptedSource(tape)
    ref = [ref_sampler.next_gaussian(ref_source) for _ in range(40)]
    buf = np.empty(40, dtype=np.float64)
    engine.fill_gaussians(make_sampler(sampler_id), _Tape(tape), buf)
    assert buf.tolist() == ref
    assert len(calls) >= 3


@pytest.mark.parametrize("sampler_id", ["ziggurat", "modified-ziggurat"])
def test_engine_tables_built_once_on_first_fill(monkeypatch, sampler_id):
    seen = []
    fast_path = engine._fast_path

    def spy(sampler, w):
        seen.append(sampler.engine_tables)
        return fast_path(sampler, w)

    monkeypatch.setattr(engine, "_fast_path", spy)
    sampler, source = make_sampler(sampler_id), make_source("splitmix", 5)
    sampler.next_gaussian(source)
    assert "engine_tables" not in vars(sampler)  # per-call draws build none
    _fill(sampler, source, 3000)
    _fill(sampler, source, 3000)  # larger than READ_AHEAD: a second block
    assert len(seen) == 2
    assert seen[0] is seen[1] is vars(sampler)["engine_tables"]

    ktab, wtab = seen[0]
    t = sampler.tables
    assert ktab.dtype == np.uint64 and wtab.dtype == np.float64
    assert ktab.tolist() == list(t.ktab) * 2
    expected = np.array(t.wtab + tuple(-w for w in t.wtab), dtype=np.float64)
    assert np.array_equal(wtab.view(np.uint64), expected.view(np.uint64))


# -- attempts the block decides: a fill resumes a block only where an
# -- attempt starts, and an attempt the block cannot finish starts the next


def _attempts(sampler_id, source, layers, n):
    """(first word, words read, accepted) of each attempt behind n per-call
    deviates from a copy of `source`, words counted from where it sits."""
    sampler, twin = _reference(sampler_id, source, layers)
    counted = CountingSource(twin)
    out = []
    for _ in range(n):
        before = counted.draws
        counts = [0] * layers
        sampler._draw(counted, counts)
        last = before + 2 * (sum(counts) - 1)  # each rejected wedge reads two
        out += [(s, 2, False) for s in range(before, last, 2)]
        out.append((last, counted.draws - last, True))
    return out


#: raw words to draw between two fills, from the attempts after the first
_LANDINGS = {
    "wedge uniform": lambda atts: next(s + 1 for s, k, ok in atts
                                       if k == 2 and ok),
    "inside a tail": lambda atts: next(s + 2 for s, k, ok in atts if k > 2),
    "rejected wedge": lambda atts: next(s for s, k, ok in atts if not ok),
    "after a rejected wedge": lambda atts: next(s + 2 for s, k, ok in atts
                                                if not ok),
}


@pytest.mark.parametrize("source_id,sampler_id", ZIGGURAT_PAIRINGS)
@pytest.mark.parametrize("landing", list(_LANDINGS))
def test_resumed_only_where_an_attempt_starts(monkeypatch, source_id,
                                              sampler_id, landing):
    # the block decided every attempt when it was made; raw draws that leave
    # the source on a wedge's uniform or among a tail's words put it inside
    # one, so the next fill makes a new block, while either end of a
    # rejected wedge is an attempt start, where the block resumes
    layers = 8
    sampler, source = make_sampler(sampler_id, layers), make_source(source_id, 23)
    ref_sampler, ref_source = _reference(sampler_id, source, layers)
    counts = np.zeros(layers, dtype=np.int64)
    ref_counts = [0] * layers
    got = _fill(sampler, source, 30, counts)
    ref = [ref_sampler._draw(ref_source, ref_counts) for _ in range(30)]
    skip = _LANDINGS[landing](_attempts(sampler_id, source, layers, 400))
    assert skip < engine.READ_AHEAD - 100  # inside the block
    calls = _count_words(monkeypatch)
    got += [source.next_u64() for _ in range(skip)] + _fill(sampler, source,
                                                            30, counts)
    ref += [ref_source.next_u64() for _ in range(skip)]
    ref += [ref_sampler._draw(ref_source, ref_counts) for _ in range(30)]
    assert got == ref
    assert counts.tolist() == ref_counts
    assert source.state == ref_source.state
    resumed = "rejected" in landing
    assert len(calls) == 1 - resumed


def _cut_tape(sampler, cut):
    """(tape, deviates before the cut): fast words up to an attempt the
    first READ_AHEAD-word block cannot finish, then fast words for ever.

    "tail": a tail on the block's third-last word, its uniforms past the
    end; "wedge": a rejected and an accepted wedge, the first on the last
    word; "first tail": a tail on word 10 that reads more than READ_AHEAD
    words, so that no fresh block starting with it can finish it.
    """
    t = sampler.tables
    fast = (5 << sampler.idx_shift) | (t.ktab[5] // 2 << sampler.m_shift)
    mid_wedge = (t.ktab[1] + (1 << t.mantissa_bits)) // 2
    wedge = (1 << sampler.idx_shift) | (mid_wedge << sampler.m_shift)
    tail = ((1 << t.mantissa_bits) - 1) << sampler.m_shift  # layer 0, slow
    half = 1 << 63  # a uniform of 0.5; two of them end a tail
    before, attempt = {
        "tail": (engine.READ_AHEAD - 3, [tail, 0, 0, 0, 0, half, half]),
        "wedge": (engine.READ_AHEAD - 1, [wedge, (1 << 64) - 1, wedge, 0]),
        "first tail": (10, [tail] + [0, 0] * (engine.READ_AHEAD // 2 + 10)
                       + [half, half]),
    }[cut]
    return [fast] * before + attempt + [fast] * (3 * engine.READ_AHEAD), before


@pytest.mark.parametrize("sampler_id", ["ziggurat", "modified-ziggurat"])
@pytest.mark.parametrize("cut", ["tail", "wedge", "first tail"])
@pytest.mark.parametrize("after", [-1, 0, 1])
def test_attempt_a_block_cannot_finish_starts_the_next(monkeypatch, sampler_id,
                                                       cut, after):
    # fills end one deviate before the cut attempt, just before it, or just
    # after it (after = -1, 0, 1); a "first tail" cannot finish in any
    # fresh block either, and is drawn per call
    _serve_tapes(monkeypatch)
    sampler = make_sampler(sampler_id)
    tape, before = _cut_tape(sampler, cut)
    sizes = (5, before - 5 + after) + ((1, 1) if after < 0 else ()) + (40,)
    source = _Tape(tape)
    counts = np.zeros(sampler.tables.n, dtype=np.int64)
    got = []
    for size in sizes:
        got += _fill(sampler, source, size, counts)
    ref_sampler, ref_source = make_sampler(sampler_id), ScriptedSource(tape)
    ref_counts = [0] * sampler.tables.n
    ref = [ref_sampler._draw(ref_source, ref_counts) for _ in range(sum(sizes))]
    assert got == ref
    assert counts.tolist() == ref_counts
    assert source.state == ref_source.cursor
