import numpy as np
import pytest

from gausszig import ScriptedSource, SplitMix64, make_sampler, make_source
from gausszig import engine

from conftest import CountingSource

PAIRINGS = [(src, smp)
            for src in ("lcg48", "splitmix")
            for smp in ("polar", "ziggurat", "modified-ziggurat")]


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


@pytest.mark.parametrize("source_id,sampler_id",
                         [p for p in PAIRINGS if p[1] != "polar"])
def test_fills_ending_next_to_a_slow_deviate(source_id, sampler_id):
    # a fill may stop just before or just after a deviate that took the wedge
    # or tail path (the only ones reading more than one word); the source
    # must still be left on the exact next word
    n = 20_000
    sampler_p = make_sampler(sampler_id)
    source_p = CountingSource(make_source(source_id, 5))
    ref, slow = [], []
    for j in range(n):
        before = source_p.draws
        ref.append(sampler_p.next_gaussian(source_p))
        if source_p.draws - before > 1:
            slow.append(j)
    cuts = [0]
    for k, j in enumerate(slow):
        cut = j + k % 2  # alternately before and after a slow deviate
        if cut - cuts[-1] >= engine.PER_CALL_BELOW:  # shorter fills run per call
            cuts.append(cut)
    cuts.append(n)
    assert len(cuts) > 100

    sampler_e = make_sampler(sampler_id)
    source_e = make_source(source_id, 5)
    buf = np.empty(n, dtype=np.float64)
    for lo, hi in zip(cuts, cuts[1:]):
        engine.fill_gaussians(sampler_e, source_e, buf[lo:hi])
    assert buf.tolist() == ref
    assert source_e.state == source_p.inner.state


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
