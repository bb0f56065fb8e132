"""Tests of the traced replica's span recorder."""

import asyncio

import pbcore
import pbshim


def test_nested_calls_record_their_parent():
    rec = pbshim.Recorder()
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda: inner(1))
    assert outer() == 2
    by_name = {span[1]: span for span in rec.spans}
    assert by_name["inner"][4] == by_name["outer"][0]
    assert by_name["outer"][4] is None
    assert all(v >= 0 for v in pbcore.self_times(rec.spans).values())


def test_async_spans_follow_their_task():
    rec = pbshim.Recorder()

    async def leaf():
        await asyncio.sleep(0)

    traced_leaf = rec.wrap("leaf", leaf)

    async def root():
        await asyncio.gather(traced_leaf(), traced_leaf())

    asyncio.run(rec.wrap("root", root)())
    root_id = next(s[0] for s in rec.spans if s[1] == "root")
    leaves = [s for s in rec.spans if s[1] == "leaf"]
    assert len(leaves) == 2 and all(s[4] == root_id for s in leaves)


def test_full_buffer_counts_dropped_spans(monkeypatch):
    monkeypatch.setattr(pbshim, "MAX_SPANS", 1)
    rec = pbshim.Recorder()
    call = rec.wrap("call", lambda: None)
    call()
    call()
    assert len(rec.spans) == 1
    assert rec.counters["dropped_spans"] == 1
