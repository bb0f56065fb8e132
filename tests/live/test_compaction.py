"""Log compaction tests: snapshot-covered prefixes drop crash-safely.

Compaction rewrites a durable channel log without its covered prefix
(everything a persisted site snapshot already reconstructs).  The
rewrite must be atomic against crashes: at *every* instant during the
rewrite, a restart recovers either the complete old log or the
complete new one — never a half-dropped prefix.  The parameterized
crash test below kills the rewrite at each internal boundary and
asserts exactly that.
"""

import os

import pytest

from repro.live.durable_queue import DurableInbox, DurableOutbox


class TestOutboxCompaction:
    def test_compact_drops_acked_prefix(self, tmp_path):
        outbox = DurableOutbox(tmp_path / "peer.log")
        for i in range(6):
            outbox.append({"n": i})
        outbox.ack_through(4)
        assert outbox.compact(4) == 4
        assert outbox.base == 4
        assert outbox.frontier == 4
        assert [seq for seq, _ in outbox.pending()] == [5, 6]
        assert outbox.compaction_count == 1
        assert outbox.compacted_records == 4
        outbox.close()

    def test_compact_never_passes_the_ack_frontier(self, tmp_path):
        outbox = DurableOutbox(tmp_path / "peer.log")
        for i in range(6):
            outbox.append({"n": i})
        outbox.ack_through(2)
        # Asking past the frontier clamps: pending records must
        # survive for re-sends.
        assert outbox.compact(6) == 2
        assert outbox.base == 2
        assert [seq for seq, _ in outbox.pending()] == [3, 4, 5, 6]
        outbox.close()

    def test_compact_below_base_is_a_noop(self, tmp_path):
        outbox = DurableOutbox(tmp_path / "peer.log")
        for i in range(4):
            outbox.append({"n": i})
        outbox.ack_through(3)
        assert outbox.compact(3) == 3
        assert outbox.compact(3) == 0
        assert outbox.compact(2) == 0
        assert outbox.compaction_count == 1
        outbox.close()

    def test_compacted_log_survives_restart(self, tmp_path):
        path = tmp_path / "peer.log"
        outbox = DurableOutbox(path)
        for i in range(6):
            outbox.append({"n": i})
        outbox.ack_through(4)
        outbox.compact(4)
        outbox.close()

        reloaded = DurableOutbox(path)
        assert reloaded.base == 4
        assert reloaded.frontier == 4
        assert [seq for seq, _ in reloaded.pending()] == [5, 6]
        # Sequence assignment continues above the survivors.
        assert reloaded.append("later") == 7
        reloaded.close()

    def test_base_marker_backstops_lost_ack_records(self, tmp_path):
        path = tmp_path / "peer.log"
        outbox = DurableOutbox(path)
        for i in range(5):
            outbox.append({"n": i})
        outbox.ack_through(3)
        outbox.compact(3)
        outbox.ack_through(4)
        outbox.close()
        # Ack records are flushed, not fsynced: drop every trailing
        # one, as a crash before the next covering fsync could.
        lines = path.read_bytes().splitlines(keepends=True)
        while b'"meta":"ack"' in lines[-1]:
            lines.pop()
        path.write_bytes(b"".join(lines))

        reloaded = DurableOutbox(path)
        # Compaction only drops acked records, so the floor is a lower
        # bound on the frontier even with no ack record left; seq 4 is
        # re-sent and the receiver's inbox frontier drops it.
        assert reloaded.frontier == 3
        assert [seq for seq, _ in reloaded.pending()] == [4, 5]
        reloaded.close()

    def test_rewound_frontier_persists_across_reopen(self, tmp_path):
        path = tmp_path / "peer.log"
        outbox = DurableOutbox(path)
        for i in range(6):
            outbox.append({"n": i})
        outbox.ack_through(6)
        # The receiver lost its inbox and holds only <= 2.
        assert outbox.rewind_to(2) is True
        outbox.close()

        reloaded = DurableOutbox(path)
        # The last ack record wins, even though it is the lower one.
        assert reloaded.frontier == 2
        assert [seq for seq, _ in reloaded.pending()] == [3, 4, 5, 6]
        reloaded.ack_through(4)
        reloaded.close()

        again = DurableOutbox(path)
        assert again.frontier == 4
        assert [seq for seq, _ in again.pending()] == [5, 6]
        again.close()

    def test_rewind_fails_below_the_compaction_floor(self, tmp_path):
        outbox = DurableOutbox(tmp_path / "peer.log")
        for i in range(6):
            outbox.append({"n": i})
        outbox.ack_through(6)
        outbox.compact(4)
        # A receiver regressed to 5: still servable from the log.
        assert outbox.rewind_to(5) is True
        assert [seq for seq, _ in outbox.pending()] == [6]
        outbox.ack_through(6)
        # A receiver regressed below the floor: the records are gone,
        # it needs a snapshot.
        assert outbox.rewind_to(2) is False
        outbox.close()

    def test_reset_to_reseeds_floor_frontier_and_counter(self, tmp_path):
        path = tmp_path / "peer.log"
        outbox = DurableOutbox(path)
        outbox.append("stale")
        outbox.reset_to(40)
        assert (outbox.base, outbox.frontier) == (40, 40)
        assert outbox.pending() == []
        assert outbox.append("fresh") == 41
        outbox.close()

        reloaded = DurableOutbox(path)
        assert (reloaded.base, reloaded.frontier) == (40, 40)
        assert [seq for seq, _ in reloaded.pending()] == [41]
        reloaded.close()


class TestInboxCompaction:
    def test_compact_drops_covered_receipts(self, tmp_path):
        inbox = DurableInbox(tmp_path / "peer.log")
        for i in range(1, 7):
            inbox.record(i, {"n": i})
        assert inbox.compact(4) == 4
        assert inbox.base == 4
        assert inbox.frontier == 6
        assert [seq for seq, _ in inbox.replay()] == [5, 6]
        inbox.close()

    def test_compacted_inbox_survives_restart(self, tmp_path):
        path = tmp_path / "peer.log"
        inbox = DurableInbox(path)
        for i in range(1, 7):
            inbox.record(i, {"n": i})
        inbox.compact(4)
        inbox.close()

        reloaded = DurableInbox(path)
        assert reloaded.base == 4
        assert reloaded.frontier == 6
        assert [seq for seq, _ in reloaded.replay()] == [5, 6]
        # The next acceptable receipt continues the tail.
        assert reloaded.record(7, {"n": 7}) is True
        assert reloaded.record(4, {"n": 4}) is False  # covered duplicate
        reloaded.close()

    def test_reset_to_discards_the_tail(self, tmp_path):
        path = tmp_path / "peer.log"
        inbox = DurableInbox(path)
        for i in range(1, 4):
            inbox.record(i, {"n": i})
        inbox.reset_to(10)
        assert (inbox.base, inbox.frontier) == (10, 10)
        assert inbox.replay() == []
        assert inbox.record(11, "next") is True
        inbox.close()

        reloaded = DurableInbox(path)
        assert reloaded.frontier == 11
        assert [seq for seq, _ in reloaded.replay()] == [11]
        reloaded.close()


class _Crash(Exception):
    """Stands in for the process dying at a chosen instant."""


#: every internal boundary of the compaction rewrite.  "torn-tmp"
#: simulates dying mid-write of the temporary file (a torn tail);
#: the others kill the real code path at the named call.
BOUNDARIES = [
    "before-rewrite",
    "torn-tmp",
    "after-tmp-fsync",
    "before-rename",
    "after-rename",
]


def _crash_compact(outbox, through, boundary, monkeypatch, tmp_path):
    """Run ``outbox.compact(through)``, dying at ``boundary``."""
    if boundary == "before-rewrite":
        raise _Crash  # nothing on disk changed at all
    if boundary == "torn-tmp":
        # A torn temporary file from a crash mid-write: the rename
        # never ran, so the stale .compact file must be ignored (and
        # harmlessly overwritten) by any later compaction.
        tmp = outbox.path.with_suffix(outbox.path.suffix + ".compact")
        tmp.write_text('{"meta":"base","ba')
        raise _Crash
    if boundary == "after-tmp-fsync":
        real_replace = os.replace

        def die(*args, **kwargs):
            raise _Crash

        monkeypatch.setattr(os, "replace", die)
        try:
            outbox.compact(through)
        finally:
            monkeypatch.setattr(os, "replace", real_replace)
        raise AssertionError("compact survived a crashed rename")
    if boundary == "before-rename":
        # Same on-disk state as after-tmp-fsync (the fsync of the tmp
        # file is the last durable action before the rename), but die
        # from inside the verification re-parse instead.
        calls = {"n": 0}
        import repro.live.durable_queue as dq

        real_reader = dq._read_json_lines

        def dying_reader(path):
            if path.suffix == ".compact":
                calls["n"] += 1
                raise _Crash
            return real_reader(path)

        monkeypatch.setattr(dq, "_read_json_lines", dying_reader)
        try:
            outbox.compact(through)
        finally:
            monkeypatch.setattr(dq, "_read_json_lines", real_reader)
        raise AssertionError("compact survived a crashed verify")
    if boundary == "after-rename":
        # The rename is the commit point; dying in the directory fsync
        # afterwards must leave the *new* log.
        def die(self):
            raise _Crash

        monkeypatch.setattr(
            "repro.live.durable_queue._DurableLog._fsync_dir", die
        )
        outbox.compact(through)
        raise AssertionError("compact survived a crashed dir fsync")
    raise AssertionError("unknown boundary %r" % boundary)


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_outbox_compaction_crash_recovers_old_or_new(
    boundary, tmp_path, monkeypatch
):
    """Crash the rewrite at every boundary: a reload sees exactly the
    old log or exactly the new one, and the channel still works."""
    path = tmp_path / "peer.log"
    outbox = DurableOutbox(path)
    for i in range(8):
        outbox.append({"n": i})
    outbox.ack_through(5)

    with pytest.raises(_Crash):
        _crash_compact(outbox, 5, boundary, monkeypatch, tmp_path)
    monkeypatch.undo()
    # Simulated crash: abandon the live object, reload from disk.

    reloaded = DurableOutbox(path)
    compacted = boundary == "after-rename"
    assert reloaded.base == (5 if compacted else 0)
    assert reloaded.frontier == 5
    # Never half-dropped: the unacked tail is intact either way.
    assert [seq for seq, _ in reloaded.pending()] == [6, 7, 8]
    assert [p["n"] for _, p in reloaded.pending()] == [5, 6, 7]
    # The channel still serves a regressed receiver from its floor.
    assert reloaded.rewind_to(reloaded.base) is True
    # And still assigns fresh sequence numbers above everything.
    assert reloaded.append("fresh") == 9
    # A later compaction succeeds regardless of leftover tmp files.
    reloaded.ack_through(9)
    assert reloaded.compact(9) > 0
    assert reloaded.base == 9
    reloaded.close()


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_inbox_compaction_crash_recovers_old_or_new(
    boundary, tmp_path, monkeypatch
):
    path = tmp_path / "peer.log"
    inbox = DurableInbox(path)
    for i in range(1, 9):
        inbox.record(i, {"n": i})

    with pytest.raises(_Crash):
        _crash_compact(inbox, 5, boundary, monkeypatch, tmp_path)
    monkeypatch.undo()

    reloaded = DurableInbox(path)
    compacted = boundary == "after-rename"
    assert reloaded.base == (5 if compacted else 0)
    assert reloaded.frontier == 8
    tail = [seq for seq, _ in reloaded.replay()]
    assert tail == ([6, 7, 8] if compacted else [1, 2, 3, 4, 5, 6, 7, 8])
    # The channel keeps its exactly-once contract after the crash.
    assert reloaded.record(9, {"n": 9}) is True
    assert reloaded.record(9, {"n": 9}) is False
    assert reloaded.compact(9) > 0
    reloaded.close()


def test_ack_record_torn_at_every_byte_keeps_the_previous_frontier(
    tmp_path,
):
    """Cut the log at every offset inside its last record (an ack
    record): a reload restores the previous complete frontier, cuts the
    torn bytes, and later appends survive another reload."""
    path = tmp_path / "peer.log"
    outbox = DurableOutbox(path)
    for i in range(5):
        outbox.append({"n": i})
    outbox.ack_through(2)
    outbox.ack_through(4)
    outbox.close()
    raw = path.read_bytes()
    last = raw.rstrip(b"\n").rfind(b"\n") + 1
    assert raw[last:] == b'{"meta":"ack","through":4}\n'

    for cut in range(last, len(raw)):
        path.write_bytes(raw[:cut])
        reloaded = DurableOutbox(path)
        assert reloaded.frontier == 2, cut
        assert [seq for seq, _ in reloaded.pending()] == [3, 4, 5]
        assert reloaded.append({"n": 5}) == 6
        reloaded.ack_through(3)
        reloaded.close()

        again = DurableOutbox(path)
        assert again.frontier == 3, cut
        assert [seq for seq, _ in again.pending()] == [4, 5, 6]
        again.close()

    path.write_bytes(raw)
    whole = DurableOutbox(path)
    assert whole.frontier == 4
    whole.close()


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_compaction_crash_keeps_the_ack_frontier(
    boundary, tmp_path, monkeypatch
):
    """The frontier rides the compaction rewrite as a record: a crash
    at any boundary of the rewrite leaves it intact."""
    path = tmp_path / "peer.log"
    outbox = DurableOutbox(path)
    for i in range(8):
        outbox.append({"n": i})
    outbox.ack_through(3)
    outbox.ack_through(6)

    with pytest.raises(_Crash):
        _crash_compact(outbox, 4, boundary, monkeypatch, tmp_path)
    monkeypatch.undo()

    reloaded = DurableOutbox(path)
    assert reloaded.base == (4 if boundary == "after-rename" else 0)
    assert reloaded.frontier == 6
    assert [seq for seq, _ in reloaded.pending()] == [7, 8]
    reloaded.close()
