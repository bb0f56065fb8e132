"""File-backed durable stable queues for the live runtime.

The live analogue of :mod:`repro.sim.stable_queue`: the paper factors
message loss out of replica control by giving every channel an
at-least-once, persistently-retried queue; here the persistence is a
real append-only JSONL log on disk, so queue contents survive process
restarts (Ravishankar-style asynchronous checkpointing of the channel
state).

Two halves, matching the two ends of a channel:

* :class:`DurableOutbox` — the sender's half.  ``append`` assigns the
  next channel sequence number and durably logs the payload *before*
  the caller acknowledges anything to a client; ``ack_through``
  processes a cumulative acknowledgement (everything ``<= seq`` is
  durably held by the receiver) and advances the delivery frontier in
  one batched truncation, appending it to the log as one
  ``{"meta": "ack", "through": N}`` record.  On reload the last ack
  record wins (``rewind_to`` may lower the frontier) and ``base`` is
  its floor; everything past the frontier is pending again and will
  be re-sent.  Ack records are flushed but not fsynced: they ride the
  log's next covering fsync, and losing one only re-sends records the
  receiver's inbox frontier already drops as duplicates.
* :class:`DurableInbox` — the receiver's half.  ``record`` /
  ``record_many`` durably log received payloads and deduplicate by
  sequence number (the channel is FIFO, so a contiguous frontier
  suffices); ``replay`` yields every recorded payload in receipt
  order for crash recovery.

Group commit: ``append_many`` / ``record_many`` coalesce a whole
batch of records into a *single* write + flush + (at most one) fsync,
so the per-record durability cost of the propagation hot path is paid
once per batch instead of once per MSet.  ``fsync_interval`` further
rate-limits fsyncs on high-throughput channels: ``0`` (the default)
syncs every (group) append; ``> 0`` syncs at most once per interval —
opt-in, and irrelevant unless ``fsync=True``.

The rate limit never weakens a *durability claim*: before anything
recorded inside the fsync window is acknowledged upstream (a channel
ack to the sending peer, a commit ack to a client) the caller must
invoke :meth:`~_DurableLog.sync`, which forces a covering fsync if —
and only if — unsynced records exist (``dirty``).  Without that, a
receiver could ack a batch, the sender would truncate its outbox, and
a crash of the receiver inside the window would lose the batch from
both ends: an acknowledged update gone.  ``sync`` is a no-op when
``fsync=False`` (explicitly non-durable mode) or when nothing is
dirty, so the hot path with ``fsync_interval=0`` pays nothing extra.

Observability: every log tracks ``fsync_count``, ``fsync_seconds``
(cumulative fsync latency) and ``bytes_written``; the server mirrors
them into the metrics registry at scrape time.

The application-visible contract is exactly-once FIFO per channel:
at-least-once retries on the sender plus frontier dedup on the
receiver.

Log format vs wire format: the record format here is **always** JSON
lines — one ``{"seq": N, "payload": {...}}`` object per line — no
matter which codec the peer channel negotiated on the wire
(:mod:`repro.live.protocol` may speak the ``bin1`` binary framing).
That split is deliberate: logs stay greppable, debuggable, and
readable by any build, while the wire is free to evolve.  The two
formats meet at the *canonical payload blob* (the compact JSON bytes
of one payload): when the caller already holds that blob — computed
once when an update enters the system — ``append``/``record`` splice
it into the log line verbatim instead of re-serializing the payload,
producing a line byte-identical to a full ``json.dumps`` of the
record.  The blob also rides binary wire frames unchanged, so one
encode covers every hop and every log.  :meth:`DurableOutbox.wire_blob`
returns (computing and caching on demand, e.g. after a restart
reloaded pending payloads from the log) the blob for a pending
record, which is what lets a sender re-send from its log without
re-encoding either.

Compaction: both halves support ``compact(through_seq)`` — a
tail-verified rewrite that drops every record at or below
``through_seq`` once a persisted site snapshot covers them.  The
rewritten log opens with a ``{"meta": "base", "base": N}`` record so a
reload knows the log starts above ``N``; the rewrite goes to a
temporary file that is fsynced, re-parsed (tail verification), and
atomically renamed over the live log, so a crash at any instant leaves
either the complete old log or the complete new one.  ``base`` is the
compaction floor: an outbox can no longer serve records at or below
it (a receiver that regressed past the floor needs a snapshot, not a
log replay), and an inbox treats it as its replay origin.

Torn tails: a reload keeps the intact prefix of a log — every
newline-terminated line that decodes into a record — and cuts the
rest off the file before appending, so a record written after a
crash never shares a line with the torn one.

Small state: :class:`StateLog` is the same machinery as a
last-record-wins store, one ``{"meta": "state", "state": {...}}``
line per write, folded to one record every
:data:`STATE_LOG_FOLD_EVERY` appends.  It holds the ORDUP sequencer's
last grant, the election record and the membership table, so no live
state file is ever truncated and rewritten in place.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["DurableOutbox", "DurableInbox", "StateLog"]

#: appends after which a :class:`StateLog` folds itself to one record.
STATE_LOG_FOLD_EVERY = 4096


def _splice_line(seq: int, blob: bytes) -> str:
    """One log line built around an already-encoded payload blob.

    ``blob`` must be the canonical compact-JSON encoding of the
    payload (``json.dumps(payload, separators=(",", ":"))``), which
    makes the spliced line byte-identical to a full
    ``json.dumps({"seq": seq, "payload": payload})`` — the log stays
    plain JSONL whatever codec the wire negotiated.
    """
    return '{"seq":%d,"payload":%s}\n' % (seq, blob.decode("utf-8"))


def _scan_log(path: pathlib.Path) -> Tuple[List[Dict[str, Any]], int]:
    """The intact records of a JSONL log and the byte length they span.

    A crash mid-append leaves a torn tail: a last line without its
    newline, or one that does not decode into a record.  Every write
    ends with the newline and nothing is acknowledged before its write
    returns, so the torn record was never acknowledged to anyone and
    the scan stops there.  Everything before it is intact.
    """
    records: List[Dict[str, Any]] = []
    intact = 0
    if not path.exists():
        return records, intact
    with path.open("rb") as handle:
        for line in handle:
            if not line.endswith(b"\n"):
                break
            body = line.strip()
            if body:
                record = _parse_record(body)
                if record is None:
                    break
                records.append(record)
            intact += len(line)
    return records, intact


def _parse_record(body: bytes) -> Optional[Dict[str, Any]]:
    try:
        record = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(record, dict):
        return None
    if isinstance(record.get("meta"), str):
        # Control record: compaction floor, ack frontier or state.
        return record
    if not isinstance(record.get("seq"), int) or "payload" not in record:
        # Decodable but structurally corrupt (e.g. a partial buffer
        # flush that happens to be valid JSON): a torn tail as well.
        return None
    return record


def _read_json_lines(path: pathlib.Path) -> List[Dict[str, Any]]:
    return _scan_log(path)[0]


class _DurableLog:
    """Shared append-side machinery: one JSONL log handle plus the
    group-commit fsync policy."""

    def __init__(
        self,
        path: pathlib.Path,
        fsync: bool = False,
        fsync_interval: float = 0.0,
    ) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.fsync_interval = fsync_interval
        self._last_fsync = 0.0
        #: True while flushed-but-not-fsynced records exist (only
        #: meaningful with ``fsync=True`` and ``fsync_interval > 0``).
        self.dirty = False
        #: compaction floor: every sequence number <= base has been
        #: rewritten out of the log (covered by a persisted snapshot).
        self.base = 0
        #: observability counters, mirrored by the server's registry.
        self.fsync_count = 0
        self.fsync_seconds = 0.0
        self.bytes_written = 0
        self.compaction_count = 0
        self.compacted_records = 0
        self._log = None  # opened by subclasses after recovery scan

    def _recover(self) -> List[Dict[str, Any]]:
        """The log's intact records.  A torn tail is cut off the file,
        so the next append starts on a line of its own."""
        records, intact = _scan_log(self.path)
        if self.path.exists() and self.path.stat().st_size > intact:
            os.truncate(self.path, intact)
        return records

    def _open_log(self) -> None:
        self._log = self.path.open("a", encoding="utf-8")

    def _write_data(self, data: str) -> None:
        """Group commit: one write + flush + at most one fsync for the
        whole pre-rendered batch of lines."""
        if not data:
            return
        self._write_flushed(data)
        if self.fsync:
            self.dirty = True
        self._maybe_fsync()

    def _write_flushed(self, data: str) -> None:
        """Write and flush, no fsync: the bytes ride the log's next
        covering fsync, which syncs everything written before it."""
        self._log.write(data)
        self._log.flush()
        self.bytes_written += len(data)

    def _write_records(self, records: Sequence[Dict[str, Any]]) -> None:
        if not records:
            return
        self._write_data(
            "".join(
                json.dumps(record, separators=(",", ":")) + "\n"
                for record in records
            )
        )

    def _maybe_fsync(self) -> None:
        if not self.fsync:
            return
        now = time.monotonic()
        if (
            self.fsync_interval > 0
            and now - self._last_fsync < self.fsync_interval
        ):
            return  # rate-limited: the next append inside the window rides free
        self._do_fsync()

    def _do_fsync(self) -> None:
        started = time.monotonic()
        os.fsync(self._log.fileno())
        now = time.monotonic()
        self.fsync_count += 1
        self.fsync_seconds += now - started
        self._last_fsync = now
        self.dirty = False

    def sync(self) -> bool:
        """Force a covering fsync of any unsynced records.

        Must be called before a durability claim is made about records
        written inside the ``fsync_interval`` window — before a channel
        ack is sent upstream, and before a client commit ack.  Returns
        True when an fsync actually ran (False: nothing was dirty, or
        the log is non-durable by configuration).
        """
        if not self.fsync or not self.dirty:
            return False
        self._do_fsync()
        return True

    def _fsync_dir(self) -> None:
        """Persist a rename in the containing directory's metadata."""
        try:
            fd = os.open(str(self.path.parent), os.O_RDONLY)
        except OSError:
            return  # platform without directory fds; rename still atomic
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def _rewrite(
        self, records: Sequence[Dict[str, Any]], base: Optional[int]
    ) -> None:
        """Tail-verified atomic rewrite of the log.

        Writes a fresh log — a ``{"meta": "base", "base": N}`` marker
        (unless ``base`` is None) followed by ``records`` — to a
        temporary file, fsyncs it, re-parses it end to end (tail
        verification: the bytes that hit disk decode back to exactly
        what we meant to keep), then atomically renames it over the
        live log.  A crash before the rename leaves the old log
        intact; after the rename, the new one is complete.  Either way
        a restart recovers a consistent log — there is no instant at
        which records are half-dropped.
        """
        tmp = self.path.with_suffix(self.path.suffix + ".compact")
        if base is not None:
            records = [{"meta": "base", "base": base}, *records]
        lines = [json.dumps(record, separators=(",", ":")) for record in records]
        data = "".join(line + "\n" for line in lines)
        with tmp.open("w", encoding="utf-8") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        check = list(_read_json_lines(tmp))
        ok = len(check) == len(lines) and (
            not lines
            or json.dumps(check[-1], separators=(",", ":")) == lines[-1]
        )
        if not ok:
            tmp.unlink(missing_ok=True)
            raise RuntimeError(
                "rewrite tail-verify failed for %s" % self.path
            )
        if self._log is not None and not self._log.closed:
            self._log.close()
        os.replace(tmp, self.path)
        self._fsync_dir()
        self.bytes_written += len(data)
        self._open_log()

    def close(self) -> None:
        if self._log is not None and not self._log.closed:
            self._log.flush()
            if self.fsync:
                self._do_fsync()
            self._log.close()


class DurableOutbox(_DurableLog):
    """Sender half of one durable (src, dst) channel."""

    def __init__(
        self,
        path: pathlib.Path,
        fsync: bool = False,
        fsync_interval: float = 0.0,
    ) -> None:
        super().__init__(path, fsync, fsync_interval)
        #: highest contiguously acknowledged sequence number.
        self.frontier = 0
        #: unacknowledged payloads by sequence number, insertion-ordered.
        self._pending: Dict[int, Any] = {}
        #: canonical wire bytes of pending payloads (the zero
        #: re-encode relay cache); lazily filled by :meth:`wire_blob`
        #: for records reloaded from the log, dropped as acks retire
        #: their sequence numbers.
        self._blobs: Dict[int, bytes] = {}
        #: acks received for sequence numbers we never assigned — a
        #: receiver durably holds records this (restarted) sender has
        #: no memory of sending, i.e. the sender lost its own log.
        self.regressed_acks = 0
        self._seq = 0
        payloads: Dict[int, Any] = {}
        for record in self._recover():
            meta = record.get("meta")
            if meta == "ack":
                # The last ack record wins: ``rewind_to`` may have
                # lowered the frontier after a higher one.
                self.frontier = int(record.get("through", 0))
            elif meta == "base":
                self.base = max(self.base, int(record.get("base", 0)))
                self._seq = max(self._seq, self.base)
            elif meta is None:
                seq = int(record["seq"])
                self._seq = max(self._seq, seq)
                payloads[seq] = record["payload"]
        # Compaction only ever drops acked records, so the floor is
        # also a lower bound on the ack frontier (it covers ack
        # records lost with an unsynced tail).
        self.frontier = max(self.frontier, self.base)
        self._seq = max(self._seq, self.frontier)
        self._pending = {
            seq: payload
            for seq, payload in payloads.items()
            if seq > self.frontier
        }
        self._open_log()

    def _log_frontier(self) -> None:
        """Append the ack frontier as a record.  Flushed, not fsynced:
        losing it only re-sends records the receiver already holds,
        and its inbox frontier drops those duplicates."""
        self._write_flushed('{"meta":"ack","through":%d}\n' % self.frontier)

    def append(self, payload: Any, blob: Optional[bytes] = None) -> int:
        """Durably enqueue ``payload``; returns its sequence number.

        ``blob``, when given, is the payload's canonical wire bytes
        (see :func:`repro.live.protocol.payload_blob`): the log line
        is spliced around it instead of re-serializing, and it seeds
        the :meth:`wire_blob` cache for the sender's relay path.
        """
        blobs = None if blob is None else [blob]
        return self.append_many([payload], blobs=blobs)[0]

    def append_many(
        self,
        payloads: Sequence[Any],
        blobs: Optional[Sequence[bytes]] = None,
    ) -> List[int]:
        """Group-commit append: one write + fsync for the whole batch.

        Returns the assigned sequence numbers, contiguous and in
        payload order.  ``blobs`` (parallel to ``payloads``) carries
        pre-encoded payload bytes, spliced into the log lines and
        cached for the wire.
        """
        seqs: List[int] = []
        lines: List[str] = []
        for index, payload in enumerate(payloads):
            self._seq += 1
            self._pending[self._seq] = payload
            if blobs is not None:
                self._blobs[self._seq] = blobs[index]
                lines.append(_splice_line(self._seq, blobs[index]))
            else:
                lines.append(
                    json.dumps(
                        {"seq": self._seq, "payload": payload},
                        separators=(",", ":"),
                    )
                    + "\n"
                )
            seqs.append(self._seq)
        self._write_data("".join(lines))
        return seqs

    def wire_blob(self, seqno: int) -> bytes:
        """Canonical wire bytes of one pending payload.

        Cache hit for payloads appended with a blob; computed once and
        cached for payloads reloaded from the log (restart, rewind) —
        either way, every subsequent send and re-send of this record
        forwards the same bytes with no re-encode.
        """
        blob = self._blobs.get(seqno)
        if blob is None:
            blob = json.dumps(
                self._pending[seqno], separators=(",", ":")
            ).encode("utf-8")
            self._blobs[seqno] = blob
        return blob

    def ack(self, seqno: int) -> None:
        """The receiver confirmed durable receipt of exactly ``seqno``."""
        if seqno in self._pending:
            del self._pending[seqno]
            self._blobs.pop(seqno, None)
        if seqno > self.frontier and not any(
            s <= seqno for s in self._pending
        ):
            self.frontier = max(self.frontier, seqno)
            self._log_frontier()

    def ack_through(self, seqno: int) -> List[int]:
        """Cumulative acknowledgement: the receiver durably holds every
        sequence number ``<= seqno``.

        Drops the whole covered range in one batched truncation (one
        ack record instead of one per sequence number) and returns the
        sequence numbers that were newly acknowledged, in order.
        """
        if seqno > self._seq:
            # The receiver durably holds records we never assigned:
            # this sender restarted from an older (or empty) log — it
            # regressed.  Count it (the server triggers catch-up off
            # this) instead of silently pretending we sent that far.
            self.regressed_acks += 1
            seqno = self._seq
        # Every pending seqno is above the frontier, so the covered
        # range is (frontier, seqno]: walk it, not the whole backlog.
        pending = self._pending
        covered = [
            s for s in range(self.frontier + 1, seqno + 1) if s in pending
        ]
        for s in covered:
            del pending[s]
            self._blobs.pop(s, None)
        if seqno > self.frontier:
            self.frontier = seqno
            self._log_frontier()
        return covered

    def rewind_to(self, ack_seq: int) -> bool:
        """Reload records above ``ack_seq`` into the pending set.

        Repairs a channel whose receiver regressed below our ack
        frontier (it lost its inbox and now durably holds only
        ``<= ack_seq``): previously-acked records still in the log
        become pending again and will be re-sent in order.  Returns
        False when the needed records were compacted away
        (``ack_seq < base``) — the receiver then needs a snapshot,
        not a log replay.
        """
        if ack_seq >= self.frontier:
            return True  # no regression; nothing to reload
        if ack_seq < self.base:
            return False  # prefix compacted: unservable from this log
        for record in _read_json_lines(self.path):
            if "meta" in record:
                continue
            seq = int(record["seq"])
            if ack_seq < seq and seq not in self._pending:
                self._pending[seq] = record["payload"]
        self._pending = dict(sorted(self._pending.items()))
        self.frontier = ack_seq
        self._log_frontier()
        return True

    def reset_to(self, seqno: int) -> None:
        """Re-seed an (empty or stale) outbox at ``seqno``.

        Used when installing a snapshot on a wiped site: the peer
        channels restart at the snapshot's frontier — sequence numbers
        at or below it are covered by the snapshot and can never be
        served from this log again, so the floor, the ack frontier and
        the next-assignment counter all become ``seqno``.
        """
        self._rewrite([{"meta": "ack", "through": seqno}], base=seqno)
        self._pending.clear()
        self._blobs.clear()
        self.base = seqno
        self.frontier = seqno
        self._seq = seqno

    def compact(self, through_seq: int) -> int:
        """Drop acked records ``<= through_seq`` from the log.

        Only acked records are eligible (the frontier caps the cut:
        pending records must survive for re-sends), and the caller is
        responsible for the snapshot-coverage invariant — compact only
        below a *persisted* snapshot frontier, so anything dropped
        here is reconstructable from the snapshot.  Returns the number
        of records removed.  Crash-safe via the tail-verified rewrite.
        """
        through = min(through_seq, self.frontier)
        if through <= self.base:
            return 0
        survivors: List[Dict[str, Any]] = []
        dropped = 0
        for record in _read_json_lines(self.path):
            if "meta" in record:
                continue
            if int(record["seq"]) > through:
                survivors.append(record)
            else:
                dropped += 1
        # The current frontier rides the rewrite as its last record.
        self._rewrite(
            [*survivors, {"meta": "ack", "through": self.frontier}],
            base=through,
        )
        self.base = through
        self.compaction_count += 1
        self.compacted_records += dropped
        return dropped

    def pending(self) -> List[Tuple[int, Any]]:
        """Unacknowledged (seqno, payload) pairs in FIFO order."""
        return sorted(self._pending.items())

    def pending_after(
        self, seqno: int, limit: int
    ) -> List[Tuple[int, Any]]:
        """Up to ``limit`` pending (seqno, payload) pairs above
        ``seqno``, in order.

        The sender's scan: cumulative acks keep the pending set a
        (nearly) dense seqno range, so a bounded walk from the floor
        replaces sorting the whole backlog — which made every sender
        wakeup O(backlog log backlog) and the drain of a deep backlog
        quadratic.  Seqnos individually acked out of order (the
        non-cumulative :meth:`ack`) leave holes the walk just skips.
        """
        out: List[Tuple[int, Any]] = []
        pending = self._pending
        s = max(seqno, self.frontier)
        hi = self._seq
        while len(out) < limit and s < hi:
            s += 1
            payload = pending.get(s)
            if payload is not None:
                out.append((s, payload))
        return out

    def drained(self) -> bool:
        return not self._pending

    @property
    def backlog(self) -> int:
        return len(self._pending)


class DurableInbox(_DurableLog):
    """Receiver half of one durable (src, dst) channel."""

    def __init__(
        self,
        path: pathlib.Path,
        fsync: bool = False,
        fsync_interval: float = 0.0,
    ) -> None:
        super().__init__(path, fsync, fsync_interval)
        #: highest sequence number durably recorded, contiguous from
        #: ``base + 1`` (``base`` is 0 for a never-compacted log).
        self.frontier = 0
        self._records: List[Tuple[int, Any]] = []
        for record in self._recover():
            if record.get("meta") == "base":
                base = int(record.get("base", 0))
                self.base = max(self.base, base)
                self.frontier = max(self.frontier, base)
                continue
            seq = int(record["seq"])
            if seq == self.frontier + 1:
                self._records.append((seq, record["payload"]))
                self.frontier = seq
        self._open_log()

    def record(
        self, seqno: int, payload: Any, blob: Optional[bytes] = None
    ) -> bool:
        """Durably record one received payload.

        Returns True when the payload is fresh (first receipt), False
        for a duplicate.  Out-of-order receipts beyond ``frontier + 1``
        are refused (also False): the sender re-sends in order, so a
        gap can only mean a dropped earlier frame.  ``blob`` (the
        payload's canonical wire bytes) splices the log line instead
        of re-serializing the payload.
        """
        if seqno != self.frontier + 1:
            return False
        if blob is not None:
            self._write_data(_splice_line(seqno, blob))
        else:
            self._write_records([{"seq": seqno, "payload": payload}])
        self._records.append((seqno, payload))
        self.frontier = seqno
        return True

    def record_many(
        self,
        items: Sequence[Tuple[int, Any]],
        blobs: Optional[Sequence[bytes]] = None,
    ) -> int:
        """Group-commit record of a contiguous batch of receipts.

        ``items`` must start at ``frontier + 1`` and be gap-free; the
        caller (the batch receive path) filters duplicates and stops at
        the first gap before calling.  The whole batch lands with one
        write + flush + fsync.  ``blobs`` (parallel to ``items``)
        carries the payloads' wire bytes as received — a binary batch
        is logged without one ``json.dumps``.  Returns the number
        recorded.
        """
        lines: List[str] = []
        expected = self.frontier + 1
        for index, (seqno, payload) in enumerate(items):
            if seqno != expected:
                raise ValueError(
                    "non-contiguous batch record: got %d, expected %d"
                    % (seqno, expected)
                )
            if blobs is not None:
                lines.append(_splice_line(seqno, blobs[index]))
            else:
                lines.append(
                    json.dumps(
                        {"seq": seqno, "payload": payload},
                        separators=(",", ":"),
                    )
                    + "\n"
                )
            expected += 1
        self._write_data("".join(lines))
        for seqno, payload in items:
            self._records.append((seqno, payload))
            self.frontier = seqno
        return len(lines)

    def duplicate(self, seqno: int) -> bool:
        """True when ``seqno`` was already recorded (needs re-ack only)."""
        return seqno <= self.frontier

    def replay(self) -> List[Tuple[int, Any]]:
        """Recorded (seqno, payload) pairs above the compaction floor,
        in receipt order — the log tail a snapshot does not cover."""
        return list(self._records)

    def compact(self, through_seq: int) -> int:
        """Drop recorded receipts ``<= through_seq`` from the log.

        The caller must hold a persisted snapshot whose applied
        frontier for this channel is at least ``through_seq`` — after
        compaction, recovery replays only the tail above the floor on
        top of that snapshot.  Crash-safe via the tail-verified
        rewrite; returns the number of records removed.
        """
        through = min(through_seq, self.frontier)
        if through <= self.base:
            return 0
        survivors = [(s, p) for s, p in self._records if s > through]
        self._rewrite(
            [{"seq": s, "payload": p} for s, p in survivors],
            base=through,
        )
        dropped = len(self._records) - len(survivors)
        self._records = survivors
        self.base = through
        self.compaction_count += 1
        self.compacted_records += dropped
        return dropped

    def reset_to(self, seqno: int) -> None:
        """Restart this inbox at frontier ``seqno`` with an empty tail.

        Used when installing a snapshot that already covers every
        receipt at or below ``seqno``: the local tail (if any) is
        discarded and the next acceptable receipt becomes
        ``seqno + 1``.  Crash-safe via the tail-verified rewrite.
        """
        self._rewrite([], base=seqno)
        self._records = []
        self.base = seqno
        self.frontier = seqno


class StateLog(_DurableLog):
    """Durable small state: the last record wins.

    Each :meth:`write` appends one ``{"meta": "state", "state": {...}}``
    line under the log's write/flush/fsync policy — with ``fsync=True``
    the state is on disk when ``write`` returns, so a caller may then
    let the value leave the process.  A torn last line (a crash
    mid-write) reads back as the previous state, which is exactly what
    a crash before the write would have left.  Every
    :data:`STATE_LOG_FOLD_EVERY` appends the log folds to its current
    state with the tail-verified rewrite, so it never grows past a few
    thousand lines.  ``value`` is None until the first write.
    """

    def __init__(self, path: pathlib.Path, fsync: bool = False) -> None:
        super().__init__(path, fsync)
        self.value: Optional[Dict[str, Any]] = None
        self._appends = 0
        for record in self._recover():
            if record.get("meta") == "state":
                self.value = record.get("state")
                self._appends += 1
        self._open_log()

    def write(self, value: Dict[str, Any]) -> None:
        """Persist ``value`` as the new state (raises OSError on failure)."""
        record = {"meta": "state", "state": value}
        if self._appends >= STATE_LOG_FOLD_EVERY:
            self._rewrite([record], base=None)
            self._appends = 1
        else:
            self._write_records([record])
            self._appends += 1
        self.value = value
