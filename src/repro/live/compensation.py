"""Durable compensation log for the live COMPE engine.

COMPE (paper section 4) commits optimistically and repairs with
*backward recovery*: every accepted update durably logs the inverse
operations that would undo it, and an ABORT decision replays those
inverses as a compensating step.  At live scale this is the saga /
Compensating Transaction pattern: forward-commit each step, keep a
durable compensation record, run the compensations backward when the
saga aborts.

:class:`CompensationLog` is the durable half.  It reuses the live
runtime's group-commit JSONL machinery (:class:`_DurableLog`): records
are ``{"seq": N, "payload": {...}}`` lines, appends coalesce into one
write + flush + at-most-one fsync, ``sync()`` forces a covering fsync
before any durability claim, and compaction is the same tail-verified
atomic rewrite the channel queues use.

Two record kinds::

    {"k": "undo",    "tid": T, "ops": [<encoded inverse ops>],
                     "keys": [...], "saga": S?}     # S only for saga steps
    {"k": "decided", "tid": T, "outcome": "commit" | "abort"}

Idempotent replay — the crash-safety argument
---------------------------------------------

The log never *drives* state by itself: engine state is a pure
function of (engine checkpoint, inbox replay).  The log's in-memory
``undo`` / ``decisions`` maps gate **duplicate appends only**, never
state mutations.  During recovery the inbox replay re-delivers every
update and decision above the snapshot cut; re-delivered updates find
their tid already in ``undo`` and skip the append (same bytes would be
written — inverses of the admitted operation algebra are
prior-value-independent, so re-deriving them is deterministic), and
re-delivered decisions find their tid in ``decisions`` and skip
likewise.  A crash between an append and the corresponding inbox
record leaves an orphan log record; the retried delivery simply
matches it.  A crash between the inbox record and the append leaves a
gap; the replay re-derives the record.  Either way the log converges
to the same contents, and replaying it any number of times yields the
same maps — idempotent replay.

Compaction is therefore always safe: every record is re-derivable
from the checkpoint + inbox replay, so dropping *retired* records
(both records of a decided tid) can never lose information a recovery
needs.  The engine compacts once enough retired records accumulate.
"""

from __future__ import annotations

import pathlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .durable_queue import _DurableLog

__all__ = ["CompensationLog"]

#: retired records tolerated before :meth:`maybe_compact` rewrites.
DEFAULT_COMPACT_THRESHOLD = 256

COMMIT = "commit"
ABORT = "abort"


class CompensationLog(_DurableLog):
    """Append-only durable log of undo records and decisions."""

    def __init__(
        self,
        path: pathlib.Path,
        fsync: bool = False,
        fsync_interval: float = 0.0,
        compact_threshold: int = DEFAULT_COMPACT_THRESHOLD,
    ) -> None:
        super().__init__(path, fsync, fsync_interval)
        self.compact_threshold = max(1, int(compact_threshold))
        self._seq = 0
        self._records: List[Tuple[int, Dict[str, Any]]] = []
        #: tid -> undo payload ({"k","tid","ops","keys","saga"?}).
        self.undo: Dict[str, Dict[str, Any]] = {}
        #: tid -> "commit" | "abort".
        self.decisions: Dict[str, str] = {}
        #: lifetime appended records (monotone; survives compaction).
        self.records_total = 0
        for record in self._recover():
            if record.get("meta") == "base":
                base = int(record.get("base", 0))
                self.base = max(self.base, base)
                self._seq = max(self._seq, base)
                continue
            seq = int(record["seq"])
            self._seq = max(self._seq, seq)
            payload = record["payload"]
            self._records.append((seq, payload))
            self._load(payload)
            self.records_total += 1
        self._open_log()

    def _load(self, payload: Dict[str, Any]) -> None:
        kind = payload.get("k")
        tid = payload.get("tid")
        if not isinstance(tid, str):
            return
        if kind == "undo":
            self.undo.setdefault(tid, payload)
        elif kind == "decided":
            self.decisions.setdefault(tid, str(payload.get("outcome")))

    def _append(self, payload: Dict[str, Any]) -> None:
        self._seq += 1
        self._records.append((self._seq, payload))
        self._write_records([{"seq": self._seq, "payload": payload}])
        self.records_total += 1

    # -- writes ----------------------------------------------------------------

    def log_undo(
        self,
        tid: str,
        ops: Sequence[Any],
        keys: Sequence[str],
        saga: Optional[str] = None,
    ) -> bool:
        """Durably record the inverse ops that would undo ``tid``.

        ``ops`` are already wire-encoded (see
        :func:`repro.live.protocol.encode_ops`).  Returns False for a
        duplicate (replayed delivery) — nothing is appended twice.
        """
        if tid in self.undo:
            return False
        payload: Dict[str, Any] = {
            "k": "undo",
            "tid": tid,
            "ops": list(ops),
            "keys": list(keys),
        }
        if saga is not None:
            payload["saga"] = saga
        self._append(payload)
        self.undo[tid] = payload
        return True

    def log_decision(self, tid: str, outcome: str) -> bool:
        """Durably record the global decision for ``tid``.

        Returns False for a duplicate — the first decision a tid sees
        is final, every later one (replay, a second deciding site) is
        dropped here and skipped by the engine.
        """
        if outcome not in (COMMIT, ABORT):
            raise ValueError("bad decision outcome %r" % (outcome,))
        if tid in self.decisions:
            return False
        self._append({"k": "decided", "tid": tid, "outcome": outcome})
        self.decisions[tid] = outcome
        return True

    # -- reads -----------------------------------------------------------------

    def undo_ops(self, tid: str) -> Optional[List[Any]]:
        """Encoded inverse ops for ``tid`` (None when unknown)."""
        record = self.undo.get(tid)
        return None if record is None else list(record["ops"])

    def decided(self, tid: str) -> Optional[str]:
        return self.decisions.get(tid)

    @property
    def live_records(self) -> int:
        """Records currently in the log file (post-compaction)."""
        return len(self._records)

    def undecided_tids(self) -> List[str]:
        return [t for t in self.undo if t not in self.decisions]

    # -- compaction ------------------------------------------------------------

    def _retired(self, payload: Dict[str, Any]) -> bool:
        return payload.get("tid") in self.decisions

    def reclaimable(self) -> int:
        """Records belonging to decided tids (safe to rewrite away)."""
        return sum(1 for _, p in self._records if self._retired(p))

    def compact_retired(self) -> int:
        """Rewrite the log keeping only records of undecided tids.

        Safe at any instant: retired records are re-derivable from the
        engine checkpoint + inbox replay (see the module docstring), so
        a crash before, during (the rewrite is tail-verified and
        atomic), or after the compaction recovers identically.  The
        in-memory ``decisions`` map is kept — the running process still
        gates duplicates with it — while ``undo`` entries for decided
        tids are pruned to bound memory.  Returns records dropped.
        """
        survivors = [(s, p) for s, p in self._records if not self._retired(p)]
        dropped = len(self._records) - len(survivors)
        if not dropped:
            return 0
        self._rewrite(
            [{"seq": s, "payload": p} for s, p in survivors],
            base=self.base,
        )
        self._records = survivors
        for tid in [t for t in self.undo if t in self.decisions]:
            del self.undo[tid]
        self.compaction_count += 1
        self.compacted_records += dropped
        return dropped

    def maybe_compact(self) -> int:
        """Compact when enough retired records have accumulated."""
        if self.reclaimable() < self.compact_threshold:
            return 0
        return self.compact_retired()
