"""Durable epoch-fenced election state for the ORDUP sequencer.

The live ORDUP engine needs a single order authority.  Historically
that was the lexicographically-first site name — a fixed single point
of failure.  This module holds the small durable state machine that
lets the authority move:

* ``promised`` — the highest epoch this replica has promised to (it
  will never promise a lower epoch, nor accept a leader announcement
  for one).  Persisted *before* the promise reply is sent, so a crash
  and restart cannot un-promise.
* ``epoch`` / ``leader`` / ``base`` — the currently adopted leadership:
  the leader of ``epoch`` resumed sequencing from ``base`` (the max
  durable order frontier across the majority that elected it); every
  sequence number it grants is > ``base`` and travels with the epoch as
  a ``(seq, epoch)`` token.
* ``bases`` — per-epoch bases for every epoch this replica has adopted,
  which the engine uses to fence stale-epoch tokens: a token from old
  epoch ``e`` is admissible only if its seq is <= the base of every
  adopted epoch newer than ``e`` (i.e. it was granted before the
  handover point and is merely late).

Safety argument (one leader per epoch): a candidate needs promises
from a majority of the full membership before adopting an epoch, and a
replica promises each epoch at most once (monotonic ``promised``,
durable).  Two leaders in the same epoch would need two disjoint
majorities — impossible.  Fencing then ensures a deposed leader's
grants can never commit past the handover point: the new leader's
``base`` covers everything the old leader could have durably acked, and
anything above it carries a stale epoch that every fenced replica
refuses.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional

from .durable_queue import StateLog

__all__ = ["ElectionState"]


class ElectionState:
    """Durable promise/adopt record for epoch-fenced leadership.

    Persisted in a :class:`StateLog` at ``path`` (``election.log`` in a
    replica's data dir), fsynced per write when ``fsync`` is set — the
    server passes its ``--fsync`` setting.  A transition changes the
    in-memory state only once its record is written.
    """

    def __init__(self, path: Optional[Path] = None, fsync: bool = False) -> None:
        self.path = path
        self.fsync = fsync
        self.promised = 0
        self.epoch = 0
        self.leader: Optional[str] = None
        self.base = 0
        #: epoch -> base, for every epoch adopted at this replica.
        self.bases: Dict[int, int] = {}
        self._log: Optional[StateLog] = None

    # ------------------------------------------------------------------
    # persistence

    def load(self) -> None:
        if self.path is None:
            return
        self._log = StateLog(self.path, self.fsync)
        raw = self._log.value
        if raw is not None:
            self._set(raw)

    def _set(self, raw: Dict[str, Any]) -> None:
        self.promised = int(raw["promised"])
        self.epoch = int(raw["epoch"])
        self.leader = raw["leader"]
        self.base = int(raw["base"])
        self.bases = {int(k): int(v) for k, v in raw["bases"].items()}

    def _commit(self, **changes: Any) -> bool:
        """Persist the state with ``changes`` applied, then adopt it in
        memory.  False (and nothing changed) when the write failed."""
        raw = {
            "promised": self.promised,
            "epoch": self.epoch,
            "leader": self.leader,
            "base": self.base,
            "bases": {str(k): v for k, v in self.bases.items()},
        }
        raw.update(changes)
        if self.path is not None:
            try:
                if self._log is None:
                    self._log = StateLog(self.path, self.fsync)
                self._log.write(raw)
            except OSError:
                return False
        self._set(raw)
        return True

    def close(self) -> None:
        if self._log is not None:
            self._log.close()
            self._log = None

    # ------------------------------------------------------------------
    # transitions

    def promise(self, epoch: int) -> bool:
        """Promise ``epoch`` iff it is higher than any prior promise.

        Durable before returning True — the reply must not outrun the
        disk, or a crashed replica could re-promise the same epoch to a
        second candidate.  A failed write refuses the promise.
        """
        if epoch <= self.promised:
            return False
        return self._commit(promised=epoch)

    def adopt(self, epoch: int, leader: str, base: int) -> bool:
        """Adopt ``leader`` for ``epoch`` (monotonic; durable).

        Used both by the winning candidate itself and by replicas
        learning the outcome.  Adoption implies a promise at least as
        high — a replica that adopts epoch ``e`` will never promise
        ``e`` to a later candidate.  A failed write refuses the
        adoption.
        """
        if epoch < self.epoch:
            return False
        if epoch == self.epoch and self.leader == leader:
            return False
        bases = {str(k): v for k, v in self.bases.items()}
        bases[str(epoch)] = int(base)
        return self._commit(
            epoch=epoch,
            leader=leader,
            base=int(base),
            bases=bases,
            promised=max(self.promised, epoch),
        )

    # ------------------------------------------------------------------
    # views

    def min_base_above(self, epoch: int) -> Optional[int]:
        """Smallest adopted base among epochs strictly newer than ``epoch``.

        A stale-epoch token is admissible only if its seq <= this value
        (it predates every handover the replica knows about).  Returns
        None when no newer epoch has been adopted.
        """
        newer = [b for e, b in self.bases.items() if e > epoch]
        if not newer:
            return None
        return min(newer)

    def wire(self) -> Dict[str, Any]:
        return {
            "epoch": self.epoch,
            "leader": self.leader,
            "base": self.base,
            "promised": self.promised,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "ElectionState(epoch=%d leader=%r base=%d promised=%d)" % (
            self.epoch, self.leader, self.base, self.promised,
        )
