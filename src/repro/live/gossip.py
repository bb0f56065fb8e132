"""Gossip-based membership and adaptive failure detection.

Two pieces, both transport-agnostic (the server piggybacks them on its
existing heartbeat frames):

``MembershipTable``
    A SWIM-style versioned membership table.  Each node record carries
    an *incarnation* number owned by the node it describes plus a
    liveness status (``alive``/``suspect``/``dead``/``left``), its
    address, shard, and the node's locally applied frontier (a digest
    used to trigger anti-entropy catch-up).  Merge rules:

    * a record with a **higher incarnation** always wins;
    * at **equal incarnation** the more severe status wins
      (alive < suspect < dead < left) and frontiers take the max;
    * lower incarnations are ignored.

    A node that sees itself suspected or declared dead at an
    incarnation >= its own *refutes* by bumping its incarnation and
    re-asserting ``alive`` — the refutation then out-versions the stale
    rumor everywhere it gossips.  The table persists to a
    :class:`~repro.live.durable_queue.StateLog` (``membership.log``)
    whenever a durable field changes — incarnation, status, address or
    shard; the volatile ``frontier``/``applied`` hints move with every
    heartbeat and are not written for that alone.  ``load`` bumps our
    own incarnation on every boot so a restarted node's fresh records
    dominate its former life's.

``FailureDetector``
    A phi-accrual-flavoured adaptive detector.  Instead of one fixed
    staleness threshold (which flaps on high-jitter WAN links), it
    tracks observed heartbeat inter-arrival times per peer and suspects
    a peer only when current staleness exceeds
    ``max(floor, mean + 4*stddev)`` of its recent history; a peer is
    declared *dead* at three times that bound.  With fewer than
    ``min_samples`` observations it falls back to the configured floor,
    which matches the fixed-threshold behaviour of earlier revisions.
"""

from __future__ import annotations

import math
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

from .durable_queue import StateLog

__all__ = [
    "ALIVE",
    "SUSPECT",
    "DEAD",
    "LEFT",
    "STATUS_SEVERITY",
    "NodeRecord",
    "MembershipTable",
    "FailureDetector",
]

ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"
LEFT = "left"

#: Equal-incarnation conflicts resolve toward the more severe status.
STATUS_SEVERITY = {ALIVE: 0, SUSPECT: 1, DEAD: 2, LEFT: 3}


class NodeRecord:
    """One gossiped membership record, owned by the node it names."""

    __slots__ = (
        "name", "host", "port", "incarnation", "status", "frontier",
        "shard", "applied",
    )

    def __init__(
        self,
        name: str,
        host: str = "",
        port: int = 0,
        incarnation: int = 1,
        status: str = ALIVE,
        frontier: int = 0,
        shard: Optional[int] = None,
        applied: int = 0,
    ) -> None:
        self.name = name
        self.host = host
        self.port = int(port)
        self.incarnation = int(incarnation)
        self.status = status
        self.frontier = int(frontier)
        self.shard = shard
        #: total MSets the node has applied (its own plus every
        #: peer's) — the staleness signal read fan-out balances on: a
        #: replica whose ``applied`` trails the group's max is lagging
        #: by that many updates.
        self.applied = int(applied)

    def wire(self) -> Dict[str, Any]:
        rec: Dict[str, Any] = {
            "name": self.name,
            "host": self.host,
            "port": self.port,
            "incarnation": self.incarnation,
            "status": self.status,
            "frontier": self.frontier,
            "applied": self.applied,
        }
        if self.shard is not None:
            rec["shard"] = self.shard
        return rec

    @classmethod
    def from_wire(cls, rec: Dict[str, Any]) -> "NodeRecord":
        return cls(
            name=str(rec["name"]),
            host=str(rec.get("host", "")),
            port=int(rec.get("port", 0)),
            incarnation=int(rec.get("incarnation", 1)),
            status=str(rec.get("status", ALIVE)),
            frontier=int(rec.get("frontier", 0)),
            shard=rec.get("shard"),
            applied=int(rec.get("applied", 0)),
        )

    def clone(self) -> "NodeRecord":
        return NodeRecord(
            self.name, self.host, self.port, self.incarnation,
            self.status, self.frontier, self.shard, self.applied,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "NodeRecord(%s@%s:%d inc=%d %s f=%d)" % (
            self.name, self.host, self.port, self.incarnation, self.status, self.frontier,
        )


class MembershipTable:
    """Versioned membership table with SWIM-style merge semantics.

    ``version`` increments on every local mutation; callers can compare
    it cheaply to decide whether anything changed since they last
    looked.  ``merge`` returns the list of record names whose entries
    changed, so the server can react to joins / address changes /
    frontier advances without diffing the whole table.
    """

    def __init__(self, self_name: str, path: Optional[Path] = None) -> None:
        self.self_name = self_name
        self.path = path
        self._records: Dict[str, NodeRecord] = {}
        self.version = 0
        self._log: Optional[StateLog] = None

    # ------------------------------------------------------------------
    # persistence

    def load(self) -> None:
        """Load persisted records and bump our own incarnation for this boot."""
        if self.path is not None:
            self._log = StateLog(self.path)
            for rec in (self._log.value or {}).get("nodes", []):
                node = NodeRecord.from_wire(rec)
                self._records[node.name] = node
        mine = self._records.get(self.self_name)
        if mine is None:
            mine = NodeRecord(self.self_name)
            self._records[self.self_name] = mine
        else:
            mine.incarnation += 1
        mine.status = ALIVE
        self.version += 1
        self._persist()

    def _persist(self) -> None:
        """Write the table; called only when a durable field changed."""
        if self.path is None:
            return
        if self._log is None:
            self._log = StateLog(self.path)
        self._log.write({"nodes": self.wire()})

    def close(self) -> None:
        if self._log is not None:
            self._log.close()
            self._log = None

    # ------------------------------------------------------------------
    # local mutation

    def self_record(self) -> NodeRecord:
        rec = self._records.get(self.self_name)
        if rec is None:
            rec = NodeRecord(self.self_name)
            self._records[self.self_name] = rec
        return rec

    def update_self(
        self,
        host: Optional[str] = None,
        port: Optional[int] = None,
        frontier: Optional[int] = None,
        shard: Optional[int] = None,
        applied: Optional[int] = None,
    ) -> None:
        rec = self.self_record()
        durable = volatile = False
        if host is not None and rec.host != host:
            rec.host = host
            durable = True
        if port is not None and rec.port != int(port):
            rec.port = int(port)
            durable = True
        if shard is not None and rec.shard != shard:
            rec.shard = shard
            durable = True
        if rec.status != ALIVE:
            rec.status = ALIVE
            rec.incarnation += 1
            durable = True
        if frontier is not None and rec.frontier != int(frontier):
            rec.frontier = int(frontier)
            volatile = True
        if applied is not None and rec.applied != int(applied):
            rec.applied = int(applied)
            volatile = True
        if durable or volatile:
            self.version += 1
        if durable:
            self._persist()

    def observe(self, name: str, host: str = "", port: int = 0,
                shard: Optional[int] = None) -> None:
        """Seed a record for a statically configured peer (incarnation 0).

        Incarnation 0 never beats a gossiped record from the node
        itself (those start at 1), so static wiring only fills gaps.
        """
        if name in self._records:
            rec = self._records[name]
            if not rec.host and host:
                rec.host, rec.port = host, int(port)
                self.version += 1
                self._persist()
            return
        self._records[name] = NodeRecord(
            name, host=host, port=port, incarnation=0, shard=shard,
        )
        self.version += 1
        self._persist()

    def set_status(self, name: str, status: str) -> bool:
        """Locally assert a status for a peer (e.g. from failure detection).

        Keeps the peer's incarnation — the assertion rides the current
        incarnation and loses to the peer's own refutation at a higher
        one.  Returns True if the record changed.
        """
        rec = self._records.get(name)
        if rec is None or rec.status == status:
            return False
        if STATUS_SEVERITY.get(status, 0) <= STATUS_SEVERITY.get(rec.status, 0):
            # only escalate at same incarnation; de-escalation needs a
            # higher incarnation from the node itself
            if status != ALIVE:
                return False
            return False
        rec.status = status
        self.version += 1
        self._persist()
        return True

    # ------------------------------------------------------------------
    # merge

    def merge(self, records: Iterable[Dict[str, Any]]) -> List[str]:
        """Merge gossiped records; returns names whose entries changed.

        Self-refutation: if the incoming gossip claims *we* are suspect
        or dead at an incarnation >= ours, bump our incarnation and
        re-assert alive — the refutation dominates the rumor.
        """
        changed: List[str] = []
        # a durable field moved (not only the frontier hints)
        durable = False
        for raw in records:
            try:
                incoming = NodeRecord.from_wire(raw)
            except (KeyError, ValueError, TypeError):
                continue
            if incoming.name == self.self_name:
                mine = self.self_record()
                if (
                    incoming.status in (SUSPECT, DEAD)
                    and incoming.incarnation >= mine.incarnation
                ):
                    mine.incarnation = incoming.incarnation + 1
                    mine.status = ALIVE
                    changed.append(mine.name)
                    durable = True
                continue
            current = self._records.get(incoming.name)
            if current is None:
                self._records[incoming.name] = incoming
                changed.append(incoming.name)
                durable = True
                continue
            if incoming.incarnation > current.incarnation:
                self._records[incoming.name] = incoming
                if incoming.frontier < current.frontier:
                    incoming.frontier = current.frontier
                if incoming.applied < current.applied:
                    incoming.applied = current.applied
                changed.append(incoming.name)
                durable = True
            elif incoming.incarnation == current.incarnation:
                rec_changed = False
                if (
                    STATUS_SEVERITY.get(incoming.status, 0)
                    > STATUS_SEVERITY.get(current.status, 0)
                ):
                    current.status = incoming.status
                    rec_changed = durable = True
                if incoming.frontier > current.frontier:
                    current.frontier = incoming.frontier
                    rec_changed = True
                if incoming.applied > current.applied:
                    current.applied = incoming.applied
                    rec_changed = True
                if incoming.host and (current.host, current.port) != (
                    incoming.host, incoming.port,
                ):
                    current.host, current.port = incoming.host, incoming.port
                    rec_changed = durable = True
                if rec_changed:
                    changed.append(current.name)
            # lower incarnation: stale rumor, ignore
        if changed:
            self.version += 1
        if durable:
            self._persist()
        return changed

    # ------------------------------------------------------------------
    # views

    def get(self, name: str) -> Optional[NodeRecord]:
        return self._records.get(name)

    def records(self) -> List[NodeRecord]:
        return [rec.clone() for rec in self._records.values()]

    def wire(self) -> List[Dict[str, Any]]:
        return [rec.wire() for rec in self._records.values()]

    def address(self, name: str) -> Optional[Tuple[str, int]]:
        rec = self._records.get(name)
        if rec is None or not rec.host or not rec.port:
            return None
        return (rec.host, rec.port)

    def member_names(self, include_left: bool = False) -> List[str]:
        return sorted(
            name
            for name, rec in self._records.items()
            if include_left or rec.status != LEFT
        )

    def active_count(self) -> int:
        """Members not known to have permanently left the group."""
        return sum(1 for rec in self._records.values() if rec.status != LEFT)

    def frontier_lag(self, local_frontiers: Dict[str, int]) -> int:
        """Updates gossiped to exist that ``local_frontiers`` lacks.

        For every member, its record's own-update ``frontier`` is
        compared with the local receive frontier for that member; the
        positive gaps sum to the number of updates this node can
        *prove* it has not yet received — the staleness estimate, in
        the paper's update-count units, that query replies report.
        """
        lag = 0
        for name, rec in self._records.items():
            if name == self.self_name or rec.status == LEFT:
                continue
            gap = rec.frontier - int(local_frontiers.get(name, 0))
            if gap > 0:
                lag += gap
        return lag

    def __len__(self) -> int:
        return len(self._records)


class FailureDetector:
    """Adaptive suspicion-then-dead detector over heartbeat arrivals.

    ``heartbeat(peer, now)`` records an arrival.  ``timeout(peer)``
    returns the current adaptive suspicion bound for that peer:
    ``max(floor, mean + 4*stddev)`` over the recent inter-arrival
    window once at least ``min_samples`` gaps have been observed, else
    just ``floor``.  ``suspect(peer, now)`` / ``dead(peer, now)`` test
    staleness against 1x / ``dead_multiple``x that bound.
    """

    def __init__(
        self,
        floor: float,
        window: int = 64,
        min_samples: int = 8,
        dead_multiple: float = 3.0,
    ) -> None:
        self.floor = float(floor)
        self.min_samples = int(min_samples)
        self.dead_multiple = float(dead_multiple)
        self._window = int(window)
        self._gaps: Dict[str, Deque[float]] = {}
        self._last: Dict[str, float] = {}

    def heartbeat(self, peer: str, now: float) -> None:
        last = self._last.get(peer)
        self._last[peer] = now
        if last is None:
            return
        gap = now - last
        if gap <= 0:
            return
        self._gaps.setdefault(peer, deque(maxlen=self._window)).append(gap)

    def forget(self, peer: str) -> None:
        self._gaps.pop(peer, None)
        self._last.pop(peer, None)

    def last_seen(self, peer: str) -> Optional[float]:
        return self._last.get(peer)

    def timeout(self, peer: str) -> float:
        gaps = self._gaps.get(peer)
        if not gaps or len(gaps) < self.min_samples:
            return self.floor
        n = len(gaps)
        mean = sum(gaps) / n
        var = sum((g - mean) ** 2 for g in gaps) / n
        return max(self.floor, mean + 4.0 * math.sqrt(var))

    def staleness(self, peer: str, now: float) -> float:
        last = self._last.get(peer)
        if last is None:
            return 0.0
        return max(0.0, now - last)

    def suspect(self, peer: str, now: float) -> bool:
        last = self._last.get(peer)
        if last is None:
            return False
        return (now - last) > self.timeout(peer)

    def dead(self, peer: str, now: float) -> bool:
        last = self._last.get(peer)
        if last is None:
            return False
        return (now - last) > self.dead_multiple * self.timeout(peer)
