"""Asyncio TCP replica server: one site of a live replicated system.

A :class:`ReplicaServer` hosts a site's store and divergence-control
engine (:mod:`repro.live.engine`) and speaks the length-prefixed JSON
protocol (:mod:`repro.live.protocol`) on a single listening socket,
serving two kinds of connections:

* **clients** submit epsilon-transactions — ``update`` and ``query``
  verbs plus introspection (``values``, ``stats``, ``ping``);
* **peers** deliver update MSets over per-channel durable queues and
  receive acknowledgements.

Durability contract (the paper's stable queues, live): an update ET is
acknowledged to its client only after its MSet has been appended to the
site's local durable log *and* every outbound channel log.  A replica
killed and restarted replays its inbound logs through the engine and
resumes its outbound channels, so acknowledged updates are never lost
and peers' retries are deduplicated by channel sequence number.

Propagation hot path (batched + pipelined): each peer channel drains
its backlog into multi-MSet ``mset-batch`` frames (up to ``batch_size``
MSets each, written as one buffered burst) and keeps up to ``window``
batches in flight instead of stop-and-waiting on each acknowledgement.
Acks are *cumulative* — ``ack.seq`` covers every channel sequence
number ``<= seq`` — so one reply retires a whole window and the
outbox truncates in one step.  The receive side records a batch with
one group-commit append (single write + fsync) and applies it under
one engine-lock acquisition; backpressure is structural: a receiver
does not read the next frame from a connection until the current
batch is durable and applied, so a fast sender fills TCP flow control
(bounded by ``window`` batches) instead of the receiver's memory.

Wire codec negotiation (``wire`` option): with the default
``wire="bin1"`` a channel sender advertises the binary codec on its
``peer-hello``; a receiver that speaks it replies ``hello-ack`` and
both directions switch — batch frames become struct-packed envelopes
carrying each MSet's canonical payload bytes exactly as they were
encoded when the update was first accepted (zero re-encode relay:
the outbox caches the blob, re-sends forward it verbatim, and the
receiver splices the same bytes into its inbox log), and cumulative
acks shrink to a 13-byte struct.  A peer that never answers the
advert — an older build, or one running ``wire="json"`` — keeps the
JSON framing on that connection with no configuration; the two
codecs interoperate freely within one cluster because negotiation is
per-connection and frames are self-describing.

Failure detection and graceful degradation: channel loops double as a
heartbeat path — any acknowledgement or heartbeat reply marks the peer
*alive*; a peer silent for longer than ``suspect_after`` seconds is
*suspected*, the server enters **degraded mode**, and ``epsilon = 0``
queries fail fast with a typed :class:`Unavailable` error instead of
blocking until their timeout.  Epsilon-bounded queries keep answering
throughout (the paper's availability claim), with their inconsistency
accounting intact.  Peer health, per-peer staleness, and outbound
backlog are exposed via the ``stats`` verb.

Fault injection (:mod:`repro.live.faults`) plugs into the channel
loops: an installed :class:`~repro.live.faults.FaultPlan` can drop,
delay, duplicate, and reorder outbound peer frames or sever directed
links entirely, without touching the wire format.

Snapshots, compaction, and anti-entropy rejoin: the server
periodically (``snapshot_interval``) — or on demand (``snapshot``
verb) — persists a versioned, checksummed image of its applied state
(:mod:`repro.live.snapshot`) capturing the engine checkpoint and
every channel's applied frontier in one atomic cut, then compacts the
durable logs below those frontiers.  A replica that comes back from a
long outage or a wiped disk catches up by *anti-entropy*: it fetches
a peer's snapshot in chunks (``snapshot-fetch`` verb), installs it
when the snapshot dominates its own frontiers, and drains only the
log tail above the snapshot from the normal channels.  Senders repair
regressed receivers symmetrically — a cumulative ack (or heartbeat
reply) below the outbox frontier rewinds the channel from the log
when the records survive, or sends a ``peer-reset`` frame directing
the receiver to snapshot catch-up when they were compacted away.
While catching up the replica refuses updates and ``epsilon = 0``
queries with typed errors; epsilon-bounded queries keep answering
from the (stale but bounded) local state.

Backpressure: when any peer channel's backlog exceeds
``backlog_limit``, new client updates are refused with a typed
``OVERLOADED`` error instead of growing the durable queue without
bound.
"""

from __future__ import annotations

import asyncio
import json
import logging
import pathlib
import random
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Set, Tuple

from ..core.operations import is_write
from ..obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    NULL_REGISTRY,
    Registry,
)
from ..obs.trace import TraceRecorder
from ..replica.mset import MSet, MSetKind
from .durable_queue import DurableInbox, DurableOutbox, StateLog
from .election import ElectionState
from .engine import LiveEngine, QueryTimeout, make_engine
from .faults import FaultPlan
from .gossip import DEAD, LEFT, SUSPECT, FailureDetector, MembershipTable
from .protocol import (
    MAX_FRAME,
    SUPPORTED_WIRES,
    WIRE_BIN1,
    WIRE_JSON,
    ProtocolError,
    decode_batch_frame,
    decode_mset,
    decode_ops,
    decode_spec,
    encode_batch_frame,
    encode_bin_ack_frame,
    encode_bin_batch_frame,
    encode_frame,
    encode_mset,
    negotiate_wire,
    payload_blob,
    read_frame,
    write_encoded,
    write_frame,
)
from .shard import WrongShard, key_shard
from .snapshot import (
    SnapshotError,
    SnapshotStore,
    open_snapshot,
    seal_snapshot,
    snapshot_bytes,
)

__all__ = [
    "ReplicaServer",
    "Unavailable",
    "Overloaded",
    "SessionStale",
    "Compensated",
    "WrongShard",
    "LOCAL_CHANNEL",
]

logger = logging.getLogger(__name__)

#: inbox channel name for the site's own updates.
LOCAL_CHANNEL = "_local"


class Unavailable(RuntimeError):
    """A request that needs full replica agreement cannot be served
    because one or more peers are unreachable (degraded mode).

    Carried to clients as error code ``UNAVAILABLE`` so they can
    distinguish honest refusal from transient failures and retry
    elsewhere or relax their epsilon budget.
    """

    code = "UNAVAILABLE"


class Overloaded(RuntimeError):
    """A client update was refused because a peer channel's durable
    backlog exceeds the configured high-water mark.

    Carried to clients as error code ``OVERLOADED``: the replica is
    alive but shedding write load instead of growing its durable
    queues without bound; retry later or at a less loaded replica.
    """

    code = "OVERLOADED"


class SessionStale(RuntimeError):
    """A session-token read was refused because this replica's applied
    frontiers lag the token — serving it would violate the session's
    read-your-writes / monotonic-reads guarantee.

    Carried to clients as error code ``SESSION_STALE``; the response
    ships this replica's current frontier vector (``frontiers``) so
    the client can pick a fresher replica instead of guessing.
    """

    code = "SESSION_STALE"

    def __init__(self, message: str, frontiers: Dict[str, int]) -> None:
        super().__init__(message)
        self.extra = {"frontiers": frontiers}


class Compensated(RuntimeError):
    """An optimistically applied update was undone by COMPE's backward
    recovery (an ABORT decision compensated its effects).

    Carried to clients as error code ``COMPENSATED``; the response
    ships the undone tids (``compensated``) so the caller knows
    exactly which updates were reverted — an honest "briefly visible,
    then removed", never a silent drop.
    """

    code = "COMPENSATED"

    def __init__(self, message: str, compensated: Sequence[Any]) -> None:
        super().__init__(message)
        self.extra = {"compensated": list(compensated)}


#: bytes of snapshot data served per ``snapshot-fetch`` chunk — held
#: well under MAX_FRAME so the response frame (chunk + JSON envelope)
#: always fits the existing framing.
SNAPSHOT_CHUNK = 1 << 20

#: seconds an advertising channel sender holds data waiting for the
#: receiver's hello-ack verdict.  New receivers always reply (accept or
#: explicit "json" refusal), so the deadline only bites against
#: receivers that predate hello-ack — which then stay JSON, once per
#: connection.
HELLO_ACK_TIMEOUT = 0.25


class ReplicaServer:
    """One live replica site serving ESR protocols over TCP."""

    def __init__(
        self,
        name: str,
        peers: Sequence[str],
        data_dir: pathlib.Path,
        method: str = "commu",
        fsync: bool = False,
        retry_base: float = 0.05,
        retry_max: float = 1.0,
        query_timeout: float = 30.0,
        commit_timeout: float = 30.0,
        heartbeat_interval: float = 0.25,
        suspect_after: float = 0.75,
        ack_timeout: float = 2.0,
        batch_size: int = 32,
        window: int = 4,
        wire: str = WIRE_BIN1,
        fsync_interval: float = 0.0,
        snapshot_interval: float = 0.0,
        backlog_limit: int = 0,
        catchup: bool = True,
        catchup_lag: int = 0,
        faults: Optional[FaultPlan] = None,
        observability: bool = True,
        registry: Optional[Registry] = None,
        trace: Optional[TraceRecorder] = None,
        shard: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.peer_names = tuple(sorted(p for p in peers if p != name))
        #: shard ownership, when this replica serves one partition of a
        #: sharded keyspace: ``{"index": i, "count": n, "epoch": e,
        #: "accepting": bool}``.  ``None`` means the replica owns the
        #: whole keyspace (the unsharded deployment) and no ownership
        #: checks run.  A booting migration target sets
        #: ``accepting=False`` and refuses traffic until ``shard-adopt``.
        if shard is not None:
            self.shard_index = int(shard["index"])
            self.shard_count = int(shard["count"])
            self.shard_epoch = int(shard.get("epoch", 0))
            self._shard_accepting = bool(shard.get("accepting", True))
        else:
            self.shard_index = None
            self.shard_count = None
            self.shard_epoch = 0
            self._shard_accepting = True
        #: True once this group was fenced out of its shard: every
        #: update/query is answered WRONG_SHARD with the newest map.
        self._shard_retired = False
        #: newest shard map this replica has been told about (the
        #: hint carried on WRONG_SHARD refusals).
        self._shard_map: Optional[Dict[str, Any]] = None
        self.data_dir = pathlib.Path(data_dir)
        self.method = method
        self.fsync = fsync
        #: max MSets coalesced into one mset-batch frame.
        self.batch_size = max(1, int(batch_size))
        #: max batch frames in flight per channel before waiting on acks.
        self.window = max(1, int(window))
        #: best wire codec this replica negotiates on peer channels:
        #: ``"bin1"`` (default) advertises the binary framing and
        #: upgrades per-connection when the peer answers; ``"json"``
        #: never advertises nor answers — the pure legacy behavior,
        #: used for interop tests and as an escape hatch.
        if wire not in (WIRE_BIN1, WIRE_JSON):
            raise ValueError("unknown wire codec %r" % (wire,))
        self.wire = wire
        #: min seconds between fsyncs on each durable log (0 = every
        #: group append) — only meaningful with ``fsync=True``.
        self.fsync_interval = fsync_interval
        #: seconds between automatic snapshots (0 = manual only).
        self.snapshot_interval = float(snapshot_interval)
        #: per-channel durable backlog above which client updates are
        #: refused with OVERLOADED (0 = unlimited).
        self.backlog_limit = max(0, int(backlog_limit))
        #: False disables anti-entropy (startup wipe probe, peer-reset
        #: handling): a regressed replica then recovers by channel
        #: rewind / full log replay only — the benchmark baseline.
        self.catchup_enabled = bool(catchup)
        #: when > 0, a receiver more than this many records behind is
        #: sent a peer-reset hint (snapshot catch-up) even while the
        #: log could still serve it — set it well above the largest
        #: backlog a healthy channel reaches, or bursts will trigger
        #: needless (if harmless) snapshot installs.
        self.catchup_lag = max(0, int(catchup_lag))
        self.retry_base = retry_base
        self.retry_max = retry_max
        self.query_timeout = query_timeout
        self.commit_timeout = commit_timeout
        self.heartbeat_interval = heartbeat_interval
        self.suspect_after = suspect_after
        self.ack_timeout = ack_timeout
        self.faults = faults
        #: one metrics registry + trace recorder per replica.  The
        #: registry takes the live runtime's single lock; ``site`` is
        #: stamped on every sample so scrapes across a cluster merge
        #: cleanly.  ``observability=False`` swaps in no-op instruments
        #: (the benchmark's metrics-off baseline).
        if registry is not None:
            self.registry = registry
        elif observability:
            # ``shard`` joins ``site`` as a constant label so scrapes
            # across a sharded cluster split per-shard health (epsilon
            # gauges, channel backlog, ack latency) without relabeling.
            const_labels = {"site": name}
            if self.shard_index is not None:
                const_labels["shard"] = str(self.shard_index)
            self.registry = Registry(
                threadsafe=True, const_labels=const_labels
            )
        else:
            self.registry = NULL_REGISTRY
        if trace is not None:
            self.trace = trace
        else:
            self.trace = TraceRecorder(site=name, enabled=observability)
        self.engine: LiveEngine = make_engine(method, name, self.peer_names)
        self.engine.bind_observability(self.registry, self.trace)
        self._init_instruments()
        #: the site hosting the central order server (ORDUP).
        self.order_site = sorted((name,) + self.peer_names)[0]
        self.peer_addrs: Dict[str, Tuple[str, int]] = {}
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._running = False
        self.outboxes: Dict[str, DurableOutbox] = {}
        self.inboxes: Dict[str, DurableInbox] = {}
        self._outbox_events: Dict[str, asyncio.Event] = {}
        self._channel_tasks: List[asyncio.Task] = []
        self._conn_tasks: Set[asyncio.Task] = set()
        #: peer -> monotonic instant of last evidence it is alive.
        self.peer_last_seen: Dict[str, float] = {}
        #: peer -> consecutive channel connect/send failures.
        self.channel_failures: Dict[str, int] = {}
        #: peer -> wire codec negotiated on the current channel
        #: session ("json" until a hello-ack upgrades it).
        self._peer_wire: Dict[str, str] = {}
        #: peer -> rolling batch-acknowledgement latencies (seconds).
        self._ack_latencies: Dict[str, Deque[float]] = {}
        #: peer -> total MSets cumulatively acknowledged since boot.
        self.acked_msets: Dict[str, int] = {}
        #: notified whenever the drain condition may have changed; the
        #: ``settle`` verb waits here instead of clients busy-polling.
        self._drain_cond = asyncio.Condition()
        #: (peer, channel seq) -> local update tid, for ack tracking.
        self._seq_tid: Dict[Tuple[str, int], Any] = {}
        #: local update tid -> peers whose durable ack is outstanding.
        self._unacked: Dict[Any, Set[str]] = {}
        #: local update tid -> written keys (lock-counter release).
        self._local_keys: Dict[Any, Tuple[str, ...]] = {}
        #: tid -> future resolved when the MSet applies locally (ORDUP).
        self._apply_futures: Dict[Any, asyncio.Future] = {}
        #: tid -> future resolved when all peers acked (sync commit).
        self._full_ack_futures: Dict[Any, asyncio.Future] = {}
        self._order_conn: Optional[
            Tuple[asyncio.StreamReader, asyncio.StreamWriter]
        ] = None
        self._order_lock = asyncio.Lock()
        self._order_counter = 0
        #: the sequencer's last grant (opened in ``bind``).
        self._order_log: Optional[StateLog] = None
        #: which peer the cached order connection dials (re-dial on
        #: leader change).
        self._order_target: Optional[str] = None
        #: gossiped membership table + adaptive failure detector.
        self.membership = MembershipTable(
            name, self.data_dir / "membership.log"
        )
        self.detector = FailureDetector(floor=suspect_after)
        #: durable election state for the ORDUP sequencer.
        self.election = ElectionState(
            self.data_dir / "election.log", fsync
        )
        #: peer -> (last epoch it gossiped, monotonic instant) — the
        #: leader's gossip lease: grants require a majority of fresh
        #: acks at the leader's own epoch.
        self._peer_epochs: Dict[str, Tuple[int, float]] = {}
        #: ORDUP with peers: True once the boot epoch probe confirmed
        #: we are not resurrecting with a stale epoch.  Grants are
        #: refused until then.
        self._epoch_synced = not (self.engine.needs_order and self.peer_names)
        self._election_task: Optional[asyncio.Task] = None
        #: serializes campaigns (one at a time per replica).
        self._campaign_lock = asyncio.Lock()
        #: deterministic per-server jitter stream (heartbeat spread).
        self._rng = random.Random(name)
        #: peer -> currently suspected? (suspicion-transition counting).
        self._suspected_state: Dict[str, bool] = {}
        #: True once start_channels ran (gossip joins then spawn their
        #: channel loops immediately instead of waiting for it).
        self._channels_started = False
        self._monitor_task: Optional[asyncio.Task] = None
        #: last degraded() value the monitor observed (gauge flips).
        self._last_degraded = False
        #: serializes record-then-apply against snapshot capture: a
        #: snapshot taken between an inbox record and its engine apply
        #: would claim a frontier whose effects it does not contain.
        self._apply_lock = asyncio.Lock()
        #: serializes snapshot capture/compaction/install.
        self._snapshot_lock = asyncio.Lock()
        self._snapshot_store = SnapshotStore(
            self.data_dir / "snapshot.json"
        )
        #: frontiers of the last persisted snapshot (stats/compaction).
        self._snapshot_frontiers: Dict[str, int] = {}
        self._last_snapshot_at: Optional[float] = None
        #: True while installing a peer snapshot; folded into
        #: degraded(): strict queries and updates are refused.
        self._catching_up = False
        self._catchup_task: Optional[asyncio.Task] = None
        #: completed snapshot catch-up installs since boot.
        self.catchup_installs = 0
        #: peers owed a peer-reset frame by their channel sender.
        self._reset_peers: Set[str] = set()
        #: precomputed verb dispatch — building this dict per request
        #: was a measurable cost on the receive hot path.
        # Precomputed verb dispatch: built once instead of a dict
        # literal per request.  Values are attribute names (resolved
        # with ``getattr`` at call time) so per-instance handler
        # overrides still take effect.
        self._verb_handlers = {
            "update": "_handle_update",
            "decide": "_handle_decide",
            "query": "_handle_query",
            "values": "_handle_values",
            "stats": "_handle_stats",
            "settle": "_handle_settle",
            "order": "_handle_order",
            "elect": "_handle_elect",
            "ping": "_handle_ping",
            "metrics": "_handle_metrics",
            "snapshot": "_handle_snapshot",
            "snapshot-fetch": "_handle_snapshot_fetch",
            "shard-info": "_handle_shard_info",
            "shard-retire": "_handle_shard_retire",
            "shard-adopt": "_handle_shard_adopt",
            "fetch-install": "_handle_fetch_install",
        }

    def _init_instruments(self) -> None:
        """Register this replica's metric families (see OBSERVABILITY.md)."""
        reg = self.registry
        self.m_channel_backlog = reg.gauge(
            "channel_backlog",
            "unacknowledged MSets queued on one outbound peer channel",
            labels=("peer",),
        )
        self.m_peer_staleness = reg.gauge(
            "peer_staleness_seconds",
            "seconds since the last evidence a peer is alive",
            labels=("peer",),
        )
        self.m_peer_alive = reg.gauge(
            "peer_alive",
            "1 while the peer passes the heartbeat deadline, else 0",
            labels=("peer",),
        )
        self.m_acked_msets = reg.counter(
            "channel_acked_msets_total",
            "MSets cumulatively acknowledged by one peer since boot",
            labels=("peer",),
        )
        self.m_ack_latency = reg.histogram(
            "ack_latency_seconds",
            "batch send-to-cumulative-ack latency per peer channel",
            labels=("peer",),
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self.m_batch_msets = reg.histogram(
            "batch_msets",
            "MSets coalesced into each outbound propagation frame",
            buckets=DEFAULT_SIZE_BUCKETS,
        )
        self.m_channel_errors = reg.counter(
            "channel_errors_total",
            "peer channel sessions ended by a transport/protocol error",
            labels=("peer",),
        )
        self.m_frames_dropped = reg.counter(
            "frames_dropped_total",
            "inbound frames dropped instead of processed",
            labels=("reason",),
        )
        self.m_degraded = reg.gauge(
            "degraded",
            "1 while any peer is suspected (degraded mode), else 0",
        )
        self.m_degraded_transitions = reg.counter(
            "degraded_transitions_total",
            "times this replica entered or left degraded mode",
        )
        self.m_unacked = reg.gauge(
            "unacked_updates",
            "local updates whose peer acknowledgements are outstanding",
        )
        self.m_log_fsync = reg.counter(
            "log_fsync_total",
            "fsyncs performed on one durable channel log",
            labels=("log",),
        )
        self.m_log_fsync_seconds = reg.counter(
            "log_fsync_seconds_total",
            "cumulative fsync latency on one durable channel log",
            labels=("log",),
        )
        self.m_log_bytes = reg.counter(
            "log_bytes_total",
            "bytes appended to one durable channel log",
            labels=("log",),
        )
        self.m_requests = reg.counter(
            "requests_total",
            "client requests served, by verb and outcome",
            labels=("verb", "outcome"),
        )
        self.m_snapshots = reg.counter(
            "snapshots_total",
            "site snapshots persisted (periodic, manual, or install)",
            labels=("kind",),
        )
        self.m_snapshot_bytes = reg.histogram(
            "snapshot_size_bytes",
            "serialized size of each persisted snapshot",
            buckets=(
                256, 1024, 4096, 16384, 65536,
                262144, 1048576, 4194304, 16777216,
            ),
        )
        self.m_snapshot_seconds = reg.histogram(
            "snapshot_duration_seconds",
            "wall time to capture, persist, and compact one snapshot",
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self.m_log_compactions = reg.counter(
            "log_compactions_total",
            "compaction rewrites performed on one durable channel log",
            labels=("log",),
        )
        self.m_log_compacted = reg.counter(
            "log_compacted_records_total",
            "records dropped from one durable channel log by compaction",
            labels=("log",),
        )
        self.m_updates_rejected = reg.counter(
            "updates_rejected_total",
            "client updates refused before durability, by reason",
            labels=("reason",),
        )
        self.m_session_stale = reg.counter(
            "session_stale_total",
            "session reads refused because applied frontiers lag the token",
        )
        self.m_catchup = reg.counter(
            "catchup_total",
            "anti-entropy catch-up attempts, by outcome",
            labels=("outcome",),
        )
        self.m_channel_rewinds = reg.counter(
            "channel_rewinds_total",
            "outbound channels rewound for a regressed receiver",
            labels=("peer",),
        )
        self.m_elections = reg.counter(
            "elections_total",
            "sequencer election campaigns started here, by outcome",
            labels=("outcome",),
        )
        self.m_leader_epoch = reg.gauge(
            "leader_epoch",
            "highest sequencer leadership epoch adopted at this replica",
        )
        self.m_membership_size = reg.gauge(
            "membership_size",
            "member records in the gossiped table (left excluded)",
        )
        self.m_suspicions = reg.counter(
            "suspicions_total",
            "times the adaptive detector newly suspected one peer",
            labels=("peer",),
        )
        self.m_wire_negotiations = reg.counter(
            "wire_negotiations_total",
            "hello negotiations completed on inbound connections, "
            "by resulting codec",
            labels=("wire_codec",),
        )
        self.m_propagation_frames = reg.counter(
            "propagation_frames_total",
            "outbound propagation batch frames written, by codec",
            labels=("peer", "wire_codec"),
        )
        self.m_frames_relayed = reg.counter(
            "frames_relayed_total",
            "MSets forwarded as already-encoded payload bytes "
            "(zero re-encode relay)",
            labels=("peer",),
        )

    # -- lifecycle -----------------------------------------------------------

    async def bind(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Open logs, recover state, and start listening.

        Returns the bound port (useful with ``port=0``).  Channels to
        peers start separately (:meth:`start_channels`) once peer
        addresses are known.
        """
        self.data_dir.mkdir(parents=True, exist_ok=True)
        for peer in self.peer_names:
            self.outboxes[peer] = DurableOutbox(
                self.data_dir / "outbox" / ("%s.log" % peer),
                self.fsync,
                self.fsync_interval,
            )
            self.inboxes[peer] = DurableInbox(
                self.data_dir / "inbox" / ("%s.log" % peer),
                self.fsync,
                self.fsync_interval,
            )
        self.inboxes[LOCAL_CHANNEL] = DurableInbox(
            self.data_dir / "inbox" / ("%s.log" % LOCAL_CHANNEL),
            self.fsync,
            self.fsync_interval,
        )
        self._order_log = StateLog(self.data_dir / "order.log", self.fsync)
        if self._order_log.value is not None:
            self._order_counter = int(self._order_log.value["next"])
        self.membership.load()
        self.election.load()
        if self.election.epoch > 0 and hasattr(self.engine, "adopt_epoch"):
            self.engine.adopt_epoch(self.election.epoch, self.election.base)
        self.m_leader_epoch.set(self.election.epoch)
        # Method-owned durable state (COMPE's compensation log) opens
        # before recovery so replay finds its dedup maps loaded.
        self.engine.attach_storage(
            self.data_dir, self.fsync, self.fsync_interval
        )
        await self._recover()
        max_seen = getattr(self.engine, "max_order_seen", None)
        if max_seen is not None:
            # Never re-grant a token this replica already holds, even
            # if the grant's own record was lost with an unsynced tail.
            self._order_counter = max(self._order_counter, max_seen())
        self._running = True
        self._server = await asyncio.start_server(
            self._on_connection, host, port
        )
        self.host = host
        self.port = self._server.sockets[0].getsockname()[1]
        self.membership.update_self(
            host=host, port=self.port, shard=self.shard_index,
        )
        self.m_membership_size.set(self.membership.active_count())
        return self.port

    async def _recover(self) -> None:
        """Restore the persisted snapshot (if any), then replay the
        durable log tails above it through the engine.

        Without a snapshot this is the original full-log replay.  With
        one, the engine restores the checkpoint image first and only
        records *above* the snapshot's per-channel frontiers replay —
        including records a crash caught between snapshot persistence
        and log compaction (they are skipped by frontier, so nothing
        double-applies).  Inboxes that lag the snapshot (a crash
        between snapshot install and the frontier resets) are aligned
        up to it.
        """
        snap_frontiers: Dict[str, int] = {}
        snap = self._snapshot_store.load()
        if snap is not None and snap.get("method") == self.method:
            snap_frontiers = {
                src: int(seq)
                for src, seq in snap.get("frontiers", {}).items()
            }
            await self.engine.restore(snap["engine"])
            self._snapshot_frontiers = dict(snap_frontiers)
            self._last_snapshot_at = self.engine.clock()
            for src, inbox in self.inboxes.items():
                floor = snap_frontiers.get(src, 0)
                if inbox.frontier < floor:
                    inbox.reset_to(floor)
        for src, inbox in sorted(self.inboxes.items()):
            floor = snap_frontiers.get(src, 0)
            for seq, payload in inbox.replay():
                if seq <= floor:
                    continue  # already inside the snapshot image
                mset = decode_mset(payload["mset"])
                await self.engine.accept(mset, local=(src == LOCAL_CHANNEL))
        # Repair outbox lockstep: a crash between the local-channel
        # record and the per-peer channel appends leaves an outbox
        # missing the newest local records — re-append them from the
        # local log so every channel carries every local update (the
        # channel seq == local tid seq invariant the snapshot frontier
        # mapping relies on).
        local_inbox = self.inboxes[LOCAL_CHANNEL]
        local_tail = {seq: payload for seq, payload in local_inbox.replay()}
        for peer, outbox in self.outboxes.items():
            if outbox._seq >= local_inbox.frontier:
                continue
            missing = [
                local_tail[seq]
                for seq in range(outbox._seq + 1, local_inbox.frontier + 1)
                if seq in local_tail
            ]
            if len(missing) == local_inbox.frontier - outbox._seq:
                outbox.append_many(missing)
            else:
                # The missing records were compacted below the local
                # log's floor — they are covered by the persisted
                # snapshot, which is exactly what a regressed receiver
                # will be served.
                outbox.reset_to(local_inbox.frontier)
        # Rebuild ack tracking from the outbound backlogs.
        acked_local: Set[Any] = set()
        keys_of: Dict[Any, Tuple[str, ...]] = {}
        replayed_local: Set[Any] = set()
        for seq, payload in local_inbox.replay():
            tid = payload["mset"]["tid"]
            keys_of[tid] = tuple(
                {op["key"] for op in payload["mset"]["ops"]}
            )
            if seq > snap_frontiers.get(LOCAL_CHANNEL, 0):
                acked_local.add(tid)
                replayed_local.add(tid)
        for peer, outbox in self.outboxes.items():
            for seq, payload in outbox.pending():
                tid = payload["mset"]["tid"]
                self._seq_tid[(peer, seq)] = tid
                self._unacked.setdefault(tid, set()).add(peer)
                self._local_keys[tid] = keys_of.get(
                    tid,
                    tuple({op["key"] for op in payload["mset"]["ops"]}),
                )
                acked_local.discard(tid)
        # Local updates already acked by every peer before the crash:
        # release their lock-counters (replay re-raised them).
        for tid in acked_local:
            await self.engine.fully_acked(tid, keys_of.get(tid, ()))
        # The inverse hole: local updates applied *inside* the snapshot
        # image (so replay never re-raised their counters) but still
        # awaiting a peer ack — re-raise so origin-site queries keep
        # observing the cluster-wide in-flight inconsistency.
        for tid, peers_waiting in self._unacked.items():
            if peers_waiting and tid not in replayed_local:
                await self.engine.hold_counters(
                    tid, self._local_keys.get(tid, ())
                )

    def set_peers(self, addrs: Dict[str, Tuple[str, int]]) -> None:
        """Install (or update) peer addresses for the channel loops."""
        for peer, addr in addrs.items():
            if peer != self.name:
                self.peer_addrs[peer] = tuple(addr)
                self.membership.observe(peer, addr[0], int(addr[1]))
        self.m_membership_size.set(self.membership.active_count())
        self._order_conn = None  # re-resolve on next order request
        self._order_target = None

    def start_channels(self) -> None:
        """Launch one durable sender loop per peer channel."""
        if self._channel_tasks:
            return
        self._channels_started = True
        now = self.engine.clock()
        for peer in self.peer_names:
            # Grace period: a freshly booted cluster is not "degraded"
            # before the first heartbeat round had a chance to land.
            self.peer_last_seen.setdefault(peer, now)
            self._outbox_events[peer] = asyncio.Event()
            self._outbox_events[peer].set()
            task = asyncio.ensure_future(self._channel_loop(peer))
            task.add_done_callback(self._note_task_crash)
            self._channel_tasks.append(task)
        if self._monitor_task is None:
            self._monitor_task = asyncio.ensure_future(
                self._degraded_monitor()
            )
        if self.snapshot_interval > 0:
            task = asyncio.ensure_future(self._snapshot_loop())
            task.add_done_callback(self._note_task_crash)
            self._channel_tasks.append(task)
        if self.engine.needs_order and self.peer_names:
            if self._election_task is None:
                self._election_task = asyncio.ensure_future(
                    self._election_loop()
                )
                self._election_task.add_done_callback(self._note_task_crash)
            if not self._epoch_synced:
                task = asyncio.ensure_future(self._epoch_probe())
                task.add_done_callback(self._note_task_crash)
                self._channel_tasks.append(task)
        if (
            self.catchup_enabled
            and self.peer_names
            and self.engine.applied_count == 0
            and all(box.frontier == 0 for box in self.inboxes.values())
            and not self._snapshot_store.exists()
        ):
            # Empty engine, empty logs, no snapshot: either a fresh
            # cluster boot or a wiped disk.  Ask the peers which.
            task = asyncio.ensure_future(self._startup_probe())
            task.add_done_callback(self._note_task_crash)
            self._channel_tasks.append(task)

    async def stop(self) -> None:
        """Stop serving.  Durable state is already on disk (the
        stable queues write through), so stop doubles as a crash."""
        self._running = False
        if self._server is not None:
            self._server.close()
            try:
                await self._server.wait_closed()
            except (OSError, ConnectionError) as exc:
                logger.debug(
                    "%s: listener close raised %r", self.name, exc
                )
            self._server = None
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            self._channel_tasks.append(self._monitor_task)
            self._monitor_task = None
        if self._catchup_task is not None:
            self._catchup_task.cancel()
            self._channel_tasks.append(self._catchup_task)
            self._catchup_task = None
        if self._election_task is not None:
            self._election_task.cancel()
            self._channel_tasks.append(self._election_task)
            self._election_task = None
        for task in self._channel_tasks + list(self._conn_tasks):
            task.cancel()
        for task in self._channel_tasks + list(self._conn_tasks):
            try:
                await task
            except asyncio.CancelledError:
                pass
            except Exception as exc:
                # A task that died with a real error before the cancel
                # landed: teardown proceeds, but the error is counted
                # and logged instead of silently eaten.
                self.m_frames_dropped.labels(reason="stop_error").inc()
                logger.debug(
                    "%s: task %r raised during stop: %r",
                    self.name, task, exc,
                )
        self._channel_tasks = []
        self._conn_tasks.clear()
        if self._order_conn is not None:
            self._order_conn[1].close()
            self._order_conn = None
        for box in list(self.outboxes.values()) + list(self.inboxes.values()):
            box.close()
        if self._order_log is not None:
            self._order_log.close()
        self.election.close()
        self.membership.close()
        self.engine.close()
        for fut in list(self._apply_futures.values()) + list(
            self._full_ack_futures.values()
        ):
            if not fut.done():
                fut.cancel()
        self._apply_futures.clear()
        self._full_ack_futures.clear()

    def _note_task_crash(self, task: asyncio.Task) -> None:
        """A long-lived task died of an *unexpected* error: make it
        loud (counted + warned) instead of silently unretrieved."""
        if task.cancelled():
            return
        exc = task.exception()
        if exc is not None:
            self.m_frames_dropped.labels(reason="task_crash").inc()
            logger.warning(
                "%s: background task crashed: %r", self.name, exc
            )

    # -- peer health ---------------------------------------------------------

    def _note_peer_alive(self, peer: str) -> None:
        if peer in self.outboxes or peer in self.inboxes:
            now = self.engine.clock()
            self.peer_last_seen[peer] = now
            self.channel_failures[peer] = 0
            self.detector.heartbeat(peer, now)

    def peer_alive(self, peer: str) -> bool:
        """True while we have recent evidence the peer is reachable.

        Adaptive: the detector suspects a peer only when staleness
        exceeds its observed inter-arrival distribution (mean + 4
        sigma, floored at ``suspect_after``), so high-jitter WAN links
        don't flap degraded mode on every slow heartbeat.
        """
        seen = self.peer_last_seen.get(peer)
        if seen is None:
            return False
        now = self.engine.clock()
        if self.detector.last_seen(peer) is None:
            # grace window before the first heartbeat lands
            return now - seen < self.suspect_after
        return not self.detector.suspect(peer, now)

    def peer_dead(self, peer: str) -> bool:
        """True once staleness passes the dead escalation (3x the
        adaptive suspicion bound) — the trigger for elections."""
        if self.detector.last_seen(peer) is None:
            seen = self.peer_last_seen.get(peer)
            if seen is None:
                return False
            return (
                self.engine.clock() - seen
                > self.detector.dead_multiple * self.suspect_after
            )
        return self.detector.dead(peer, self.engine.clock())

    def suspected_peers(self) -> Tuple[str, ...]:
        """Peers currently failing the heartbeat deadline."""
        return tuple(
            p for p in self.peer_names if not self.peer_alive(p)
        )

    def degraded(self) -> bool:
        """True when any peer is suspected — or this replica is mid
        snapshot catch-up: full agreement is off the table, only
        epsilon-bounded service remains."""
        return bool(self.suspected_peers()) or self._catching_up

    async def _degraded_monitor(self) -> None:
        """Watch the degraded predicate and publish its transitions as
        gauge flips plus trace events — an operator watching the
        ``degraded`` gauge sees exactly when partial service began and
        ended, not just the current instant."""
        while self._running:
            self._check_degraded_transition()
            await asyncio.sleep(self.heartbeat_interval / 2)

    def _check_degraded_transition(self) -> None:
        suspected = set(self.suspected_peers())
        for peer in self.peer_names:
            was = self._suspected_state.get(peer, False)
            now = peer in suspected
            if now and not was:
                self.m_suspicions.labels(peer=peer).inc()
                self.membership.set_status(peer, SUSPECT)
                self.trace.event("membership", peer=peer, status=SUSPECT)
            # recovery needs no local de-escalation: the suspected
            # peer sees our rumor in gossip, refutes by bumping its
            # incarnation, and the refutation out-versions us.
            self._suspected_state[peer] = now
            if now and self.peer_dead(peer):
                if self.membership.set_status(peer, DEAD):
                    self.trace.event("membership", peer=peer, status=DEAD)
        now_degraded = self.degraded()
        if now_degraded != self._last_degraded:
            self._last_degraded = now_degraded
            self.m_degraded.set(1 if now_degraded else 0)
            self.m_degraded_transitions.inc()
            self.trace.event(
                "degraded",
                value=1 if now_degraded else 0,
                suspected=list(self.suspected_peers()),
            )
            logger.debug(
                "%s: degraded -> %s (suspected: %s)",
                self.name, now_degraded,
                ",".join(self.suspected_peers()) or "-",
            )

    # -- gossip membership ---------------------------------------------------

    async def _merge_gossip(
        self, src: str, payload: Dict[str, Any]
    ) -> None:
        """Merge a heartbeat's piggybacked membership + leadership
        digest.  Membership changes may wire in newly discovered
        members or re-learn moved addresses; a higher leadership epoch
        is adopted (fencing the engine) under the apply lock."""
        if not isinstance(payload, dict):
            return
        changed = self.membership.merge(payload.get("nodes", ()))
        self.m_membership_size.set(self.membership.active_count())
        for name in changed:
            await self._apply_member_change(name)
        leader = payload.get("leader")
        if isinstance(leader, dict):
            epoch = int(leader.get("epoch", 0))
            self._peer_epochs[src] = (epoch, self.engine.clock())
            who = leader.get("leader")
            if who and epoch > self.election.epoch:
                await self._adopt_leader(
                    epoch, str(who), int(leader.get("base", 0))
                )

    async def _apply_member_change(self, name: str) -> None:
        """React to one changed membership record: join, address
        move, or a frontier digest showing we are far behind."""
        if name == self.name:
            return
        rec = self.membership.get(name)
        if rec is None or rec.status == LEFT:
            return
        if rec.shard != self.shard_index:
            return  # a different shard's replica group
        if name not in self.peer_names:
            if rec.host and rec.port:
                self.add_peer(name, rec.host, rec.port)
            return
        if rec.host and rec.port:
            current = self.peer_addrs.get(name)
            if current != (rec.host, rec.port):
                self.peer_addrs[name] = (rec.host, rec.port)
                if self._order_target == name:
                    self._order_conn = None
                self.trace.event(
                    "membership", peer=name, status="moved",
                    host=rec.host, port=rec.port,
                )
        # Frontier digest: the peer has originated records far beyond
        # what we durably hold from it — steer ourselves to snapshot
        # catch-up instead of waiting to be told.
        inbox = self.inboxes.get(name)
        if (
            self.catchup_lag
            and self.catchup_enabled
            and not self._catching_up
            and inbox is not None
            and rec.frontier - inbox.frontier > self.catchup_lag
        ):
            self._trigger_catchup("gossip-digest", preferred=name)

    def add_peer(self, name: str, host: str, port: int) -> None:
        """Dynamically wire a gossip-discovered member into this
        replica: durable channel logs, engine peer set, address book,
        and (when running) a live channel loop.  The new channel
        starts at our local frontier with a ``peer-reset`` owed, so
        the joiner snapshot-installs history instead of replaying it
        through the channel."""
        if name == self.name:
            return
        if name in self.peer_names:
            self.peer_addrs[name] = (host, int(port))
            return
        self.peer_names = tuple(sorted(self.peer_names + (name,)))
        self.peer_addrs[name] = (host, int(port))
        self.membership.observe(name, host, int(port))
        outbox = DurableOutbox(
            self.data_dir / "outbox" / ("%s.log" % name),
            self.fsync,
            self.fsync_interval,
        )
        inbox = DurableInbox(
            self.data_dir / "inbox" / ("%s.log" % name),
            self.fsync,
            self.fsync_interval,
        )
        self.outboxes[name] = outbox
        self.inboxes[name] = inbox
        local_frontier = self.inboxes[LOCAL_CHANNEL].frontier
        if outbox._seq < local_frontier:
            outbox.reset_to(local_frontier)
            if self.catchup_enabled and local_frontier > 0:
                self._reset_peers.add(name)
        self.engine.peers = tuple(sorted(set(self.engine.peers) | {name}))
        self.trace.event("membership", peer=name, status="join")
        logger.info(
            "%s: discovered member %s at %s:%d", self.name, name, host, port
        )
        if self._running and self._channels_started:
            self.peer_last_seen.setdefault(name, self.engine.clock())
            self._outbox_events[name] = asyncio.Event()
            self._outbox_events[name].set()
            task = asyncio.ensure_future(self._channel_loop(name))
            task.add_done_callback(self._note_task_crash)
            self._channel_tasks.append(task)

    # -- sequencer election --------------------------------------------------

    def current_leader(self) -> str:
        """The site authorized to grant order tokens: the elected
        leader once any election has happened, else the static
        lexicographic default (backward compatible)."""
        if self.election.epoch > 0 and self.election.leader:
            return self.election.leader
        return self.order_site

    def _grant_allowed(self) -> bool:
        """May this replica grant order tokens *right now*?

        Two conditions beyond being the leader: the boot epoch probe
        must have confirmed our epoch is current (a resurrected
        deposed leader cannot self-grant at its stale epoch before
        learning the new one), and a majority of the full membership
        must have gossiped *our* epoch within the suspicion floor —
        the leader's lease.  A leader isolated on the minority side of
        a partition loses the lease and refuses, so it can never ack
        updates the majority's new leader will fence."""
        if not self._epoch_synced:
            return False
        if not self.peer_names:
            return True
        now = self.engine.clock()
        epoch = self.election.epoch
        fresh = 1  # ourselves
        for peer, (peer_epoch, at) in self._peer_epochs.items():
            if peer_epoch == epoch and now - at < self.suspect_after:
                fresh += 1
        return fresh >= self._quorum()

    def _quorum(self) -> int:
        """Majority of the *full* membership (left members excluded).

        The denominator is everyone, not just reachable members — two
        disjoint 'majorities' of reachable subsets is exactly the
        split-brain this fences out.  Floored at the static peer list
        so a not-yet-gossiped table cannot shrink the quorum."""
        members = max(
            self.membership.active_count(), len(self.peer_names) + 1
        )
        return members // 2 + 1

    def _check_order_authority(self) -> None:
        leader = self.current_leader()
        if self.name != leader:
            raise ValueError("order tokens are issued by %s" % leader)
        if not self._grant_allowed():
            raise Unavailable(
                "order authority lease not held at %s (epoch %d)"
                % (self.name, self.election.epoch)
            )

    async def _adopt_leader(
        self, epoch: int, leader: str, base: int
    ) -> None:
        """Adopt a leadership announcement (ours or gossiped) and
        fence the engine, atomically with respect to applies."""
        async with self._apply_lock:
            if not self.election.adopt(epoch, leader, base):
                return
            if hasattr(self.engine, "adopt_epoch"):
                self.engine.adopt_epoch(epoch, base)
        self._epoch_synced = True
        self.m_leader_epoch.set(epoch)
        if leader != self.name:
            self._order_conn = None
            self._order_target = None
        self.trace.event(
            "election", phase="adopt", epoch=epoch, leader=leader,
            base=base,
        )
        logger.info(
            "%s: adopted leader %s for epoch %d (base %d)",
            self.name, leader, epoch, base,
        )

    async def _elect_rpc(
        self, peer: str, epoch: int
    ) -> Optional[Dict[str, Any]]:
        """One elect request to one peer (vote request, or a pure
        epoch read at ``epoch=0``).  Returns the reply or None."""
        addr = self.peer_addrs.get(peer) or self.membership.address(peer)
        if addr is None:
            return None
        if self.faults is not None and (
            self.faults.is_severed(self.name, peer)
            or self.faults.is_severed(peer, self.name)
        ):
            return None
        writer = None
        try:
            reader, writer = await asyncio.open_connection(*addr)
            await write_frame(
                writer,
                {
                    "type": "request",
                    "id": 0,
                    "verb": "elect",
                    "epoch": epoch,
                    "candidate": self.name,
                },
            )
            reply = await asyncio.wait_for(
                read_frame(reader), timeout=self.ack_timeout
            )
        except (OSError, ConnectionError, asyncio.TimeoutError, ProtocolError):
            return None
        finally:
            if writer is not None:
                writer.close()
        if not isinstance(reply, dict) or not reply.get("ok"):
            return None
        return reply

    async def _epoch_probe(self) -> None:
        """Boot-time epoch sync (ORDUP with peers): learn the cluster's
        current epoch from a majority before any grant is allowed, so
        a deposed leader resurrected with stale durable state cannot
        resume sequencing at its old epoch."""
        backoff = self.retry_base
        while self._running and not self._epoch_synced:
            replies = 0
            best: Optional[Tuple[int, str, int]] = None
            for peer in self.peer_names:
                reply = await self._elect_rpc(peer, 0)
                if reply is None:
                    continue
                replies += 1
                epoch = int(reply.get("epoch", 0))
                if reply.get("leader") and (
                    best is None or epoch > best[0]
                ):
                    best = (
                        epoch,
                        str(reply["leader"]),
                        int(reply.get("base", 0)),
                    )
            if replies + 1 >= self._quorum():
                if best is not None and best[0] > self.election.epoch:
                    await self._adopt_leader(*best)
                self._epoch_synced = True
                self.trace.event(
                    "election", phase="epoch-sync",
                    epoch=self.election.epoch,
                )
                return
            await asyncio.sleep(backoff)
            backoff = min(backoff * 2, self.retry_max)

    def _best_candidate(self, exclude: Tuple[str, ...] = ()) -> str:
        """Deterministic candidate ranking: highest incarnation among
        live members, ties to the lexicographically smallest name.
        Every replica computes the same answer from converged gossip,
        so normally exactly one campaigns."""
        best = self.name
        rec = self.membership.get(self.name)
        best_inc = rec.incarnation if rec is not None else 0
        for peer in self.peer_names:
            if peer in exclude or not self.peer_alive(peer):
                continue
            rec = self.membership.get(peer)
            inc = rec.incarnation if rec is not None else 0
            if inc > best_inc or (inc == best_inc and peer < best):
                best, best_inc = peer, inc
        return best

    async def _election_loop(self) -> None:
        """Watch the order authority; campaign when it is dead."""
        while self._running:
            await asyncio.sleep(self._heartbeat_jitter())
            if not self._epoch_synced or self._catching_up:
                continue
            leader = self.current_leader()
            if leader == self.name or not self.peer_dead(leader):
                continue
            if self._best_candidate(exclude=(leader,)) == self.name:
                await self._campaign()

    async def _campaign(self) -> None:
        """Run one election round: self-promise a fresh epoch, gather
        promises (carrying durable order frontiers), and on majority
        adopt leadership resuming from the max frontier seen."""
        async with self._campaign_lock:
            epoch = max(self.election.promised, self.election.epoch) + 1
            if not self.election.promise(epoch):
                return
            self.m_elections.labels(outcome="started").inc()
            self.trace.event("election", phase="campaign", epoch=epoch)
            votes = 1
            max_seen = getattr(self.engine, "max_order_seen", None)
            frontiers = [max_seen() if max_seen is not None else 0]
            for peer in self.peer_names:
                reply = await self._elect_rpc(peer, epoch)
                if reply is None:
                    continue
                if reply.get("promised"):
                    votes += 1
                    frontiers.append(int(reply.get("frontier", 0)))
            if votes < self._quorum():
                self.m_elections.labels(outcome="lost").inc()
                self.trace.event(
                    "election", phase="lost", epoch=epoch, votes=votes,
                )
                # Jittered backoff before the loop re-evaluates, so
                # duelling candidates desynchronize.
                await asyncio.sleep(
                    self.retry_base
                    + self._rng.random() * self.heartbeat_interval
                )
                return
            base = max(frontiers)
            async with self._order_lock:
                # Resume sequencing above every grant any majority
                # member has durably seen; persisted before the first
                # new grant can be issued.
                self._order_counter = max(self._order_counter, base)
                self._order_log.write(
                    {"next": self._order_counter, "epoch": epoch}
                )
            await self._adopt_leader(epoch, self.name, base)
            self.m_elections.labels(outcome="won").inc()
            self.trace.event(
                "election", phase="won", epoch=epoch, base=base,
                votes=votes,
            )
            logger.info(
                "%s: won election for epoch %d (base %d, votes %d)",
                self.name, epoch, base, votes,
            )

    # -- channel sender loops ------------------------------------------------

    def _kick_channels(self) -> None:
        for event in self._outbox_events.values():
            event.set()

    def _link_severed(self, dst: str) -> bool:
        return self.faults is not None and self.faults.is_severed(
            self.name, dst
        )

    async def _channel_loop(self, peer: str) -> None:
        """Persistently (re)connect one peer channel and run a
        pipelined delivery session over each connection."""
        backoff = self.retry_base
        while self._running:
            addr = self.peer_addrs.get(peer)
            if addr is None or self._link_severed(peer):
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, self.retry_max)
                continue
            writer = None
            try:
                reader, writer = await asyncio.open_connection(*addr)
                hello: Dict[str, Any] = {
                    "type": "peer-hello", "src": self.name,
                }
                if self.wire != WIRE_JSON:
                    # Advertise the binary codecs we can read and
                    # write; an old (or wire="json") peer ignores the
                    # key and never replies — the channel stays JSON.
                    hello["wire"] = list(SUPPORTED_WIRES)
                await write_frame(writer, hello)
                backoff = self.retry_base
                await self._channel_session(peer, reader, writer)
            except (
                OSError,
                ConnectionError,
                asyncio.TimeoutError,
                ProtocolError,
            ) as exc:
                self.channel_failures[peer] = (
                    self.channel_failures.get(peer, 0) + 1
                )
                self.m_channel_errors.labels(peer=peer).inc()
                logger.debug(
                    "%s: channel to %s failed (%s), retrying in %.3fs",
                    self.name, peer, exc, backoff,
                )
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, self.retry_max)
            finally:
                if writer is not None:
                    writer.close()

    async def _channel_session(
        self,
        peer: str,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """One connected session: a windowed batch sender pipelined
        against a cumulative-ack reader.

        ``state`` is shared between the two halves: ``sent_hi`` is the
        highest channel seq handed to this connection, ``inflight`` the
        (last_seq, sent_at, n_msets) record of each un-retired batch,
        ``wire`` the codec negotiated for this connection (JSON until
        the peer's hello-ack upgrades it).
        """
        state = {
            "sent_hi": self.outboxes[peer].frontier,
            "inflight": deque(),
            "wire": WIRE_JSON,
            "hello_done": asyncio.Event(),
        }
        self._peer_wire[peer] = WIRE_JSON
        sender = asyncio.ensure_future(
            self._channel_sender(peer, writer, state)
        )
        ack_reader = asyncio.ensure_future(
            self._channel_ack_reader(peer, reader, state)
        )
        try:
            done, _ = await asyncio.wait(
                {sender, ack_reader}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            for task in (sender, ack_reader):
                if not task.done():
                    task.cancel()
            for task in (sender, ack_reader):
                try:
                    await task
                except asyncio.CancelledError:
                    pass
                except (
                    OSError,
                    ConnectionError,
                    asyncio.TimeoutError,
                    ProtocolError,
                ) as exc:
                    # The losing half died of the same connection —
                    # expected; the winner's error (below) is the one
                    # that drives the retry.
                    logger.debug(
                        "%s: channel %s teardown raised %r",
                        self.name, peer, exc,
                    )
        for task in done:
            exc = task.exception()
            if exc is not None:
                raise exc

    async def _channel_sender(
        self, peer: str, writer: asyncio.StreamWriter, state: Dict[str, Any]
    ) -> None:
        """Drain the outbox as batch frames, keeping up to ``window``
        batches in flight; heartbeat while idle.

        Under fault injection frames are dropped, delayed, duplicated,
        or reordered; whatever stays unacknowledged past ``ack_timeout``
        is simply re-sent from the cumulative-ack frontier — the
        durable queue's at-least-once discipline does the recovery, no
        special cases."""
        outbox = self.outboxes[peer]
        event = self._outbox_events[peer]
        inflight: Deque[Tuple[int, float, int]] = state["inflight"]
        if self.wire != WIRE_JSON:
            # We advertised codecs on the hello: hold data until the
            # receiver's verdict (new receivers always reply, even to
            # refuse) or a short deadline covering receivers that
            # predate hello-ack.  Without this gate the first send
            # window after every (re)connect — which after a partition
            # heal is the entire drain — streams JSON on a channel
            # that is about to negotiate bin1.
            try:
                await asyncio.wait_for(
                    state["hello_done"].wait(), timeout=HELLO_ACK_TIMEOUT
                )
            except asyncio.TimeoutError:
                pass  # legacy receiver: stay on JSON
        while self._running:
            if self._link_severed(peer):
                raise ConnectionResetError(
                    "link %s->%s severed" % (self.name, peer)
                )
            if peer in self._reset_peers:
                self._reset_peers.discard(peer)
                await write_frame(
                    writer,
                    {
                        "type": "peer-reset",
                        "src": self.name,
                        "base": outbox.base,
                        "frontier": outbox._seq,
                    },
                )
            # Clear-before-check: an ack or new append landing during
            # the scan re-sets the event, so the wait below returns
            # immediately instead of stalling a heartbeat interval.
            event.clear()
            now = self.engine.clock()
            if inflight and now - inflight[0][1] > self.ack_timeout:
                # Stalled pipeline (dropped/reordered frames or a dead
                # peer): fall back to the durable frontier and re-send.
                inflight.clear()
                state["sent_hi"] = outbox.frontier
                await asyncio.sleep(self.retry_base)
                continue
            if now >= state.get("hb_next", 0.0):
                # Time-based, not idle-only: gossip and the leader's
                # epoch lease ride heartbeats, so they must keep
                # flowing under load.  Jittered per link so a large
                # cluster's probes don't synchronize into bursts (and
                # a synchronized stall into a false-suspicion storm).
                await self._heartbeat_probe(peer, writer)
                state["hb_next"] = (
                    self.engine.clock() + self._heartbeat_jitter()
                )
            room = self.window - len(inflight)
            # Bounded fetch: one send round can use at most a full
            # window of full batches, so never scan (or plan) more —
            # a deep backlog otherwise costs O(backlog) per wakeup,
            # making its drain quadratic.
            fresh = outbox.pending_after(
                state["sent_hi"], room * self.batch_size
            ) if room > 0 else []
            if fresh:
                await self._send_batches(peer, writer, state, fresh, room)
                continue
            timeout = max(0.01, state["hb_next"] - self.engine.clock())
            if inflight:
                # Wake in time for the stall deadline of the oldest
                # in-flight batch.
                timeout = min(
                    timeout,
                    max(
                        self.retry_base,
                        self.ack_timeout - (now - inflight[0][1]),
                    ),
                )
            try:
                await asyncio.wait_for(event.wait(), timeout=timeout)
            except asyncio.TimeoutError:
                pass

    async def _send_batches(
        self,
        peer: str,
        writer: asyncio.StreamWriter,
        state: Dict[str, Any],
        entries: List[Tuple[int, Any]],
        room: int,
    ) -> None:
        """Chunk ``entries`` into at most ``room`` batch frames and
        write them as one buffered burst of pre-encoded bytes.

        On a negotiated binary channel each MSet's payload bytes are
        forwarded exactly as cached when the update entered the outbox
        — the zero re-encode relay; re-sends from the log reuse the
        same cache.  On a JSON channel the frames are built as before
        (including the legacy single-``mset`` form an older peer
        understands).
        """
        if self.faults is not None:
            entries = self.faults.reorder_batch(self.name, peer, entries)
        outbox = self.outboxes[peer]
        use_bin = state.get("wire") == WIRE_BIN1
        wire_codec = WIRE_BIN1 if use_bin else WIRE_JSON
        now = self.engine.clock()
        chunks: List[bytes] = []
        for batch in self._plan_batches(outbox, entries)[:room]:
            last_seq = max(seq for seq, _ in batch)
            state["sent_hi"] = max(state["sent_hi"], last_seq)
            state["inflight"].append((last_seq, now, len(batch)))
            self.m_batch_msets.observe(len(batch))
            if use_bin:
                data = encode_bin_batch_frame(
                    self.name,
                    [(seq, outbox.wire_blob(seq)) for seq, _ in batch],
                )
                self.m_frames_relayed.labels(peer=peer).inc(len(batch))
            elif len(batch) == 1:
                # Single-MSet batches ride the legacy frame so an
                # older peer interoperates without knowing mset-batch.
                seq, payload = batch[0]
                data = encode_frame(
                    {
                        "type": "mset",
                        "src": self.name,
                        "seq": seq,
                        "mset": payload["mset"],
                    }
                )
            else:
                data = encode_frame(
                    encode_batch_frame(
                        self.name,
                        [
                            (seq, payload["mset"])
                            for seq, payload in batch
                        ],
                    )
                )
            self.m_propagation_frames.labels(
                peer=peer, wire_codec=wire_codec
            ).inc()
            copies = 1
            if self.faults is not None:
                nbytes = 0
                if self.faults.models_bandwidth:
                    nbytes = len(data) - 4  # body bytes, sans header
                fate = self.faults.frame_fate(self.name, peer, nbytes)
                if fate.delay:
                    # A link delay holds up everything behind it too:
                    # flush what is already queued, then stall.
                    await write_encoded(writer, chunks)
                    chunks = []
                    await asyncio.sleep(fate.delay)
                if fate.drop:
                    continue  # stays inflight; the stall path re-sends
                if fate.duplicate:
                    copies = 2
            chunks.extend([data] * copies)
        await write_encoded(writer, chunks)

    def _plan_batches(
        self, outbox: DurableOutbox, entries: List[Tuple[int, Any]]
    ) -> List[List[Tuple[int, Any]]]:
        """Split pending entries into frames of at most ``batch_size``
        MSets, cutting early when a frame approaches MAX_FRAME.

        Sizes come from the outbox's cached payload bytes, so planning
        costs a length lookup per entry instead of a ``json.dumps``
        per entry per send attempt.
        """
        batches: List[List[Tuple[int, Any]]] = []
        current: List[Tuple[int, Any]] = []
        current_bytes = 0
        budget = MAX_FRAME // 2
        for seq, payload in entries:
            size = len(outbox.wire_blob(seq))
            if current and (
                len(current) >= self.batch_size
                or current_bytes + size > budget
            ):
                batches.append(current)
                current = []
                current_bytes = 0
            current.append((seq, payload))
            current_bytes += size
        if current:
            batches.append(current)
        return batches

    def _heartbeat_jitter(self) -> float:
        """Next heartbeat delay: the configured interval +/- 25%,
        drawn from this server's deterministic jitter stream."""
        return self.heartbeat_interval * (0.75 + 0.5 * self._rng.random())

    def _gossip_payload(self) -> Dict[str, Any]:
        """The membership + leadership digest piggybacked on every
        heartbeat and heartbeat reply."""
        self.membership.update_self(
            frontier=self.inboxes[LOCAL_CHANNEL].frontier,
            applied=self.engine.applied_count,
        )
        return {
            "nodes": self.membership.wire(),
            "leader": self.election.wire(),
        }

    async def _heartbeat_probe(
        self, peer: str, writer: asyncio.StreamWriter
    ) -> None:
        """One liveness probe, carrying the gossip digest.  The reply
        (if any) is consumed by the ack reader; a lost probe is not an
        error — the peer just stays un-refreshed and ages toward
        suspicion."""
        if self.faults is not None:
            fate = self.faults.frame_fate(self.name, peer)
            if fate.delay:
                await asyncio.sleep(fate.delay)
            if fate.drop:
                return
        await write_frame(
            writer,
            {
                "type": "hb",
                "src": self.name,
                "gossip": self._gossip_payload(),
            },
        )

    async def _channel_ack_reader(
        self, peer: str, reader: asyncio.StreamReader, state: Dict[str, Any]
    ) -> None:
        """Consume cumulative acks (and heartbeat replies) for one
        connection, retiring in-flight batches and freeing the send
        window without ever blocking the sender."""
        event = self._outbox_events[peer]
        inflight: Deque[Tuple[int, float, int]] = state["inflight"]
        while self._running:
            frame = await read_frame(reader)
            if frame is None:
                raise ConnectionResetError("peer closed")
            kind = frame.get("type")
            if kind == "ack":
                self._note_peer_alive(peer)
                seq = int(frame["seq"])
                self._reconcile_ack(peer, seq, state)
                now = self.engine.clock()
                while inflight and inflight[0][0] <= seq:
                    _, sent_at, count = inflight.popleft()
                    self._record_ack_latency(peer, now - sent_at, count)
                await self._on_peer_ack(peer, seq)
                event.set()  # window freed: wake the sender
            elif kind == "hb-ack":
                self._note_peer_alive(peer)
                if "seq" in frame:
                    self._reconcile_ack(peer, int(frame["seq"]), state)
                if "gossip" in frame:
                    await self._merge_gossip(peer, frame["gossip"])
            elif kind == "hello-ack":
                # The receiver's negotiation verdict for the codecs we
                # advertised on the hello frame ("json" is an explicit
                # refusal).  Every frame after this point may use the
                # accepted codec; waking ``hello_done`` releases the
                # sender, which holds data until the verdict so the
                # first window after a (re)connect cannot race past
                # the upgrade and stream JSON on a bin1 channel.
                wire = frame.get("wire")
                if self.wire != WIRE_JSON and wire in SUPPORTED_WIRES:
                    state["wire"] = wire
                    self._peer_wire[peer] = wire
                state["hello_done"].set()

    def _reconcile_ack(
        self, peer: str, seq: int, state: Dict[str, Any]
    ) -> None:
        """Compare a receiver's durability claim against the outbox.

        Normal operation only ever moves ``seq`` forward.  Two
        anomalies mean one side lost durable state:

        * ``seq`` *above* everything this outbox ever assigned — the
          receiver durably holds records this replica no longer knows
          it sent, so *this* side regressed (wiped or restored from an
          older image): trigger our own snapshot catch-up.
        * ``seq`` *below* the cumulative ack frontier — the receiver
          regressed.  Rewind the channel to re-send from its log when
          the records survive; when compaction already dropped them
          (or the receiver is ``catchup_lag`` records behind), flag
          the sender to emit a ``peer-reset`` frame directing the
          receiver to snapshot catch-up instead.
        """
        outbox = self.outboxes[peer]
        if seq > outbox._seq:
            if self.catchup_enabled and not self._catching_up:
                self._trigger_catchup("regressed-ack", preferred=peer)
            return
        if peer in self._reset_peers:
            return  # already directed to snapshot catch-up
        lag = outbox._seq - seq
        if seq >= outbox.frontier:
            # Not regressed, merely behind.  With ``catchup_lag`` set,
            # a receiver this far back (e.g. returning from a long
            # outage) is told to snapshot-install instead of drinking
            # the whole backlog through the channel.
            if self.catchup_lag and lag > self.catchup_lag:
                self._reset_peers.add(peer)
                self.trace.event(
                    "channel-lag", peer=peer, seq=seq, lag=lag
                )
                self._outbox_events[peer].set()
            return
        rewound = outbox.rewind_to(seq)
        self.m_channel_rewinds.labels(peer=peer).inc()
        if rewound:
            # Force the session to restart sending from the rewound
            # frontier instead of waiting out the stall deadline.
            state["inflight"].clear()
            state["sent_hi"] = outbox.frontier
        if not rewound or (self.catchup_lag and lag > self.catchup_lag):
            self._reset_peers.add(peer)
        self.trace.event(
            "channel-rewind", peer=peer, seq=seq, resend=rewound
        )
        logger.info(
            "%s: peer %s regressed to seq %d (rewind=%s, lag=%d)",
            self.name, peer, seq, rewound, lag,
        )
        self._outbox_events[peer].set()

    def _record_ack_latency(
        self, peer: str, latency: float, n_msets: int
    ) -> None:
        lats = self._ack_latencies.get(peer)
        if lats is None:
            lats = self._ack_latencies[peer] = deque(maxlen=512)
        lats.append(latency)
        self.acked_msets[peer] = self.acked_msets.get(peer, 0) + n_msets
        self.m_ack_latency.labels(peer=peer).observe(latency)
        self.m_acked_msets.labels(peer=peer).set_to(
            self.acked_msets[peer]
        )

    async def _on_peer_ack(self, peer: str, seq: int) -> None:
        """A peer durably holds every channel message ``<= seq``
        (cumulative acknowledgement)."""
        covered = self.outboxes[peer].ack_through(seq)
        released = []
        for acked_seq in covered:
            tid = self._seq_tid.pop((peer, acked_seq), None)
            if tid is None:
                continue
            waiting = self._unacked.get(tid)
            if waiting is None:
                continue
            waiting.discard(peer)
            if not waiting:
                del self._unacked[tid]
                released.append((tid, self._local_keys.pop(tid, ())))
        if released:
            # One cumulative ack can retire a whole send window of
            # local updates: release their obligations under a single
            # engine-lock acquisition instead of once per update.
            await self.engine.fully_acked_many(released)
            for tid, _ in released:
                self.trace.event("update-ack", tid=tid)
                fut = self._full_ack_futures.pop(tid, None)
                if fut is not None and not fut.done():
                    fut.set_result(True)
        if covered:
            await self._notify_drain()

    # -- connection handling ---------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        write_lock = asyncio.Lock()
        # Per-connection negotiated codec for frames *we* send back on
        # this socket (acks).  Flips to binary when the peer's hello
        # advertises a codec we also speak.
        conn_wire = {"codec": WIRE_JSON}

        async def send(obj: Dict[str, Any]) -> None:
            async with write_lock:
                await write_frame(writer, obj)

        async def send_raw(data: bytes) -> None:
            async with write_lock:
                writer.write(data)
                await writer.drain()

        try:
            while self._running:
                try:
                    frame = await read_frame(reader)
                except ProtocolError:
                    self.m_frames_dropped.labels(
                        reason="protocol_error"
                    ).inc()
                    break
                if frame is None:
                    break
                kind = frame.get("type")
                if kind in ("mset", "mset-batch"):
                    try:
                        await self._on_mset_batch_frame(
                            frame, send, send_raw, conn_wire
                        )
                    except ProtocolError:
                        self.m_frames_dropped.labels(
                            reason="malformed_mset"
                        ).inc()
                        break
                elif kind == "request":
                    # Requests may block on divergence control or
                    # commit acknowledgements: serve them concurrently.
                    req_task = asyncio.ensure_future(
                        self._serve_request(frame, send)
                    )
                    self._conn_tasks.add(req_task)
                    req_task.add_done_callback(self._conn_tasks.discard)
                elif kind == "hb":
                    src = str(frame.get("src", ""))
                    self._note_peer_alive(src)
                    if "gossip" in frame:
                        await self._merge_gossip(src, frame["gossip"])
                    reply: Dict[str, Any] = {
                        "type": "hb-ack", "src": self.name,
                    }
                    inbox = self.inboxes.get(src)
                    if inbox is not None:
                        # Heartbeat replies carry the receiver's inbox
                        # frontier so an idle channel still detects a
                        # regressed (wiped) receiver.
                        reply["seq"] = inbox.frontier
                    if "gossip" in frame:
                        reply["gossip"] = self._gossip_payload()
                    await send(reply)
                elif kind == "peer-reset":
                    # A sender compacted away records we never saw (or
                    # judged us too far behind to resend): the channel
                    # alone cannot repair us — snapshot catch-up can.
                    src = str(frame.get("src", ""))
                    self._note_peer_alive(src)
                    if self.catchup_enabled:
                        self._trigger_catchup("peer-reset", preferred=src)
                    else:
                        self.m_frames_dropped.labels(
                            reason="peer_reset_ignored"
                        ).inc()
                elif kind in ("peer-hello", "client-hello"):
                    src = frame.get("src")
                    if src:
                        self._note_peer_alive(str(src))
                    advert = frame.get("wire")
                    choice = None
                    if self.wire != WIRE_JSON:
                        choice = negotiate_wire(advert)
                    if choice is not None:
                        conn_wire["codec"] = choice
                    if advert is not None:
                        # The advert itself proves this sender speaks
                        # hello-ack, so ALWAYS answer it — with the
                        # chosen codec or an explicit "json" verdict.
                        # An advertising sender holds data until the
                        # reply lands; a silent receiver here would
                        # stall it for the whole handshake deadline
                        # and (worse) let the first send window after
                        # every reconnect race past the upgrade as
                        # JSON.  Advertising also implies the sender
                        # can already read the codec, so acks may
                        # switch as soon as this reply is queued.
                        await send(
                            {
                                "type": "hello-ack",
                                "src": self.name,
                                "wire": choice or WIRE_JSON,
                            }
                        )
                    self.m_wire_negotiations.labels(
                        wire_codec=choice or WIRE_JSON
                    ).inc()
                    continue
                else:
                    await send(
                        {"type": "error", "error": "unknown frame %r" % kind}
                    )
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()

    async def _on_mset_batch_frame(
        self,
        frame: Dict[str, Any],
        send,
        send_raw=None,
        conn_wire: Optional[Dict[str, str]] = None,
    ) -> None:
        """Receive one ``mset``/``mset-batch`` frame (JSON or binary)
        from a peer.

        The contiguous fresh prefix of the batch is durably recorded
        with one group-commit append and applied under one engine-lock
        acquisition, then acknowledged *cumulatively* with the inbox
        frontier — covering this batch, any duplicates, and anything
        earlier the sender may not know was acked.  Because the frame
        is processed inline (the connection reads no further frames
        until this one is durable and applied), a fast sender fills
        TCP flow control rather than the receiver's memory.

        Every entry is fully decoded *before* anything is durably
        recorded: a malformed MSet must raise ``ProtocolError`` here
        (dropping the connection) rather than poison the inbox log,
        where it would crash recovery replay on every restart.

        Binary frames arrive with pre-encoded payload ``blobs``; those
        exact bytes are spliced into the inbox log so the durable
        record stays the same JSON line either way.
        """
        src = frame.get("src", "")
        inbox = self.inboxes.get(src)
        if inbox is None:
            # Unknown peer: the drop is counted and logged, not silent.
            self.m_frames_dropped.labels(reason="unknown_peer").inc()
            logger.debug(
                "%s: dropped mset frame from unknown peer %r",
                self.name, src,
            )
            return
        self._note_peer_alive(src)
        blobs = frame.get("blobs")
        fresh: List[Tuple[int, Any]] = []
        fresh_blobs: Optional[List[bytes]] = None
        expected = inbox.frontier + 1
        if blobs is not None:
            fresh_blobs = []
            for seq, blob in blobs:
                if seq < expected:
                    continue  # duplicate: the cumulative ack re-covers it
                if seq > expected:
                    break  # gap (reordered/dropped frame): ack frontier
                try:
                    payload = json.loads(blob)
                except ValueError as exc:
                    raise ProtocolError(
                        "binary entry %d is not valid JSON: %s"
                        % (seq, exc)
                    ) from exc
                if not isinstance(payload, dict) or not isinstance(
                    payload.get("mset"), dict
                ):
                    raise ProtocolError(
                        "binary entry %d is not an mset payload" % seq
                    )
                fresh.append((seq, payload))
                fresh_blobs.append(blob)
                expected += 1
        else:
            entries = decode_batch_frame(frame)
            for seq, encoded in entries:
                if seq < expected:
                    continue  # duplicate: the cumulative ack re-covers it
                if seq > expected:
                    break  # gap (reordered/dropped frame): ack frontier
                fresh.append((seq, {"mset": encoded}))
                expected += 1
        if fresh:
            # Decode first (see docstring), then record + apply under
            # the apply lock: a snapshot captured between the two
            # would claim this inbox frontier without holding the
            # batch's engine effects.
            msets = [
                decode_mset(payload["mset"]) for _, payload in fresh
            ]
            async with self._apply_lock:
                inbox.record_many(fresh, blobs=fresh_blobs)
                applied = await self.engine.accept_batch(msets, local=False)
                self._resolve_applied(applied)
            await self._notify_drain()
        # The cumulative ack is a durability claim over everything
        # <= frontier: the sender will truncate its outbox on receipt.
        # Records written inside the fsync_interval window must be
        # fsynced before that claim leaves this process, or a crash
        # here would lose them from both ends of the channel.
        inbox.sync()
        if (
            send_raw is not None
            and conn_wire is not None
            and conn_wire.get("codec") == WIRE_BIN1
        ):
            await send_raw(encode_bin_ack_frame(inbox.frontier))
        else:
            await send({"type": "ack", "seq": inbox.frontier})

    def _resolve_applied(self, applied: List[MSet]) -> None:
        """Applying remote MSets can release held-back local ones."""
        for mset in applied:
            fut = self._apply_futures.pop(mset.tid, None)
            if fut is not None and not fut.done():
                fut.set_result(True)

    # -- drain / settle --------------------------------------------------------

    def _drained(self) -> bool:
        """True when this site has nothing left to propagate or apply:
        every outbound channel is empty, the engine holds no buffered
        or locked work, and no local update awaits a peer ack."""
        return (
            all(box.drained() for box in self.outboxes.values())
            and self.engine.quiescent()
            and not self._unacked
        )

    async def _notify_drain(self) -> None:
        """Wake any ``settle`` waiters; called whenever acks, applies,
        or local commits may have changed the drain condition."""
        async with self._drain_cond:
            self._drain_cond.notify_all()

    # -- snapshots + compaction ------------------------------------------------

    async def take_snapshot(
        self, kind: str = "manual", compact: bool = True
    ) -> Dict[str, Any]:
        """Persist a checkpoint of the applied state, then compact the
        durable logs below its frontiers.

        The capture runs under the apply lock, so the engine image and
        the per-channel frontiers are one consistent cut; persistence
        is atomic (temp + fsync + rename), so the snapshot file is the
        commit point — compaction afterwards only ever drops records
        the snapshot provably contains.  Crash between the two and
        recovery replays the not-yet-compacted records but skips
        everything at or below the snapshot frontier, so nothing
        double-applies.
        """
        async with self._snapshot_lock:
            started = self.engine.clock()
            async with self._apply_lock:
                frontiers = {
                    src: box.frontier for src, box in self.inboxes.items()
                }
                engine_state = await self.engine.checkpoint()
            body = {
                "site": self.name,
                "method": self.method,
                "frontiers": frontiers,
                "engine": engine_state,
            }
            size = self._snapshot_store.save(seal_snapshot(body))
            self._snapshot_frontiers = dict(frontiers)
            self._last_snapshot_at = self.engine.clock()
            dropped = self._compact_logs(frontiers) if compact else 0
            duration = self.engine.clock() - started
            self.m_snapshots.labels(kind=kind).inc()
            self.m_snapshot_bytes.observe(size)
            self.m_snapshot_seconds.observe(duration)
            self.trace.event(
                "snapshot",
                trigger=kind,
                bytes=size,
                compacted=dropped,
                duration=round(duration, 6),
            )
            return {
                "bytes": size,
                "frontiers": frontiers,
                "compacted": dropped,
                "duration": duration,
            }

    def _compact_logs(self, frontiers: Dict[str, int]) -> int:
        """Drop log records the persisted snapshot already covers.

        Inboxes compact through their snapshot frontier.  Outboxes
        (whose channel seqs mirror local tid seqs) compact through the
        *local* snapshot frontier — never past the peer's cumulative
        ack (``compact`` clamps), and never past what the snapshot can
        serve to a receiver that later regresses below the log's base.
        """
        total = 0
        local_floor = frontiers.get(LOCAL_CHANNEL, 0)
        logs = [
            ("inbox/%s" % src, box, int(frontiers.get(src, 0)))
            for src, box in self.inboxes.items()
        ] + [
            ("outbox/%s" % peer, box, local_floor)
            for peer, box in self.outboxes.items()
        ]
        for label, box, through in logs:
            dropped = box.compact(through)
            if dropped:
                total += dropped
                self.trace.event(
                    "compaction", log=label, through=through,
                    dropped=dropped,
                )
        return total

    async def _snapshot_loop(self) -> None:
        """Periodic snapshot + compaction driver."""
        while self._running:
            await asyncio.sleep(self.snapshot_interval)
            if not self._running or self._catching_up:
                continue
            try:
                await self.take_snapshot(kind="periodic")
            except (OSError, RuntimeError) as exc:
                # A failed snapshot never corrupts state (atomic
                # rename); log compaction just waits for the next one.
                self.m_frames_dropped.labels(reason="snapshot_error").inc()
                logger.warning(
                    "%s: periodic snapshot failed: %r", self.name, exc
                )

    # -- anti-entropy catch-up -------------------------------------------------

    async def _addr_request(
        self,
        addr: Tuple[str, int],
        verb: str,
        timeout: float = 5.0,
        label: str = "replica",
        **params: Any,
    ) -> Dict[str, Any]:
        """One out-of-band request/response exchange with an arbitrary
        replica address (a mesh peer, or a migration counterpart in a
        different group)."""
        reader, writer = await asyncio.open_connection(*addr)
        try:
            await write_frame(
                writer,
                {"type": "request", "id": 1, "verb": verb, **params},
            )
            reply = await asyncio.wait_for(
                read_frame(reader), timeout=timeout
            )
        finally:
            writer.close()
        if reply is None:
            raise ConnectionError(
                "%s closed during %s" % (label, verb)
            )
        if not reply.get("ok"):
            raise RuntimeError(
                "%s refused %s: %s"
                % (label, verb, reply.get("error", "unknown error"))
            )
        return reply

    async def _peer_request(
        self, peer: str, verb: str, timeout: float = 5.0, **params: Any
    ) -> Dict[str, Any]:
        """One out-of-band request/response exchange with a peer."""
        addr = self.peer_addrs.get(peer)
        if addr is None or self._link_severed(peer):
            raise ConnectionError("no route to peer %s" % peer)
        reply = await self._addr_request(
            addr, verb, timeout=timeout, label="peer %s" % peer, **params
        )
        self._note_peer_alive(peer)
        return reply

    async def _startup_probe(self) -> None:
        """Decide whether an empty boot is a fresh cluster or a wiped
        disk, by asking the peers what they remember about this site.

        Evidence of a former life: a peer's inbox frontier for this
        site above zero (it durably holds updates this site no longer
        has) or a peer's channel to this site with a nonzero ack high
        water (this site once acknowledged records it no longer has).
        Either one triggers snapshot catch-up; a clean no-evidence
        sweep of every peer means a genuinely fresh cluster.
        """
        deadline = self.engine.clock() + max(self.suspect_after * 4, 2.0)
        answered: Set[str] = set()
        evidence_from: Optional[str] = None
        while self._running and evidence_from is None:
            for peer in self.peer_names:
                if peer in answered:
                    continue
                try:
                    reply = await self._peer_request(
                        peer, "stats", timeout=2.0
                    )
                except (
                    OSError,
                    ConnectionError,
                    RuntimeError,
                    asyncio.TimeoutError,
                ):
                    continue
                stats = reply.get("stats", {})
                answered.add(peer)
                held = int(
                    stats.get("inbox_frontier", {}).get(self.name, 0)
                )
                acked = int(
                    stats.get("ack_high_water", {}).get(self.name, 0)
                )
                if held > 0 or acked > 0:
                    evidence_from = peer
                    break
            if len(answered) == len(self.peer_names):
                break
            if self.engine.clock() >= deadline:
                break
            if evidence_from is None:
                await asyncio.sleep(self.retry_base * 4)
        if evidence_from is None:
            logger.debug(
                "%s: startup probe found no prior state (%d/%d peers)",
                self.name, len(answered), len(self.peer_names),
            )
            return
        # Re-check emptiness: normal channel traffic may have landed
        # while the probe was out, in which case the channels are
        # already repairing us and a forced install is unnecessary.
        if self.engine.applied_count == 0 and all(
            box.frontier == 0 for box in self.inboxes.values()
        ):
            self._trigger_catchup("wiped-disk", preferred=evidence_from)

    def _trigger_catchup(
        self, reason: str, preferred: Optional[str] = None
    ) -> None:
        """Enter catch-up mode and start the install task (idempotent
        while one is already running)."""
        if not self.catchup_enabled or not self._running:
            return
        if self._catchup_task is not None and not self._catchup_task.done():
            return
        self._catching_up = True
        self.trace.event("catchup", phase="start", reason=reason)
        logger.info(
            "%s: snapshot catch-up triggered (%s, preferred=%s)",
            self.name, reason, preferred or "-",
        )
        self._catchup_task = asyncio.ensure_future(
            self._catchup(reason, preferred)
        )
        self._catchup_task.add_done_callback(self._note_task_crash)

    async def _catchup(
        self, reason: str, preferred: Optional[str]
    ) -> None:
        """Fetch and install a dominating peer snapshot, with retry.

        While this runs the replica is degraded: updates and strict
        queries are refused (typed errors), epsilon-bounded queries
        keep answering from the stale-but-bounded local state.
        """
        backoff = self.retry_base
        try:
            while self._running:
                try:
                    source = await self._catchup_round(preferred)
                except asyncio.CancelledError:
                    raise
                except (
                    OSError,
                    ConnectionError,
                    asyncio.TimeoutError,
                    ProtocolError,
                    SnapshotError,
                    RuntimeError,
                    ValueError,
                ) as exc:
                    self.m_catchup.labels(outcome="retry").inc()
                    logger.debug(
                        "%s: catch-up round failed (%r), retrying",
                        self.name, exc,
                    )
                    await asyncio.sleep(backoff)
                    backoff = min(backoff * 2, self.retry_max)
                    continue
                self.m_catchup.labels(outcome="installed").inc()
                self.trace.event(
                    "catchup", phase="installed", source=source,
                )
                logger.info(
                    "%s: catch-up complete (installed snapshot from %s)",
                    self.name, source,
                )
                return
        finally:
            self._catching_up = False
            self.trace.event("catchup", phase="done", reason=reason)
            self._kick_channels()
            await self._notify_drain()

    async def _catchup_round(self, preferred: Optional[str]) -> str:
        """One attempt: survey peers, fetch the best candidate's fresh
        snapshot, install it if it dominates.  Returns the source."""
        me = self.name
        surveys: Dict[str, Dict[str, Any]] = {}
        for peer in self.peer_names:
            try:
                reply = await self._peer_request(peer, "stats", timeout=2.0)
            except (
                OSError,
                ConnectionError,
                RuntimeError,
                asyncio.TimeoutError,
            ):
                continue
            surveys[peer] = reply.get("stats", {})
        if not surveys:
            raise ConnectionError("no reachable peer to catch up from")
        # The highest local tid any reachable peer has durably seen
        # from this site: the installed snapshot's local frontier must
        # reach it, or freshly assigned tids could collide with updates
        # of a former life still circulating in peers' logs.
        required_local = max(
            [
                int(s.get("inbox_frontier", {}).get(me, 0))
                for s in surveys.values()
            ]
            + [self.inboxes[LOCAL_CHANNEL].frontier]
        )

        def advance(peer: str) -> Tuple[int, int]:
            fr = surveys[peer].get("inbox_frontier", {})
            return (
                int(fr.get(me, 0)),
                sum(int(v) for v in fr.values()),
            )

        candidates = sorted(surveys, key=advance, reverse=True)
        if preferred in surveys:
            candidates.remove(preferred)
            candidates.insert(0, preferred)
        last_error: Optional[BaseException] = None
        for source in candidates:
            try:
                body = await self._fetch_snapshot(source)
                if body.get("method") != self.method:
                    raise SnapshotError(
                        "snapshot from %s is for method %r"
                        % (source, body.get("method"))
                    )
                if body.get("site") != source:
                    raise SnapshotError(
                        "snapshot from %s claims site %r"
                        % (source, body.get("site"))
                    )
                translated = self._translate_frontiers(
                    source, body["frontiers"]
                )
                if not self._dominates(translated, required_local):
                    raise RuntimeError(
                        "snapshot from %s does not dominate local state"
                        % source
                    )
            except (
                OSError,
                ConnectionError,
                asyncio.TimeoutError,
                ProtocolError,
                SnapshotError,
                RuntimeError,
                ValueError,
            ) as exc:
                last_error = exc
                continue
            await self._install_snapshot(body, translated)
            return source
        assert last_error is not None
        raise last_error

    async def _fetch_snapshot(self, source: str) -> Dict[str, Any]:
        """Pull one mesh peer's snapshot in chunks (rejoin path)."""
        addr = self.peer_addrs.get(source)
        if addr is None or self._link_severed(source):
            raise ConnectionError("no route to peer %s" % source)
        body = await self._fetch_snapshot_addr(
            addr, label="peer %s" % source
        )
        self._note_peer_alive(source)
        return body

    async def _fetch_snapshot_addr(
        self, addr: Tuple[str, int], label: str
    ) -> Dict[str, Any]:
        """Pull a replica's snapshot in chunks over the request verb.

        Address-based so it serves both rejoin (a mesh peer) and shard
        migration (the same-named counterpart in the retired owner
        group, which is *not* in this replica's peer set).

        ``fresh=True`` on the first chunk makes the source take a new
        snapshot before serving, so the image reflects its *current*
        frontiers — stale images would fail the dominance check."""
        chunks: List[str] = []
        offset = 0
        total: Optional[int] = None
        while True:
            reply = await self._addr_request(
                addr,
                "snapshot-fetch",
                timeout=15.0,
                label=label,
                offset=offset,
                fresh=(offset == 0),
            )
            data = str(reply.get("data", ""))
            chunks.append(data)
            offset += len(data)
            total = int(reply.get("total", 0))
            if reply.get("eof") or not data:
                break
        raw = "".join(chunks)
        if total is not None and len(raw) != total:
            raise SnapshotError(
                "snapshot fetch from %s truncated (%d of %d bytes)"
                % (label, len(raw), total)
            )
        return open_snapshot(json.loads(raw))

    def _translate_frontiers(
        self, source: str, frontiers: Dict[str, Any]
    ) -> Dict[str, int]:
        """Re-index a source snapshot's frontiers into this site's
        channel namespace.

        The source's ``_local`` channel is our inbound channel *from*
        the source; the source's channel *for us* carries our own
        updates, so it becomes our local frontier (and tid counter).
        Channels to third peers keep their names.
        """
        fr = {src: int(seq) for src, seq in frontiers.items()}
        translated: Dict[str, int] = {}
        for channel in self.inboxes:
            if channel == LOCAL_CHANNEL:
                translated[channel] = fr.get(self.name, 0)
            elif channel == source:
                translated[channel] = fr.get(LOCAL_CHANNEL, 0)
            else:
                translated[channel] = fr.get(channel, 0)
        return translated

    def _dominates(
        self, translated: Dict[str, int], required_local: int
    ) -> bool:
        """A snapshot is installable only if it is at or ahead of this
        site on *every* channel (installing would otherwise roll back
        applied state) and its local frontier covers every tid any
        reachable peer has seen from us (tid-collision protection)."""
        for channel, inbox in self.inboxes.items():
            if translated.get(channel, 0) < inbox.frontier:
                return False
        return translated.get(LOCAL_CHANNEL, 0) >= required_local

    async def _install_snapshot(
        self, body: Dict[str, Any], translated: Dict[str, int]
    ) -> None:
        """Adopt a peer snapshot as this site's new applied state.

        Persisting the re-sealed snapshot (atomic rename) is the
        commit point: a crash before it leaves the old state intact;
        a crash after it recovers into the installed image, with
        ``_recover`` aligning any log that missed its reset.  In-flight
        local commit futures are cancelled — their updates are either
        inside the snapshot (a former life this site no longer
        remembers acking) or refused.
        """
        async with self._snapshot_lock:
            async with self._apply_lock:
                mine = {
                    "site": self.name,
                    "method": self.method,
                    "frontiers": translated,
                    "engine": body["engine"],
                }
                size = self._snapshot_store.save(seal_snapshot(mine))
                self.m_snapshots.labels(kind="install").inc()
                self.m_snapshot_bytes.observe(size)
                for src, inbox in self.inboxes.items():
                    inbox.reset_to(translated.get(src, 0))
                local_floor = translated.get(LOCAL_CHANNEL, 0)
                for outbox in self.outboxes.values():
                    outbox.reset_to(local_floor)
                self._seq_tid.clear()
                self._unacked.clear()
                self._local_keys.clear()
                for fut in list(self._apply_futures.values()) + list(
                    self._full_ack_futures.values()
                ):
                    if not fut.done():
                        fut.cancel()
                self._apply_futures.clear()
                self._full_ack_futures.clear()
                await self.engine.restore(body["engine"])
                self._snapshot_frontiers = dict(translated)
                self._last_snapshot_at = self.engine.clock()
                self.catchup_installs += 1
            self.trace.event(
                "catchup",
                phase="install",
                source=body.get("site"),
                frontiers=dict(translated),
            )

    # -- request serving -------------------------------------------------------

    async def _serve_request(self, frame: Dict[str, Any], send) -> None:
        rid = frame.get("id")
        verb = frame.get("verb")
        try:
            attr = self._verb_handlers.get(verb)
            handler = getattr(self, attr) if attr is not None else None
            if handler is None:
                raise ValueError("unknown verb %r" % verb)
            body = await handler(frame)
            self.m_requests.labels(verb=str(verb), outcome="ok").inc()
            await send({"type": "response", "id": rid, "ok": True, **body})
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # surfaced to the client, not fatal
            self.m_requests.labels(verb=str(verb), outcome="error").inc()
            response = {
                "type": "response",
                "id": rid,
                "ok": False,
                "error": str(exc),
                "code": getattr(exc, "code", None) or type(exc).__name__,
            }
            # Typed errors may carry structured context (WRONG_SHARD
            # ships the newest shard map so the refusal itself is the
            # routing-table refresh).
            extra = getattr(exc, "extra", None)
            if isinstance(extra, dict):
                response.update(extra)
            try:
                await send(response)
            except (ConnectionError, OSError):
                pass

    async def _handle_ping(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        return {"site": self.name, "method": self.engine.method_name}

    async def _handle_snapshot(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """On-demand snapshot + compaction (operator / CLI verb)."""
        if self._catching_up:
            raise Unavailable(
                "snapshot refused: replica is installing a peer snapshot"
            )
        result = await self.take_snapshot(kind="manual")
        return {
            "snapshot": {
                "bytes": result["bytes"],
                "frontiers": result["frontiers"],
                "compacted": result["compacted"],
            }
        }

    async def _handle_snapshot_fetch(
        self, frame: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Serve one chunk of this site's snapshot to a catching-up
        peer.  ``fresh`` forces a new capture first; chunks are byte
        slices of the (pure-ASCII) serialized envelope."""
        if self._catching_up:
            raise Unavailable(
                "snapshot-fetch refused: this replica is itself catching up"
            )
        if bool(frame.get("fresh")) or not self._snapshot_store.exists():
            await self.take_snapshot(kind="serve")
        envelope = self._snapshot_store.load_envelope()
        if envelope is None:
            raise Unavailable("no valid snapshot available")
        data = snapshot_bytes(envelope)
        offset = max(0, int(frame.get("offset", 0)))
        chunk = data[offset:offset + SNAPSHOT_CHUNK]
        return {
            "total": len(data),
            "offset": offset,
            "data": chunk.decode("ascii"),
            "eof": offset + len(chunk) >= len(data),
        }

    # -- sharding --------------------------------------------------------------

    def _adopt_map(self, new_map: Dict[str, Any]) -> None:
        """Remember the newest shard map this replica has been shown.

        Epoch-monotonic: an older map never overwrites a newer one, so
        a straggling orchestration message cannot roll the fence back.
        """
        epoch = int(new_map.get("epoch", 0))
        if self._shard_map is not None and epoch < int(
            self._shard_map.get("epoch", 0)
        ):
            return
        self._shard_map = new_map
        self.shard_epoch = epoch

    async def _handle_shard_info(
        self, frame: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Routing discovery: this group's shard state and newest map."""
        if self.shard_index is None:
            return {"shard": None, "map": None}
        return {
            "shard": {
                "index": self.shard_index,
                "count": self.shard_count,
                "epoch": self.shard_epoch,
                "accepting": self._shard_accepting,
                "retired": self._shard_retired,
            },
            "map": self._shard_map,
        }

    async def _handle_shard_retire(
        self, frame: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Fence this replica out of its shard (migration step 1).

        From this response on, every update/query is refused with
        ``WRONG_SHARD`` carrying the epoch-bumped map — no acknowledged
        update can land behind the migration's back.  Idempotent.
        """
        if self.shard_index is None:
            raise ValueError("shard-retire on an unsharded replica")
        new_map = frame.get("map")
        if isinstance(new_map, dict):
            self._adopt_map(new_map)
        self._shard_retired = True
        self.trace.event(
            "shard",
            phase="retire",
            shard=self.shard_index,
            epoch=self.shard_epoch,
        )
        return {"retired": True, "shard": self.shard_index}

    async def _handle_shard_adopt(
        self, frame: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Start accepting the shard at the new epoch (final step)."""
        if self.shard_index is None:
            raise ValueError("shard-adopt on an unsharded replica")
        new_map = frame.get("map")
        if isinstance(new_map, dict):
            self._adopt_map(new_map)
        self._shard_accepting = True
        self.trace.event(
            "shard",
            phase="adopt",
            shard=self.shard_index,
            epoch=self.shard_epoch,
        )
        return {
            "accepting": True,
            "shard": self.shard_index,
            "epoch": self.shard_epoch,
        }

    async def _handle_fetch_install(
        self, frame: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Migration state transfer: pull a fresh snapshot from the
        named counterpart (same site name, old owner group) at
        ``host:port`` and install it.

        Frontier translation is the *identity* because a replacement
        group reuses the source group's site names — the counterpart's
        channel namespace is exactly ours, unlike the rejoin path where
        the source is a different site.  The drained source can only be
        at-or-ahead of a cold replacement on every channel, so the
        dominance rule degenerates to: install if ahead anywhere,
        report already-current otherwise.
        """
        if self._catching_up:
            raise Unavailable(
                "fetch-install refused: an install is already running"
            )
        if (
            self.shard_index is not None
            and self._shard_accepting
            and not self._shard_retired
        ):
            raise ValueError(
                "fetch-install refused: this replica is actively "
                "serving shard %d" % self.shard_index
            )
        host = str(frame.get("host", ""))
        port = int(frame.get("port", 0))
        site = str(frame.get("site", ""))
        if not host or not port:
            raise ValueError("fetch-install needs the source host/port")
        self._catching_up = True
        try:
            body = await self._fetch_snapshot_addr(
                (host, port),
                label="counterpart %s" % (site or host),
            )
            if body.get("method") != self.method:
                raise SnapshotError(
                    "counterpart snapshot is for method %r"
                    % body.get("method")
                )
            if site and body.get("site") != site:
                raise SnapshotError(
                    "counterpart snapshot claims site %r, wanted %r"
                    % (body.get("site"), site)
                )
            frontiers = {
                src: int(seq)
                for src, seq in body.get("frontiers", {}).items()
            }
            translated = {
                channel: frontiers.get(channel, 0)
                for channel in self.inboxes
            }
            dominates = all(
                translated[ch] >= box.frontier
                for ch, box in self.inboxes.items()
            )
            if not dominates:
                if all(
                    translated[ch] <= box.frontier
                    for ch, box in self.inboxes.items()
                ):
                    # Retried after a completed install: local state
                    # already covers the snapshot.  Never roll back.
                    return {"installed": False, "current": True}
                raise RuntimeError(
                    "counterpart snapshot and local state diverged; "
                    "refusing install"
                )
            await self._install_snapshot(body, translated)
            return {"installed": True, "frontiers": translated}
        finally:
            self._catching_up = False

    def _refresh_gauges(self) -> None:
        """Bring sampled (pull-model) series up to date for a scrape:
        backlog/staleness/liveness per peer, degraded state, unacked
        updates, and the durable logs' fsync/byte counters."""
        now = self.engine.clock()
        for peer in self.peer_names:
            outbox = self.outboxes.get(peer)
            if outbox is not None:
                self.m_channel_backlog.labels(peer=peer).set(
                    outbox.backlog
                )
            seen = self.peer_last_seen.get(peer)
            if seen is not None:
                self.m_peer_staleness.labels(peer=peer).set(now - seen)
            self.m_peer_alive.labels(peer=peer).set(
                1 if self.peer_alive(peer) else 0
            )
        self._check_degraded_transition()
        self.m_degraded.set(1 if self.degraded() else 0)
        self.m_unacked.set(len(self._unacked))
        logs = [
            ("outbox/%s" % peer, box)
            for peer, box in self.outboxes.items()
        ] + [
            ("inbox/%s" % src, box)
            for src, box in self.inboxes.items()
        ]
        for label, box in logs:
            self.m_log_fsync.labels(log=label).set_to(box.fsync_count)
            self.m_log_fsync_seconds.labels(log=label).set_to(
                box.fsync_seconds
            )
            self.m_log_bytes.labels(log=label).set_to(box.bytes_written)
            self.m_log_compactions.labels(log=label).set_to(
                box.compaction_count
            )
            self.m_log_compacted.labels(log=label).set_to(
                box.compacted_records
            )

    async def _handle_metrics(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Expose the registry: Prometheus text plus a JSON mirror.

        One verb serves both formats so a scrape is a single request;
        sampled gauges are refreshed first, so every scrape is a
        consistent point-in-time snapshot.
        """
        self._refresh_gauges()
        return {
            "site": self.name,
            "prometheus": self.registry.render_prometheus(),
            "metrics": self.registry.to_dict(),
            "trace_recorded": self.trace.recorded,
            "trace_dropped": self.trace.dropped,
        }

    async def _handle_values(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        return {"values": self.engine.snapshot()}

    async def _handle_stats(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        now = self.engine.clock()
        peers: Dict[str, Dict[str, Any]] = {}
        for peer in self.peer_names:
            seen = self.peer_last_seen.get(peer)
            lats = self._ack_latencies.get(peer)
            peers[peer] = {
                "alive": self.peer_alive(peer),
                "staleness": (
                    None if seen is None else round(now - seen, 4)
                ),
                "backlog": self.outboxes[peer].backlog,
                "failures": self.channel_failures.get(peer, 0),
                "ack_high_water": self.outboxes[peer].frontier,
                "acked_msets": self.acked_msets.get(peer, 0),
                "ack_ms": (
                    round(sum(lats) / len(lats) * 1000.0, 3)
                    if lats
                    else None
                ),
                "wire": self._peer_wire.get(peer, WIRE_JSON),
            }
        stats = self.engine.stats()
        stats.update(
            site=self.name,
            wire=self.wire,
            peers=peers,
            degraded=self.degraded(),
            outbound_backlog={
                p: box.backlog for p, box in self.outboxes.items()
            },
            ack_high_water={
                p: box.frontier for p, box in self.outboxes.items()
            },
            inbox_frontier={
                src: box.frontier for src, box in self.inboxes.items()
            },
            unacked_updates=len(self._unacked),
            drained=self._drained(),
            catching_up=self._catching_up,
            catchup_installs=self.catchup_installs,
            backlog_limit=self.backlog_limit,
            snapshot={
                "exists": self._snapshot_store.exists(),
                "frontiers": dict(self._snapshot_frontiers),
                "age": (
                    None
                    if self._last_snapshot_at is None
                    else round(now - self._last_snapshot_at, 4)
                ),
            },
            log_bases={
                "inbox": {
                    src: box.base for src, box in self.inboxes.items()
                },
                "outbox": {
                    p: box.base for p, box in self.outboxes.items()
                },
            },
        )
        if self.shard_index is not None:
            stats["shard"] = {
                "index": self.shard_index,
                "count": self.shard_count,
                "epoch": self.shard_epoch,
                "accepting": self._shard_accepting,
                "retired": self._shard_retired,
            }
        election = dict(self.election.wire())
        election["order_site"] = self.current_leader()
        election["synced"] = self._epoch_synced
        stats["election"] = election
        stats["membership"] = self.membership.wire()
        return {"stats": stats}

    async def _handle_settle(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Block until this site is drained (or ``wait`` seconds pass).

        This is the poll-free replacement for clients hammering the
        ``stats`` verb: waiters sleep on the drain condition and are
        woken by the ack/apply/commit paths, with a short safety
        re-check cap in case a wake-up is missed across a restart.
        """
        timeout = float(frame.get("wait", 30.0))
        deadline = self.engine.clock() + timeout
        waited = False
        async with self._drain_cond:
            while not self._drained():
                waited = True
                remaining = deadline - self.engine.clock()
                if remaining <= 0:
                    raise TimeoutError(
                        "settle timed out after %.1fs: backlog %r"
                        % (
                            timeout,
                            {
                                p: box.backlog
                                for p, box in self.outboxes.items()
                            },
                        )
                    )
                try:
                    await asyncio.wait_for(
                        self._drain_cond.wait(), min(remaining, 0.25)
                    )
                except asyncio.TimeoutError:
                    pass
        self.trace.event("drain", waited=waited)
        return {
            "drained": True,
            "waited": waited,
            "ack_high_water": {
                p: self.outboxes[p].frontier for p in self.peer_names
            },
        }

    async def _handle_order(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        self._check_order_authority()
        return {"order": list(self._grant_order())}

    async def _handle_elect(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Vote request (or pure epoch read at ``epoch=0``) from a
        candidate.  A promise is durable before the reply leaves this
        process — a crash cannot un-promise — and carries the max
        durable order sequence this replica has seen, from which the
        winner computes its resume base."""
        epoch = int(frame.get("epoch", 0))
        candidate = str(frame.get("candidate", ""))
        granted = self.election.promise(epoch) if epoch > 0 else False
        if granted:
            self.trace.event(
                "election", phase="promise", epoch=epoch,
                candidate=candidate,
            )
        max_seen = getattr(self.engine, "max_order_seen", None)
        return {
            "promised": granted,
            "promised_epoch": self.election.promised,
            "epoch": self.election.epoch,
            "leader": self.election.leader,
            "base": self.election.base,
            "frontier": max_seen() if max_seen is not None else 0,
        }

    def _grant_order(self) -> Tuple[int, int]:
        """Issue the next gap-free global order token, stamped with the
        granting leader's epoch.  The grant is appended to the order
        log (fsynced under ``--fsync``) before the token is returned."""
        self._order_log.write(
            {"next": self._order_counter + 1, "epoch": self.election.epoch}
        )
        self._order_counter += 1
        return (self._order_counter, self.election.epoch)

    async def _acquire_order(self) -> Tuple[int, int]:
        """Get a token from the cluster's order authority, with retry.

        Re-resolves the current leader on every attempt, so an
        election mid-retry redirects the request instead of hammering
        the dead sequencer; a local lease refusal (leader fenced or
        not yet synced) backs off the same way."""
        backoff = self.retry_base
        while self._running:
            leader = self.current_leader()
            if leader == self.name:
                try:
                    self._check_order_authority()
                    return self._grant_order()
                except (Unavailable, ValueError):
                    await asyncio.sleep(backoff)
                    backoff = min(backoff * 2, self.retry_max)
                    continue
            try:
                if self._link_severed(leader):
                    raise ConnectionError(
                        "link to order site %s severed" % leader
                    )
                async with self._order_lock:
                    if self._order_conn is None or self._order_target != leader:
                        if self._order_conn is not None:
                            self._order_conn[1].close()
                            self._order_conn = None
                        addr = self.peer_addrs.get(
                            leader
                        ) or self.membership.address(leader)
                        if addr is None:
                            raise ConnectionError("no address for order site")
                        self._order_conn = await asyncio.open_connection(
                            *addr
                        )
                        self._order_target = leader
                    reader, writer = self._order_conn
                    await write_frame(
                        writer,
                        {"type": "request", "id": 0, "verb": "order"},
                    )
                    reply = await asyncio.wait_for(
                        read_frame(reader), timeout=5.0
                    )
                if reply is None or not reply.get("ok"):
                    raise ConnectionError(
                        "order request failed: %s"
                        % (reply or {}).get("error", "connection lost")
                    )
                order = reply["order"]
                self._note_peer_alive(leader)
                if len(order) > 1:
                    return (int(order[0]), int(order[1]))
                return (int(order[0]), 0)
            except (OSError, ConnectionError, asyncio.TimeoutError):
                if self._order_conn is not None:
                    self._order_conn[1].close()
                    self._order_conn = None
                    self._order_target = None
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, self.retry_max)
        raise ConnectionError("server stopping")

    def _check_shard(self, keys: Sequence[str]) -> None:
        """Refuse work this replica's group does not own.

        A retired group (fenced out by a migration) refuses everything;
        an owning group refuses keys that hash elsewhere; a migration
        target that has not adopted the shard yet refuses with
        ``UNAVAILABLE`` so routers hold their (safe-to-retry) requests
        until the cutover completes.  Unsharded replicas skip all of
        this — ``shard=None`` means the whole keyspace is local.
        """
        if self.shard_index is None:
            return
        if self._shard_retired:
            raise WrongShard(
                "shard %d was migrated away from this group (epoch %d)"
                % (self.shard_index, self.shard_epoch),
                self._shard_map,
            )
        if not self._shard_accepting:
            raise Unavailable(
                "shard %d is migrating onto this group; retry shortly"
                % self.shard_index
            )
        for key in keys:
            owner = key_shard(key, self.shard_count)
            if owner != self.shard_index:
                raise WrongShard(
                    "key %r belongs to shard %d, not %d"
                    % (key, owner, self.shard_index),
                    self._shard_map,
                )

    async def _handle_update(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        ops = decode_ops(frame.get("ops", ()))
        if not ops:
            raise ValueError("update without operations")
        if not any(is_write(op) for op in ops):
            raise ValueError("update ET must contain a write (use query)")
        self._check_shard([op.key for op in ops])
        if self._catching_up:
            # Accepting an update mid-install would stamp it with a tid
            # the incoming snapshot is about to overwrite.
            self.m_updates_rejected.labels(reason="catchup").inc()
            raise Unavailable(
                "update refused: replica is installing a peer snapshot"
            )
        if self.backlog_limit:
            worst = max(
                (box.backlog for box in self.outboxes.values()), default=0
            )
            if worst >= self.backlog_limit:
                # Shed write load instead of growing the durable queues
                # without bound while a peer is slow or partitioned.
                self.m_updates_rejected.labels(reason="overloaded").inc()
                raise Overloaded(
                    "update refused: channel backlog %d >= limit %d"
                    % (worst, self.backlog_limit)
                )
        self.engine.validate_update(ops)
        writes = tuple(op for op in ops if is_write(op))
        read_keys = [op.key for op in ops if op.is_read_op]

        saga = frame.get("saga")
        abort = bool(frame.get("abort"))
        is_compe = hasattr(self.engine, "decision_of")
        if (saga is not None or abort) and not is_compe:
            raise ValueError(
                "saga/abort updates need the COMPE method (got %s)"
                % self.engine.method_name
            )
        if saga is not None and (not isinstance(saga, str) or not saga):
            raise ValueError("saga id must be a non-empty string")

        order = None
        if self.engine.needs_order:
            order = await self._acquire_order()

        # The tid-assign -> record -> append -> apply region runs under
        # the apply lock so a concurrent snapshot never captures a
        # frontier whose engine effects it lacks (commit waits happen
        # after release).
        async with self._apply_lock:
            if order is not None and hasattr(self.engine, "order_admissible"):
                if not self.engine.order_admissible(order):
                    # The granting leader was deposed between the grant
                    # and our durable record: refuse *before* any log
                    # append, so a fenced update is never client-acked.
                    self.m_updates_rejected.labels(reason="fenced").inc()
                    raise Unavailable(
                        "order token %r fenced by a newer leadership epoch"
                        % (list(order),)
                    )
            tid_seq = self.inboxes[LOCAL_CHANNEL].frontier + 1
            tid = "%s:%d" % (self.name, tid_seq)
            info_items = []
            if read_keys:
                info_items.append(("reads", read_keys))
            if saga is not None:
                info_items.append(("saga", saga))
            info = tuple(info_items)
            # The engine owns local MSet construction: RITU stamps the
            # writes with its Lamport clock here, RITU-MV additionally
            # turns the order token into the global transaction number.
            mset = self.engine.make_mset(tid, writes, order=order, info=info)
            payload = {"mset": encode_mset(mset)}
            # Encode the payload exactly once; the same bytes become
            # the local log line, every outbox log line, and (on a
            # binary channel) the relayed wire bytes.
            blob = payload_blob(payload)
            self.trace.event(
                "update-submit", tid=tid, keys=list(mset.keys)
            )

            # Durability before acknowledgement: the local log first,
            # then every outbound channel log.  Only then is the update
            # "in the stable queues" in the paper's sense.  ``sync()``
            # closes the ``fsync_interval`` window — nothing below may
            # be reported committed while its record is still unsynced.
            self.inboxes[LOCAL_CHANNEL].record(tid_seq, payload, blob=blob)
            self._local_keys[tid] = mset.keys
            if self.peer_names:
                self._unacked[tid] = set(self.peer_names)
                for peer in self.peer_names:
                    seq = self.outboxes[peer].append(payload, blob=blob)
                    self._seq_tid[(peer, seq)] = tid
            self.inboxes[LOCAL_CHANNEL].sync()
            for peer in self.peer_names:
                self.outboxes[peer].sync()

            loop = asyncio.get_event_loop()
            if self.engine.needs_order:
                self._apply_futures[tid] = loop.create_future()
            if self.engine.sync_commit and self.peer_names:
                self._full_ack_futures[tid] = loop.create_future()

            applied = await self.engine.accept(mset, local=True)
            self._resolve_applied(applied)
        self.trace.event(
            "update-apply", tid=tid, held=(mset not in applied)
        )
        self._kick_channels()

        if not self.peer_names:
            await self.engine.fully_acked(tid, self._local_keys.pop(tid, ()))

        if self.engine.needs_order:
            # Commit once the update executes at its origin in global
            # order (read-modify-report values are evaluated there).
            fut = self._apply_futures.get(tid)
            if fut is not None:
                await asyncio.wait_for(fut, timeout=self.commit_timeout)
        if self.engine.sync_commit and self.peer_names:
            # Synchronous baseline: wait for every peer's durable ack.
            fut = self._full_ack_futures.get(tid)
            if fut is not None:
                await asyncio.wait_for(fut, timeout=self.commit_timeout)
        decided: Optional[str] = None
        if is_compe:
            # COMPE commits optimistically; the *decision* is a separate
            # durable MSet.  Outside a saga the origin decides COMMIT
            # immediately; a saga step stays undecided until the saga's
            # ``decide`` verb; ``abort`` exercises backward recovery on
            # the spot (the validation-failure path of the paper).
            if abort:
                await self._emit_decision(tid, "abort")
                self.m_updates_rejected.labels(reason="compensated").inc()
                raise Compensated(
                    "update %s applied optimistically and undone by "
                    "backward recovery (abort requested)" % tid,
                    [tid],
                )
            if saga is None:
                await self._emit_decision(tid, "commit")
                decided = "commit"
        values = self.engine.pop_read_results(tid)
        await self._notify_drain()
        body = {"tid": tid, "values": values}
        if decided is not None:
            body["decided"] = decided
        if saga is not None:
            body["saga"] = saga
        return body

    async def _emit_decision(self, target: str, outcome: str) -> str:
        """Originate a durable decision MSet for ``target``.

        Decisions travel the same durable path as updates — local inbox
        record first, then every outbound channel log — but under a
        *fresh* tid with ``info=(("decides", target),)``: reusing the
        update's tid would corrupt the ack bookkeeping
        (``_seq_tid``/``_unacked``) that still tracks the update itself.
        The origin emits both the update and its decision on the same
        channels, so every replica sees update-before-decision and a
        decision can never arrive for an update it has not logged.
        """
        kind = MSetKind.ABORT if outcome == "abort" else MSetKind.COMMIT
        async with self._apply_lock:
            tid_seq = self.inboxes[LOCAL_CHANNEL].frontier + 1
            tid = "%s:%d" % (self.name, tid_seq)
            mset = MSet(
                tid,
                kind,
                (),
                origin=self.name,
                info=(("decides", target),),
            )
            payload = {"mset": encode_mset(mset)}
            blob = payload_blob(payload)
            self.trace.event(
                "decision-submit", tid=tid, decides=target, outcome=outcome
            )
            self.inboxes[LOCAL_CHANNEL].record(tid_seq, payload, blob=blob)
            self._local_keys[tid] = mset.keys
            if self.peer_names:
                self._unacked[tid] = set(self.peer_names)
                for peer in self.peer_names:
                    seq = self.outboxes[peer].append(payload, blob=blob)
                    self._seq_tid[(peer, seq)] = tid
            self.inboxes[LOCAL_CHANNEL].sync()
            for peer in self.peer_names:
                self.outboxes[peer].sync()
            applied = await self.engine.accept(mset, local=True)
            self._resolve_applied(applied)
        self._kick_channels()
        if not self.peer_names:
            await self.engine.fully_acked(tid, self._local_keys.pop(tid, ()))
        await self._notify_drain()
        return tid

    async def _handle_decide(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Decide a saga (or an explicit tid list) commit or abort.

        ``{"saga": S}`` resolves to the saga's member tids in submission
        order; an abort decides them in *reverse* submission order — the
        saga pattern's backward recovery.  Already-decided tids are
        skipped (the first decision is final), which makes retrying a
        partially delivered decide idempotent.
        """
        if not hasattr(self.engine, "decision_of"):
            raise ValueError(
                "decide needs the COMPE method (got %s)"
                % self.engine.method_name
            )
        outcome = frame.get("outcome")
        if outcome not in ("commit", "abort"):
            raise ValueError("decide outcome must be 'commit' or 'abort'")
        saga = frame.get("saga")
        tids = frame.get("tids")
        if saga is not None:
            targets = self.engine.saga_members(saga)
            if not targets:
                raise ValueError(
                    "unknown saga %r (no recorded steps here)" % (saga,)
                )
        elif tids:
            targets = [str(t) for t in tids]
        else:
            raise ValueError("decide needs a 'saga' id or a 'tids' list")
        if outcome == "abort":
            targets = list(reversed(targets))
        decided: List[str] = []
        skipped: List[Dict[str, Any]] = []
        for target in targets:
            prior = self.engine.decision_of(target)
            if prior is not None:
                skipped.append({"tid": target, "outcome": prior})
                continue
            await self._emit_decision(target, outcome)
            decided.append(target)
        body: Dict[str, Any] = {
            "outcome": outcome,
            "decided": decided,
            "skipped": skipped,
        }
        if outcome == "abort":
            body["compensated"] = list(decided)
        if saga is not None:
            body["saga"] = saga
        return body

    def _applied_frontiers(self) -> Dict[str, int]:
        """Per-site applied frontier vector, with the local channel
        published under this site's own name (the wire/session-token
        namespace — ``_local`` is a private disk-layout detail)."""
        return {
            (self.name if src == LOCAL_CHANNEL else src): box.frontier
            for src, box in self.inboxes.items()
        }

    def _check_session(self, token: Any) -> None:
        """Refuse a session read this replica cannot serve honestly.

        The token carries per-site frontiers; every site this replica
        replicates (itself or a peer channel) must have caught up to
        its entry.  Sites the replica does not know (another shard's
        group, under the router) are not its partition to check and
        are skipped — their owning group checks them.
        """
        if not isinstance(token, dict) or not token:
            return
        frontiers = self._applied_frontiers()
        lagging: Dict[str, int] = {}
        for site, seq in token.items():
            try:
                need = int(seq)
            except (TypeError, ValueError):
                continue
            have = frontiers.get(str(site))
            if have is not None and have < need:
                lagging[str(site)] = need - have
        if lagging:
            self.m_session_stale.inc()
            self.trace.event("session-stale", lagging=lagging)
            raise SessionStale(
                "session read refused: applied frontiers lag the token by %r"
                % (lagging,),
                frontiers,
            )

    async def _handle_query(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        keys = frame.get("keys")
        if not keys or not all(isinstance(k, str) for k in keys):
            raise ValueError("query needs a list of string keys")
        self._check_shard(keys)
        spec = decode_spec(frame.get("spec"))
        self._check_session(frame.get("session"))
        self.trace.event(
            "read",
            keys=len(keys),
            strict=spec.is_strict,
            session=bool(frame.get("session")),
        )
        if spec.is_strict and self.peer_names:
            outcome = await self._strict_query_guarded(keys, spec)
        else:
            try:
                outcome = await self.engine.query(
                    keys, spec, timeout=self.query_timeout
                )
            except QueryTimeout as exc:
                raise QueryTimeout(str(exc)) from None
        self.engine.note_query_outcome(outcome, spec)
        frontiers = self._applied_frontiers()
        return {
            "values": outcome.values,
            "inconsistency": outcome.inconsistency,
            "overlap": list(outcome.overlap),
            "waits": outcome.waits,
            "degraded": self.degraded(),
            "served_by": self.name,
            "frontiers": frontiers,
            # How far behind the group this replica can prove it is,
            # in update counts (gossiped own-update frontiers vs what
            # has actually been received here).
            "staleness": self.membership.frontier_lag(frontiers),
        }

    async def _strict_query_guarded(self, keys, spec):
        """Serve an ``epsilon = 0`` query with degraded-mode fail-fast.

        A strict query must reflect full replica agreement; while a
        peer is suspected that agreement cannot be reached (COMMU's
        lock counters stay raised, ORDUP's order stream may be ahead
        elsewhere), so the honest answer is a typed ``UNAVAILABLE``
        within a bounded time — not a silent hang until the query
        timeout.  The guard also trips for queries already in flight
        when the partition starts.
        """
        if self._catching_up:
            raise Unavailable(
                "epsilon=0 query refused: replica is installing a peer"
                " snapshot"
            )
        if self.degraded():
            raise Unavailable(
                "epsilon=0 query refused: peers %s suspected"
                % ",".join(self.suspected_peers())
            )
        query_task = asyncio.ensure_future(
            self.engine.query(keys, spec, timeout=self.query_timeout)
        )
        watcher = asyncio.ensure_future(self._until_degraded())
        try:
            done, _ = await asyncio.wait(
                {query_task, watcher},
                return_when=asyncio.FIRST_COMPLETED,
            )
        finally:
            for task in (query_task, watcher):
                if not task.done():
                    task.cancel()
        if query_task in done:
            watcher.cancel()
            return query_task.result()  # raises QueryTimeout if it lost
        raise Unavailable(
            "epsilon=0 query aborted: peers %s became unreachable"
            % ",".join(self.suspected_peers())
        )

    async def _until_degraded(self) -> None:
        """Resolve when the server enters degraded mode."""
        while not self.degraded():
            await asyncio.sleep(self.heartbeat_interval / 2)
