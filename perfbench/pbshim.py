"""Start one replica for the benchmark.

Usage: ``python perfbench/pbshim.py [--spans OUT] serve ARGS...``

Flush policy: ``os.fsync`` returns at once, as it does on tmpfs.  The
replica still issues and counts every fsync (``--fsync`` is on), but
the flush latency of the shared disk under the checkout, which varied
by a third from run to run, stays out of the numbers.

With ``--spans`` the shim also wraps the durable queues, the method
engines, the peer wire codec and the update request handler.  Spans
(id, name, start, end, parent, tid) stay in memory; SIGTERM writes
them, with a few counters, as JSON to OUT and exits.

Either way it then hands over to the normal ``python -m repro serve``
entry point; nothing under ``src/`` is changed.
"""

import asyncio
import contextvars
import functools
import itertools
import json
import os
import signal
import sys
import time
from collections import Counter

#: spans kept per process; later calls are counted as dropped.
MAX_SPANS = 600_000

_current = contextvars.ContextVar("perfbench_span", default=None)


class Recorder:
    def __init__(self) -> None:
        self.spans = []
        self.counters = Counter()
        self._ids = itertools.count(1)
        #: tid -> time its MSet was handed to accept/accept_batch.
        self._accepted = {}

    def _open(self):
        """A new span id made current, with the parent and the token
        that restores it; (None, None, None) once the buffer is full."""
        if len(self.spans) >= MAX_SPANS:
            self.counters["dropped_spans"] += 1
            return None, None, None
        sid = next(self._ids)
        return sid, _current.get(), _current.set(sid)

    def _close(self, name, sid, parent, token, start, tid):
        _current.reset(token)
        self.spans.append((sid, name, start, time.perf_counter(), parent, tid))

    def wrap(self, name, fn):
        """``fn`` with a span named ``name`` around every call."""
        if asyncio.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced(*args, **kwargs):
                sid, parent, token = self._open()
                if sid is None:
                    return await fn(*args, **kwargs)
                start = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._close(name, sid, parent, token, start, _tid(args))

        else:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                sid, parent, token = self._open()
                if sid is None:
                    return fn(*args, **kwargs)
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(name, sid, parent, token, start, _tid(args))

        return traced

    def holdback(self, fn, many):
        """Wrap an engine ``accept``/``accept_batch`` so the time from
        accepting an MSet until it appears in an applied list is kept
        as an ``engine.holdback`` span."""

        @functools.wraps(fn)
        async def accept(engine, msets, *args, **kwargs):
            now = time.perf_counter()
            batch = msets if many else [msets]
            if many:
                self.counters["accept_batch_calls"] += 1
                self.counters["accept_batch_msets"] += len(batch)
            for mset in batch:
                self._accepted.setdefault(mset.tid, now)
            applied = await fn(engine, msets, *args, **kwargs)
            done = time.perf_counter()
            for mset in applied:
                start = self._accepted.pop(mset.tid, None)
                if start is not None and len(self.spans) < MAX_SPANS:
                    self.spans.append(
                        (next(self._ids), "engine.holdback", start, done,
                         None, mset.tid)
                    )
            return applied

        return accept

    def ack_writes(self, fn):
        """Count ``ack_through`` calls that advance (and so rewrite) the
        outbox's ack frontier file."""

        @functools.wraps(fn)
        def ack_through(box, seqno):
            before = box.frontier
            try:
                return fn(box, seqno)
            finally:
                if box.frontier > before:
                    self.counters["ack_writes"] += 1

        return ack_through

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"spans": self.spans, "counters": self.counters}, out)


def _tid(args):
    """The tid of an MSet passed as the call's first argument, if any."""
    return getattr(args[1], "tid", None) if len(args) > 1 else None


def install(rec: Recorder) -> None:
    from repro.live import durable_queue, engine, protocol, server

    def patch(owner, attr, name, inner=None):
        fn = getattr(owner, attr)
        setattr(owner, attr, rec.wrap(name, inner(fn) if inner else fn))

    for attr in ("record", "record_many", "sync"):
        patch(durable_queue.DurableInbox, attr, "durable_queue." + attr)
    for attr in ("append", "append_many", "sync"):
        patch(durable_queue.DurableOutbox, attr, "durable_queue." + attr)
    patch(
        durable_queue.DurableOutbox, "ack_through",
        "durable_queue.ack_through", rec.ack_writes,
    )
    for cls in (engine.CommuLiveEngine, engine.OrdupLiveEngine):
        patch(cls, "accept", "engine.accept",
              lambda fn: rec.holdback(fn, many=False))
        patch(cls, "accept_batch", "engine.accept_batch",
              lambda fn: rec.holdback(fn, many=True))
        patch(cls, "query", "engine.query")
    # server.py imports these by name, so they are patched there; the
    # frame reader resolves decode_bin_frame in protocol's namespace.
    for attr in ("payload_blob", "decode_ops", "encode_bin_batch_frame"):
        patch(server, attr, "protocol." + attr)
    patch(protocol, "decode_bin_frame", "protocol.decode_bin_frame")
    patch(server.ReplicaServer, "_handle_update", "server.update")


def _no_flush(fd) -> None:
    """``os.fsync`` as tmpfs implements it: nothing to flush."""


def main(argv) -> int:
    serve_args = argv[1:]
    os.fsync = _no_flush
    if serve_args[0] == "--spans":
        out, serve_args = serve_args[1], serve_args[2:]
        rec = Recorder()
        install(rec)

        def stop(signum, frame):
            rec.dump(out)
            os._exit(0)

        signal.signal(signal.SIGTERM, stop)
    from repro.__main__ import main as repro_main

    return repro_main(serve_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
