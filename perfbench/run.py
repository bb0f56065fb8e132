"""Live multi-process benchmark of the replica-control runtime.

    python3 perfbench/run.py --workload commu-write --seed 1 \\
        --seconds 30 --trace 0

Boots three ``serve`` replicas (site0-site2, full mesh, ``--fsync`` on,
default batch size, window and wire), each its own process started
through ``pbshim.py``, which makes fsync return at once as on tmpfs
and hands over to the ``python -m repro serve`` entry point.  It drives
them from this one process and event-loop thread: a closed loop of 16
requests in flight over two connections, to site0 and site1, on
zipfian keys.  Workloads:

* ``commu-write``: COMMU, every request a single-key increment;
* ``commu-read``:  COMMU, 90% bounded queries (epsilon 4), 10% increments;
* ``ordup-write``: ORDUP, 90% increments, 10% bounded queries.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload twice, for half the seconds each: untraced, and then with
spans recorded by ``pbshim.py``.  It reports the per-layer metrics and
a waterfall of one update's time.  Span self times are wall time, so
an async span (``engine.query``, ``engine.accept``) also counts the
time its task was suspended.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 for a
correct run, 1 when the correctness gate fails (the metrics are
printed all the same) and 2 when the run cannot start.

Data directories live under ``.perfbench_run/`` in the checkout and
are deleted after the run; a leftover one, or a leftover ``serve``
process, fails the next run.
"""

import argparse
import asyncio
import gc
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import sys
from typing import Any, Dict, List, Tuple

import pbcore
import pblive
from pbcore import INC, QUERY, WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".perfbench_run"
WARMUP = 2.0
#: replicas are booted this many times per run; setup_s is the median.
SETUPS = 3

E2E_UNITS = {
    "setup_s": "s",
    "ops_s": "1/s",
    "update_p50_ms": "ms",
    "server_cpu_ms_per_op": "ms",
}
LAYER_UNITS = {
    "client.cpu_ms_per_op": "ms",
    "client.update_p99_ms": "ms",
    "server.site0.cpu_ms_per_op": "ms",
    "server.site1.cpu_ms_per_op": "ms",
    "server.site2.cpu_ms_per_op": "ms",
    "server.unattributed_ms": "ms",
    "durable_queue.record.self_us": "us",
    "durable_queue.record_many.self_us": "us",
    "durable_queue.append.self_us": "us",
    "durable_queue.append_many.self_us": "us",
    "durable_queue.sync.self_us": "us",
    "durable_queue.ack_through.self_us": "us",
    "durable_queue.fsyncs_per_update": "count/update",
    "durable_queue.bytes_per_update": "bytes/update",
    "durable_queue.ack_writes_per_update": "count/update",
    "engine.accept.self_us": "us",
    "engine.accept_batch.self_us": "us",
    "engine.accept_batch.msets_per_call": "msets/call",
    "engine.query.waits_per_query": "count/query",
    "engine.query.inconsistency_mean": "count",
    "engine.holdback_ms": "ms",
    "protocol.payload_blob.self_us": "us",
    "protocol.decode_ops.self_us": "us",
    "protocol.encode_bin_batch_frame.self_us": "us",
    "protocol.decode_bin_frame.self_us": "us",
    "protocol.frames_per_update": "count/update",
    "protocol.msets_per_frame": "msets/frame",
    "channel.ack_latency_ms": "ms",
    "channel.backlog_end": "count",
    "ordup.order_requests_per_update": "count/update",
    "trace.overhead_frac": "frac",
}
#: spans of the update path the waterfall breaks an update into.
UPDATE_ROOT = "server.update"


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


class Phase:
    """One measured window on one cluster, reduced to numbers."""

    def __init__(self, window: pblive.Window, scrapes: Dict[str, Any]):
        self.window = window
        self.scrapes = scrapes
        done = window.in_window()
        self.attempted = len(done)
        self.failed = sum(1 for *_, ok in done if not ok)
        self.ok_ops = self.attempted - self.failed
        self.ops_s = self.ok_ops / (window.t1 - window.t0)
        self.latencies = _latencies(done)
        cpu0, cpu1 = window.server_cpu
        self.site_cpu_ms = [_ms(b - a) for a, b in zip(cpu0, cpu1)]
        self.client_cpu_ms = _ms(window.client_cpu[1] - window.client_cpu[0])
        self.updates_total = sum(window.acked.values())
        self.problems = pbcore.check_gate(
            scrapes["values"], window.acked, window.sent,
            any(not ok for *_, ok in window.requests),
            window.inconsistencies,
        )

    def per_op(self, ms: float) -> float:
        return ms / self.ok_ops if self.ok_ops else 0.0

    def pct(self, kind: str, q: float) -> Tuple[float, int, int]:
        """(value, samples, samples beyond it) of a latency percentile."""
        samples = self.latencies[kind]
        value, beyond = pbcore.percentile(samples, q)
        return value, len(samples), beyond

    def scraped(self, name: str, field: str = "value", when: str = "settled",
                sites=range(3), **labels: str) -> float:
        return sum(
            pblive.metric_total(self.scrapes[when][i], name, field, **labels)
            for i in sites
        )

    def per_update(self, amount: float) -> float:
        return amount / self.updates_total if self.updates_total else 0.0


def _latencies(requests) -> Dict[str, List[float]]:
    """Milliseconds of the successful requests, by kind."""
    return {
        kind: [_ms(end - began) for k, began, end, ok in requests
               if ok and k == kind]
        for kind in (INC, QUERY)
    }


async def _measure(cluster, plan, seconds: float) -> Phase:
    window = await pblive.drive(cluster, plan, WARMUP, seconds)
    scrapes = await pblive.after_window(cluster)
    return Phase(window, scrapes)


async def run_workload(
    workload: str, seed: int, seconds: float, trace: bool
) -> Dict[str, Any]:
    method, _ = WORKLOADS[workload]
    phase_seconds = seconds / 2.0 if trace else seconds
    plan = pbcore.build_plan(workload, seed, WARMUP + phase_seconds)
    # The plan's few hundred thousand tuples live for the whole run;
    # keep full collections from pausing the load loop to scan them.
    gc.freeze()
    clusters: List[Any] = []

    def boot(tag: str, traced: bool = False):
        cluster = pblive.Cluster(ROOT, RUN_DIR / tag, method, traced=traced)
        clusters.append(cluster)
        return cluster

    out: Dict[str, Any] = {"setups": []}
    try:
        for attempt in range(1 if trace else SETUPS):
            cluster = boot("setup%d" % attempt)
            out["setups"].append(await cluster.start())
            if attempt < SETUPS - 1 and not trace:
                cluster.stop()
                cluster.remove()
        out["plain"] = await _measure(cluster, plan, phase_seconds)
        cluster.stop()
        cluster.remove()
        if trace:
            cluster = boot("traced", traced=True)
            await cluster.start()
            out["traced"] = await _measure(cluster, plan, phase_seconds)
            cluster.stop()
            out["spans"] = cluster.load_spans()
            cluster.remove()
    finally:
        for cluster in clusters:
            cluster.stop()
            cluster.remove()
    return out


def end_to_end(out: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
    """name -> (value, sample note)."""
    ph: Phase = out["plain"]
    p50, n_up, _ = ph.pct(INC, 50)
    return {
        "setup_s": (statistics.median(out["setups"]),
                    "median of %d boots" % len(out["setups"])),
        "ops_s": (ph.ops_s, "%d ops" % ph.ok_ops),
        "update_p50_ms": (p50, "n=%d" % n_up),
        "server_cpu_ms_per_op": (ph.per_op(sum(ph.site_cpu_ms)),
                                 "%d ops" % ph.ok_ops),
    }


def _layer_calls(spans_by_site) -> Dict[str, Tuple[int, float]]:
    calls: Dict[str, List[float]] = {}
    for dump in spans_by_site:
        for name, (n, total) in pbcore.layer_table(dump["spans"]).items():
            row = calls.setdefault(name, [0, 0.0])
            row[0] += n
            row[1] += total
    return {name: (int(n), t) for name, (n, t) in calls.items()}


def _update_waterfall(spans_by_site) -> Tuple[int, Dict[str, float]]:
    """Mean seconds one update spends in each traced layer at its
    origin (site0 and site1 take the client updates)."""
    roots, totals = 0, {}
    for dump in spans_by_site[:2]:
        n, table = pbcore.root_breakdown(dump["spans"], UPDATE_ROOT)
        roots += n
        for name, mean in table.items():
            totals[name] = totals.get(name, 0.0) + mean * n
    return roots, {k: v / roots for k, v in totals.items()} if roots else {}


def per_layer(out: Dict[str, Any], lines: List[str]) -> Dict[str, float]:
    plain: Phase = out["plain"]
    traced: Phase = out["traced"]
    spans = out["spans"]
    calls = _layer_calls(spans)
    counters: Dict[str, int] = {}
    for dump in spans:
        for name, n in dump["counters"].items():
            counters[name] = counters.get(name, 0) + n

    def self_us(name: str) -> float:
        n, total = calls.get(name, (0, 0.0))
        return total / n * 1e6 if n else 0.0

    holdbacks = [
        _ms(end - start) for dump in spans
        for _, name, start, end, *_ in dump["spans"]
        if name == "engine.holdback"
    ]
    inc = plain.window.inconsistencies
    waits = plain.window.waits
    batches = plain.scraped("repro_batch_msets", "count")
    acks = plain.scraped("repro_ack_latency_seconds", "count")
    m = {
        "client.cpu_ms_per_op": plain.per_op(plain.client_cpu_ms),
        "client.update_p99_ms": plain.pct(INC, 99)[0],
        "durable_queue.fsyncs_per_update": plain.per_update(
            plain.scraped("repro_log_fsync_total")),
        "durable_queue.bytes_per_update": plain.per_update(
            plain.scraped("repro_log_bytes_total")),
        "durable_queue.ack_writes_per_update": traced.per_update(
            counters.get("ack_writes", 0)),
        "engine.accept_batch.msets_per_call": (
            counters.get("accept_batch_msets", 0)
            / max(1, counters.get("accept_batch_calls", 0))),
        "engine.query.waits_per_query": _mean(waits),
        "engine.query.inconsistency_mean": _mean(inc),
        "engine.holdback_ms": _mean(holdbacks),
        "protocol.frames_per_update": plain.per_update(
            plain.scraped("repro_propagation_frames_total")),
        "protocol.msets_per_frame": (
            plain.scraped("repro_batch_msets", "sum") / batches
            if batches else 0.0),
        "channel.ack_latency_ms": (
            _ms(plain.scraped("repro_ack_latency_seconds", "sum")) / acks
            if acks else 0.0),
        "channel.backlog_end": plain.scraped("repro_channel_backlog",
                                             when="at_end"),
        "ordup.order_requests_per_update": plain.per_update(
            plain.scraped("repro_requests_total", sites=[0], verb="order")),
        "trace.overhead_frac": (
            (plain.ops_s - traced.ops_s) / plain.ops_s if plain.ops_s else 0.0
        ),
    }
    for index, cpu in enumerate(plain.site_cpu_ms):
        m["server.site%d.cpu_ms_per_op" % index] = plain.per_op(cpu)
    for name in LAYER_UNITS:
        if name.endswith(".self_us"):
            m[name] = self_us(name[: -len(".self_us")])

    # Waterfall: one update's client-observed p50 split into the traced
    # layers' mean self times plus an explicit unattributed remainder.
    p50 = traced.pct(INC, 50)[0]
    roots, fall = _update_waterfall(spans)
    fall.pop(UPDATE_ROOT, None)  # the handler's own code is unattributed
    layered = sum(fall.values())
    m["server.unattributed_ms"] = p50 - _ms(layered)
    lines.append("waterfall of one update (traced p50 %.3f ms, %d updates):"
                 % (p50, roots))
    for name, seconds in sorted(fall.items(), key=lambda kv: -kv[1]):
        lines.append("  %-40s %9.1f us" % (name, seconds * 1e6))
    lines.append("  %-40s %9.1f us" % ("unattributed",
                                        m["server.unattributed_ms"] * 1e3))
    lines.append("layer self times over all calls at all sites:")
    for name, (n, total) in sorted(calls.items()):
        lines.append("  %-40s %9d calls %9.1f us/call"
                     % (name, n, total / n * 1e6))
    dropped = counters.get("dropped_spans", 0)
    if dropped:
        lines.append("warning: %d spans dropped (buffer full)" % dropped)
    return m


def provenance(workload: str, seed: int) -> Dict[str, Any]:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "event_loop": "asyncio default loop (serve without --uvloop)",
        "data_fs": pblive.filesystem_type(RUN_DIR),
        "flush_policy": "--fsync on, fsync returns at once as on tmpfs; "
                        "os.sync() before each boot; fresh data "
                        "directories, deleted after the run",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "live" / "server.py").is_file():
        print("error: no repro sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    leftovers = pblive.serve_processes(RUN_DIR)
    if RUN_DIR.exists() or leftovers:
        print("error: leftover from an earlier run (directory %s, serve "
              "pids %s); remove it before benchmarking" % (RUN_DIR, leftovers),
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    RUN_DIR.mkdir()
    try:
        prov = provenance(args.workload, args.seed)
        out = asyncio.run(run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace)
        ))
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)

    phases = [out["plain"]] + ([out["traced"]] if args.trace else [])
    problems = [p for ph in phases for p in ph.problems]
    lines = ["provenance: " + json.dumps(prov, sort_keys=True)]
    for ph in phases:
        if ph.window.errors:
            lines.append("errors: %s" % dict(ph.window.errors))
    if args.trace:
        values = per_layer(out, lines)
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in LAYER_UNITS.items()}
        for name, unit in LAYER_UNITS.items():
            lines.append("%-42s %12.4f %s" % (name, values[name], unit))
    else:
        e2e = end_to_end(out)
        metrics = {k: {"value": e2e[k][0], "unit": u}
                   for k, u in E2E_UNITS.items()}
        for name, unit in E2E_UNITS.items():
            value, note = e2e[name]
            lines.append("%-24s %12.4f %-4s (%s)" % (name, value, unit, note))
        # Reported, not gated: tails spread too far between runs on a
        # shared machine, only two workloads issue queries, and failures
        # are the result's own attempted/failed fields.
        ph = out["plain"]
        tails = [(INC, "update", 99)] + [
            (QUERY, "query", q) for q in (50, 99) if ph.latencies[QUERY]
        ]
        for kind, label, q in tails:
            value, n, beyond = ph.pct(kind, q)
            lines.append("%-24s %12.4f ms   (n=%d, %d beyond; not gated)"
                         % ("%s_p%d_ms" % (label, q), value, n, beyond))
        lines.append("%-24s %12.4f      (%d of %d attempted)" % (
            "failed_frac", ph.failed / max(1, ph.attempted), ph.failed,
            ph.attempted))
    lines.append("correctness: %s" % ("ok" if not problems else "FAILED"))
    lines.extend("  " + p for p in problems[:20])
    print("\n".join(lines))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(ph.attempted for ph in phases),
        "failed": sum(ph.failed for ph in phases),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
