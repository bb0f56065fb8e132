"""Live side of the benchmark: three ``serve`` processes, the
closed-loop load and the scrapes made outside the timed window."""

import asyncio
import json
import os
import pathlib
import shutil
import signal
import socket
import subprocess
import sys
import time
from collections import Counter
from typing import Any, Dict, List, Sequence, Tuple

from pbcore import EPSILON, INC, Plan

SITES = ("site0", "site1", "site2")
HOST = "127.0.0.1"
SETUP_TIMEOUT = 30.0
REQUEST_TIMEOUT = 30.0
SHIM = pathlib.Path(__file__).resolve().with_name("pbshim.py")


def _free_ports(n: int) -> List[int]:
    socks = [socket.socket() for _ in range(n)]
    try:
        for sock in socks:
            sock.bind((HOST, 0))
        return [sock.getsockname()[1] for sock in socks]
    finally:
        for sock in socks:
            sock.close()


def proc_cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of one process, from /proc."""
    with open("/proc/%d/stat" % pid, encoding="ascii") as stat:
        fields = stat.read().rpartition(")")[2].split()
    # fields[11], fields[12] are utime and stime (stat fields 14, 15).
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def serve_processes(run_dir: pathlib.Path) -> List[int]:
    """Pids of ``serve`` processes whose data lives under ``run_dir``."""
    found = []
    marker = str(run_dir).encode()
    for entry in pathlib.Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        if b"serve" in cmdline and marker in cmdline:
            found.append(int(entry.name))
    return found


def filesystem_type(path: pathlib.Path) -> str:
    """Type of the filesystem holding ``path``, from /proc/mounts."""
    best, fstype = "", "unknown"
    path_s = str(path.resolve())
    with open("/proc/mounts", encoding="utf-8") as mounts:
        for line in mounts:
            parts = line.split()
            mount = parts[1]
            prefix = mount.rstrip("/") + "/"
            inside = path_s == mount or path_s.startswith(prefix)
            if inside and len(mount) > len(best):
                best, fstype = mount, parts[2]
    return fstype


class Cluster:
    """Three fresh replicas in a full mesh, each its own process."""

    def __init__(
        self,
        root: pathlib.Path,
        data_dir: pathlib.Path,
        method: str,
        traced: bool = False,
    ) -> None:
        self.root = root
        self.data_dir = data_dir
        self.method = method
        self.traced = traced
        self.ports = _free_ports(len(SITES))
        self.procs: List[subprocess.Popen] = []
        self._logs: List[Any] = []

    def addr(self, index: int) -> Tuple[str, int]:
        return HOST, self.ports[index]

    def spans_path(self, index: int) -> pathlib.Path:
        return self.data_dir / ("%s.spans.json" % SITES[index])

    def _command(self, index: int) -> List[str]:
        name = SITES[index]
        peers = ",".join(
            "%s=%s:%d" % (other, HOST, port)
            for other, port in zip(SITES, self.ports)
            if other != name
        )
        serve = [
            "serve", "--name", name, "--port", str(self.ports[index]),
            "--data", str(self.data_dir / name), "--peers", peers,
            "--method", self.method, "--fsync",
        ]
        if self.traced:
            serve = ["--spans", str(self.spans_path(index))] + serve
        return [sys.executable, str(SHIM)] + serve

    async def start(self) -> float:
        """Spawn the replicas; return seconds from the first spawn until
        every replica answers ``ping`` and reports both peers alive."""
        from repro.live.client import LiveClient

        self.data_dir.mkdir(parents=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        os.sync()
        started = time.perf_counter()
        for index, name in enumerate(SITES):
            log = open(self.data_dir / ("%s.log" % name), "wb")
            self._logs.append(log)
            self.procs.append(
                subprocess.Popen(
                    self._command(index), cwd=str(self.root), env=env,
                    stdout=log, stderr=subprocess.STDOUT,
                )
            )
        deadline = started + SETUP_TIMEOUT
        clients = []
        try:
            for index in range(len(SITES)):
                while True:
                    self._check_alive()
                    try:
                        clients.append(
                            await LiveClient.connect(
                                *self.addr(index), reconnect=False,
                                request_timeout=REQUEST_TIMEOUT,
                            )
                        )
                        break
                    except OSError:
                        if time.perf_counter() > deadline:
                            raise
                        await asyncio.sleep(0.01)
            for client in clients:
                await client.ping()
            while not await self._all_peers_alive(clients):
                self._check_alive()
                if time.perf_counter() > deadline:
                    raise RuntimeError("replicas never saw every peer alive")
                await asyncio.sleep(0.01)
            return time.perf_counter() - started
        finally:
            for client in clients:
                await client.close()

    @staticmethod
    async def _all_peers_alive(clients: Sequence[Any]) -> bool:
        for client in clients:
            peers = (await client.stats()).get("peers", {})
            if len(peers) != len(SITES) - 1 or not all(
                p.get("alive") for p in peers.values()
            ):
                return False
        return True

    def _check_alive(self) -> None:
        for name, proc in zip(SITES, self.procs):
            if proc.poll() is not None:
                raise RuntimeError(
                    "%s exited with code %s:\n%s"
                    % (name, proc.returncode, self.log_tail(name))
                )

    def log_tail(self, name: str, lines: int = 20) -> str:
        path = self.data_dir / ("%s.log" % name)
        try:
            text = path.read_text(errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])

    def cpu_seconds(self) -> List[float]:
        return [proc_cpu_seconds(proc.pid) for proc in self.procs]

    def stop(self) -> None:
        """SIGTERM every replica (a traced one writes its spans first)
        and wait until each has ended."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self.procs:
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for log in self._logs:
            log.close()
        self._logs.clear()

    def load_spans(self) -> List[Dict[str, Any]]:
        out = []
        for index in range(len(SITES)):
            with open(self.spans_path(index), encoding="utf-8") as f:
                out.append(json.load(f))
        return out

    def remove(self) -> None:
        shutil.rmtree(self.data_dir, ignore_errors=True)


class Window:
    """Every request of one run and the samples taken at its window."""

    def __init__(self) -> None:
        #: (kind, started, ended, ok) per completed request.
        self.requests: List[Tuple[str, float, float, bool]] = []
        self.acked: Counter = Counter()
        self.sent: Counter = Counter()
        self.inconsistencies: List[float] = []
        self.waits: List[int] = []
        self.errors: Counter = Counter()
        self.t0 = self.t1 = 0.0
        #: at t0 and t1: CPU seconds of each replica, and of this process.
        self.server_cpu: List[List[float]] = []
        self.client_cpu: List[float] = []

    def in_window(self) -> List[Tuple[str, float, float, bool]]:
        return [r for r in self.requests if self.t0 <= r[2] < self.t1]


async def drive(
    cluster: Cluster, plan: Plan, warmup: float, seconds: float
) -> Window:
    """Closed loop: one connection each to site0 and site1, every slot
    sending its next planned request when the previous reply arrives.
    Requests that end inside [t0, t1) form the timed window."""
    from repro.core.operations import IncrementOp
    from repro.core.transactions import EpsilonSpec
    from repro.live.client import LiveClient, LiveETFailed

    window = Window()
    spec = EpsilonSpec(import_limit=EPSILON)
    clients = [
        await LiveClient.connect(
            *cluster.addr(i), reconnect=False, request_timeout=REQUEST_TIMEOUT
        )
        for i in (0, 1)
    ]
    perf = time.perf_counter
    start = perf()
    window.t0 = start + warmup
    window.t1 = window.t0 + seconds

    async def slot(index: int) -> None:
        client = clients[index % len(clients)]
        record = window.requests.append
        for kind, key in plan[index]:
            began = perf()
            if began >= window.t1:
                return
            ok = True
            try:
                if kind == INC:
                    window.sent[key] += 1
                    await client.update([IncrementOp(key, 1)])
                    window.acked[key] += 1
                else:
                    result = await client.query([key], spec)
                    window.inconsistencies.append(result.inconsistency)
                    window.waits.append(result.waits)
            except (LiveETFailed, ConnectionError, OSError) as exc:
                ok = False
                window.errors[type(exc).__name__] += 1
            record((kind, began, perf(), ok))
        raise RuntimeError("slot %d ran out of planned requests" % index)

    async def sample_cpu() -> None:
        for at in (window.t0, window.t1):
            await asyncio.sleep(max(0.0, at - perf()))
            window.server_cpu.append(cluster.cpu_seconds())
            window.client_cpu.append(time.process_time())

    try:
        await asyncio.gather(
            sample_cpu(), *(slot(i) for i in range(len(plan)))
        )
    finally:
        for client in clients:
            await client.close()
    return window


async def after_window(cluster: Cluster) -> Dict[str, Any]:
    """Control traffic once the load is gone: a metrics scrape at the
    window's end, settle, the replicas' values, and a second scrape."""
    from repro.live.client import LiveClient

    clients = [
        await LiveClient.connect(
            *cluster.addr(i), reconnect=False, request_timeout=REQUEST_TIMEOUT
        )
        for i in range(len(SITES))
    ]
    try:
        at_end = [(await c.metrics())["metrics"] for c in clients]
        for client in clients:
            await client.settle(timeout=60.0)
        values = [await c.values() for c in clients]
        settled = [(await c.metrics())["metrics"] for c in clients]
    finally:
        for client in clients:
            await client.close()
    return {"at_end": at_end, "values": values, "settled": settled}


def metric_total(
    scrape: Dict[str, Any], name: str, field: str = "value", **labels: str
) -> float:
    """Sum of one sample field of a metric family over its children
    whose labels match ``labels`` (0.0 when the family is absent)."""
    family = scrape.get(name) or {}
    total = 0.0
    for sample in family.get("samples", ()):
        have = sample.get("labels", {})
        if all(have.get(k) == v for k, v in labels.items()):
            total += float(sample.get(field, 0.0))
    return total
