"""Small durable state as appended records: StateLog and its users.

``StateLog`` keeps last-record-wins state (the ORDUP sequencer's last
grant, election promises, the membership table) as appended JSON lines.
The tests cut the log at every byte offset inside its last record and
check that a restart restores the last complete record — the state a
crash before that write would have left — and that nothing the
replica had already let leave the process (an order token, a vote) is
handed out twice.
"""

import asyncio
import os

from repro.live import LiveCluster
from repro.live import durable_queue as dq
from repro.live.durable_queue import StateLog
from repro.live.election import ElectionState
from repro.live.gossip import ALIVE, MembershipTable, NodeRecord
from repro.live.server import ReplicaServer


def run(coro):
    return asyncio.run(coro)


def _last_record_start(raw):
    """Offset of the first byte of the log's last line."""
    return raw.rstrip(b"\n").rfind(b"\n") + 1


def _lines(path):
    return path.read_bytes().splitlines()


class TestStateLog:
    def test_empty_log_has_no_value(self, tmp_path):
        log = StateLog(tmp_path / "state.log")
        assert log.value is None
        log.close()

    def test_last_record_wins_across_reopen(self, tmp_path):
        path = tmp_path / "state.log"
        log = StateLog(path)
        for n in range(1, 4):
            log.write({"n": n})
        assert log.value == {"n": 3}
        log.close()

        reopened = StateLog(path)
        assert reopened.value == {"n": 3}
        assert len(_lines(path)) == 3  # appended, never rewritten
        reopened.close()

    def test_torn_at_every_byte_restores_the_last_complete_record(
        self, tmp_path
    ):
        path = tmp_path / "state.log"
        log = StateLog(path)
        log.write({"n": 1})
        log.write({"n": 2})
        log.close()
        raw = path.read_bytes()

        for cut in range(_last_record_start(raw), len(raw)):
            path.write_bytes(raw[:cut])
            reopened = StateLog(path)
            assert reopened.value == {"n": 1}, cut
            # The torn bytes are cut, so the next record lands on a
            # line of its own and survives another reopen.
            reopened.write({"n": 9})
            reopened.close()
            again = StateLog(path)
            assert again.value == {"n": 9}, cut
            again.close()

    def test_folds_to_one_record_after_the_fixed_append_count(
        self, tmp_path
    ):
        path = tmp_path / "state.log"
        log = StateLog(path)
        for n in range(dq.STATE_LOG_FOLD_EVERY):
            log.write({"n": n})
        assert len(_lines(path)) == dq.STATE_LOG_FOLD_EVERY
        log.write({"n": "folded"})
        assert _lines(path) == [b'{"meta":"state","state":{"n":"folded"}}']
        log.write({"n": "after"})
        log.close()

        reopened = StateLog(path)
        assert reopened.value == {"n": "after"}
        assert len(_lines(path)) == 2
        reopened.close()

    def test_fsync_runs_before_write_returns(self, tmp_path, monkeypatch):
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            dq.os, "fsync", lambda fd: (calls.append(fd), real_fsync(fd))
        )
        log = StateLog(tmp_path / "state.log", fsync=True)
        log.write({"n": 1})
        assert len(calls) == 1
        log.write({"n": 2})
        assert len(calls) == 2
        log.close()


def _ordup_server(data_dir):
    return ReplicaServer("site0", [], data_dir, method="ordup")


class TestOrderLog:
    def test_grants_append_to_the_order_log(self, tmp_path):
        async def main():
            server = _ordup_server(tmp_path)
            await server.bind()
            try:
                tokens = [server._grant_order() for _ in range(3)]
            finally:
                await server.stop()
            assert tokens == [(1, 0), (2, 0), (3, 0)]
            assert not (tmp_path / "order.json").exists()
            assert len(_lines(tmp_path / "order.log")) == 3

        run(main())

    def test_torn_grant_never_regrants_a_completed_token(self, tmp_path):
        """Every token whose record was completely written may have
        left the process; a restart after any torn tail must grant
        strictly above all of them."""

        async def main():
            server = _ordup_server(tmp_path)
            await server.bind()
            try:
                for _ in range(5):
                    server._grant_order()
            finally:
                await server.stop()
            path = tmp_path / "order.log"
            raw = path.read_bytes()

            for cut in range(_last_record_start(raw), len(raw)):
                path.write_bytes(raw[:cut])
                reborn = _ordup_server(tmp_path)
                await reborn.bind()
                try:
                    # Tokens 1..4 completed; the torn record for 5
                    # never returned, so 5 is the next token.
                    assert reborn._grant_order() == (5, 0), cut
                    assert reborn._grant_order() == (6, 0), cut
                finally:
                    await reborn.stop()
                again = _ordup_server(tmp_path)
                await again.bind()
                try:
                    assert again._grant_order() == (7, 0), cut
                finally:
                    await again.stop()
                path.write_bytes(raw)

        run(main())

    def test_torn_order_log_on_a_restarted_leader_keeps_ordup_live(
        self, tmp_path
    ):
        """A 3-site ORDUP cluster: 5 increments, kill the sequencer,
        tear the tail of its order log, restart it.  The restarted
        sequencer must not re-grant a token its replica already holds,
        so the next increment at site1 commits instead of waiting
        forever in hold-back."""

        async def main():
            # A slow detector keeps site0 the leader across the restart.
            cluster = LiveCluster(
                n_sites=3, method="ordup", data_dir=tmp_path,
                suspect_after=10.0,
            )
            await cluster.start()
            try:
                c1 = await cluster.client("site1")
                for _ in range(5):
                    await c1.increment("k", 1)
                await cluster.settle(timeout=30.0)
                await cluster.kill("site0")
                path = tmp_path / "site0" / "order.log"
                raw = path.read_bytes()
                path.write_bytes(raw[: len(raw) - 5])
                await cluster.restart("site0")

                await asyncio.wait_for(c1.increment("k", 1), 10.0)
                await cluster.settle(timeout=30.0)
                values = await cluster.site_values()
                assert {v["k"] for v in values.values()} == {6}
                assert cluster.servers["site0"].election.epoch == 0
                await c1.close()
            finally:
                await cluster.stop()

        run(main())


class TestElectionLog:
    def test_promise_is_fsynced_before_it_returns(
        self, tmp_path, monkeypatch
    ):
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            dq.os, "fsync", lambda fd: (calls.append(fd), real_fsync(fd))
        )
        state = ElectionState(tmp_path / "election.log", fsync=True)
        state.load()
        assert state.promise(3)
        assert len(calls) == 1
        assert not state.promise(3)  # refused: nothing written
        assert len(calls) == 1
        state.close()

    def test_failed_write_refuses_the_promise(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("a file where the data dir should be")
        state = ElectionState(blocker / "election.log")
        assert state.promise(4) is False
        assert state.promised == 0
        assert state.adopt(4, "siteB", base=7) is False
        assert (state.epoch, state.leader, state.promised) == (0, None, 0)

    def test_torn_promise_restores_the_previous_one(self, tmp_path):
        path = tmp_path / "election.log"
        state = ElectionState(path)
        state.load()
        state.promise(2)
        state.promise(3)
        state.close()
        raw = path.read_bytes()

        for cut in range(_last_record_start(raw), len(raw)):
            path.write_bytes(raw[:cut])
            reborn = ElectionState(path)
            reborn.load()
            # The torn promise for 3 never returned True, so 3 may
            # still be promised; 2 may not.
            assert reborn.promised == 2, cut
            assert not reborn.promise(2)
            reborn.close()


class TestMembershipLog:
    def test_frontier_hints_append_no_record(self, tmp_path):
        path = tmp_path / "membership.log"
        table = MembershipTable("siteA", path)
        table.load()
        table.update_self(host="127.0.0.1", port=7000)
        before = _lines(path)
        for n in range(100):
            table.update_self(frontier=n + 1, applied=2 * n)
        table.merge([
            NodeRecord("siteA", "127.0.0.1", 7000,
                       incarnation=table.self_record().incarnation,
                       frontier=500).wire(),
        ])
        assert _lines(path) == before
        assert table.self_record().frontier == 100
        table.close()

    def test_durable_changes_append_a_record(self, tmp_path):
        path = tmp_path / "membership.log"
        table = MembershipTable("siteA", path)
        table.load()
        count = len(_lines(path))
        table.update_self(host="127.0.0.1", port=7000)
        table.merge([NodeRecord("siteB", "127.0.0.1", 7001).wire()])
        table.update_self(shard=1)
        assert len(_lines(path)) == count + 3
        table.close()

    def test_load_bumps_incarnation_across_a_restart(self, tmp_path):
        path = tmp_path / "membership.log"
        table = MembershipTable("siteA", path)
        table.load()
        first = table.self_record().incarnation
        table.update_self(frontier=42)
        table.close()

        reborn = MembershipTable("siteA", path)
        reborn.load()
        assert reborn.self_record().incarnation == first + 1
        assert reborn.self_record().status == ALIVE
        reborn.close()

        third = MembershipTable("siteA", path)
        third.load()
        assert third.self_record().incarnation == first + 2
        third.close()


def test_no_state_file_is_rewritten_in_place(tmp_path):
    async def main():
        server = _ordup_server(tmp_path)
        await server.bind()
        server._grant_order()
        await server.stop()

    run(main())
    names = sorted(p.name for p in tmp_path.iterdir() if p.is_file())
    assert names == ["election.log", "membership.log", "order.log"]
