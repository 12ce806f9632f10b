"""Unit tests for the coordinator side of the multi-process engine.

Almost everything here runs without spawning a single child process: the
worker transport's routing/stamping logic is driven directly, the
coordinator's reply collection and quiescence double check run against
scripted worker statuses, and the coordinator transport is exercised as the
configuration-and-counters handle it is.  Only the per-run pool lifecycle
tests at the end spawn real workers.  The cross-process end-to-end behaviour lives in
``tests/integration/test_multiproc_parity.py``.
"""

import multiprocessing
import queue

import pytest

from repro.api import ScenarioSpec, Session
from repro.api.engine import engine_for
from repro.core.system import P2PSystem
from repro.errors import NetworkError, ReproError
from repro.faults import FaultPlan, FaultSpec
from repro.network.message import Message, MessageType
from repro.sharding import MultiprocEngine, MultiprocTransport, ShardPlan
from repro.sharding import multiproc
from repro.sharding.multiproc import (
    ShardWorld,
    _WorkerTransport,
    _await_replies,
    _check_workers,
    _quiescence_rounds,
    _worlds_from_system,
)
from repro.database.schema import DatabaseSchema, RelationSchema
from repro.coordination.rule import rule_from_text


def _item_schemas(*names):
    return {
        name: DatabaseSchema([RelationSchema("item", ["x", "y"])]) for name in names
    }


class _ListQueue:
    """A stand-in for an mp.Queue capturing what a worker would ship out."""

    def __init__(self):
        self.items = []

    def put(self, item):
        self.items.append(item)


class TestMultiprocTransport:
    def test_engine_for_picks_multiproc_engine(self):
        transport = MultiprocTransport(shard_count=2)
        assert isinstance(engine_for(transport), MultiprocEngine)

    def test_system_build_knows_the_multiproc_kind(self):
        system = P2PSystem.build(
            _item_schemas("a", "b"), transport="multiproc", shards=3
        )
        assert isinstance(system.transport, MultiprocTransport)
        assert system.transport.shard_count == 3

    def test_send_is_refused_on_the_coordinator(self):
        transport = MultiprocTransport(shard_count=2)
        transport.register("a", lambda message: None)
        with pytest.raises(NetworkError):
            transport.send(
                Message(sender="a", recipient="a", type=MessageType.QUERY)
            )

    def test_plan_must_cover_registered_peers(self):
        transport = MultiprocTransport(shard_count=2)
        transport.register("a", lambda message: None)
        transport.register("b", lambda message: None)
        with pytest.raises(NetworkError):
            transport.apply_plan(ShardPlan(shard_count=2, shard_of={"a": 0}))

    def test_plan_with_too_many_shards_raises(self):
        transport = MultiprocTransport(shard_count=1)
        with pytest.raises(NetworkError):
            transport.apply_plan(
                ShardPlan(shard_count=2, shard_of={"a": 0, "b": 1})
            )

    def test_at_least_one_shard_required(self):
        with pytest.raises(NetworkError):
            MultiprocTransport(shard_count=0)

    def test_shard_of_requires_a_plan(self):
        transport = MultiprocTransport(shard_count=2)
        with pytest.raises(NetworkError):
            transport.shard_of("a")

    def test_record_run_accumulates_counters(self):
        transport = MultiprocTransport(shard_count=2)
        transport.record_run({0: 10, 1: 5}, cross_shard=3)
        transport.record_run({0: 2}, cross_shard=1)
        assert transport.delivered_count == 17
        assert transport.shard_message_counts() == {0: 12, 1: 5}
        assert transport.cross_shard_messages == 4
        assert transport.intra_shard_messages == 13

    def test_engine_rejects_other_transports(self, chain_system):
        with pytest.raises(ReproError):
            MultiprocEngine().run(chain_system, "update")

    def test_engine_rejects_unknown_phase(self):
        system = P2PSystem.build(
            _item_schemas("a"), transport="multiproc", shards=1
        )
        with pytest.raises(ReproError):
            MultiprocEngine().run(system, "gossip")


class TestWorkerTransport:
    def _transport(self):
        outboxes = [_ListQueue(), _ListQueue()]
        transport = _WorkerTransport(
            shard_index=0,
            shard_of={"a": 0, "b": 1},
            outboxes=outboxes,
            latency=None,  # defaults to ConstantLatency(1.0)
            max_messages=100,
        )
        transport.register("a", lambda message: None)
        transport.register("b", lambda message: None)
        return transport, outboxes

    def test_local_send_stays_in_the_worker(self):
        transport, outboxes = self._transport()
        transport.send(Message(sender="b", recipient="a", type=MessageType.QUERY))
        assert outboxes[1].items == []
        transport.drain()
        assert transport.delivered == 1
        assert transport.cross_sent == [0, 0]

    def test_cross_send_goes_through_the_outbox(self):
        transport, outboxes = self._transport()
        transport.send(Message(sender="a", recipient="b", type=MessageType.QUERY))
        assert transport.cross_sent == [0, 1]
        kind, deliver_at, message = outboxes[1].items[0]
        assert kind == "msg"
        assert deliver_at == pytest.approx(1.0)  # clock 0 + constant latency
        assert message.recipient == "b"
        # Cross-shard messages are not delivered locally.
        transport.drain()
        assert transport.delivered == 0

    def test_received_cross_message_advances_the_clock(self):
        transport, _outboxes = self._transport()
        transport.receive_cross(
            7.5, Message(sender="b", recipient="a", type=MessageType.ANSWER)
        )
        transport.drain()
        assert transport.clock == pytest.approx(7.5)
        assert transport.cross_received == 1

    def test_unregistered_recipient_raises(self):
        transport, _outboxes = self._transport()
        with pytest.raises(NetworkError):
            transport.send(
                Message(sender="a", recipient="zz", type=MessageType.QUERY)
            )

    def test_recipient_outside_the_shard_plan_raises(self):
        transport, _outboxes = self._transport()
        transport.register("c", lambda message: None)
        with pytest.raises(NetworkError, match="outside the shard plan"):
            transport.send(
                Message(sender="a", recipient="c", type=MessageType.QUERY)
            )

    def test_drain_limit_bounds_the_batch(self):
        transport, _outboxes = self._transport()
        for _ in range(3):
            transport.send(
                Message(sender="b", recipient="a", type=MessageType.QUERY)
            )
        transport.drain(limit=2)
        assert transport.delivered == 2
        assert transport.has_local_work
        transport.drain()
        assert transport.delivered == 3
        assert not transport.has_local_work

    def test_status_reports_the_counters_quiescence_compares(self):
        transport, _outboxes = self._transport()
        transport.send(Message(sender="b", recipient="a", type=MessageType.QUERY))
        transport.send(Message(sender="a", recipient="b", type=MessageType.QUERY))
        # A local delivery is still queued: the worker is not idle.
        assert transport.status()["idle"] is False
        transport.drain()
        status = transport.status()
        assert status == {
            "idle": True,
            "sent": (0, 1),
            "received": 0,
            "delivered": 1,
            "clock": pytest.approx(1.0),
        }

    def test_max_messages_bound_raises(self):
        outboxes = [_ListQueue()]
        transport = _WorkerTransport(0, {"a": 0}, outboxes, None, max_messages=2)

        def echo(message):
            transport.send(
                Message(sender="a", recipient="a", type=MessageType.QUERY)
            )

        transport.register("a", echo)
        transport.send(Message(sender="a", recipient="a", type=MessageType.QUERY))
        with pytest.raises(NetworkError):
            transport.drain()


def _status(idle=True, sent=(0, 0), received=0, delivered=0):
    return {
        "idle": idle,
        "sent": sent,
        "received": received,
        "delivered": delivered,
        "clock": 0.0,
    }


class _Liveness:
    """A stand-in for a worker process handle (``is_alive`` + ``exitcode``)."""

    def __init__(self, alive=True, exitcode=None):
        self.alive = alive
        self.exitcode = exitcode

    def is_alive(self):
        return self.alive


class _ScriptedShards:
    """The worker side of the ping/status exchange, without processes.

    Each ping put on a shard's inbox makes that shard post its next scripted
    status to the shared results queue; the last status repeats once the
    script runs out.
    """

    def __init__(self, *scripts):
        self.results = queue.Queue()
        self.scripts = [list(script) for script in scripts]
        self.inboxes = [self._Inbox(self, shard) for shard in range(len(scripts))]
        self.workers = [_Liveness() for _ in scripts]

    class _Inbox:
        def __init__(self, shards, shard):
            self.shards = shards
            self.shard = shard

        def put(self, item):
            assert item[0] == "ping"
            script = self.shards.scripts[self.shard]
            status = script.pop(0) if len(script) > 1 else script[0]
            self.shards.results.put(("status", self.shard, status))

    def rounds(self, max_messages=1_000):
        return _quiescence_rounds(
            self.results,
            self.inboxes,
            len(self.inboxes),
            max_messages,
            self.workers,
        )


class TestQuiescenceRounds:
    """The coordinator's double check, driven by scripted worker statuses."""

    def test_quiet_workers_are_certified_in_two_rounds(self):
        shards = _ScriptedShards([_status(delivered=4)], [_status(delivered=2)])
        assert shards.rounds() == 2

    def test_a_message_in_flight_across_the_cut_delays_the_certificate(self):
        # Shard 0 has sent one message to shard 1 that has not arrived yet:
        # both are idle, but the sent/received sums do not balance.
        shards = _ScriptedShards(
            [_status(sent=(0, 1), delivered=1)],
            [
                _status(received=0),
                _status(received=0),
                _status(received=1, delivered=1),
            ],
        )
        # The two unbalanced rounds agree with each other, yet do not count.
        assert shards.rounds() == 4

    def test_local_work_delays_the_certificate(self):
        # Counters alone cannot tell: round 2 repeats round 1's fingerprint,
        # but shard 0 has deliveries queued at reply time.
        shards = _ScriptedShards(
            [
                _status(delivered=3),
                _status(idle=False, delivered=3),
                _status(delivered=3),
            ],
            [_status()],
        )
        assert shards.rounds() == 4

    def test_deliveries_between_rounds_restart_the_double_check(self):
        # Two balanced, all-idle rounds are not enough when the counters
        # moved between them: something was delivered in the gap.
        shards = _ScriptedShards(
            [_status(delivered=5), _status(delivered=6)],
            [_status()],
        )
        assert shards.rounds() == 3

    def test_delivery_bound_across_shards_raises(self):
        shards = _ScriptedShards([_status(delivered=6)], [_status(delivered=6)])
        with pytest.raises(NetworkError, match="exceeded 10 deliveries"):
            shards.rounds(max_messages=10)

    def test_no_progress_within_the_timeout_raises(self, monkeypatch):
        monkeypatch.setattr(multiproc, "_WORKER_TIMEOUT", 0.05)
        shards = _ScriptedShards([_status(idle=False, delivered=1)], [_status()])
        with pytest.raises(NetworkError, match="stalled"):
            shards.rounds()


class TestAwaitReplies:
    def test_replies_of_another_kind_are_skipped(self):
        results = queue.Queue()
        for item in (("status", 0, _status()), ("ready", 1), ("ready", 0)):
            results.put(item)
        collected = _await_replies(
            results, "ready", 2, [_Liveness(), _Liveness()]
        )
        assert collected == {0: None, 1: None}

    def test_an_error_reply_raises_with_the_worker_traceback(self):
        results = queue.Queue()
        results.put(("error", 1, "Traceback: boom"))
        with pytest.raises(NetworkError, match="shard 1 worker failed") as caught:
            _await_replies(results, "ready", 2, [_Liveness(), _Liveness()])
        assert "boom" in str(caught.value)

    def test_a_dead_worker_with_a_reply_outstanding_raises(self):
        results = queue.Queue()
        results.put(("ready", 0))
        workers = [_Liveness(), _Liveness(alive=False, exitcode=-9)]
        with pytest.raises(NetworkError, match=r"shard 1 .*exit code -9"):
            _await_replies(results, "ready", 2, workers)

    def test_no_reply_within_the_timeout_raises(self, monkeypatch):
        monkeypatch.setattr(multiproc, "_WORKER_TIMEOUT", 0.0)
        with pytest.raises(NetworkError, match="timed out waiting for 2"):
            _await_replies(queue.Queue(), "ready", 2, [_Liveness(), _Liveness()])

    def test_a_dead_worker_that_already_replied_is_not_a_crash(self):
        # A worker may exit right after its last reply (the pool closing);
        # only a missing reply from a dead worker is a crash.
        dead = _Liveness(alive=False, exitcode=0)
        _check_workers([dead], collected={0: None})
        with pytest.raises(NetworkError, match="died unexpectedly"):
            _check_workers([dead], collected={})


class TestShardWorlds:
    def test_worlds_slice_data_by_ownership(self):
        system = P2PSystem.build(
            _item_schemas("a", "b"),
            [rule_from_text("ab", "b: item(X, Y) -> a: item(X, Y)")],
            {"a": {"item": [("1", "2")]}, "b": {"item": [("3", "4")]}},
            transport="multiproc",
            shards=2,
        )
        plan = ShardPlan(shard_count=2, shard_of={"a": 0, "b": 1})
        worlds = _worlds_from_system(system, plan)
        assert [world.owned for world in worlds] == [("a",), ("b",)]
        assert set(worlds[0].data_slice) == {"a"}
        assert set(worlds[1].data_slice) == {"b"}
        # Schemas and rules span the whole network in every world (rules
        # mention remote peers, so each worker rebuilds the full graph).
        for world in worlds:
            assert set(world.schemas) == {"a", "b"}
            assert len(world.rules) == 1

    def test_world_is_picklable(self):
        import pickle

        world = ShardWorld(
            shard_index=0,
            shard_of={"a": 0, "b": 1},
            schemas=_item_schemas("a", "b"),
            rules=(rule_from_text("ab", "b: item(X, Y) -> a: item(X, Y)"),),
            data_slice={"a": {"item": frozenset({("1", "2")})}},
            propagation={"a": "once", "b": "once"},
            latency=None,
            max_messages=10,
        )
        clone = pickle.loads(pickle.dumps(world))
        assert clone.owned == ("a",)
        assert clone.data_slice["a"]["item"] == frozenset({("1", "2")})


class TestOneShotPoolLifecycle:
    """Each run spawns its own pool, closes it, and leaves no worker behind."""

    SPEC = ScenarioSpec.of(
        {
            "a": [RelationSchema("item", ["x", "y"])],
            "b": [RelationSchema("item", ["x", "y"])],
            "c": [RelationSchema("item", ["x", "y"])],
        },
        ["r1: b: item(X, Y) -> a: item(X, Y)", "r2: c: item(X, Y) -> b: item(X, Y)"],
        {"c": {"item": [("1", "2")]}},
        transport="multiproc",
        shards=2,
    )

    @staticmethod
    def _record_pools(engine):
        """Wrap the engine's pool spawn so the test sees every pool it makes."""
        pools = []
        spawn = engine._spawn_pool

        def recording(system, transport):
            pool = spawn(system, transport)
            pools.append(pool)
            return pool

        engine._spawn_pool = recording
        return pools

    @staticmethod
    def _live_worker_pids(pools):
        live = {child.pid for child in multiprocessing.active_children()}
        return {pid for pool in pools for pid in pool.worker_pids} & live

    def test_each_update_runs_on_fresh_workers_that_exit(self):
        with Session.from_spec(self.SPEC) as session:
            pools = self._record_pools(session.engine)
            session.update()
            session.update()
            assert session.system.node("a").database.facts()["item"] == {("1", "2")}
            assert len(pools) == 2
            assert all(pool.closed for pool in pools)
            first, second = (set(pool.worker_pids) for pool in pools)
            assert len(first) == len(second) == 2
            assert not first & second
            assert not self._live_worker_pids(pools)

    def test_failed_run_leaves_no_worker_behind(self):
        # A chase-phase kill always lands mid-run; with no recovery budget
        # the run raises, and the pool must still be torn down.
        plan = FaultPlan(
            faults=[FaultSpec(kind="kill_worker", phase="chase", run_index=0)]
        )
        with Session.from_spec(self.SPEC.with_(faults=plan)) as session:
            pools = self._record_pools(session.engine)
            with pytest.raises(NetworkError):
                session.update()
            assert len(pools) == 1
            assert pools[0].closed
            assert not self._live_worker_pids(pools)
