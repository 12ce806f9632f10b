"""Unit tests for the coordinator side of the multi-process engine.

Almost everything here runs without spawning a single child process: the
worker transport's routing/stamping logic is driven directly, and the
coordinator transport is exercised as the configuration-and-counters handle
it is.  Only the per-run pool lifecycle tests at the end spawn real workers.
The cross-process end-to-end behaviour lives in
``tests/integration/test_multiproc_parity.py``.
"""

import multiprocessing

import pytest

from repro.api import ScenarioSpec, Session
from repro.api.engine import engine_for
from repro.core.system import P2PSystem
from repro.errors import NetworkError, ReproError
from repro.faults import FaultPlan, FaultSpec
from repro.network.message import Message, MessageType
from repro.sharding import MultiprocEngine, MultiprocTransport, ShardPlan
from repro.sharding.multiproc import ShardWorld, _WorkerTransport, _worlds_from_system
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
