"""Multi-process sharded execution: one OS process per shard.

The :class:`~repro.sharding.planner.ShardPlanner` partitions the peers into
K shards; this module gives every shard a real worker **process**
(``multiprocessing`` spawn) with its own interpreter, GIL and event queue,
joined by inter-shard mailboxes, per-shard clocks and a
distributed-quiescence barrier:

* :class:`MultiprocTransport` is the coordinator-side handle: it carries the
  run configuration (shard count, latency, message bound), adopts the shard
  plan, and after a run exposes the merged per-shard counters
  (``shard_message_counts()``, ``cross_shard_messages``, ...).  It never
  delivers a message itself.
* ``_WorkerTransport`` lives inside each worker process: a discrete-event
  queue for intra-shard traffic plus outboxes (``multiprocessing`` queues)
  for messages whose recipient lives in another shard.  Cross-shard messages
  are stamped ``sender shard clock + latency`` by the sender and advance the
  receiving shard's clock on delivery.
* :class:`MultiprocEngine` implements the
  :class:`~repro.api.engine.ExecutionEngine` protocol: it plans the partition,
  spawns a :class:`~repro.sharding.pool.WorkerPool` for the run (shipping
  each worker a serializable *world*: schemas, rules, its shard's data
  slice), drives the phase to distributed quiescence, closes the pool, then
  merges the workers' final databases, protocol state and statistics back
  into the coordinator's system so ``Session.run`` / parity checks /
  experiments read one consistent picture.  The shard-worker loop itself is
  :func:`repro.sharding.pool._pool_worker_main`, the only one every
  process-backed engine runs.

Clock caveat: each worker drains its local queue to exhaustion between
stimuli and there is no global time synchronisation between shards, so the
*simulated* completion time of a multiproc run over-approximates the sync
engine's global discrete-event clock on dense cuts.  Wall-clock time is this
engine's honest metric; the simulated clocks exist so traffic ordering stays
causally sane.

Quiescence across processes uses the classic cumulative-counter double check:
the coordinator pings every worker for ``(cross-sent per shard, cross-received,
delivered)``; when two consecutive rounds report identical counters, every
worker idle, and ``sent == received`` for every shard, no message can still be
in flight (a straggler would leave some shard's ``sent`` above its
``received``), so the network is quiescent.
"""

from __future__ import annotations

import heapq
import queue as queue_module
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.coordination.rule import CoordinationRule, NodeId
from repro.errors import NetworkError, ReproError
from repro.faults.injector import WorkerFrameInjector, injector_of
from repro.network.latency import LatencyModel
from repro.network.message import Message
from repro.network.transport import BaseTransport
from repro.obs import get_logger, tracer_of
from repro.sharding.planner import ShardPlan, ShardPlanner
from repro.stats.collector import (
    ShardTrafficStats,
    StatisticsCollector,
    StatsSnapshot,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports us)
    from repro.core.system import P2PSystem
    from repro.faults.plan import FaultPlan
    from repro.sharding.pool import PoolLike

#: Seconds the coordinator waits for a worker to come up / answer before the
#: run is declared stuck.  Generous: a spawn re-imports the whole package.
#: This is a *stall* bound, not a run budget — the quiescence loop resets it
#: whenever the counters show progress, so long phases are fine as long as
#: deliveries keep happening.
_WORKER_TIMEOUT = 120.0

#: Local deliveries a worker executes between inbox polls.  Bounded batches
#: keep ping replies prompt (a worker never disappears into an unbounded
#: drain), which is what lets the coordinator tell "stalled" from "busy".
_DRAIN_BATCH = 500

_log = get_logger("multiproc")


# --------------------------------------------------------------------- worlds


@dataclass(frozen=True)
class ShardWorld:
    """Everything one worker process needs to rebuild its shard of the system.

    The payload is pickled by ``multiprocessing`` spawn, so every field holds
    plain library objects (schemas, rules, rows — all module-level classes).
    Each worker rebuilds the *full* node and rule graph (rules span shards, so
    every peer must exist everywhere) but loads only its own shard's data
    slice and only ever executes handlers of the peers it owns.
    """

    shard_index: int
    shard_of: dict[NodeId, int]
    schemas: dict[NodeId, object]
    rules: tuple[CoordinationRule, ...]
    data_slice: dict[NodeId, dict[str, frozenset]]
    propagation: dict[NodeId, str]
    latency: LatencyModel | None
    max_messages: int
    #: Simulated time already accumulated by earlier phases on this system;
    #: worker clocks start here so completion times stay monotone across
    #: consecutive runs, like the in-process transports' persistent clocks.
    clock_start: float = 0.0
    #: Trace id of the coordinator's tracer, or None when tracing is off;
    #: a worker that receives one records spans and ships them home in its
    #: result payload.
    trace_id: str | None = None
    #: Frame-fault subset of the session's fault plan (a
    #: :class:`~repro.faults.plan.FaultPlan` or None): workers rebuild a
    #: :class:`~repro.faults.injector.WorkerFrameInjector` from it and perturb
    #: their own cross-shard sends.  Worlds ship once per spawn, so a worker's
    #: run index counts ``start`` commands within its generation.
    fault_plan: "FaultPlan | None" = None

    @property
    def owned(self) -> tuple[NodeId, ...]:
        """The peers this shard's worker executes."""
        return tuple(
            sorted(n for n, s in self.shard_of.items() if s == self.shard_index)
        )


def _worlds_from_system(system: P2PSystem, plan: ShardPlan) -> list[ShardWorld]:
    """Slice a live coordinator system into one world per shard.

    Schemas and data are read from the *live* node databases (not the spec):
    a prior phase may have added relations or rows, and each new worker
    generation must start from the merged state of the previous one.
    """
    facts = {node_id: node.database.facts() for node_id, node in system.nodes.items()}
    schemas = {node_id: node.database.schema for node_id, node in system.nodes.items()}
    propagation = {node_id: node.propagation for node_id, node in system.nodes.items()}
    rules = tuple(system.registry)
    shard_of = dict(plan.shard_of)
    tracer = tracer_of(system)
    fault_plan = injector_of(system).worker_plan()
    worlds = []
    for shard in range(plan.shard_count):
        owned = {n for n, s in shard_of.items() if s == shard}
        worlds.append(
            ShardWorld(
                shard_index=shard,
                shard_of=shard_of,
                schemas=schemas,
                rules=rules,
                data_slice={n: facts[n] for n in owned if n in facts},
                propagation=propagation,
                latency=system.transport.latency,
                max_messages=system.transport.max_messages,
                clock_start=system.stats.simulated_time,
                trace_id=tracer.trace_id if tracer.enabled else None,
                fault_plan=fault_plan,
            )
        )
    return worlds


# ------------------------------------------------------------ worker process


class _WorkerTransport(BaseTransport):
    """The in-worker transport: local event queue + cross-shard outboxes."""

    def __init__(
        self,
        shard_index: int,
        shard_of: Mapping[NodeId, int],
        outboxes: list,
        latency: LatencyModel | None,
        max_messages: int,
        clock_start: float = 0.0,
    ):
        super().__init__(latency=latency, stats=StatisticsCollector())
        self.shard_index = shard_index
        self.shard_of = dict(shard_of)
        self.outboxes = outboxes
        self.max_messages = max_messages
        self.clock = clock_start
        self.delivered = 0
        self.cross_sent = [0] * len(outboxes)
        self.cross_received = 0
        self._queue: list[tuple[float, int, Message]] = []
        self._tiebreak = 0
        #: Worker-side frame injector (set by the worker mains when the
        #: shipped world carries a fault plan); None keeps sends untouched.
        self.fault_injector: WorkerFrameInjector | None = None

    def _push(self, deliver_at: float, message: Message) -> None:
        # Local monotone tie-break: Message objects are not orderable, and
        # sequence numbers from different processes can collide.
        self._tiebreak += 1
        heapq.heappush(self._queue, (deliver_at, self._tiebreak, message))

    def send(self, message: Message) -> None:
        """Queue locally for owned recipients, ship across the cut otherwise."""
        if message.recipient not in self._handlers:
            raise NetworkError(
                f"cannot send {message}: recipient is not registered"
            )
        target = self.shard_of.get(message.recipient)
        if target is None:
            raise NetworkError(
                f"cannot send {message}: recipient is outside the shard plan"
            )
        deliver_at = self.clock + self.latency.delay_for(message)
        if target == self.shard_index:
            self._push(deliver_at, message)
        else:
            if self.fault_injector is not None:
                # Frame faults model drop-as-retransmit / delay: the frame
                # still arrives exactly once (the cumulative-counter barrier
                # stays balanced) but pays extra simulated latency.
                deliver_at += self.fault_injector.frame_fault()
            self.outboxes[target].put(("msg", deliver_at, message))
            self.cross_sent[target] += 1

    def receive_cross(self, deliver_at: float, message: Message) -> None:
        """Accept one message from another shard's worker."""
        self.cross_received += 1
        self._push(deliver_at, message)

    @property
    def has_local_work(self) -> bool:
        """True while local deliveries are queued."""
        return bool(self._queue)

    def drain(self, limit: int | None = None) -> None:
        """Deliver queued local events (handlers may enqueue more).

        ``limit`` bounds the batch so the worker loop can interleave inbox
        polls (control pings, cross-shard arrivals) with long local chains;
        without it the drain runs to exhaustion (handlers may keep the queue
        alive, so exhaustion is only reached via the ``max_messages`` bound
        on divergent protocols).
        """
        remaining = limit
        while self._queue and (remaining is None or remaining > 0):
            if remaining is not None:
                remaining -= 1
            deliver_at, _tiebreak, message = heapq.heappop(self._queue)
            self.clock = max(self.clock, deliver_at)
            self.delivered += 1
            if self.delivered > self.max_messages:
                raise NetworkError(
                    f"shard {self.shard_index} exceeded {self.max_messages} "
                    "deliveries; the protocol does not appear to terminate"
                )
            self._deliver(message, self.clock)

    def status(self) -> dict:
        """The cumulative counters the quiescence rounds compare.

        ``idle`` reports whether the local queue was empty at reply time —
        required for quiescence, because with batched drains a worker can
        answer a ping while deliveries are still pending locally.
        """
        return {
            "idle": not self._queue,
            "sent": tuple(self.cross_sent),
            "received": self.cross_received,
            "delivered": self.delivered,
            "clock": self.clock,
        }


def _build_worker_system(world: ShardWorld, transport: _WorkerTransport) -> P2PSystem:
    from repro.core.system import P2PSystem

    system = P2PSystem(transport)
    for node_id, schema in world.schemas.items():
        system.add_node(
            node_id, schema, propagation=world.propagation.get(node_id, "once")
        )
    for rule in world.rules:
        system.add_rule(rule)
    system.load_data(world.data_slice)
    return system


def _start_worker_phase(
    system: P2PSystem, world: ShardWorld, phase: str, origins: Iterable[NodeId]
) -> None:
    owned = set(world.owned)
    for origin in origins:
        if origin in owned:
            if phase == "discovery":
                system.node(origin).discovery.start()
            elif phase == "update":
                system.node(origin).update.start()
            else:  # pragma: no cover - the engine validates the phase
                raise ReproError(f"unknown phase {phase!r}")


def _worker_payload(
    system: P2PSystem, world: ShardWorld, transport: _WorkerTransport, phase: str
) -> dict:
    """The final state one worker ships back: facts, protocol state, stats."""
    if phase == "discovery":
        for node_id in world.owned:
            system.node(node_id).discovery.finalize_paths()
    facts = {}
    schemas = {}
    node_state = {}
    for node_id in world.owned:
        node = system.node(node_id)
        facts[node_id] = node.database.facts()
        schemas[node_id] = node.database.schema
        node_state[node_id] = {
            "closed": node.is_update_closed,
            "edges": set(node.state.edges),
            "paths": dict(node.state.paths),
        }
    payload = {
        "facts": facts,
        "schemas": schemas,
        "node_state": node_state,
        # One aggregation code path for every engine: the worker ships its
        # whole metrics registry; the coordinator folds it in with
        # StatisticsCollector.merge_counters.
        "counters": transport.stats.dump_counters(),
        "delivered": transport.delivered,
        "cross_sent": tuple(transport.cross_sent),
        "cross_received": transport.cross_received,
        "clock": transport.clock,
    }
    tracer = tracer_of(transport)
    if tracer.enabled:
        payload["spans"] = tracer.drain()
        payload["trace_clock"] = time.time()
        # Ship-and-zero in place: the worker's databases hold references to
        # this ChaseProfile, so it must stay the same object across runs.
        chase = tracer.chase
        payload["chase_profile"] = vars(chase).copy()
        for name, value in vars(chase).items():
            setattr(chase, name, type(value)())
    return payload


# ------------------------------------------------- coordinator-side plumbing
#
# The await/quiescence helpers are module-level so both pool drivers — the
# mp-queue WorkerPool in :mod:`repro.sharding.pool` and the TCP SocketPool in
# :mod:`repro.sharding.sockets` — share one implementation of the cumulative-
# counter double check and of crashed-worker detection.


def _check_workers(workers, collected) -> None:
    """Raise when a worker died before delivering an expected reply.

    ``workers`` holds one liveness object per shard (``is_alive()`` and
    ``exitcode``); only a dead worker whose reply is still outstanding is a
    crash.
    """
    for shard, worker in enumerate(workers):
        if shard not in collected and not worker.is_alive():
            raise NetworkError(
                f"shard {shard} worker died unexpectedly "
                f"(exit code {worker.exitcode})"
            )


def _await_replies(results, kind: str, count: int, workers) -> dict[int, object]:
    """Collect one ``kind`` reply per shard (raising on errors and crashes)."""
    collected: dict[int, object] = {}
    deadline = time.monotonic() + _WORKER_TIMEOUT
    while len(collected) < count:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise NetworkError(
                f"timed out waiting for {count - len(collected)} shard "
                f"worker(s) to report {kind!r}"
            )
        try:
            item = results.get(timeout=min(remaining, 1.0))
        except queue_module.Empty:
            _check_workers(workers, collected)
            continue
        if item[0] == "error":
            raise NetworkError(
                f"shard {item[1]} worker failed:\n{item[2]}"
            )
        if item[0] == kind:
            collected[item[1]] = item[2] if len(item) > 2 else None
    return collected


def _quiescence_rounds(
    results, inboxes, shard_count: int, max_messages: int, workers
) -> int:
    """Ping workers until two identical, balanced, all-idle rounds agree.

    Counters are cumulative, so if round ``g`` equals round ``g-1`` with
    every worker idle (empty local queue at reply time) and every shard's
    received count matching the sum everyone sent to it, no delivery
    happened between the rounds and nothing is in flight — the
    distributed double check, with the mp queues as the channels.

    The stall deadline restarts whenever the counters move: a long phase
    that keeps delivering is healthy however many rounds it takes; only
    ``_WORKER_TIMEOUT`` seconds with *no* progress at all is a failure.

    Returns the number of ping rounds it took to certify quiescence (the
    "quiescence" span reports it as its ``rounds`` attribute).
    """
    previous = None
    last_progress = None
    generation = 0
    deadline = time.monotonic() + _WORKER_TIMEOUT
    while True:
        if time.monotonic() > deadline:
            raise NetworkError(
                "the multiproc run stalled: no delivery progress for "
                f"{_WORKER_TIMEOUT:.0f}s without reaching quiescence"
            )
        generation += 1
        for inbox in inboxes:
            inbox.put(("ping", generation))
        replies = _await_replies(results, "status", shard_count, workers)
        statuses = [replies[shard] for shard in sorted(replies)]
        if sum(status["delivered"] for status in statuses) > max_messages:
            raise NetworkError(
                f"exceeded {max_messages} deliveries across shards; "
                "the protocol does not appear to terminate"
            )
        all_idle = all(status["idle"] for status in statuses)
        balanced = all(
            sum(status["sent"][shard] for status in statuses)
            == statuses[shard]["received"]
            for shard in range(shard_count)
        )
        fingerprint = tuple(
            (status["sent"], status["received"], status["delivered"])
            for status in statuses
        )
        progress = tuple(status["delivered"] for status in statuses)
        if progress != last_progress:
            last_progress = progress
            deadline = time.monotonic() + _WORKER_TIMEOUT
        if all_idle and balanced and fingerprint == previous:
            _log.debug(
                "quiescence certified after %d round(s), %d delivered",
                generation,
                sum(progress),
            )
            return generation
        previous = fingerprint if (all_idle and balanced) else None
        # A failed check means traffic is still moving; yield briefly so
        # workers get scheduled before the next round.
        time.sleep(0.002)


class MultiprocTransport(BaseTransport):
    """Coordinator-side handle of a multi-process sharded run.

    It registers the system's peers like any transport (so the substrate
    builds unchanged) but never delivers: execution happens in the worker
    processes that :class:`MultiprocEngine` spawns.  After a run it holds the
    merged per-shard counters that :class:`ShardTrafficStats` reports.
    """

    def __init__(
        self,
        shard_count: int = 2,
        latency: LatencyModel | None = None,
        stats: StatisticsCollector | None = None,
        max_messages: int = 1_000_000,
    ):
        if shard_count < 1:
            raise NetworkError("a multiproc transport needs at least one shard")
        super().__init__(latency=latency, stats=stats)
        self.shard_count = shard_count
        self.max_messages = max_messages
        self.plan: ShardPlan | None = None
        self.delivered_count = 0
        self._delivered_by_shard: dict[int, int] = {}
        self._cross_shard = 0

    def apply_plan(self, plan: ShardPlan) -> None:
        """Adopt a shard plan covering every registered peer."""
        if plan.shard_count > self.shard_count:
            raise NetworkError(
                f"plan uses {plan.shard_count} shards but the transport "
                f"has only {self.shard_count}"
            )
        missing = [peer for peer in self._handlers if peer not in plan.shard_of]
        if missing:
            raise NetworkError(
                f"shard plan does not cover registered peers {sorted(missing)}"
            )
        self.plan = plan

    def shard_of(self, node_id: str) -> int:
        """The shard a peer is assigned to (after planning)."""
        if self.plan is None:
            raise NetworkError("the multiproc transport has no shard plan yet")
        return self.plan.shard(node_id)

    def send(self, message: Message) -> None:
        raise NetworkError(
            "the multiproc transport delivers only inside its worker "
            "processes; drive it through Session.run / MultiprocEngine"
        )

    @property
    def pending(self) -> int:
        """Always 0 between runs: deliveries only exist inside workers."""
        return 0

    # ---- merged counters (filled by the engine after each run) -------------

    def record_run(
        self, delivered_by_shard: Mapping[int, int], cross_shard: int
    ) -> None:
        """Accumulate one run's merged delivery counters."""
        for shard, count in delivered_by_shard.items():
            self._delivered_by_shard[shard] = (
                self._delivered_by_shard.get(shard, 0) + count
            )
        self.delivered_count += sum(delivered_by_shard.values())
        self._cross_shard += cross_shard

    def shard_message_counts(self) -> dict[int, int]:
        """Messages delivered per shard so far (merged across runs)."""
        counts = {shard: 0 for shard in range(self.shard_count)}
        counts.update(self._delivered_by_shard)
        return counts

    @property
    def cross_shard_messages(self) -> int:
        """Messages that crossed the cut (went through another process)."""
        return self._cross_shard

    @property
    def intra_shard_messages(self) -> int:
        """Delivered messages that stayed inside their worker process."""
        return self.delivered_count - min(self._cross_shard, self.delivered_count)

    def __repr__(self) -> str:
        planned = "planned" if self.plan is not None else "unplanned"
        return (
            f"MultiprocTransport({self.shard_count} shards, {planned}, "
            f"{self.delivered_count} delivered)"
        )


class MultiprocEngine:
    """Engine for the multi-process sharded transport.

    Each :meth:`run` spawns a :class:`~repro.sharding.pool.WorkerPool` (one
    worker process per shard, worlds shipped at spawn), drives the phase to
    distributed quiescence, collects and closes the pool, then merges the
    results back — the pool lives for exactly one run.  For repeat-run
    workloads use the persistent variant,
    :class:`repro.sharding.pool.PooledEngine`, which keeps the pool warm and
    re-ships only deltas (see ``docs/engines.md`` for the measured crossover
    points).
    """

    name = "multiproc"

    def __init__(self, planner: ShardPlanner | None = None):
        self.planner = planner

    def close(self) -> None:
        """Release engine-held resources (none here; pools die with each run)."""

    def __enter__(self) -> "MultiprocEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            self.close()
        except Exception:
            pass

    def _check(self, system: P2PSystem) -> MultiprocTransport:
        transport = system.transport
        if not isinstance(transport, MultiprocTransport):
            raise ReproError(
                "the multiproc engine needs a MultiprocTransport; "
                "use Session.run (which picks the engine) or build the system "
                "with transport='multiproc'"
            )
        return transport

    def _ensure_plan(self, system: P2PSystem, transport: MultiprocTransport) -> None:
        if transport.plan is not None:
            return
        planner = self.planner or ShardPlanner(transport.shard_count)
        transport.apply_plan(planner.plan_system(system))
        _log.debug(
            "planned %d peers across %d shards",
            len(system.nodes),
            transport.shard_count,
        )

    # ------------------------------------------------------------- protocol

    def run(
        self, system, phase: str, origins: Iterable[NodeId] | None = None
    ) -> tuple[float, StatsSnapshot]:
        if phase not in ("discovery", "update"):
            raise ReproError(
                f"unknown phase {phase!r}; expected 'discovery' or 'update'"
            )
        transport = self._check(system)
        tracer = tracer_of(system)
        with tracer.span("plan", shards=transport.shard_count):
            self._ensure_plan(system, transport)
        plan = transport.plan
        assert plan is not None
        if phase == "discovery":
            origin_list = (
                list(origins) if origins is not None else [system.super_peer]
            )
        else:
            origin_list = (
                list(origins) if origins is not None else sorted(system.nodes)
            )

        started = time.perf_counter()
        # Fault-injected runs may degrade to a cold re-run: the injector
        # detects the failure (a killed worker, an unhealed partition) and
        # grants re-runs from its plan's budget.  The coordinator's state is
        # only mutated by a *successful* _merge below, so a re-run starts
        # from exactly the state the failed attempt started from.
        injector = injector_of(system)
        while True:
            injector.start_run()
            try:
                payloads = self._drive_workers(system, plan, phase, origin_list)
                break
            except NetworkError as error:
                if not injector.should_rerun(error):
                    raise
                _log.warning(
                    "%s run failed under fault injection (%s); "
                    "degrading to a cold re-run",
                    self.name,
                    error,
                )
        wall = time.perf_counter() - started
        completion = self._merge(system, transport, payloads, wall)
        snapshot = system.stats.snapshot()
        snapshot = replace(
            snapshot, sharding=self._traffic_stats(transport, snapshot)
        )
        return completion, snapshot

    async def run_async(
        self, system, phase: str, origins: Iterable[NodeId] | None = None
    ) -> tuple[float, StatsSnapshot]:
        # The run blocks on child processes, not on this loop's I/O; like
        # SyncEngine, the awaitable form simply wraps the blocking one.
        return self.run(system, phase, origins)

    # ------------------------------------------------------------ internals

    def _drive_workers(
        self, system, plan: ShardPlan, phase: str, origins: Iterable[NodeId]
    ) -> list[dict]:
        """Spawn a pool for this one run, drive the phase, close the pool."""
        tracer = tracer_of(system)
        injector = injector_of(system)
        with tracer.span("ship", shards=plan.shard_count):
            pool = self._spawn_pool(system, self._check(system))
        try:
            pool.injector = injector
            injector.fire("ship", pool)
            return pool.run_phase(phase, origins, tracer=tracer)
        finally:
            pool.close()

    def _spawn_pool(self, system: P2PSystem, transport) -> PoolLike:
        """Bring a cold pool up over the live system's current state."""
        from repro.sharding.pool import WorkerPool  # pool imports this module

        return WorkerPool.spawn(system, transport.plan)

    def _merge(
        self, system, transport: MultiprocTransport, payloads: list[dict], wall: float
    ) -> float:
        """Fold the workers' final state back into the coordinator system."""
        from repro.core.state import UpdateState
        from repro.database.schema import RelationSchema

        collector = system.stats
        tracer = tracer_of(system)
        merge_span = tracer.start_span("merge", shards=len(payloads))
        delivered_by_shard: dict[int, int] = {}
        cross_shard = 0
        completion = 0.0
        total_delivered = 0
        for shard, payload in enumerate(payloads):
            delivered_by_shard[shard] = payload["delivered"]
            total_delivered += payload["delivered"]
            cross_shard += payload["cross_received"]
            completion = max(completion, payload["clock"])
            # --- databases: replace each owned node's relations wholesale.
            for node_id, facts in payload["facts"].items():
                node = system.node(node_id)
                shipped_schema = payload["schemas"][node_id]
                for relation_schema in shipped_schema:
                    if relation_schema.name not in node.database:
                        node.database.add_relation(
                            RelationSchema(
                                relation_schema.name,
                                list(relation_schema.attributes),
                            )
                        )
                for relation_name, rows in facts.items():
                    relation = node.database.relation(relation_name)
                    relation.clear()
                    relation.insert_many(rows)
            # --- protocol state: closed flags and discovery paths/edges.
            for node_id, state in payload["node_state"].items():
                node = system.node(node_id)
                if state["closed"]:
                    node.state.state_u = UpdateState.CLOSED
                node.state.edges |= state["edges"]
                node.state.paths.update(state["paths"])
            # --- statistics: every delivery was recorded in exactly one
            # worker (the recipient's), so summing via the shared registry
            # merge path is double-count free.
            collector.merge_counters(payload["counters"])
            # --- telemetry: worker spans nest under the open run span,
            # aligned for clock skew; chase profiles accumulate.
            if tracer.enabled and "spans" in payload:
                tracer.adopt(payload["spans"], clock=payload.get("trace_clock"))
                tracer.chase.merge(payload.get("chase_profile", {}))
        if total_delivered > transport.max_messages:
            raise NetworkError(
                f"exceeded {transport.max_messages} deliveries across shards; "
                "the protocol does not appear to terminate"
            )
        collector.advance_time(completion)
        collector.elapsed_wall_seconds += wall
        transport.record_run(delivered_by_shard, cross_shard)
        tracer.end_span(merge_span, completion=completion)
        return completion

    def _traffic_stats(
        self, transport: MultiprocTransport, snapshot: StatsSnapshot
    ) -> ShardTrafficStats:
        """The per-shard traffic view of one run."""
        tuples_by_shard = {shard: 0 for shard in range(transport.shard_count)}
        for node_id, node_stats in snapshot.nodes.items():
            try:
                shard = transport.shard_of(node_id)
            except NetworkError:  # pragma: no cover - plan always applied here
                continue
            tuples_by_shard[shard] = (
                tuples_by_shard.get(shard, 0) + node_stats.tuples_received
            )
        return ShardTrafficStats(
            shard_count=transport.shard_count,
            messages_by_shard=transport.shard_message_counts(),
            tuples_by_shard=tuples_by_shard,
            cross_shard_messages=transport.cross_shard_messages,
            intra_shard_messages=transport.intra_shard_messages,
        )
