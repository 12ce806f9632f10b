"""Persistent multi-process worker pools: spawn once, run many times.

:class:`~repro.sharding.multiproc.MultiprocEngine` spawns a pool for each
run and closes it afterwards, so it pays a fixed price on *every* run: one
interpreter spawn per shard plus a pickle of the full schema/rule world
(~1-2 s before the first message moves).  That is fine for
one-shot sweeps and fatal for the workloads the paper motivates — the same
rule world updated again and again as peers' data shifts.  This module keeps
the engine's exact execution model (the
:class:`~repro.sharding.planner.ShardPlanner` partition, one OS process per
shard, mp-queue mailboxes, the cumulative-counter quiescence barrier) but
makes the worker processes *persistent*:

* :class:`WorkerPool` spawns the shard workers once and ships each its
  pickled :class:`~repro.sharding.multiproc.ShardWorld` a single time.
  Successive runs re-ship only **deltas**: rows inserted into the
  coordinator since the last run, relations whose contents were rewritten,
  and ``addLink``/``deleteLink`` rule changes — never the schemas or the
  unchanged data.  :func:`compute_sync_delta` derives that delta
  structurally, by diffing the live system against the pool's mirror of
  what the workers last reported (the same fingerprint-style invalidation
  that :meth:`repro.api.session.Session.update` uses for its strategy
  cache: state is compared, not change notifications trusted).
* :class:`PooledEngine` is the :class:`~repro.api.engine.ExecutionEngine`
  over a pool.  It owns the pool's lifecycle: the first run spawns it,
  later runs reuse it warm, a crashed worker is detected (a dead process
  with an outstanding reply) and the pool is respawned cold on the next
  run, and a rule-graph change triggers **re-plan invalidation** — the
  planner runs again, and if the fresh plan moves any peer to a different
  shard the pool restarts with the new partition (otherwise the rule delta
  is shipped to the warm workers and the partition is kept).
* :class:`PooledTransport` is the coordinator-side marker transport:
  identical to :class:`~repro.sharding.multiproc.MultiprocTransport`, but
  its type selects :class:`PooledEngine` in
  :func:`repro.api.engine.engine_for`.  Build it with
  ``transport="pooled"`` (or ``transport="multiproc", pool=True``) through
  :class:`~repro.api.spec.ScenarioSpec` / :meth:`P2PSystem.build
  <repro.core.system.P2PSystem.build>`.

Close the pool deterministically with ``session.close()`` (or use the
session as a context manager); workers are daemons, so they also die with
the coordinator process, but an explicit close is what benchmarks and
long-lived services should do.

Per-run accounting: each worker resets its delivery/cross-shard counters and
statistics after every ``collect``, so a warm run reports the same per-run
numbers a cold :class:`MultiprocEngine` run would — merge, traffic stats and
the regression gates read identically over both engines.  Worker virtual
clocks are *not* reset: like the in-process transports' persistent clocks,
simulated completion times stay monotone across consecutive runs.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Protocol, cast

from repro.coordination.changeset import (
    ChangeAccumulator,
    ChangeSet,
    StructuralDigest,
    rules_fingerprint as _rules_fingerprint,
    structural_digest,
)
from repro.coordination.rule import CoordinationRule, NodeId
from repro.errors import NetworkError, ReproError
from repro.database.relation import Row
from repro.faults.injector import NULL_INJECTOR, WorkerFrameInjector, injector_of
from repro.obs import NULL_TRACER, Tracer, get_logger, tracer_of
from repro.sharding.multiproc import (
    _DRAIN_BATCH,
    MultiprocEngine,
    MultiprocTransport,
    ShardWorld,
    _await_replies,
    _build_worker_system,
    _quiescence_rounds,
    _start_worker_phase,
    _worker_payload,
    _WorkerTransport,
    _worlds_from_system,
)
from repro.sharding.planner import ShardPlan, ShardPlanner

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.core.system import P2PSystem

#: Facts as the pool mirrors them: per node, per relation, a row set.
FactsMirror = dict[NodeId, dict[str, frozenset]]

_log = get_logger("pool")


# ------------------------------------------------------------------- deltas


@dataclass(frozen=True)
class SyncDelta:
    """What changed in the coordinator since the workers last synced.

    ``inserts`` carries rows that only *appeared* in a relation (the common
    case: the chase and bulk loads insert, never delete), ``replaces``
    rewrites a relation wholesale — used when rows vanished, or when the
    relation itself is new to the workers (then ``schema`` rides along so
    the worker can create it).  ``remove_rules`` are applied before
    ``add_rules`` so a changed rule body (same id) re-installs cleanly.
    """

    add_rules: tuple[CoordinationRule, ...] = ()
    remove_rules: tuple[str, ...] = ()
    inserts: Mapping[NodeId, Mapping[str, tuple[Row, ...]]] = field(
        default_factory=dict
    )
    replaces: Mapping[NodeId, Mapping[str, tuple[object, tuple[Row, ...]]]] = field(
        default_factory=dict
    )

    @property
    def empty(self) -> bool:
        """True when there is nothing to ship."""
        return not (
            self.add_rules or self.remove_rules or self.inserts or self.replaces
        )

    def for_shard(self, plan: ShardPlan, shard: int) -> dict:
        """The slice one worker needs: global rule changes + its owned data."""
        return {
            "add_rules": self.add_rules,
            "remove_rules": self.remove_rules,
            "inserts": {
                node: dict(relations)
                for node, relations in self.inserts.items()
                if plan.shard(node) == shard
            },
            "replaces": {
                node: dict(relations)
                for node, relations in self.replaces.items()
                if plan.shard(node) == shard
            },
        }


def rules_fingerprint(system: P2PSystem) -> dict[str, str]:
    """``rule_id -> str(rule)`` for the system's current rule set.

    Delegates to the shared fingerprint in
    :mod:`repro.coordination.changeset` (the same one the structural digest
    is built from), so editing a rule under the same id reads as remove +
    add everywhere.
    """
    return _rules_fingerprint(system.registry)


def compute_sync_delta(
    system, known_rules: Mapping[str, str], known_facts: FactsMirror
) -> SyncDelta:
    """Diff the live coordinator against the pool's mirror of worker state.

    Structural by construction: whatever mutated the system — ``load_data``,
    ``addLink``/``deleteLink``, a direct relation write — shows up in the
    diff, with no change-notification protocol to forget to call.
    """
    current_rules = rules_fingerprint(system)
    remove_rules = tuple(
        rule_id
        for rule_id, text in known_rules.items()
        if current_rules.get(rule_id) != text
    )
    add_rules = tuple(
        rule
        for rule in system.registry
        if known_rules.get(rule.rule_id) != current_rules[rule.rule_id]
    )

    inserts: dict[NodeId, dict[str, tuple[Row, ...]]] = {}
    replaces: dict[NodeId, dict[str, tuple[object, tuple[Row, ...]]]] = {}
    for node_id, node in system.nodes.items():
        mirrored = known_facts.get(node_id, {})
        for relation_name, rows in node.database.facts().items():
            old = mirrored.get(relation_name)
            if old is not None and rows == old:
                continue
            if old is not None and rows >= old:
                inserts.setdefault(node_id, {})[relation_name] = tuple(rows - old)
            else:
                # Rows vanished, or the relation is new to the workers: the
                # only always-correct move is a wholesale rewrite (with the
                # schema along, so a brand-new relation can be created).
                schema = next(
                    relation_schema
                    for relation_schema in node.database.schema
                    if relation_schema.name == relation_name
                )
                replaces.setdefault(node_id, {})[relation_name] = (
                    schema,
                    tuple(rows),
                )
    return SyncDelta(
        add_rules=add_rules,
        remove_rules=remove_rules,
        inserts=inserts,
        replaces=replaces,
    )


class WorldMirror:
    """Coordinator-side mirror of what a set of remote workers currently hold.

    One instance backs every persistent-worker driver — the mp-queue
    :class:`WorkerPool` here and the TCP
    :class:`~repro.sharding.sockets.SocketPool` — so the delta-sync protocol
    (what to re-ship, when a re-plan invalidates the partition) is a single
    implementation whatever the transport underneath.
    """

    def __init__(self, worlds):
        # The mirror starts as the worlds' own rule set and data slices:
        # that is exactly what the workers load at build time.
        self.rules: dict[str, str] = _rules_fingerprint(
            worlds[0].rules if worlds else ()
        )
        self.facts: FactsMirror = {}
        for world in worlds:
            for node_id, relations in world.data_slice.items():
                self.facts[node_id] = {
                    relation: frozenset(rows)
                    for relation, rows in relations.items()
                }

    def digest(self) -> StructuralDigest:
        """The mirrored state's structural digest.

        The same :class:`~repro.coordination.changeset.StructuralDigest` that
        ``Session.update`` keys its memo cache on and
        :meth:`P2PSystem.structural_digest
        <repro.core.system.P2PSystem.structural_digest>` computes live — one
        fingerprint definition, two consumers.
        """
        return structural_digest(self.rules, self.facts)

    def delta(self, system: P2PSystem) -> SyncDelta:
        """What changed in the coordinator since the workers last synced."""
        return compute_sync_delta(system, self.rules, self.facts)

    def note_synced(self, system: P2PSystem) -> None:
        """Record that the workers now hold the coordinator's current state."""
        self.rules = _rules_fingerprint(system.registry)
        for node_id, node in system.nodes.items():
            self.facts[node_id] = dict(node.database.facts())

    def note_collected(self, payloads: Iterable[Mapping]) -> None:
        """Adopt the facts the workers just shipped home as the new mirror."""
        for payload in payloads:
            for node_id, facts in payload["facts"].items():
                self.facts[node_id] = dict(facts)

    def plan_if_stale(
        self, plan: ShardPlan, system: P2PSystem, planner: ShardPlanner
    ) -> ShardPlan | None:
        """Re-plan after a rule-graph change; a moved peer invalidates the pool.

        Returns ``None`` while the rule graph is unchanged *or* the fresh plan
        keeps every peer on its current shard (then a sync ships the rule
        delta to the warm workers); returns the fresh plan when any peer would
        move — the caller must restart its workers over the new partition,
        because data slices live in worker memory.
        """
        if _rules_fingerprint(system.registry) == self.rules:
            return None
        fresh = planner.plan_system(system)
        if dict(fresh.shard_of) == dict(plan.shard_of):
            return None
        return fresh


# ------------------------------------------------------------ worker process


def _apply_sync(system: P2PSystem, world: ShardWorld, delta: dict) -> None:
    """Apply one coordinator delta inside a worker process."""
    from repro.database.schema import RelationSchema

    for rule_id in delta["remove_rules"]:
        system.remove_rule(rule_id)
    for rule in delta["add_rules"]:
        system.add_rule(rule)
    for node_id, relations in delta["replaces"].items():
        node = system.node(node_id)
        for relation_name, (schema, rows) in relations.items():
            if relation_name not in node.database:
                node.database.add_relation(
                    RelationSchema(schema.name, list(schema.attributes))
                )
            relation = node.database.relation(relation_name)
            relation.clear()
            relation.insert_many(rows)
    for node_id, relations in delta["inserts"].items():
        node = system.node(node_id)
        for relation_name, rows in relations.items():
            node.database.relation(relation_name).insert_many(rows)


def _start_incremental_phase(
    system: P2PSystem,
    world: ShardWorld,
    changes: ChangeSet,
    origins: Iterable[NodeId],
) -> None:
    """Kick an incremental update off inside a worker: seed owned dirty nodes.

    The delta-driven counterpart of
    :func:`repro.sharding.multiproc._start_worker_phase`: instead of opening
    every owned origin for naive pull rounds, only the owned nodes that
    actually received inserts since the last converged run seed their delta
    frontier (see :meth:`repro.core.update.UpdateProtocol.start_incremental`).
    Nodes untouched by the delta do nothing until a fragment push reaches
    them — that is the whole point of the incremental mode.
    """
    allowed = set(world.owned) & set(origins)
    system.seed_update_delta(changes, nodes=allowed)


def _invalidate_incremental(system: P2PSystem, world: ShardWorld) -> None:
    """Drop incremental bookkeeping on every owned node before a naive run.

    A naive ``start()`` invalidates the origin's own bookkeeping, but a run
    may start at a subset of origins while fragment caches on *other* owned
    nodes also go stale once pull rounds rewrite their fragments — so a
    naive update start clears all owned nodes wholesale.
    """
    for node_id in world.owned:
        system.node(node_id).update.invalidate_incremental()


def _reset_run_counters(transport: _WorkerTransport) -> None:
    """Zero the per-run counters after a collect (the clock stays).

    Every worker resets while the network is provably quiescent (collect
    follows the barrier), so the cross-shard sent/received ledgers stay
    balanced — the next run's quiescence check starts from zeros everywhere.
    """
    transport.stats.reset()
    transport.delivered = 0
    transport.cross_sent = [0] * len(transport.cross_sent)
    transport.cross_received = 0


def _pool_worker_main(world: ShardWorld, inboxes: list, results) -> None:
    """Entry point of every shard worker, one-shot or warm.

    Control and data share the worker's single inbox queue, so the loop is
    fully event-driven: ``start`` kicks the phase off at the owned origins,
    ``msg`` is a cross-shard delivery, ``ping`` answers a quiescence round
    (with an ``idle`` flag saying whether the local queue was empty),
    ``sync`` applies a coordinator delta between runs (rule changes first,
    then data), ``collect`` ships the shard's current state home *without*
    exiting and resets the per-run counters so the next run starts from a
    clean ledger, and ``stop`` ends the process.  Local deliveries run in
    bounded batches between inbox polls, so pings are answered promptly
    however long the local chain is — the coordinator can always tell a
    busy shard from a stalled one.  Inbox commands are FIFO per worker, so a
    ``sync`` queued before a ``start`` is always applied before the phase
    begins.  A one-shot engine simply sends ``start``, then ``collect`` and
    ``stop`` once; the warm engines keep the worker for many runs.

    Every ``sync`` delta is also folded into a worker-side
    :class:`~repro.coordination.changeset.ChangeAccumulator`.  When a
    ``start`` arrives for the update phase, the accumulated changes are
    consumed: if the coordinator requested ``mode="incremental"`` *and* the
    worker's own accumulator agrees the changes were insert-only
    (``incremental_ok``), the owned dirty nodes seed their delta frontier
    instead of re-opening for naive pull rounds.  The worker-side check is
    authoritative — a coordinator that over-asks (say, after a rule change
    it did not notice) still gets a correct naive run.
    """
    inbox = inboxes[world.shard_index]
    phase = "update"
    pending = ChangeAccumulator()
    try:
        transport = _WorkerTransport(
            world.shard_index,
            world.shard_of,
            inboxes,
            world.latency,
            world.max_messages,
            clock_start=world.clock_start,
        )
        tracer = (
            Tracer(trace_id=world.trace_id, process=f"shard-{world.shard_index}")
            if world.trace_id is not None
            else NULL_TRACER
        )
        transport.tracer = tracer
        if world.fault_plan is not None:
            transport.fault_injector = WorkerFrameInjector(
                world.fault_plan,
                world.shard_index,
                transport.stats.registry,
            )
        with tracer.span("build", shard=world.shard_index):
            system = _build_worker_system(world, transport)
        if tracer.enabled:
            for node in system.nodes.values():
                node.database.profile = tracer.chase
        results.put(("ready", world.shard_index))
        # One "chase" span covers each busy period: opened when local work
        # appears, closed when the queue drains and the worker blocks again.
        chase_span = None
        delivered_mark = 0
        while True:
            if transport.has_local_work:
                if chase_span is None and tracer.enabled:
                    chase_span = tracer.start_span("chase", shard=world.shard_index)
                    delivered_mark = transport.delivered
                try:
                    item = inbox.get_nowait()
                except queue_module.Empty:
                    transport.drain(_DRAIN_BATCH)
                    continue
            else:
                if chase_span is not None:
                    tracer.end_span(
                        chase_span, delivered=transport.delivered - delivered_mark
                    )
                    chase_span = None
                item = inbox.get()
            kind = item[0]
            if kind == "start":
                if transport.fault_injector is not None:
                    transport.fault_injector.start_run()
                phase = item[1]
                mode = item[3] if len(item) > 3 else None
                if phase == "update":
                    changes = pending.take()
                    if mode == "incremental" and changes.incremental_ok:
                        _start_incremental_phase(system, world, changes, item[2])
                    else:
                        _invalidate_incremental(system, world)
                        _start_worker_phase(system, world, phase, item[2])
                else:
                    # Discovery runs neither consume nor stale the pending
                    # delta; it still belongs to the next update start.
                    _start_worker_phase(system, world, phase, item[2])
            elif kind == "msg":
                transport.receive_cross(item[1], item[2])
            elif kind == "ping":
                # Pings are lockstep (the coordinator sends the next round
                # only after every shard answered), so the reply does not
                # need to echo the generation in item[1].
                results.put(("status", world.shard_index, transport.status()))
            elif kind == "sync":
                with tracer.span("sync", shard=world.shard_index):
                    _apply_sync(system, world, item[1])
                    pending.note_sync_payload(item[1])
            elif kind == "collect":
                payload = _worker_payload(system, world, transport, phase)
                results.put(("collected", world.shard_index, payload))
                _reset_run_counters(transport)
            elif kind == "stop":
                return
            else:  # pragma: no cover - coordinator never sends other kinds
                raise NetworkError(f"unknown control message {kind!r}")
    except BaseException:  # noqa: BLE001 - shipped to the coordinator
        results.put(("error", world.shard_index, traceback.format_exc()))


# ------------------------------------------------------------------ the pool


class WorkerPool:
    """K persistent shard-worker processes behind command queues.

    Spawn with :meth:`WorkerPool.spawn` (ships each worker its world once),
    then call :meth:`sync` + :meth:`run_phase` per run.  The pool mirrors the
    facts its workers last reported, so :meth:`sync` ships only what changed
    in the coordinator since.  Any failure — a crashed worker, a stall, an
    exceeded message bound — closes the pool; the caller respawns a fresh one
    on the next run.  :class:`PooledEngine` keeps one pool warm across runs;
    :class:`~repro.sharding.multiproc.MultiprocEngine` spawns one per run and
    closes it after the collect.
    """

    def __init__(self, plan: ShardPlan, worlds: list[ShardWorld]):
        if len(worlds) != plan.shard_count:
            raise ReproError(
                f"the pool needs one world per shard: got {len(worlds)} "
                f"worlds for {plan.shard_count} shards"
            )
        self.plan = plan
        self.closed = False
        #: Fault injector firing kill faults at this pool's phase hook points
        #: (attached per run by :class:`WarmPoolLifecycle`; the null injector
        #: keeps every hook a no-op on fault-free runs).
        self.injector = NULL_INJECTOR
        self._max_messages = worlds[0].max_messages if worlds else 1_000_000
        self._mirror = WorldMirror(worlds)
        context = multiprocessing.get_context("spawn")
        self._inboxes = [context.Queue() for _ in range(plan.shard_count)]
        self._results = context.Queue()
        self._workers = [
            context.Process(
                target=_pool_worker_main,
                args=(world, self._inboxes, self._results),
                daemon=True,
            )
            for world in worlds
        ]
        try:
            for worker in self._workers:
                worker.start()
            _await_replies(
                self._results, "ready", plan.shard_count, self._workers
            )
        except BaseException:
            self.close()
            raise

    @classmethod
    def spawn(cls, system: P2PSystem, plan: ShardPlan) -> "WorkerPool":
        """Spawn a pool over the live system's current state."""
        return cls(plan, _worlds_from_system(system, plan))

    # ---------------------------------------------------------------- status

    @property
    def shard_count(self) -> int:
        """Number of worker processes."""
        return self.plan.shard_count

    @property
    def alive(self) -> bool:
        """True while the pool is open and every worker process lives."""
        return not self.closed and all(
            worker.is_alive() for worker in self._workers
        )

    @property
    def worker_pids(self) -> tuple[int | None, ...]:
        """The workers' process ids (stable across warm runs by design)."""
        return tuple(worker.pid for worker in self._workers)

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Stop the workers and release the queues (idempotent)."""
        if self.closed:
            return
        self.closed = True
        for worker, inbox in zip(self._workers, self._inboxes):
            if worker.is_alive():
                try:
                    inbox.put(("stop",))
                except (OSError, ValueError):  # pragma: no cover - teardown race
                    pass
        for worker in self._workers:
            if worker.pid is None:
                continue  # never started (a spawn that failed part-way)
            worker.join(timeout=5.0)
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=1.0)
        for queue in (*self._inboxes, self._results):
            queue.close()
            queue.cancel_join_thread()
            # Let the feeder thread drop its semaphores now rather than race
            # interpreter exit (a lost unregister makes the resource tracker
            # warn of a leak).  Bounded: a killed worker may leave the pipe
            # full, and then the feeder never finishes.
            feeder = getattr(queue, "_thread", None)
            if feeder is not None:
                feeder.join(timeout=1.0)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _require_open(self) -> None:
        if self.closed:
            raise ReproError("the worker pool is closed")
        for shard, worker in enumerate(self._workers):
            if not worker.is_alive():
                raise NetworkError(
                    f"shard {shard} worker died (exit code {worker.exitcode}); "
                    "the pool must be respawned"
                )

    def kill_worker(self, shard: int) -> None:
        """Terminate one worker process (the fault injector's kill primitive)."""
        worker = self._workers[shard]
        if worker.is_alive():
            worker.terminate()
            worker.join(timeout=5.0)

    # --------------------------------------------------------------- re-plan

    def plan_if_stale(
        self, system: P2PSystem, planner: ShardPlanner
    ) -> ShardPlan | None:
        """Re-plan after a rule-graph change; a new partition invalidates the pool.

        Returns ``None`` while the rule graph is unchanged *or* the fresh plan
        keeps every peer on its current shard (then :meth:`sync` ships the
        rule delta to the warm workers); returns the fresh plan when any peer
        would move — the caller must close this pool and spawn a new one over
        the new partition, because data slices live in worker memory.
        """
        return self._mirror.plan_if_stale(self.plan, system, planner)

    # ------------------------------------------------------------------ runs

    def sync(self, system: P2PSystem) -> SyncDelta:
        """Ship the coordinator's changes since the last run to the workers.

        Returns the delta that was shipped (empty deltas ship nothing), so
        callers and tests can observe exactly what went over the wire.
        """
        self._require_open()
        delta = self._mirror.delta(system)
        if not delta.empty:
            for shard, inbox in enumerate(self._inboxes):
                inbox.put(("sync", delta.for_shard(self.plan, shard)))
            self._mirror.note_synced(system)
        # A sync-phase kill lands here: the dead worker is detected by the
        # next run_phase's liveness check, never by a wedged barrier.
        self.injector.fire("sync", self)
        return delta

    def run_phase(
        self,
        phase: str,
        origins: Iterable[NodeId],
        *,
        tracer=None,
        mode: str | None = None,
    ) -> list[dict]:
        """Drive one phase over the warm workers and collect their payloads.

        The run starts at the owned origins, reaches distributed quiescence
        through the shared cumulative-counter barrier, then ``collect`` ships
        every shard's per-run state home (the workers keep running).
        ``mode="incremental"`` asks the workers for the delta-driven update
        path; each worker double-checks eligibility against its own
        accumulated sync deltas and falls back to naive when they disagree.
        Any error closes the pool — a half-synced pool must never serve
        another run.
        """
        tracer = tracer if tracer is not None else NULL_TRACER
        try:
            self._require_open()
            for inbox in self._inboxes:
                inbox.put(("start", phase, tuple(origins), mode))
            self.injector.fire("chase", self)
            with tracer.span("quiescence") as quiescence_span:
                rounds = _quiescence_rounds(
                    self._results,
                    self._inboxes,
                    self.shard_count,
                    self._max_messages,
                    self._workers,
                )
                quiescence_span.set(rounds=rounds)
            self.injector.fire("quiescence", self)
            with tracer.span("collect"):
                for inbox in self._inboxes:
                    inbox.put(("collect",))
                collected = _await_replies(
                    self._results, "collected", self.shard_count, self._workers
                )
        except BaseException:
            self.close()
            raise
        payloads = [payload for _shard, payload in sorted(collected.items())]
        # After the merge the coordinator will hold exactly these facts, and
        # so do the workers: the mirror is the shipped state itself.
        self._mirror.note_collected(payloads)
        return payloads

    def __repr__(self) -> str:
        state = "closed" if self.closed else ("alive" if self.alive else "dead")
        return f"WorkerPool({self.shard_count} shards, {state})"


# ------------------------------------------------------- transport and engine


class PooledTransport(MultiprocTransport):
    """Coordinator handle whose type selects the *pooled* multiproc engine.

    Behaviour is identical to :class:`MultiprocTransport` (it registers peers
    and accumulates merged counters, never delivers); the subclass exists so
    :func:`repro.api.engine.engine_for` can route systems built with
    ``transport="pooled"`` (or ``transport="multiproc", pool=True``) to
    :class:`PooledEngine` and everything else stays shared.
    """

    def __repr__(self) -> str:
        planned = "planned" if self.plan is not None else "unplanned"
        return (
            f"PooledTransport({self.shard_count} shards, {planned}, "
            f"{self.delivered_count} delivered)"
        )


class PoolLike(Protocol):
    """What :class:`WarmPoolLifecycle` needs from a pool it keeps warm."""

    injector: object

    @property
    def alive(self) -> bool: ...

    @property
    def shard_count(self) -> int: ...

    def kill_worker(self, shard: int) -> None: ...

    def close(self) -> None: ...

    def plan_if_stale(
        self, system: P2PSystem, planner: ShardPlanner
    ) -> ShardPlan | None: ...

    def sync(self, system: P2PSystem) -> SyncDelta: ...

    def run_phase(
        self,
        phase: str,
        origins: Iterable[NodeId],
        *,
        tracer=None,
        mode: str | None = None,
    ) -> list[dict]: ...


class WarmPoolLifecycle:
    """The warm-pool run driver shared by the mp and socket pooled engines.

    Mixed in front of the engine base class, whose ``_spawn_pool`` brings a
    cold pool up over the live system (the one-shot engines spawn through it
    too); everything else — dead-pool detection, re-plan invalidation, delta
    sync, forget-on-error, closing the pool — is one implementation, like
    :class:`WorldMirror` is for the mirror bookkeeping.
    """

    planner: ShardPlanner | None
    _spawn_pool: Callable[..., PoolLike]
    _pool: PoolLike | None = None
    #: Set False (on the engine instance) to pin every warm update to the
    #: naive path — the parity tests use this to compare both paths over
    #: the same engine.
    incremental: bool = True
    #: True once the warm workers hold a *converged* update fix-point — the
    #: precondition for the delta path, which pushes along the owner edges
    #: the previous run registered.  Cold spawns and non-update phases do
    #: not set it; any cold respawn clears it.
    _primed: bool = False

    @property
    def pool(self) -> PoolLike | None:
        """The live pool, or None before the first run / after close()."""
        return self._pool

    def close(self) -> None:
        """Shut the warm pool down, then the base engine (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        # The engine base class follows this mixin in the MRO.
        super().close()  # type: ignore[misc]

    def _drive_workers(
        self,
        system: P2PSystem,
        plan: ShardPlan,
        phase: str,
        origins: Iterable[NodeId],
    ) -> list[dict]:
        """Reuse the warm pool when possible; (re)spawn when it is not.

        Cold paths: no pool yet, a worker died since the last run, or the
        rule graph changed in a way that re-partitions the network (the
        re-plan invalidation described in :meth:`WorkerPool.plan_if_stale`).
        Warm path: ship the delta, run the phase — as a delta-driven
        incremental update when the pool is primed (previous update
        converged) and the delta is insert-only, naively otherwise.
        """
        transport = cast("MultiprocTransport", system.transport)
        tracer = tracer_of(system)
        injector = injector_of(system)
        planner = self.planner or ShardPlanner(transport.shard_count)
        pool = self._pool
        mode: str | None = None
        if pool is not None and not pool.alive:
            _log.warning("warm pool died; respawning cold")
            pool.close()
            pool = self._pool = None
        if pool is not None:
            fresh_plan = pool.plan_if_stale(system, planner)
            if fresh_plan is not None:
                _log.debug("rule graph re-partitioned the network; pool restarts")
                pool.close()
                pool = self._pool = None
                transport.apply_plan(fresh_plan)
            else:
                pool.injector = injector
                with tracer.span("sync") as sync_span:
                    delta = pool.sync(system)
                    sync_span.set(empty=delta.empty)
                if (
                    phase == "update"
                    and self.incremental
                    and self._primed
                    and ChangeSet.from_sync_delta(delta).incremental_ok
                ):
                    # Coordinator-side gate only: each worker re-checks
                    # against the deltas it actually accumulated (a sync may
                    # have been shipped before a discovery run) and falls
                    # back to naive on its own if they disagree.
                    mode = "incremental"
        if pool is None:
            _log.debug("spawning worker pool (%d shards)", plan.shard_count)
            self._primed = False
            with tracer.span("ship", shards=plan.shard_count):
                pool = self._pool = self._spawn_pool(system, transport)
            pool.injector = injector
            injector.fire("ship", pool)
        try:
            payloads = pool.run_phase(phase, origins, tracer=tracer, mode=mode)
        except BaseException:
            # run_phase closed the pool; forget it so the next run respawns.
            self._pool = None
            self._primed = False
            raise
        if phase == "update":
            self._primed = True
        return payloads


class PooledEngine(WarmPoolLifecycle, MultiprocEngine):
    """The multiproc engine over a persistent :class:`WorkerPool`.

    The first :meth:`run` spawns the pool (paying the same spawn/ship price
    as a cold :class:`MultiprocEngine` run); every later run reuses the warm
    workers and ships only deltas.  The engine object owns the pool, so a
    :class:`~repro.api.session.Session` holding this engine keeps its workers
    warm across ``session.run(...)`` calls — close the session (or the
    engine) to stop them.
    """

    name = "pooled"
