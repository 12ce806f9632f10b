"""Sharded execution: partition the network, run one worker process per shard.

The paper's experiments stop at 31 peers; this subsystem is the scaling
layer that pushes the same protocols toward thousands.  Four pieces:

* :class:`~repro.sharding.planner.ShardPlanner` — partitions peers across K
  shards by greedily cutting the coordination-rule import graph, so chatty
  neighbours co-locate (:class:`~repro.sharding.planner.ShardPlan` is the
  resulting assignment; :func:`~repro.sharding.planner.round_robin_plan` the
  locality-blind baseline),
* :class:`~repro.sharding.multiproc.MultiprocTransport` /
  :class:`~repro.sharding.multiproc.MultiprocEngine` — one OS *process* per
  shard (``multiprocessing`` spawn, queue-backed inter-shard mailboxes, a
  cross-process quiescence barrier), selected via
  ``ScenarioSpec(transport="multiproc", shards=K)``; each run spawns a
  :class:`~repro.sharding.pool.WorkerPool` and closes it after, and reports
  per-shard and cross-shard traffic on ``StatsSnapshot.sharding``,
* :class:`~repro.sharding.pool.WorkerPool` /
  :class:`~repro.sharding.pool.PooledEngine` — the *persistent* variant of
  the multiproc engine (``transport="pooled"``, or ``"multiproc"`` with
  ``pool=True``): workers spawn once, worlds ship once, and successive runs
  re-ship only deltas (new facts, ``addLink``/``deleteLink``), amortising
  the 1-2 s spawn/ship overhead across repeat-run workloads.  Every
  process-backed engine, one-shot or warm, runs the same shard-worker loop
  (:func:`~repro.sharding.pool._pool_worker_main`),
* :class:`~repro.sharding.sockets.ShardHost` /
  :class:`~repro.sharding.sockets.SocketPool` /
  :class:`~repro.sharding.sockets.SocketEngine` — the *cross-machine*
  variant (``transport="socket"``, plus ``pool=True`` for the warm
  :class:`~repro.sharding.sockets.PooledSocketEngine`): shard workers live
  in ``python -m repro.shardhost`` server processes anywhere TCP reaches,
  the coordinator ships worlds and drives the same delta-sync protocol and
  quiescence barrier over length-prefixed frames, and a localhost
  auto-spawn helper (:class:`~repro.sharding.sockets.LocalHostCluster`)
  keeps tests and CI cluster-free.

See ``docs/architecture.md`` for where this layer sits in the system and
``docs/engines.md`` for when to pick which engine.
"""

from repro.sharding.multiproc import MultiprocEngine, MultiprocTransport
from repro.sharding.planner import ShardPlan, ShardPlanner, round_robin_plan
from repro.sharding.pool import (
    PooledEngine,
    PooledTransport,
    SyncDelta,
    WorkerPool,
    WorldMirror,
    compute_sync_delta,
)
from repro.sharding.sockets import (
    LocalHostCluster,
    PooledSocketEngine,
    PooledSocketTransport,
    ShardHost,
    SocketEngine,
    SocketPool,
    SocketTransport,
)

__all__ = [
    "LocalHostCluster",
    "MultiprocEngine",
    "MultiprocTransport",
    "PooledEngine",
    "PooledSocketEngine",
    "PooledSocketTransport",
    "PooledTransport",
    "ShardHost",
    "ShardPlan",
    "ShardPlanner",
    "SocketEngine",
    "SocketPool",
    "SocketTransport",
    "SyncDelta",
    "WorkerPool",
    "WorldMirror",
    "compute_sync_delta",
    "round_robin_plan",
]
