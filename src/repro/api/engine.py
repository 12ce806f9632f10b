"""Execution engines: run a protocol phase to quiescence on any transport.

One :class:`ExecutionEngine` protocol drives every transport of a
:class:`~repro.core.system.P2PSystem`; the two single-queue
implementations live here:

* :class:`SyncEngine` drives a :class:`~repro.network.transport.SyncTransport`
  (the deterministic discrete-event simulator) and reads the virtual clock,
* :class:`AsyncEngine` drives an
  :class:`~repro.network.transport.AsyncTransport`; its :meth:`AsyncEngine.run`
  wraps the coroutine in ``asyncio.run`` so callers without an event loop use
  the same blocking call signature.

Both expose ``run`` (blocking) and ``run_async`` (awaitable) with identical
semantics, so :meth:`repro.api.session.Session.run` works identically over
both transports; :func:`engine_for` picks the right engine for a transport.
The scaling layer adds four more implementations behind the same protocol,
selected the same way: :class:`repro.sharding.multiproc.MultiprocEngine`
(one worker OS process per shard, a pool spawned and closed each run),
:class:`repro.sharding.pool.PooledEngine` (the same processes kept warm
across runs), and the cross-machine pair
:class:`repro.sharding.sockets.SocketEngine` /
:class:`repro.sharding.sockets.PooledSocketEngine` (shard workers on TCP
shard hosts, one-shot or kept warm).  ``docs/engines.md`` is the decision
guide.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Iterable, Protocol, runtime_checkable

from repro.coordination.rule import NodeId
from repro.errors import ReproError
from repro.network.transport import AsyncTransport, BaseTransport, SyncTransport
from repro.obs import tracer_of
from repro.stats.collector import StatsSnapshot

if TYPE_CHECKING:
    from repro.core.system import P2PSystem

#: The two protocol phases of the paper (Section 3).
PHASES = ("discovery", "update")


def start_phase(
    system: P2PSystem, phase: str, origins: Iterable[NodeId] | None
) -> list[NodeId]:
    """Kick off ``phase`` at its origin nodes and return the origins used.

    Discovery defaults to the super-peer initiating, as in the paper; the
    update defaults to every node (the super-peer's global update request).
    """
    if phase == "discovery":
        origin_list = list(origins) if origins is not None else [system.super_peer]
        for origin in origin_list:
            system.node(origin).discovery.start()
    elif phase == "update":
        origin_list = list(origins) if origins is not None else sorted(system.nodes)
        for origin in origin_list:
            system.node(origin).update.start()
    else:
        raise ReproError(f"unknown phase {phase!r}; expected one of {PHASES}")
    return origin_list


def finalize_phase(system: P2PSystem, phase: str) -> None:
    """Post-quiescence bookkeeping (discovery finalises every ``Paths`` relation)."""
    if phase == "discovery":
        for node in system.nodes.values():
            node.discovery.finalize_paths()


@runtime_checkable
class ExecutionEngine(Protocol):
    """Drives one protocol phase of a system to quiescence."""

    name: str

    def run(
        self, system: P2PSystem, phase: str, origins: Iterable[NodeId] | None = None
    ) -> tuple[float, StatsSnapshot]:
        """Blocking run; returns (simulated completion time, stats snapshot)."""
        ...

    async def run_async(
        self, system: P2PSystem, phase: str, origins: Iterable[NodeId] | None = None
    ) -> tuple[float, StatsSnapshot]:
        """Awaitable run with the same semantics as :meth:`run`."""
        ...


class SyncEngine:
    """Engine for the deterministic discrete-event transport."""

    name = "sync"

    def _check(self, system: P2PSystem) -> SyncTransport:
        transport = system.transport
        if not isinstance(transport, SyncTransport):
            raise ReproError(
                "the sync engine needs a SyncTransport; "
                "use AsyncEngine (or Session.run, which picks the engine) instead"
            )
        return transport

    def run(
        self, system: P2PSystem, phase: str, origins: Iterable[NodeId] | None = None
    ) -> tuple[float, StatsSnapshot]:
        transport = self._check(system)
        tracer = tracer_of(system)
        start_phase(system, phase, origins)
        with tracer.span("chase", engine=self.name) as span:
            completion = transport.run()
            span.set(delivered=transport.delivered_count)
        finalize_phase(system, phase)
        return completion, system.stats.snapshot()

    async def run_async(
        self, system: P2PSystem, phase: str, origins: Iterable[NodeId] | None = None
    ) -> tuple[float, StatsSnapshot]:
        return self.run(system, phase, origins)


class AsyncEngine:
    """Engine for the asyncio transport (every delivery an independent task)."""

    name = "async"

    def _check(self, system: P2PSystem) -> AsyncTransport:
        transport = system.transport
        if not isinstance(transport, AsyncTransport):
            raise ReproError(
                "the async engine needs an AsyncTransport; "
                "use SyncEngine (or Session.run, which picks the engine) instead"
            )
        return transport

    def run(
        self, system: P2PSystem, phase: str, origins: Iterable[NodeId] | None = None
    ) -> tuple[float, StatsSnapshot]:
        self._check(system)
        try:
            asyncio.get_running_loop()
        except RuntimeError:
            pass
        else:
            raise ReproError(
                "the blocking run() was called from inside an event loop; "
                "use 'await session.run_async(...)' there"
            )
        return asyncio.run(self.run_async(system, phase, origins))

    async def run_async(
        self, system: P2PSystem, phase: str, origins: Iterable[NodeId] | None = None
    ) -> tuple[float, StatsSnapshot]:
        transport = self._check(system)
        tracer = tracer_of(system)
        start_phase(system, phase, origins)
        with tracer.span("chase", engine=self.name) as span:
            await transport.wait_quiescent()
            span.set(delivered=transport.delivered_count)
        finalize_phase(system, phase)
        snapshot = system.stats.snapshot()
        return snapshot.simulated_time, snapshot


def engine_for(transport: BaseTransport) -> ExecutionEngine:
    """The engine matching a transport instance."""
    # Imported lazily: repro.sharding imports this module for the phase
    # helpers, so a top-level import would be circular.
    from repro.sharding.multiproc import MultiprocEngine, MultiprocTransport
    from repro.sharding.pool import PooledEngine, PooledTransport
    from repro.sharding.sockets import (
        PooledSocketEngine,
        PooledSocketTransport,
        SocketEngine,
        SocketTransport,
    )

    if isinstance(transport, SyncTransport):
        return SyncEngine()
    if isinstance(transport, AsyncTransport):
        return AsyncEngine()
    # The transport hierarchy roots at MultiprocTransport, so the most
    # derived kinds must match first: pooled-socket < socket < multiproc,
    # and pooled < multiproc.
    if isinstance(transport, PooledSocketTransport):
        return PooledSocketEngine()
    if isinstance(transport, SocketTransport):
        return SocketEngine()
    if isinstance(transport, PooledTransport):
        return PooledEngine()
    if isinstance(transport, MultiprocTransport):
        return MultiprocEngine()
    raise ReproError(
        f"no execution engine for transport {type(transport).__name__!r}"
    )
