"""Socket-backed shard hosts: the partitioned engines across machines.

The multiproc and pooled engines confine all K shards to
one box's cores, which caps the sweeps near 1023 nodes.  The paper's
coordination model is inherently distributed (peers on different machines
exchanging update messages), and the pool's delta-sync protocol and
cumulative-counter quiescence barrier are already transport-shaped for the
wire.  This module puts them on it:

* :class:`ShardHost` is a standalone server process
  (``python -m repro.shardhost --bind HOST:PORT``) that can run anywhere and
  hosts one or more shard workers — the exact persistent worker loop of
  :func:`repro.sharding.pool._pool_worker_main`, run as threads inside the
  host process (one *process per host*, so a cluster of hosts is what buys
  multi-core/multi-machine parallelism).
* :class:`SocketPool` is the coordinator side: it dials a list of hosts over
  TCP, ships each its pickled :class:`~repro.sharding.multiproc.ShardWorld`\\ s
  with length-prefixed framing, and drives the same delta-sync protocol and
  cumulative-counter quiescence barrier as the in-box
  :class:`~repro.sharding.pool.WorkerPool` — over sockets instead of
  ``mp.Queue``\\ s.  Inter-shard messages between workers on *different* hosts
  route through the coordinator (hub-and-spoke: hosts never need to reach
  each other, only the coordinator needs to reach the hosts); workers
  co-hosted on one host exchange messages directly in memory.
* :class:`SocketEngine` / :class:`PooledSocketEngine` expose it behind the
  usual :class:`~repro.api.engine.ExecutionEngine` protocol
  (``transport="socket"``, plus ``pool=True`` for the warm variant that keeps
  host connections and workers alive between runs, re-shipping only
  structural deltas).
* :class:`LocalHostCluster` auto-spawns K localhost hosts as subprocesses, so
  tests, benchmarks and CI need no real cluster: a system built with
  ``transport="socket"`` and no ``hosts`` list gets one spawned on demand
  (and torn down by ``session.close()``).

Liveness mirrors the pool's crashed-worker handling: every await loop checks
the host connections, a dead host surfaces as a
:class:`~repro.errors.NetworkError` (never a silent stall), and the next run
reconnects — respawning auto-spawned hosts that died.

Trust model: frames are **pickles**.  Unpickling executes code, so a shard
host must only ever listen on localhost or inside a trusted network segment —
the same deployment boundary as every pickle-based RPC (and as the
``multiprocessing`` spawn pipes this replaces).  Hosts also run the same
``repro`` codebase as the coordinator; version skew is not negotiated.
"""

from __future__ import annotations

import atexit
import copy
import os
import pickle
import queue as queue_module
import select
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.coordination.rule import NodeId
from repro.errors import NetworkError, ReproError
from repro.faults.injector import NULL_INJECTOR, injector_of
from repro.faults.recovery import retry_call
from repro.network.latency import LatencyModel
from repro.obs import NULL_TRACER, get_logger
from repro.sharding.multiproc import (
    _WORKER_TIMEOUT,
    MultiprocEngine,
    MultiprocTransport,
    ShardWorld,
    _await_replies,
    _quiescence_rounds,
    _worlds_from_system,
)
from repro.sharding.planner import ShardPlan, ShardPlanner
from repro.sharding.pool import (
    SyncDelta,
    WarmPoolLifecycle,
    WorldMirror,
    _pool_worker_main,
)
from repro.stats.collector import StatisticsCollector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.core.system import P2PSystem

#: Hard bound on one frame's pickled payload.  Large enough for a shipped
#: world at the 1000+-node sweeps, small enough that a corrupt or hostile
#: length header cannot make the receiver allocate unbounded memory.
DEFAULT_MAX_FRAME = 256 * 1024 * 1024

#: The line a shard host prints (and flushes) once its listener is bound —
#: what :class:`LocalHostCluster` parses to learn an auto-assigned port.
HOST_ANNOUNCE = "shardhost listening on "

#: Seconds the spawn helper waits for a host subprocess to announce itself.
_SPAWN_TIMEOUT = 30.0

#: Seconds the coordinator allows for the TCP connect to one host.
_CONNECT_TIMEOUT = 10.0

_FRAME_HEADER = struct.Struct(">Q")

_log = get_logger("sockets")


def parse_address(address: str) -> tuple[str, int]:
    """Split ``"HOST:PORT"`` into a ``(host, port)`` pair."""
    host, separator, port_text = address.rpartition(":")
    if not separator or not host:
        raise ReproError(
            f"invalid shard-host address {address!r}; expected 'HOST:PORT'"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ReproError(f"invalid port in shard-host address {address!r}") from None
    return host, port


# -------------------------------------------------------------------- framing
#
# Wire format: an 8-byte big-endian length followed by that many bytes of
# pickle.  The receive side never trusts the header — an oversized length
# fails before any payload is read, and a connection that closes mid-frame is
# a distinct, diagnosable error (a crashed host, not a protocol bug).


class ConnectionClosed(NetworkError):
    """The peer closed the connection cleanly at a frame boundary."""


class _IdleTimeout(Exception):
    """A timed read expired while *no* frame was in progress.

    Long-lived connections (a warm pool between runs, a host waiting for its
    coordinator's next command) legitimately idle for minutes; their readers
    catch this and keep waiting.  A timeout once any frame byte has arrived
    is never idle — that peer is wedged, and it surfaces as a
    :class:`~repro.errors.NetworkError` instead.
    """


def _recv_exact(sock: socket.socket, count: int, *, idle_ok: bool = False) -> bytes:
    """Read exactly ``count`` bytes, surviving arbitrarily partial reads."""
    chunks: list[bytes] = []
    received = 0
    while received < count:
        try:
            chunk = sock.recv(min(count - received, 1 << 20))
        except TimeoutError:
            if idle_ok and not chunks:
                raise _IdleTimeout() from None
            raise NetworkError(
                f"socket read timed out mid-frame ({received} of {count} "
                "bytes read); the peer appears wedged"
            ) from None
        except OSError as error:
            raise NetworkError(f"socket read failed: {error}") from None
        if not chunk:
            if not chunks:
                raise ConnectionClosed("connection closed")
            raise NetworkError(
                f"connection closed mid-frame ({received} of {count} bytes read)"
            )
        chunks.append(chunk)
        received += len(chunk)
    return b"".join(chunks)


def recv_frame(
    sock: socket.socket,
    *,
    max_frame: int = DEFAULT_MAX_FRAME,
    idle_ok: bool = False,
):
    """Receive one length-prefixed pickled frame.

    With ``idle_ok`` a read timeout *between* frames raises
    :class:`_IdleTimeout` (the caller's loop continues); once the header has
    started arriving, timeouts are hard errors like everywhere else.
    """
    header = _recv_exact(sock, _FRAME_HEADER.size, idle_ok=idle_ok)
    (length,) = _FRAME_HEADER.unpack(header)
    if length > max_frame:
        raise NetworkError(
            f"incoming frame of {length} bytes exceeds the {max_frame}-byte "
            "bound (max_frame); refusing to allocate"
        )
    try:
        payload = _recv_exact(sock, length)
    except ConnectionClosed:
        # The header arrived, so this is not a clean frame-boundary close:
        # diagnose it as the truncated frame it is.
        raise NetworkError(
            f"connection closed mid-frame (0 of {length} payload bytes read)"
        ) from None
    try:
        return pickle.loads(payload)
    except Exception as error:  # pickle raises a zoo of types
        raise NetworkError(f"could not unpickle a frame: {error}") from None


class _FrameWriter:
    """Serialised frame sends over one socket (many threads, one writer lock)."""

    def __init__(self, sock: socket.socket, max_frame: int):
        self._sock = sock
        self._max_frame = max_frame
        self._lock = threading.Lock()

    def send(self, obj) -> None:
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        if len(payload) > self._max_frame:
            raise NetworkError(
                f"outgoing frame of {len(payload)} bytes exceeds the "
                f"{self._max_frame}-byte bound (max_frame)"
            )
        header = _FRAME_HEADER.pack(len(payload))
        try:
            # Two sendalls under the one lock: frame atomicity without
            # materialising header+payload (a second full-size copy of a
            # world-sized frame) just to concatenate.
            with self._lock:
                self._sock.sendall(header)
                self._sock.sendall(payload)
        except OSError as error:
            raise NetworkError(f"socket write failed: {error}") from None


# ------------------------------------------------------------- the host side


class _RemoteOutbox:
    """A worker's outbox for a shard living on another host.

    Quacks like the local inbox queues: :meth:`put` takes the worker
    transport's ``("msg", deliver_at, message)`` tuple and frames it to the
    coordinator (tagged with the target shard), which routes it onward.
    """

    def __init__(self, writer: _FrameWriter, target_shard: int):
        self._writer = writer
        self._target = target_shard

    def put(self, item) -> None:
        _kind, deliver_at, message = item
        self._writer.send(("msg", self._target, deliver_at, message))


def _host_worker(
    world: ShardWorld, routing: list, results, isolate: bool
) -> None:
    """One hosted shard worker: isolate the world, run the persistent loop.

    Workers co-hosted on one host are threads sharing the unpickled
    ``worlds`` frame, but the worker loop mutates its world's schemas and
    databases — with ``isolate`` each thread gets a private deep copy,
    restoring the separation that distinct processes give the mp engines
    for free.  A host running a *single* worker skips the copy (nothing
    shares the world), which matters at large worlds: the default
    one-shard-per-host layout would otherwise hold every world twice.
    """
    try:
        if isolate:
            world = copy.deepcopy(world)
    except BaseException:  # noqa: BLE001 - shipped to the coordinator
        results.put(("error", world.shard_index, traceback.format_exc()))
        return
    _pool_worker_main(world, routing, results)


class ShardHost:
    """A server process hosting shard workers for one coordinator at a time.

    The host accepts a TCP connection, receives its workers' worlds, runs
    them as persistent threads (the same command loop the worker pool uses:
    ``start`` / ``msg`` / ``ping`` / ``sync`` / ``collect`` / ``stop``), and
    forwards their replies back over the wire.  When the coordinator
    disconnects — or sends ``teardown`` — the workers are stopped and the
    host loops back to ``accept``, ready for the next coordinator, so a
    fleet of hosts can serve many successive runs without respawning.
    """

    def __init__(
        self,
        bind: tuple[str, int] = ("127.0.0.1", 0),
        *,
        max_frame: int = DEFAULT_MAX_FRAME,
    ):
        self.max_frame = max_frame
        self._listener = socket.create_server(bind, backlog=4)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._shutdown = False
        self._conn: socket.socket | None = None
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        """The bound port (useful with ``--bind HOST:0``)."""
        return self.address[1]

    # -------------------------------------------------------------- lifecycle

    def serve_forever(self) -> None:
        """Accept and serve coordinators until :meth:`close` is called."""
        while not self._shutdown:
            try:
                conn, _peer = self._listener.accept()
            except OSError:
                break  # listener closed by close()
            self._conn = conn
            try:
                self._serve_connection(conn)
            finally:
                self._conn = None
                try:
                    conn.close()
                except OSError:  # pragma: no cover - teardown race
                    pass

    def start(self) -> "ShardHost":
        """Serve in a daemon thread (in-process hosts for tests)."""
        if self._thread is None:
            self._thread = threading.Thread(target=self.serve_forever, daemon=True)
            self._thread.start()
        return self

    def close(self) -> None:
        """Stop serving: close the listener and any live connection."""
        self._shutdown = True
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already closed
            pass
        conn = self._conn
        if conn is not None:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def __enter__(self) -> "ShardHost":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------ connection

    def _serve_connection(self, conn: socket.socket) -> None:
        # A timed socket bounds every blocking call: a wedged coordinator
        # (connected, not draining) cannot hold this host's writes forever.
        # Reads tolerate idling — the coordinator may sit quiet for minutes
        # between warm runs — via the _IdleTimeout continue below.
        conn.settimeout(_WORKER_TIMEOUT)
        writer = _FrameWriter(conn, self.max_frame)
        inboxes: dict[int, queue_module.Queue] = {}
        threads: list[threading.Thread] = []
        results: queue_module.Queue = queue_module.Queue()
        forwarder: threading.Thread | None = None
        stop_sentinel = object()

        def stop_workers() -> None:
            nonlocal forwarder
            for inbox in inboxes.values():
                inbox.put(("stop",))
            for thread in threads:
                thread.join(timeout=5.0)
            inboxes.clear()
            threads.clear()
            if forwarder is not None:
                results.put(stop_sentinel)
                forwarder.join(timeout=5.0)
                forwarder = None

        def forward_results() -> None:
            while True:
                item = results.get()
                if item is stop_sentinel:
                    return
                try:
                    writer.send(item)
                except NetworkError as error:
                    # A reply too big to frame must not become a silent
                    # stall: tell the coordinator which shard's reply was
                    # dropped (a tiny control frame) and keep forwarding —
                    # other workers' replies may still fit.  If even that
                    # fails the connection itself is gone; teardown follows
                    # via the recv loop.
                    shard = (
                        item[1]
                        if len(item) > 1 and isinstance(item[1], int)
                        else -1
                    )
                    try:
                        writer.send(
                            (
                                "error",
                                shard,
                                f"could not ship a {item[0]!r} reply: {error}",
                            )
                        )
                    except NetworkError:
                        return

        try:
            while True:
                try:
                    frame = recv_frame(conn, max_frame=self.max_frame, idle_ok=True)
                except _IdleTimeout:
                    continue  # a quiet coordinator is a healthy coordinator
                except ConnectionClosed:
                    return
                except NetworkError:
                    return  # unframeable input: drop the coordinator
                try:
                    kind = frame[0]
                    if kind == "worlds":
                        stop_workers()  # a re-ship replaces previous workers
                        total, worlds = frame[1], frame[2]
                        inboxes = {
                            world.shard_index: queue_module.Queue()
                            for world in worlds
                        }
                        routing = [
                            inboxes[shard]
                            if shard in inboxes
                            else _RemoteOutbox(writer, shard)
                            for shard in range(total)
                        ]
                        threads = [
                            threading.Thread(
                                target=_host_worker,
                                args=(world, routing, results, len(worlds) > 1),
                                daemon=True,
                            )
                            for world in worlds
                        ]
                        forwarder = threading.Thread(
                            target=forward_results, daemon=True
                        )
                        forwarder.start()
                        for thread in threads:
                            thread.start()
                    elif kind == "start":
                        # Frame layout matches the mp-pool inbox tuple; the
                        # optional 4th slot carries the update mode (None or
                        # "incremental") and is absent in frames from older
                        # coordinators.
                        start_mode = frame[3] if len(frame) > 3 else None
                        for inbox in inboxes.values():
                            inbox.put(("start", frame[1], frame[2], start_mode))
                    elif kind == "msg":
                        inbox = inboxes.get(frame[1])
                        if inbox is None:
                            writer.send(
                                (
                                    "error",
                                    frame[1],
                                    "message routed to a non-hosted shard",
                                )
                            )
                        else:
                            inbox.put(("msg", frame[2], frame[3]))
                    elif kind == "ping":
                        inbox = inboxes.get(frame[2])
                        if inbox is None:
                            writer.send(
                                ("error", frame[2], "ping for a non-hosted shard")
                            )
                        else:
                            inbox.put(("ping", frame[1]))
                    elif kind == "sync":
                        inbox = inboxes.get(frame[1])
                        if inbox is None:
                            writer.send(
                                ("error", frame[1], "sync for a non-hosted shard")
                            )
                        else:
                            inbox.put(("sync", frame[2]))
                    elif kind == "collect":
                        for inbox in inboxes.values():
                            inbox.put(("collect",))
                    elif kind == "teardown":
                        stop_workers()
                    else:
                        writer.send(("error", -1, f"unknown frame kind {kind!r}"))
                except (TypeError, IndexError, AttributeError) as error:
                    # A well-pickled frame of the wrong *shape* (version
                    # skew, a buggy client): report it and drop this
                    # coordinator — the host must outlive any one client.
                    try:
                        writer.send(("error", -1, f"malformed frame: {error}"))
                    except NetworkError:
                        pass
                    return
                except NetworkError:
                    # An inline reply (a non-hosted-shard or unknown-kind
                    # error frame) failed to write: the coordinator is gone
                    # or wedged.  Drop it; the host must outlive any client.
                    return
        finally:
            stop_workers()


# ------------------------------------------------------- the coordinator side


class _HostLink:
    """One coordinator↔host connection: framed sends plus a reader thread.

    The reader routes cross-host ``msg`` frames through the pool (the
    hub-and-spoke path) and funnels every other reply into the pool's shared
    results queue — the queue :func:`_await_replies` and the quiescence
    rounds already know how to drain.  A closed or failing connection flips
    :attr:`alive`, which the liveness checks read.
    """

    def __init__(self, address: str, results, router, max_frame: int):
        self.address = address
        self.alive = False
        self.exitcode: str | None = None
        self.injector = NULL_INJECTOR
        self._results = results
        self._router = router
        self._max_frame = max_frame
        host, port = parse_address(address)
        try:
            self._sock = socket.create_connection(
                (host, port), timeout=_CONNECT_TIMEOUT
            )
        except OSError as error:
            raise NetworkError(
                f"cannot connect to shard host {address}: {error}"
            ) from None
        # Keep the socket timed: a wedged host (alive TCP, not reading or
        # not sending) must bound sendall and mid-frame reads instead of
        # blocking forever.  Idle reads between frames are tolerated in
        # _read_loop — a warm pool legitimately sits quiet between runs.
        self._sock.settimeout(_WORKER_TIMEOUT)
        self._writer = _FrameWriter(self._sock, max_frame)
        self.alive = True
        _log.debug("connected to shard host %s", address)
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()

    def _read_loop(self) -> None:
        try:
            while True:
                try:
                    frame = recv_frame(
                        self._sock, max_frame=self._max_frame, idle_ok=True
                    )
                except _IdleTimeout:
                    continue  # no frame in progress; keep listening
                try:
                    if frame[0] == "msg":
                        self._router(frame[1], frame[2], frame[3])
                    else:
                        self._results.put(frame)
                except (TypeError, IndexError, KeyError) as error:
                    # A well-pickled frame of the wrong shape (version skew,
                    # a buggy host) must read as a protocol failure on this
                    # link, not kill the reader with a bare traceback and a
                    # misleading "lost connection" diagnosis.
                    raise NetworkError(
                        f"malformed frame from shard host {self.address}: "
                        f"{error!r}"
                    ) from None
        except NetworkError as error:
            self.exitcode = str(error)
        finally:
            self.alive = False

    def send(self, obj) -> None:
        injector = self.injector
        if not injector.enabled:
            self._send_raw(obj)
            return

        def attempt() -> None:
            # A simulated partition blocks the write but leaves the TCP
            # connection intact, so it must not flip ``alive`` — raising
            # before the raw send keeps the two failure modes distinct.
            injector.check_partition(self.address)
            self._send_raw(obj)

        policy = injector.retry_policy
        if policy is None:
            attempt()
        else:
            retry_call(attempt, policy=policy, on_retry=injector.note_retry)

    def _send_raw(self, obj) -> None:
        try:
            self._writer.send(obj)
        except NetworkError:
            self.alive = False
            raise

    def close(self) -> None:
        self.alive = False
        # shutdown() first: close() alone does not send FIN (nor wake this
        # link's reader) while the reader thread is blocked in recv on the
        # same fd, which would leave the host serving a dead connection.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # peer already gone
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already closed
            pass


class _ShardLiveness:
    """Presents one shard's host link through the worker-liveness protocol.

    :func:`repro.sharding.multiproc._check_workers` expects per-shard objects
    with ``is_alive()`` and ``exitcode``; for a socket shard, "the worker
    died" means "its host's connection is gone".
    """

    def __init__(self, link: _HostLink):
        self._link = link

    def is_alive(self) -> bool:
        return self._link.alive

    @property
    def exitcode(self) -> str:
        return self._link.exitcode or f"lost connection to {self._link.address}"


class _PingChannel:
    """Per-shard ping outlet with the inbox ``put`` shape the barrier expects."""

    def __init__(self, link: _HostLink, shard: int):
        self._link = link
        self._shard = shard

    def put(self, item) -> None:
        self._link.send(("ping", item[1], self._shard))


class SocketPool:
    """K shard workers behind TCP host connections (spawn once, run many).

    The socket twin of :class:`~repro.sharding.pool.WorkerPool`: shards are
    assigned to hosts round-robin, each host receives its workers' worlds
    once, and successive runs drive the same delta-sync protocol and
    cumulative-counter quiescence barrier — framed over the wire.  Any
    failure (a dead host, a stalled barrier, an exceeded message bound)
    closes the pool; the engines respawn/reconnect on the next run.
    """

    def __init__(
        self,
        plan: ShardPlan,
        worlds: list[ShardWorld],
        hosts: Sequence[str],
        *,
        max_frame: int = DEFAULT_MAX_FRAME,
        injector=NULL_INJECTOR,
    ):
        if len(worlds) != plan.shard_count:
            raise ReproError(
                f"the pool needs one world per shard: got {len(worlds)} "
                f"worlds for {plan.shard_count} shards"
            )
        if not hosts:
            raise ReproError("the socket pool needs at least one shard host")
        if len(set(hosts)) != len(hosts):
            raise NetworkError(
                f"duplicate shard-host addresses in {tuple(hosts)}; list "
                "each host once (shards are assigned round-robin across them)"
            )
        self.plan = plan
        # Round-robin assignment uses at most one host per shard, so hosts
        # past the shard count would never own a worker — don't dial them,
        # and never let an idle machine's restart fail a run.  (Trimming
        # preserves the mapping: shard % len(hosts[:K]) == shard % len(hosts)
        # for shard < K ≤ len(hosts).)
        self.hosts = tuple(hosts)[: plan.shard_count]
        self.closed = False
        self._injector = injector
        self._max_frame = max_frame
        self._max_messages = worlds[0].max_messages if worlds else 1_000_000
        self._mirror = WorldMirror(worlds)
        self._host_of_shard = {
            shard: shard % len(self.hosts) for shard in range(plan.shard_count)
        }
        self._results: queue_module.Queue = queue_module.Queue()
        self._links: list[_HostLink] = []
        try:
            for address in self.hosts:
                link = _HostLink(address, self._results, self._route, max_frame)
                link.injector = injector
                self._links.append(link)
            for host_index, link in enumerate(self._links):
                link.send(
                    (
                        "worlds",
                        plan.shard_count,
                        [
                            world
                            for world in worlds
                            if self._host_of_shard[world.shard_index] == host_index
                        ],
                    )
                )
            _await_replies(self._results, "ready", plan.shard_count, self._liveness)
        except BaseException:
            self.close()
            raise

    @classmethod
    def spawn(
        cls,
        system: P2PSystem,
        plan: ShardPlan,
        hosts: Sequence[str],
        *,
        max_frame: int = DEFAULT_MAX_FRAME,
        injector=NULL_INJECTOR,
    ) -> "SocketPool":
        """Open a pool over the live system's current state."""
        return cls(
            plan,
            _worlds_from_system(system, plan),
            hosts,
            max_frame=max_frame,
            injector=injector,
        )

    # ------------------------------------------------------------------ status

    @property
    def shard_count(self) -> int:
        """Number of shard workers across all hosts."""
        return self.plan.shard_count

    @property
    def alive(self) -> bool:
        """True while the pool is open and every host connection lives."""
        return not self.closed and all(link.alive for link in self._links)

    @property
    def _liveness(self) -> list[_ShardLiveness]:
        return [
            _ShardLiveness(self._links[self._host_of_shard[shard]])
            for shard in range(self.shard_count)
        ]

    @property
    def injector(self):
        """The fault injector driving this pool's chaos hooks."""
        return self._injector

    @injector.setter
    def injector(self, injector) -> None:
        self._injector = injector
        for link in self._links:
            link.injector = injector

    def host_of(self, shard: int) -> str:
        """The host address a shard's worker runs on."""
        return self.hosts[self._host_of_shard[shard]]

    def kill_worker(self, shard: int) -> None:
        """Sever the connection to the host owning ``shard`` (chaos kill).

        The host itself survives — its read loop sees the close, stops its
        workers and loops back to ``accept`` — so the next (re)spawned pool
        can reconnect, which is exactly the crash-recovery path the fault
        suite exercises.
        """
        self._links[self._host_of_shard[shard]].close()

    # --------------------------------------------------------------- routing

    def _route(self, target: int, deliver_at: float, message) -> None:
        """Forward one cross-host message to the host owning ``target``."""
        link = self._links[self._host_of_shard[target]]
        try:
            link.send(("msg", target, deliver_at, message))
        except NetworkError:
            # The run is doomed; surface it through the results queue so the
            # await loops fail fast instead of stalling out the barrier.
            self._results.put(
                (
                    "error",
                    target,
                    f"lost connection to {link.address} while routing a "
                    "cross-host message",
                )
            )

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Tear down the workers and drop the connections (idempotent).

        The hosts themselves stay up — they loop back to ``accept`` for the
        next coordinator; only this coordinator's workers stop.
        """
        if self.closed:
            return
        self.closed = True
        for link in self._links:
            if link.alive:
                try:
                    link.send(("teardown",))
                except NetworkError:  # pragma: no cover - teardown race
                    pass
            link.close()

    def __enter__(self) -> "SocketPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _require_open(self) -> None:
        if self.closed:
            raise ReproError("the socket pool is closed")
        for link in self._links:
            if not link.alive:
                raise NetworkError(
                    f"lost connection to shard host {link.address} "
                    f"({link.exitcode or 'connection dropped'}); "
                    "the pool must be respawned"
                )

    # --------------------------------------------------------------- re-plan

    def plan_if_stale(
        self, system: P2PSystem, planner: ShardPlanner
    ) -> ShardPlan | None:
        """Re-plan after a rule-graph change (see :class:`WorldMirror`)."""
        return self._mirror.plan_if_stale(self.plan, system, planner)

    # ------------------------------------------------------------------ runs

    def sync(self, system: P2PSystem) -> SyncDelta:
        """Ship the coordinator's changes since the last run to the hosts.

        Warm repeat runs re-ship only the structural delta — inserted rows,
        wholesale relation replaces, rule add/removes — never the schemas or
        unchanged data; an empty delta ships nothing at all.
        """
        self._require_open()
        delta = self._mirror.delta(system)
        if not delta.empty:
            for shard in range(self.shard_count):
                self._links[self._host_of_shard[shard]].send(
                    ("sync", shard, delta.for_shard(self.plan, shard))
                )
            self._mirror.note_synced(system)
        self._injector.fire("sync", self)
        return delta

    def run_phase(
        self,
        phase: str,
        origins: Iterable[NodeId],
        *,
        tracer=None,
        mode: str | None = None,
    ) -> list[dict]:
        """Drive one phase over the hosted workers and collect their payloads.

        ``mode="incremental"`` is forwarded to the hosted workers, which run
        the delta-driven update path when their accumulated sync deltas agree
        it is safe (see :func:`repro.sharding.pool._pool_worker_main`).
        """
        tracer = tracer if tracer is not None else NULL_TRACER
        try:
            self._require_open()
            origin_list = tuple(origins)
            for link in self._links:
                link.send(("start", phase, origin_list, mode))
            self._injector.fire("chase", self)
            with tracer.span("quiescence") as quiescence_span:
                rounds = _quiescence_rounds(
                    self._results,
                    [
                        _PingChannel(self._links[self._host_of_shard[shard]], shard)
                        for shard in range(self.shard_count)
                    ],
                    self.shard_count,
                    self._max_messages,
                    self._liveness,
                )
                quiescence_span.set(rounds=rounds)
            self._injector.fire("quiescence", self)
            with tracer.span("collect"):
                for link in self._links:
                    link.send(("collect",))
                collected = _await_replies(
                    self._results, "collected", self.shard_count, self._liveness
                )
        except BaseException:
            self.close()
            raise
        payloads = [payload for _shard, payload in sorted(collected.items())]
        self._mirror.note_collected(payloads)
        return payloads

    def __repr__(self) -> str:
        state = "closed" if self.closed else ("alive" if self.alive else "dead")
        return (
            f"SocketPool({self.shard_count} shards over "
            f"{len(self.hosts)} hosts, {state})"
        )


# ------------------------------------------------------- localhost auto-spawn


class LocalHostCluster:
    """K localhost shard hosts as subprocesses (tests and CI need no cluster).

    Each host is ``python -m repro.shardhost --bind 127.0.0.1:0``; the
    OS-assigned port is read from the host's announce line.  The cluster can
    :meth:`ensure_alive` (respawning hosts that died — the *respawn* half of
    the reconnect-and-respawn story) and registers an ``atexit`` hook so
    stray host processes never outlive the coordinator.
    """

    def __init__(self, count: int, *, python: str | None = None):
        if count < 1:
            raise ReproError("a local host cluster needs at least one host")
        self._python = python or sys.executable
        self._processes: list[subprocess.Popen] = []
        self._stderr_files: dict[subprocess.Popen, object] = {}
        self.addresses: list[str] = []
        try:
            # Launch every host first (Popen returns immediately), then wait
            # for the announces: the interpreter start-ups overlap, so a
            # K-host cluster pays roughly one start-up, not K in sequence.
            for _ in range(count):
                self._processes.append(self._launch_one())
            for process in self._processes:
                self.addresses.append(self._read_announce(process))
        except BaseException:
            self.close()
            raise
        _log.debug("spawned %d local shard host(s): %s", count, self.addresses)
        atexit.register(self.close)

    def _launch_one(self) -> subprocess.Popen:
        import repro

        env = dict(os.environ)
        package_root = str(Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            os.pathsep.join([package_root, existing]) if existing else package_root
        )
        # stderr goes to an unnamed temp file, not a pipe: nobody drains the
        # host's stderr for its (long) lifetime, and a filled pipe buffer
        # would block the host mid-write — a stall with no visible cause.
        # The file keeps the output readable for spawn-failure diagnostics.
        stderr_file = tempfile.TemporaryFile(mode="w+")
        process = subprocess.Popen(
            [self._python, "-m", "repro.shardhost", "--bind", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            stderr=stderr_file,
            text=True,
            env=env,
        )
        self._stderr_files[process] = stderr_file
        return process

    def _read_announce(self, process: subprocess.Popen) -> str:
        line = ""
        deadline = time.monotonic() + _SPAWN_TIMEOUT
        while time.monotonic() < deadline:
            if process.poll() is not None:
                break
            ready, _, _ = select.select([process.stdout], [], [], 0.5)
            if ready:
                line = process.stdout.readline()
                break
        if not line.startswith(HOST_ANNOUNCE):
            stderr = ""
            stderr_file = self._stderr_files.get(process)
            try:
                process.kill()
                process.wait(timeout=5.0)
                if stderr_file is not None:
                    stderr_file.seek(0)
                    stderr = stderr_file.read()
            except (OSError, subprocess.TimeoutExpired):  # pragma: no cover
                pass
            raise NetworkError(
                "failed to spawn a local shard host "
                f"(announce was {line!r}): {stderr.strip()}"
            )
        return line[len(HOST_ANNOUNCE):].strip()

    @property
    def host_count(self) -> int:
        """Number of host processes in the cluster."""
        return len(self._processes)

    @property
    def alive(self) -> bool:
        """True while every host process is running."""
        return bool(self._processes) and all(
            process.poll() is None for process in self._processes
        )

    def ensure_alive(self) -> list[str]:
        """Respawn any host process that died; return the live addresses."""
        for index, process in enumerate(self._processes):
            if process.poll() is not None:
                _log.warning(
                    "local shard host %s died (exit %s); respawning",
                    self.addresses[index],
                    process.returncode,
                )
                self._reap(process)
                replacement = self._launch_one()
                self._processes[index] = replacement
                self.addresses[index] = self._read_announce(replacement)
        return list(self.addresses)

    def _reap(self, process: subprocess.Popen) -> None:
        if process.stdout is not None:
            process.stdout.close()
        stderr_file = self._stderr_files.pop(process, None)
        if stderr_file is not None:
            stderr_file.close()

    def close(self) -> None:
        """Terminate every host process (idempotent)."""
        atexit.unregister(self.close)
        processes, self._processes = self._processes, []
        self.addresses = []
        for process in processes:
            if process.poll() is None:
                process.terminate()
        for process in processes:
            try:
                process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck host
                process.kill()
                process.wait(timeout=1.0)
            self._reap(process)

    def __enter__(self) -> "LocalHostCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"LocalHostCluster({self.addresses!r})"


# ------------------------------------------------------- transport and engines


class SocketTransport(MultiprocTransport):
    """Coordinator handle of a socket-backed run: configuration, merged counters.

    ``hosts`` is the list of ``"HOST:PORT"`` shard-host addresses the engine
    dials (shards are assigned round-robin across them); ``None`` means
    *auto-spawn* — the engine brings up one localhost host per shard on the
    first run and owns their lifecycle.  ``shard_count`` defaults to one
    shard per host.  Like its mp parent, the transport never delivers a
    message itself: execution happens inside the hosts.
    """

    def __init__(
        self,
        shard_count: int | None = None,
        hosts: Sequence[str] | None = None,
        latency: LatencyModel | None = None,
        stats: StatisticsCollector | None = None,
        max_messages: int = 1_000_000,
        max_frame: int = DEFAULT_MAX_FRAME,
    ):
        if shard_count is None:
            shard_count = len(hosts) if hosts else 2
        super().__init__(
            shard_count=shard_count,
            latency=latency,
            stats=stats,
            max_messages=max_messages,
        )
        self.hosts: tuple[str, ...] | None = tuple(hosts) if hosts else None
        self.max_frame = max_frame
        for address in self.hosts or ():
            parse_address(address)  # fail at build time, not first run
        if self.hosts and len(set(self.hosts)) != len(self.hosts):
            # A host serves one coordinator connection at a time, so a
            # duplicate entry would sit unanswered in its listen backlog
            # until the worker timeout.  Two workers on one box is already
            # expressible: list the host once and raise shards.
            raise NetworkError(
                f"duplicate shard-host addresses in {self.hosts}; list each "
                "host once (shards are assigned round-robin across them)"
            )

    def __repr__(self) -> str:
        where = (
            f"{len(self.hosts)} hosts" if self.hosts else "auto-spawned hosts"
        )
        return (
            f"{type(self).__name__}({self.shard_count} shards over {where}, "
            f"{self.delivered_count} delivered)"
        )


class PooledSocketTransport(SocketTransport):
    """Socket transport whose type selects the warm (pooled) socket engine."""


class SocketEngine(MultiprocEngine):
    """One-shot runs over shard hosts: connect, ship, run, tear down.

    Each :meth:`run` opens a :class:`SocketPool` (fresh host connections,
    worlds shipped), drives the phase to distributed quiescence, collects
    the merged state and closes the pool — the run driver of
    :class:`~repro.sharding.multiproc.MultiprocEngine`, inherited unchanged,
    with TCP hosts instead of spawned processes.  Auto-spawned localhost
    hosts are kept (and revived) across runs on the engine; ``close()``
    stops them.  For warm repeat runs use :class:`PooledSocketEngine`.
    """

    name = "socket"

    def __init__(self, planner: ShardPlanner | None = None):
        super().__init__(planner)
        self._cluster: LocalHostCluster | None = None

    def _check(self, system: P2PSystem) -> SocketTransport:
        transport = system.transport
        if not isinstance(transport, SocketTransport):
            raise ReproError(
                "the socket engine needs a SocketTransport; "
                "use Session.run (which picks the engine) or build the system "
                "with transport='socket'"
            )
        return transport

    @property
    def cluster(self) -> LocalHostCluster | None:
        """The auto-spawned localhost cluster, or None with explicit hosts."""
        return self._cluster

    def close(self) -> None:
        """Stop any auto-spawned localhost hosts (idempotent)."""
        if self._cluster is not None:
            self._cluster.close()
            self._cluster = None

    def _hosts_for(self, transport: SocketTransport) -> Sequence[str]:
        """The transport's hosts, or the engine's (revived) localhost cluster."""
        if transport.hosts:
            return transport.hosts
        if self._cluster is None:
            self._cluster = LocalHostCluster(transport.shard_count)
            return self._cluster.addresses
        return self._cluster.ensure_alive()

    def _spawn_pool(self, system: P2PSystem, transport: SocketTransport) -> SocketPool:
        # The injector is passed at spawn time (not only attached afterwards
        # by the run drivers) so an unhealed partition already gates the
        # world-shipping sends of a cold (re-)spawn.
        return SocketPool.spawn(
            system,
            transport.plan,
            self._hosts_for(transport),
            max_frame=transport.max_frame,
            injector=injector_of(system),
        )


class PooledSocketEngine(WarmPoolLifecycle, SocketEngine):
    """Warm repeat runs over shard hosts: the :class:`SocketPool` kept open.

    The first run connects and ships the worlds; every later run reuses the
    live host connections and workers, re-shipping only structural deltas —
    the socket twin of :class:`~repro.sharding.pool.PooledEngine`, sharing
    its :class:`~repro.sharding.pool.WarmPoolLifecycle` run driver and so
    the exact same lifecycle rules: a dead host closes the pool and the next
    run reconnects (respawning auto-spawned hosts), and a rule-graph change
    that moves any peer restarts the pool over the fresh partition.
    """

    name = "socket-pooled"
