"""The layer ledger: times and counts calls into each ``repro`` layer from outside.

:meth:`Ledger.install` replaces a fixed set of public functions and methods
of the library with thin wrappers; :meth:`Ledger.uninstall` puts the
originals back.  Nothing under ``src/`` changes.  Every wrapped call is a
frame on a per-thread stack, so a layer's *self* time is its busy time minus
the wrapped calls made beneath it.  Within the benchmark's timed
operations, the self times of all layers, the ledger's own bookkeeping and
the unattributed rest add up to the measured wall time.

Wrappers must be installed before the system is built:
``PeerNode.__init__`` hands the bound ``self.handle`` to the transport at
registration, so a node built earlier keeps the unwrapped handler.

Only the calling process is seen.  On the pooled and socket engines the
protocol runs in worker processes, so the ``core``/``database``/``network``
entries there stay at zero and the ``sharding`` entries describe the
coordinator's side of each run.
"""

from __future__ import annotations

import pickle
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: Program trace spans (``Session(trace=True)``) folded into the ledger.
_PROGRAM_SPANS = ("quiescence", "collect", "merge")

#: Every layer's frame key; their self times make up the attributed time.
SELF_KEYS = (
    "api.session",
    "api.query",
    "core.engine",
    "core.query",
    "core.answer",
    "core.other",
    "database.fragment",
    "database.join",
    "database.chase",
    "network.transport",
    "network.size",
    "stats.record",
    "sharding.engine",
    "sharding.sync",
    "sharding.run_phase",
)


#: Payload keys only a traced program ships (spans and the chase profile).
_TRACE_KEYS = ("spans", "trace_clock", "chase_profile")


def _collected_bytes(payloads) -> int:
    """Pickled size of collected payloads, less what only tracing adds."""
    return len(
        pickle.dumps(
            [
                {key: value for key, value in payload.items() if key not in _TRACE_KEYS}
                for payload in payloads
            ]
        )
    )


class _Frame:
    __slots__ = ("key", "children")

    def __init__(self, key: str):
        self.key = key
        self.children = 0.0


class Ledger:
    """Busy time, self time and counts per layer, summed over all threads."""

    def __init__(self) -> None:
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.op_wall = 0.0
        self.overhead = 0.0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ accounting

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, key: str, function, *args, **kwargs):
        """Run ``function`` as one frame of layer ``key``."""
        stack = self._stack()
        outermost = all(frame.key != key for frame in stack)
        frame = _Frame(key)
        stack.append(frame)
        started = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            stack.pop()
            if stack:
                stack[-1].children += elapsed
            with self._lock:
                if outermost:
                    self.busy[key] += elapsed
                self.self_time[key] += elapsed - frame.children

    @contextmanager
    def op(self):
        """One timed operation of the benchmark; its self time is unattributed."""
        stack = self._stack()
        frame = _Frame("op")
        stack.append(frame)
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            stack.pop()
            with self._lock:
                self.op_wall += elapsed
                self.self_time["op"] += elapsed - frame.children

    @contextmanager
    def overhead_of_tracing(self):
        """Bookkeeping of the ledger itself, charged to no layer."""
        stack = self._stack()
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            if stack:
                stack[-1].children += elapsed
            with self._lock:
                self.overhead += elapsed

    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def attributed_seconds(self) -> float:
        """Self time of every wrapped layer, all threads together."""
        return sum(self.self_time[key] for key in SELF_KEYS)

    def unattributed_seconds(self) -> float:
        """Timed operation wall time that no layer and no bookkeeping covers."""
        return max(0.0, self.op_wall - self.attributed_seconds() - self.overhead)

    # -------------------------------------------------------------- patching

    def _patch(self, owner: object, name: str, make_wrapper) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(
            owner, name
        )
        self._patches.append((owner, name, original))
        setattr(owner, name, make_wrapper(original))

    @contextmanager
    def installed(self):
        """The wrappers, in place for the duration of a ``with`` block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def uninstall(self) -> None:
        """Put every original function back (idempotent)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def install(self) -> None:
        """Wrap the public entry points of every layer."""
        import repro.core.update as update_module
        import repro.sharding.sockets as sockets_module
        from repro.api.engine import SyncEngine
        from repro.api.session import Session
        from repro.core.node import PeerNode
        from repro.database.database import LocalDatabase
        from repro.network.message import Message, MessageType
        from repro.network.transport import SyncTransport
        from repro.sharding.multiproc import MultiprocEngine
        from repro.sharding.pool import WorkerPool
        from repro.sharding.sockets import SocketPool
        from repro.stats.collector import StatisticsCollector

        call = self.call
        add = self.add
        overhead = self.overhead_of_tracing

        def timed(key):
            def make(original):
                def wrapper(*args, **kwargs):
                    return call(key, original, *args, **kwargs)

                return wrapper

            return make

        # repro.api ------------------------------------------------------
        def session_run(original):
            def wrapper(session, phase, *args, **kwargs):
                result = call("api.session", original, session, phase, *args, **kwargs)
                for span in result.extras.get("trace", {}).get("spans", ()):
                    if (
                        span.get("name") in _PROGRAM_SPANS
                        and span.get("process", "coordinator") == "coordinator"
                    ):
                        add(f"span.{span['name']}", span["end"] - span["start"])
                return result

            return wrapper

        self._patch(Session, "run", session_run)
        self._patch(Session, "query", timed("api.query"))

        # repro.core -----------------------------------------------------
        query_type = MessageType.QUERY
        answer_type = MessageType.ANSWER

        def peer_handle(original):
            def wrapper(node, message):
                if message.type is query_type:
                    return call("core.query", original, node, message)
                if message.type is answer_type:
                    payload = message.payload
                    if not payload.get("incremental"):
                        with overhead():
                            rows = frozenset(payload["tuples"])
                            known = node.state.fragments.get(
                                (payload["rule_id"], payload["source"]), frozenset()
                            )
                            add("core.answer_rows", len(rows))
                            add("core.answer_rows_new", len(rows - known))
                    return call("core.answer", original, node, message)
                return call("core.other", original, node, message)

            return wrapper

        self._patch(PeerNode, "handle", peer_handle)
        self._patch(SyncEngine, "run", timed("core.engine"))

        # repro.database (the protocol's calls into it) --------------------
        def fragment_for(original):
            def wrapper(*args, **kwargs):
                fragment = call("database.fragment", original, *args, **kwargs)
                add("database.fragment_calls")
                add("database.fragment_rows", len(fragment))
                return fragment

            return wrapper

        def join_fragments(original):
            def wrapper(*args, **kwargs):
                answers = call("database.join", original, *args, **kwargs)
                add("database.join_calls")
                add("database.join_rows_out", len(answers))
                return answers

            return wrapper

        def apply_view_tuples(original):
            def wrapper(database, rule_id, head, variables, answers, *args, **kw):
                inserted = call(
                    "database.chase", original, database, rule_id, head,
                    variables, answers, *args, **kw,
                )
                add("database.chase_calls")
                add("database.chase_rows_in", len(answers))
                add("database.chase_rows_inserted", len(inserted))
                return inserted

            return wrapper

        self._patch(update_module, "fragment_for", fragment_for)
        self._patch(update_module, "join_fragments", join_fragments)
        self._patch(LocalDatabase, "apply_view_tuples", apply_view_tuples)

        # repro.network --------------------------------------------------
        def transport_run(original):
            def wrapper(transport):
                before = transport.delivered_count
                try:
                    return call("network.transport", original, transport)
                finally:
                    add("network.deliveries", transport.delivered_count - before)

            return wrapper

        self._patch(Message, "size_estimate", timed("network.size"))
        self._patch(SyncTransport, "run", transport_run)

        # repro.stats ----------------------------------------------------
        self._patch(StatisticsCollector, "record_message", timed("stats.record"))

        # repro.sharding (coordinator side) ------------------------------
        def pool_sync(original):
            def wrapper(pool, system):
                delta = call("sharding.sync", original, pool, system)
                rows = sum(
                    len(rows)
                    for relations in delta.inserts.values()
                    for rows in relations.values()
                ) + sum(
                    len(rows)
                    for relations in delta.replaces.values()
                    for _schema, rows in relations.values()
                )
                add("sharding.sync_rows", rows)
                return delta

            return wrapper

        def pool_run_phase(original):
            def wrapper(pool, phase, origins, *args, **kwargs):
                payloads = call(
                    "sharding.run_phase", original, pool, phase, origins,
                    *args, **kwargs,
                )
                if phase == "update":
                    mode = kwargs.get("mode")
                    add(
                        "sharding.runs_incremental"
                        if mode == "incremental"
                        else "sharding.runs_naive"
                    )
                with overhead():
                    add("sharding.collect_bytes", _collected_bytes(payloads))
                return payloads

            return wrapper

        def recv_frame(original):
            def wrapper(*args, **kwargs):
                frame = original(*args, **kwargs)
                add("sharding.socket_frames_in")
                return frame

            return wrapper

        self._patch(MultiprocEngine, "run", timed("sharding.engine"))
        for pool_class in (WorkerPool, SocketPool):
            self._patch(pool_class, "sync", pool_sync)
            self._patch(pool_class, "run_phase", pool_run_phase)
        self._patch(sockets_module, "recv_frame", recv_frame)
