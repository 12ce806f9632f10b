"""The three workloads of the repository benchmark.

Each workload is a closed loop over one network built from the workload
seed.  The seed fixes the DBLP records, the inserted rows, the delete
targets and the op schedule; the library only ever receives the generated
rows.  An untraced run reports every end-to-end metric of ``END_TO_END``, a
traced run every per-layer metric of ``PER_LAYER``; both run the output
checks after the timed loop.

* ``cold-tree`` — the paper's global update on a 255-peer binary tree over
  the synchronous engine.  Each cycle builds a fresh session with default
  options and runs one cold update, then the warm repeat that session serves
  next: a block of ten ops, nine one-row inserts and one delete, each
  followed by an update.  Every update is followed by three local queries.
* ``warm-socket`` — the warm repeat over TCP: the pooled socket engine with
  two auto-spawned localhost shard hosts, on a 127-peer tree.  One caller
  loops op + update + query; in every block of ten ops one deletes an earlier
  insert (a non-insert change, so the naive warm path) and the rest insert
  one fresh row (the incremental path).
* ``serve-pooled`` — the served path: an in-process HTTP server with one
  tenant (the 127-peer tree, served on the pooled engine with two shards)
  and two client threads, each looping one update then three queries.  The
  updates follow the same insert/delete schedule as ``warm-socket``.

Queries read peer ``n02``, the root of the subtree the inserts never reach,
so a query costs the same however many inserts a faster build manages.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import random
import statistics
import threading
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass

from ledger import Ledger

#: End-to-end metrics (untraced runs): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "cold_update_s": "s",
    "update_messages": "count",
    "update_bytes": "B",
    "insert_update_p50_ms": "ms",
    "insert_update_p90_ms": "ms",
    "naive_update_p50_ms": "ms",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "ops_per_s": "1/s",
}

#: Per-layer metrics (traced runs): name -> unit.  Times and counts are per
#: cycle of the workload's loop; ``cycles`` is how many the traced half ran.
PER_LAYER = {
    "api.session_self_s": "s",
    "api.query_busy_s": "s",
    "core.engine_self_s": "s",
    "core.query_busy_s": "s",
    "core.query_self_s": "s",
    "core.answer_busy_s": "s",
    "core.answer_self_s": "s",
    "core.other_self_s": "s",
    "core.answer_rows": "count",
    "core.answer_rows_new": "count",
    "core.answer_useful_ratio": "ratio",
    "database.fragment_calls": "count",
    "database.fragment_busy_s": "s",
    "database.fragment_rows": "count",
    "database.join_calls": "count",
    "database.join_busy_s": "s",
    "database.join_rows_out": "count",
    "database.chase_calls": "count",
    "database.chase_busy_s": "s",
    "database.chase_rows_in": "count",
    "database.chase_rows_inserted": "count",
    "network.size_busy_s": "s",
    "network.deliveries": "count",
    "network.transport_self_s": "s",
    "stats.record_busy_s": "s",
    "sharding.sync_busy_s": "s",
    "sharding.sync_rows": "count",
    "sharding.run_phase_busy_s": "s",
    "sharding.collect_bytes": "B",
    "sharding.engine_self_s": "s",
    "sharding.quiescence_s": "s",
    "sharding.collect_s": "s",
    "sharding.merge_s": "s",
    "sharding.runs_incremental": "count",
    "sharding.runs_naive": "count",
    "sharding.socket_frames_in": "count",
    "serve.update_engine_ms": "ms",
    "serve.update_overhead_ms": "ms",
    "serve.query_busy_ms": "ms",
    "serve.query_wait_ms": "ms",
    "serve.rejections": "count",
    "incremental.seed_rows": "count",
    "incremental.rows_derived": "count",
    "cycles": "count",
    "unattributed_s": "s",
    "attributed_share": "ratio",
    "trace_overhead_ratio": "ratio",
}

#: Peer every workload queries, and its query (a two-relation join).
QUERY_NODE = "n02"
QUERY_TEXT = "q(K, T, A) :- work(K, T), author_of(K, A)"
#: The root query the serve check reads acknowledged inserts back with.
ROOT_NODE = "n00"
ROOT_QUERY = "q(K, T, A, Y, V) :- pub(K, T, A, Y, V)"
#: Ops in one block of the insert/delete schedule (one of them a delete).
BLOCK = 10
#: Set-ups per untraced run by default; ``setup_s`` is their median, and on
#: the warm workloads ``cold_update_s`` and the message counts too.
SETUP_REPEATS = 4
#: Per-request client timeout on the served path; a timeout is a failed op.
REQUEST_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Settings:
    """What one run measures: the CLI arguments plus test-only sizing.

    ``depth`` overrides the workload's tree depth and ``cycles`` replaces
    the time budget with a fixed cycle count per measured half, so a small
    instance repeats exactly.
    """

    seed: int
    seconds: float
    trace: bool = False
    depth: int | None = None
    cycles: int | None = None


#: Iterations of the calibration loop, and its time at the reference CPU
#: speed (about the fast state of the 2-core shared VM the benchmark was
#: written on; see ``cpu_speed``).
CALIBRATION_ITERATIONS = 150_000
CALIBRATION_REFERENCE_S = 0.010


def cpu_speed() -> float:
    """The CPU's speed right now, relative to the reference speed.

    Times a fixed pure-Python arithmetic loop that touches no code of the
    library, so a faster program leaves it unchanged.  On a shared host the
    speed of one vCPU moves by 1.5x within seconds and by more over minutes;
    a CPU-bound latency multiplied by this factor (taken next to it) reads
    about the same whichever speed the run happened to get.
    """
    started = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i
    return CALIBRATION_REFERENCE_S / (time.perf_counter() - started)


class Recorder:
    """Attempted/failed accounting, latency samples per phase, checks.

    ``normalized`` names the kinds of time (latency kinds, and ``"setup"``)
    that are CPU-bound in this process.  For those, :meth:`calibrate` takes
    ``cpu_speed`` readings between operations, and :meth:`latencies` and
    :meth:`scaled` scale each time by the speed interpolated at its midpoint
    from the readings either side of it.  Other kinds stay wall times.
    """

    def __init__(self, progress=None):
        self.attempted = 0
        self.succeeded = 0
        self.phase = "plain"
        self.normalized: frozenset[str] = frozenset()
        self.samples: defaultdict[tuple[str, str], list[float]] = defaultdict(list)
        self.midpoints: defaultdict[tuple[str, str], list[float]] = defaultdict(list)
        self.speeds: list[tuple[float, float]] = []
        self.checks: dict[str, bool] = {}
        self.errors: list[str] = []
        self._lock = threading.Lock()
        self._progress = progress or (lambda attempted, succeeded: None)

    def calibrate(self, kind: str) -> None:
        """Take a CPU speed reading before a ``kind`` operation, if scaled."""
        if kind in self.normalized:
            started = time.perf_counter()
            speed = cpu_speed()
            self.speeds.append(((started + time.perf_counter()) / 2, speed))

    def speed_at(self, moment: float) -> float:
        """The CPU speed at ``moment``, interpolated between readings."""
        speeds = self.speeds
        if not speeds:
            return 1.0
        index = bisect.bisect(speeds, (moment, math.inf))
        if index == 0:
            return speeds[0][1]
        if index == len(speeds):
            return speeds[-1][1]
        (t0, s0), (t1, s1) = speeds[index - 1], speeds[index]
        return s0 + (s1 - s0) * (moment - t0) / (t1 - t0)

    def scaled(self, kind: str, seconds: float, started: float) -> float:
        """``seconds`` of ``kind`` from ``started``, scaled if it is normalized."""
        if kind not in self.normalized:
            return seconds
        return seconds * self.speed_at(started + seconds / 2)

    @property
    def failed(self) -> int:
        return self.attempted - self.succeeded

    def attempt(self, kind: str, function):
        """Run one operation; returns ``(ok, value or exception, seconds)``.

        Any exception counts the operation as failed; a success records its
        latency under ``kind`` for the current phase.
        """
        phase = self.phase
        with self._lock:
            self.attempted += 1
            self._progress(self.attempted, self.succeeded)
        started = time.perf_counter()
        try:
            value = function()
        except Exception as error:  # every failure mode counts the same
            with self._lock:
                self.errors.append(f"{kind}: {error!r}")
                self._progress(self.attempted, self.succeeded)
            return False, error, time.perf_counter() - started
        elapsed = time.perf_counter() - started
        with self._lock:
            self.succeeded += 1
            self.samples[phase, kind].append(elapsed)
            self.midpoints[phase, kind].append(started + elapsed / 2)
            self._progress(self.attempted, self.succeeded)
        return True, value, elapsed

    def latencies(self, kind: str, phase: str = "plain") -> list[float]:
        """Samples of ``kind``, at the reference speed if it is normalized."""
        samples = self.samples[phase, kind]
        if kind not in self.normalized:
            return samples
        midpoints = self.midpoints[phase, kind]
        return [s * self.speed_at(m) for s, m in zip(samples, midpoints)]

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)


def quantile(values, p: float) -> float:
    """The ``p``-quantile: Harrell-Davis from ten samples, interpolated below.

    The Harrell-Davis estimate is a Beta-weighted mean of every order
    statistic.  Unlike the sample median it moves smoothly when the samples
    fall in two modes, as the socket path's delayed-ACK timers make them.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0
    if n < 10:
        if p == 0.5 or n == 1:
            return statistics.median(ordered)
        return statistics.quantiles(ordered, n=100, method="inclusive")[round(p * 100) - 1]
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 4
    weights = []
    for i in range(n):
        # Midpoint rule over [i/n, (i+1)/n]: the Beta(a, b) mass of sample i.
        mass = 0.0
        for j in range(steps):
            x = (i + (j + 0.5) / steps) / n
            mass += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        weights.append(mass)
    total = sum(weights)
    return sum(w * v for w, v in zip(weights, ordered)) / total


def median(values) -> float:
    return quantile(values, 0.5)


def p90(values) -> float:
    return quantile(values, 0.9)


def tree_spec(depth: int, seed: int):
    from repro.api.spec import ScenarioSpec
    from repro.workloads.topologies import tree_topology

    return ScenarioSpec.from_topology(
        tree_topology(depth, 2), records_per_node=3, seed=seed
    )


def ground(snapshot):
    from repro.core.fixpoint import ground_part

    return ground_part(snapshot)


class RowSource:
    """Seeded fresh rows for the feeding site, and the op schedule.

    :meth:`schedule` yields ``("insert", row)`` or ``("delete", row)`` in
    blocks of ``BLOCK`` ops; one seeded position of each block, never the
    first, deletes a row inserted earlier.  ``tag`` keeps the keys of
    separate sources apart.
    """

    def __init__(self, seed: int, arity: int, tag: str):
        self._rng = random.Random(f"{seed}/{tag}")
        self._arity = arity
        self._tag = tag
        self._count = 0
        self._live: list[tuple] = []

    def _row(self) -> tuple:
        rng = self._rng
        self._count += 1
        fields = (
            f"bench/{self._tag}/{self._count}-{rng.getrandbits(32):08x}",
            f"{rng.choice(('robust', 'peer', 'delta', 'warm'))} study {rng.getrandbits(24):06x}",
            f"author{rng.randrange(1000)}",
            1990 + rng.randrange(35),
            rng.choice(("VLDB", "SIGMOD", "ICDE", "EDBT", "PODS")),
        )
        return fields[: self._arity]

    def schedule(self):
        while True:
            delete_at = self._rng.randrange(1, BLOCK)
            for position in range(BLOCK):
                if position == delete_at:
                    yield "delete", self._live.pop(self._rng.randrange(len(self._live)))
                else:
                    row = self._row()
                    self._live.append(row)
                    yield "insert", row


# ------------------------------------------------------------ the run loop


class Workload:
    """One network and its closed loop; subclasses fill in the steps."""

    #: Default tree depth of the network.
    depth = 6
    #: Set-ups per untraced run (``setup_s`` is their median).
    setup_repeats = SETUP_REPEATS
    #: Whether an untraced loop is split evenly over every set-up's network.
    #: The socket link's delayed-ACK stalls give warm updates two latency
    #: modes whose mix differs between connections, so samples from several
    #: fresh connections keep one connection's mix from deciding the run.
    loop_on_every_setup = True
    #: Latency kind whose traced/untraced ratio is the trace overhead.
    primary = "insert_update"
    #: Kinds of time whose work all runs in this process, so that they are
    #: CPU-bound on one vCPU and are scaled to the reference CPU speed.  Work
    #: spread over processes also waits on IPC, timers and the other vCPU,
    #: which one vCPU's reading does not see: there a 1.3x faster reading
    #: moved the cold update by anything from -20% to +10%.
    normalized: frozenset[str] = frozenset()

    def __init__(self, settings: Settings, recorder: Recorder):
        self.settings = settings
        self.recorder = recorder
        recorder.normalized = self.normalized
        if settings.depth is not None:
            self.depth = settings.depth
        self.spec = tree_spec(self.depth, settings.seed)
        from repro.experiments.serving import feeding_site

        self.site = feeding_site(self.spec)
        #: (wall seconds, start) of every set-up.
        self.setup_times: list[tuple[float, float]] = []
        self.cold_times: list[float] = []
        self.cold_shapes: list[tuple[int, int]] = []
        self.counters: defaultdict[str, float] = defaultdict(float)

    # Subclass steps ------------------------------------------------------

    def set_up(self, traced: bool) -> None:
        """Build the network and converge it (timed as set-up)."""

    def cycle(self, ledger: Ledger | None) -> None:
        """One pass of the closed loop."""
        raise NotImplementedError

    def tear_down(self) -> None:
        """Run the output checks on the live network, then release it."""

    def loop(self, ledger: Ledger | None, deadline: float, limit: int | None) -> int:
        cycles = 0
        last = 0.0
        while _more(cycles, deadline, limit, last):
            started = time.perf_counter()
            self.cycle(ledger)
            last = time.perf_counter() - started
            cycles += 1
        return cycles

    # The measured run ----------------------------------------------------

    def run(self) -> dict[str, float]:
        settings, recorder = self.settings, self.recorder
        ledger = Ledger() if settings.trace else None
        halves = [(False, settings.seconds)]
        if settings.trace:
            halves = [(False, settings.seconds / 2), (True, settings.seconds / 2)]
        loop_seconds = 0.0
        traced_cycles = 0
        for traced, seconds in halves:
            recorder.phase = "traced" if traced else "plain"
            setups = 1 if settings.trace else self.setup_repeats
            measured = setups if self.loop_on_every_setup else 1
            active = ledger if traced else None
            if traced:
                self.counters.clear()
            for index in range(setups):
                recorder.calibrate("setup")
                started = time.perf_counter()
                self.set_up(traced)
                self.setup_times.append((time.perf_counter() - started, started))
                recorder.calibrate("setup")
                if index < setups - measured:
                    self.tear_down()
                    continue
                try:
                    with active.installed() if active else nullcontext():
                        started = time.perf_counter()
                        cycles = self.loop(
                            active, started + seconds / measured, settings.cycles
                        )
                        loop_seconds += time.perf_counter() - started
                finally:
                    self.tear_down()
                recorder.check("the loop completed a cycle", cycles > 0)
                if traced:
                    traced_cycles = cycles
        if settings.trace:
            return self._layers(ledger, traced_cycles)
        return self._end_to_end(loop_seconds)

    def cold_update_times(self) -> list[float]:
        """Cold update times (the set-ups' by default)."""
        return self.cold_times

    def _end_to_end(self, loop_seconds: float) -> dict[str, float]:
        recorder = self.recorder
        latencies = recorder.latencies
        kinds = ("cold_update", "insert_update", "naive_update", "query")
        operations = sum(len(latencies(kind)) for kind in kinds)
        if set(kinds) <= self.normalized:
            # Operations per second of operation time at the reference
            # speed: the loop's untimed checks and readings are left out.
            loop_seconds = sum(sum(latencies(kind)) for kind in kinds)
        setup = [recorder.scaled("setup", *sample) for sample in self.setup_times]
        return {
            "setup_s": median(setup),
            "cold_update_s": median(self.cold_update_times()),
            "update_messages": float(median(m for m, _ in self.cold_shapes)),
            "update_bytes": float(median(b for _, b in self.cold_shapes)),
            "insert_update_p50_ms": median(latencies("insert_update")) * 1000,
            "insert_update_p90_ms": p90(latencies("insert_update")) * 1000,
            "naive_update_p50_ms": median(latencies("naive_update")) * 1000,
            "query_p50_ms": median(latencies("query")) * 1000,
            "query_p90_ms": p90(latencies("query")) * 1000,
            "ops_per_s": operations / loop_seconds if loop_seconds else 0.0,
        }

    def _layers(self, ledger: Ledger, cycles: int) -> dict[str, float]:
        busy, own, counts = ledger.busy, ledger.self_time, ledger.counts
        unattributed = ledger.unattributed_seconds()
        measured = ledger.op_wall - ledger.overhead
        totals = {name: counts[name] for name in PER_LAYER if name in counts}
        totals.update(
            {
                "api.session_self_s": own["api.session"],
                "api.query_busy_s": busy["api.query"],
                "core.engine_self_s": own["core.engine"],
                "core.query_busy_s": busy["core.query"],
                "core.query_self_s": own["core.query"],
                "core.answer_busy_s": busy["core.answer"],
                "core.answer_self_s": own["core.answer"],
                "core.other_self_s": own["core.other"],
                "database.fragment_busy_s": busy["database.fragment"],
                "database.join_busy_s": busy["database.join"],
                "database.chase_busy_s": busy["database.chase"],
                "network.size_busy_s": busy["network.size"],
                "network.transport_self_s": own["network.transport"],
                "stats.record_busy_s": busy["stats.record"],
                "sharding.sync_busy_s": busy["sharding.sync"],
                "sharding.run_phase_busy_s": busy["sharding.run_phase"],
                "sharding.engine_self_s": own["sharding.engine"],
                "sharding.quiescence_s": counts["span.quiescence"],
                "sharding.collect_s": counts["span.collect"],
                "sharding.merge_s": counts["span.merge"],
                "incremental.seed_rows": self.counters["incremental.seed_rows"],
                "incremental.rows_derived": self.counters["incremental.rows_derived"],
                "unattributed_s": unattributed,
            }
        )
        metrics = {name: 0.0 for name in PER_LAYER}
        for name, total in totals.items():
            metrics[name] = total / max(cycles, 1)
        answer_rows = counts["core.answer_rows"]
        plain = median(self.recorder.latencies(self.primary, "plain"))
        traced = median(self.recorder.latencies(self.primary, "traced"))
        metrics.update(
            {
                "core.answer_useful_ratio": (
                    counts["core.answer_rows_new"] / answer_rows if answer_rows else 0.0
                ),
                "attributed_share": (
                    min(1.0, ledger.attributed_seconds() / measured) if measured > 0 else 0.0
                ),
                "trace_overhead_ratio": traced / plain if plain else 0.0,
                "cycles": float(cycles),
            }
        )
        metrics.update(self.serve_layers(ledger))
        return metrics

    def serve_layers(self, ledger: Ledger) -> dict[str, float]:
        """The ``serve.*`` per-request metrics (zero off the served path)."""
        return {}


def _more(done: int, deadline: float, limit: int | None, last: float = 0.0) -> bool:
    """Whether to start another cycle.

    With a time budget, a cycle starts only while half of the previous
    cycle still fits before the deadline, so a loop of long cycles ends
    within about half a cycle of its budget instead of a whole one.
    """
    if limit is not None:
        return done < limit
    return time.perf_counter() + last / 2 < deadline


def _op(ledger: Ledger | None):
    return ledger.op() if ledger is not None else nullcontext()


class _SessionOps:
    """Insert/delete + update and query steps on an in-process session."""

    session = None

    def mutate_and_update(self, op, ledger: Ledger | None) -> bool:
        kind, row = op
        node, relation, _arity = self.site
        database = self.session.system.node(node).database
        if kind == "insert":
            database.insert(relation, row)
        else:
            database.delete(relation, row)
        measured = "insert_update" if kind == "insert" else "naive_update"
        self.recorder.calibrate(measured)
        with _op(ledger):
            ok, _, _ = self.recorder.attempt(measured, lambda: self.session.run("update"))
        return ok

    #: Local queries after each update.
    queries_per_update = 1

    def query(self, ledger: Ledger | None) -> None:
        self.recorder.calibrate("query")
        for _ in range(self.queries_per_update):
            with _op(ledger):
                ok, answers, _ = self.recorder.attempt(
                    "query", lambda: self.session.query(QUERY_NODE, QUERY_TEXT)
                )
            if ok:
                self.recorder.check("every query answers", len(answers) > 0)


# ---------------------------------------------------------------- cold-tree


class ColdTree(_SessionOps, Workload):
    """Cold global updates on the sync engine, each followed by warm repeats."""

    # The 127-peer tree of the other workloads: its cold update takes 1.5 to
    # 3 s, so a run holds six to eight cycles; a 255-peer one takes 5 to 8 s.
    depth = 6
    # Set-up only generates the spec and builds the session: cheap enough
    # to repeat more, which steadies the median of so short a time.
    setup_repeats = 3 * SETUP_REPEATS
    # Every cycle builds its own network: the loop runs once, after the last
    # set-up.
    loop_on_every_setup = False
    primary = "cold_update"
    # One process does all the work, so every time is CPU-bound.
    normalized = frozenset(
        ("setup", "cold_update", "insert_update", "naive_update", "query")
    )
    # More reads per update than warm-socket, for more query samples.
    queries_per_update = 3

    def __init__(self, settings: Settings, recorder: Recorder):
        super().__init__(settings, recorder)
        from repro.api.session import Session

        self.reference = ground(
            Session.from_spec(self.spec, check=False)
            .update(strategy="centralized")
            .databases
        )
        self.message_shapes: set[tuple] = set()

    def set_up(self, traced: bool) -> None:
        from repro.api.session import Session

        Session.from_spec(tree_spec(self.depth, self.settings.seed))

    def cycle(self, ledger: Ledger | None) -> None:
        from repro.api.session import Session

        recorder = self.recorder
        self.session = Session.from_spec(self.spec)
        recorder.calibrate("cold_update")
        with _op(ledger):
            ok, result, _ = recorder.attempt(
                "cold_update", lambda: self.session.run("update")
            )
        # A reading on either side: the speed can change within the update.
        recorder.calibrate("cold_update")
        if not ok:
            return
        messages = result.stats.messages
        self.message_shapes.add(tuple(sorted(messages.by_type.items())))
        self.cold_shapes.append((messages.total_messages, messages.total_bytes))
        recorder.check(
            "every cold update reaches the centralized fix-point",
            ground(self.session.databases()) == self.reference,
        )
        self.query(ledger)
        # The same seeded block every cycle: each cycle starts from a fresh
        # network, so earlier cycles' inserts are not there to delete.
        schedule = RowSource(self.settings.seed, self.site[2], "cold")
        for op in itertools.islice(schedule.schedule(), BLOCK):
            self.mutate_and_update(op, ledger)
            self.query(ledger)

    def cold_update_times(self) -> list[float]:
        return self.recorder.latencies("cold_update")

    def tear_down(self) -> None:
        self.recorder.check(
            "every cold update sends the same messages, by type",
            len(self.message_shapes) <= 1,
        )


# -------------------------------------------------------------- warm-socket


class WarmSocket(_SessionOps, Workload):
    """Warm repeats over the pooled socket engine (two localhost hosts)."""

    # The local query reads the coordinator's own copy: CPU-bound here.
    normalized = frozenset(("query",))
    # Six set-ups: the cold update's quiescence wait over the two hosts
    # varies by 20% from one set-up to the next, with the CPU's speed or not.
    setup_repeats = SETUP_REPEATS + 2

    def __init__(self, settings: Settings, recorder: Recorder):
        super().__init__(settings, recorder)
        self.spec = self.spec.with_(transport="socket", shards=2, pool=True)

    def set_up(self, traced: bool) -> None:
        from repro.api.session import Session

        # Every set-up replays the same seeded ops on a fresh network.
        self.schedule = RowSource(self.settings.seed, self.site[2], "socket").schedule()
        self.session = Session.from_spec(self.spec, trace=traced)
        try:
            started = time.perf_counter()
            result = self.session.run("update")
            self.cold_times.append(time.perf_counter() - started)
        except BaseException:
            self.session.close()
            raise
        messages = result.stats.messages
        self.cold_shapes.append((messages.total_messages, messages.total_bytes))

    def _totals(self) -> dict[str, int]:
        return self.session.system.stats.incremental_totals()

    def cycle(self, ledger: Ledger | None) -> None:
        before = self._totals()
        kind, _row = op = next(self.schedule)
        if self.mutate_and_update(op, ledger):
            after = self._totals()
            seeded = (
                after["repro_incremental_seed_rows_total"]
                - before["repro_incremental_seed_rows_total"]
            )
            if kind == "insert":
                self.recorder.check("every insert op ran incremental", seeded == 1)
            else:
                self.recorder.check("every delete op ran naive", seeded == 0)
            self.counters["incremental.seed_rows"] += seeded
            self.counters["incremental.rows_derived"] += (
                after["repro_incremental_rows_derived_total"]
                - before["repro_incremental_rows_derived_total"]
            )
        self.query(ledger)

    def tear_down(self) -> None:
        session = self.session
        try:
            converged = ground(session.databases())
            reference = ground(session.update(strategy="centralized").databases)
            self.recorder.check(
                "the centralized update adds no ground row", reference == converged
            )
        finally:
            session.close()


# ------------------------------------------------------------- serve-pooled


class ServePooled(Workload):
    """Two HTTP clients against one warm tenant of an in-process server."""

    TENANT = "tree"
    CLIENTS = 2
    QUERIES_PER_UPDATE = 3
    # Twice the set-ups: tenant creation (spawn, ship and a cold update that
    # waits on both vCPUs) varies the most of the workloads' cold updates,
    # from 1.7 to 2.9 s within one minute.
    setup_repeats = 2 * SETUP_REPEATS

    def __init__(self, settings: Settings, recorder: Recorder):
        super().__init__(settings, recorder)
        self.handle = None
        self.fivexx = 0
        self._lock = threading.Lock()

    def set_up(self, traced: bool) -> None:
        from repro.serve import ServeClient, ServerConfig, ServerHandle

        # Every set-up replays the same seeded ops on a fresh tenant.
        self.schedules = [
            RowSource(self.settings.seed, self.site[2], f"client{client}").schedule()
            for client in range(self.CLIENTS)
        ]
        self.acked_inserts: set[tuple] = set()
        self.acked_deletes: set[tuple] = set()
        self.handle = ServerHandle(ServerConfig(port=0))
        try:
            with ServeClient(self.handle.host, self.handle.port) as client:
                started = time.perf_counter()
                client.create_tenant(self.TENANT, json.loads(self.spec.dump_json()))
                self.cold_times.append(time.perf_counter() - started)
                exposition = client.metrics()
        except BaseException:
            self.handle.close()
            raise
        shape = (
            int(_exposed(exposition, "repro_messages_total", self.TENANT)),
            int(_exposed(exposition, "repro_message_bytes_total", self.TENANT)),
        )
        self.cold_shapes.append(shape)

    def loop(self, ledger: Ledger | None, deadline: float, limit: int | None) -> int:
        done = [0] * self.CLIENTS
        threads = [
            threading.Thread(
                target=self._client, args=(client, ledger, deadline, limit, done)
            )
            for client in range(self.CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return sum(done)

    def _client(self, index, ledger, deadline, limit, done) -> None:
        from repro.serve import ServeClient

        recorder = self.recorder
        node, relation, _arity = self.site
        client = ServeClient(
            self.handle.host, self.handle.port, timeout=REQUEST_TIMEOUT_S
        )
        try:
            while _more(done[index], deadline, limit):
                kind, row = next(self.schedules[index])
                change = {node: {relation: [list(row)]}}
                with _op(ledger):
                    if kind == "insert":
                        ok, reply, seconds = recorder.attempt(
                            "insert_update",
                            lambda: client.update(self.TENANT, inserts=change),
                        )
                    else:
                        ok, reply, seconds = recorder.attempt(
                            "naive_update",
                            lambda: client.update(self.TENANT, removes=change),
                        )
                self._settle_update(kind, row, ok, reply, seconds)
                for _ in range(self.QUERIES_PER_UPDATE):
                    with _op(ledger):
                        ok, reply, _ = recorder.attempt(
                            "query",
                            lambda: client.query(self.TENANT, QUERY_NODE, QUERY_TEXT),
                        )
                    self._settle_query(ok, reply)
                done[index] += 1
        finally:
            client.close()

    def _settle_update(self, kind, row, ok, reply, latency) -> None:
        recorder = self.recorder
        with self._lock:
            if not ok:
                self._refused(reply)
                return
            (self.acked_inserts if kind == "insert" else self.acked_deletes).add(row)
            expected = "incremental" if kind == "insert" else "naive"
            recorder.check(
                f"every served {kind} runs {expected}", reply.get("mode") == expected
            )
            if recorder.phase == "traced":
                engine = float(reply["wall_seconds"])
                counters = self.counters
                counters["updates"] += 1
                counters["update_engine_s"] += engine
                counters["update_overhead_s"] += latency - engine
                incremental = reply.get("incremental", {})
                counters["incremental.seed_rows"] += incremental.get(
                    "repro_incremental_seed_rows_total", 0
                )
                counters["incremental.rows_derived"] += incremental.get(
                    "repro_incremental_rows_derived_total", 0
                )

    def _settle_query(self, ok, reply) -> None:
        with self._lock:
            if not ok:
                self._refused(reply)
                return
            self.recorder.check("every query answers", reply.get("count", 0) > 0)

    def _refused(self, error) -> None:
        status = getattr(error, "status", None)
        if status is not None and status >= 500:
            self.fivexx += 1
        if status in (429, 503) and self.recorder.phase == "traced":
            self.counters["serve.rejections"] += 1

    def serve_layers(self, ledger: Ledger) -> dict[str, float]:
        counters = self.counters
        updates = max(counters["updates"], 1)
        queries = self.recorder.latencies("query", "traced")
        busy = ledger.busy["api.query"]
        return {
            "serve.update_engine_ms": counters["update_engine_s"] / updates * 1000,
            "serve.update_overhead_ms": counters["update_overhead_s"] / updates * 1000,
            "serve.query_busy_ms": busy / max(len(queries), 1) * 1000,
            "serve.query_wait_ms": (sum(queries) - busy) / max(len(queries), 1) * 1000,
            "serve.rejections": counters["serve.rejections"],
        }

    def tear_down(self) -> None:
        from repro.serve import ServeClient

        try:
            with ServeClient(
                self.handle.host, self.handle.port, timeout=REQUEST_TIMEOUT_S
            ) as client:
                reply = client.query(self.TENANT, ROOT_NODE, ROOT_QUERY)
            at_root = {tuple(row) for row in reply["answers"]}
            live = self.acked_inserts - self.acked_deletes
            self.recorder.check(
                "every acknowledged insert is answered at the root",
                live <= at_root,
            )
            self.recorder.check("no 5xx response", self.fivexx == 0)
        finally:
            self.handle.close()


def _exposed(exposition: str, metric: str, tenant: str) -> float:
    """Sum one counter over a tenant's series in a Prometheus exposition."""
    total = 0.0
    marker = f'tenant="{tenant}"'
    for line in exposition.splitlines():
        if line.startswith(metric + "{") and marker in line:
            total += float(line.rsplit(" ", 1)[1])
    return total


WORKLOADS = {
    "cold-tree": ColdTree,
    "warm-socket": WarmSocket,
    "serve-pooled": ServePooled,
}


def run_workload(name: str, settings: Settings, recorder: Recorder) -> dict[str, float]:
    """Run one workload; returns its end-to-end or, traced, per-layer metrics."""
    return WORKLOADS[name](settings, recorder).run()
