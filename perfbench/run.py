"""Run one workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold-tree --seed 1 --seconds 26 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment, the sample counts and the output checks.
``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``perfbench/README.md``).

The run itself happens in a child process in its own process group, with a
hard wall-clock limit.  A child that overruns it (a wedged worker pool, a
stalled socket) is killed together with every process it started, and the
run is reported with its unfinished operations counted as failed.  The exit
code is 0 only when every check passed and no operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Hard wall-clock limit of one run, set-up and checks included.
RUN_LIMIT_S = 150.0
#: How long to wait for stray processes of a finished run to go away.
REAP_LIMIT_S = 10.0
WORKLOAD_NAMES = ("cold-tree", "warm-socket", "serve-pooled")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must be in (0, 120]")
    return args


# ------------------------------------------------------------------ parent


def supervise(argv: list[str]) -> int:
    """Run the child under the wall-clock limit and relay its report."""
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    # Fixed hashing keeps set iteration, and so the message schedule and
    # every exact count, identical from run to run and across processes.
    env["PYTHONHASHSEED"] = "0"
    # The shard hosts keep their stderr in temp files: keep those in the
    # checkout.
    env["TMPDIR"] = str(scratch)
    child = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), *argv, "--child"],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    lines: list[str] = []
    progress = [0, 0]

    def read() -> None:
        for line in child.stdout:
            if line.startswith("progress "):
                _, attempted, succeeded = line.split()
                progress[:] = [int(attempted), int(succeeded)]
            else:
                lines.append(line.rstrip("\n"))

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    timed_out = False
    try:
        child.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        timed_out = True
    finally:
        _stop_group(child)
        reader.join(timeout=REAP_LIMIT_S)
    for line in lines[:-1]:
        print(line)
    if timed_out:
        attempted, succeeded = progress
        print(json.dumps({"environment": environment(), "timed_out": RUN_LIMIT_S}))
        print(
            json.dumps(
                {
                    "correct": False,
                    "attempted": max(attempted, 1),
                    "failed": max(attempted - succeeded, 1),
                    "metrics": {},
                }
            )
        )
        print(f"run exceeded its {RUN_LIMIT_S:.0f} s limit", file=sys.stderr)
        return 1
    if lines:
        print(lines[-1])
    return child.returncode


def _stop_group(child: subprocess.Popen) -> None:
    """Kill whatever the child's process group still holds, and wait for it."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.wait()
    deadline = time.monotonic() + REAP_LIMIT_S
    while time.monotonic() < deadline:
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


# ------------------------------------------------------------------- child


def environment() -> dict[str, object]:
    import multiprocessing
    import platform

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "mp_start_method": multiprocessing.get_start_method(),
    }


def run_child(args: argparse.Namespace) -> int:
    import traceback

    # Without the library there is nothing to measure: fail before any
    # report is printed.
    import repro  # noqa: F401
    from workloads import END_TO_END, PER_LAYER, Recorder, Settings, run_workload

    def progress(attempted: int, succeeded: int) -> None:
        print(f"progress {attempted} {succeeded}", flush=True)

    recorder = Recorder(progress)
    settings = Settings(seed=args.seed, seconds=args.seconds, trace=bool(args.trace))
    started = time.perf_counter()
    try:
        metrics = run_workload(args.workload, settings, recorder)
        crashed = False
    except Exception:
        traceback.print_exc()
        metrics, crashed = {}, True
    wanted = PER_LAYER if args.trace else END_TO_END
    correct = not crashed and all(recorder.checks.values()) and bool(recorder.checks)
    attempted = max(recorder.attempted, 1)
    failed = recorder.failed + (1 if crashed else 0)
    report = {
        "environment": environment(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "wall_s": time.perf_counter() - started,
        "samples": {
            f"{phase}/{kind}": len(values)
            for (phase, kind), values in sorted(recorder.samples.items())
        },
        "cpu_speed": {
            "readings": len(recorder.speeds),
            "median": statistics.median(speed for _, speed in recorder.speeds)
            if recorder.speeds
            else None,
        },
        "checks": recorder.checks,
        "errors": recorder.errors[:5],
    }
    print(json.dumps(report), flush=True)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in wanted.items()
            if name in metrics
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if correct and failed == 0 else 1


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.child:
        return run_child(args)
    return supervise(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
