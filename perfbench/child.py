"""One benchmark run inside a fresh Python process.

run.py starts this script with PYTHONPATH pointing at the checkout's
src/.  It imports tnexp, generates the workload's inputs, prints
"ready", then issues the commands through `tnexp.cli.main(argv)` in a
closed loop on one thread, checks every output, and prints one JSON line
with the raw measurements.  With --probe it stops after "ready"; run.py
uses probes to sample set-up time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import workloads
from workloads import Command, CheckFailed, Task


def run_command(cli, argv) -> Command:
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:       # argparse rejected the argv
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:               # a crash is a failed operation, not a failed run
        error = traceback.format_exc(limit=-3).strip()
    seconds = time.perf_counter() - start
    return Command(argv, rc, out.getvalue(), err.getvalue(), seconds, error)


class Phase:
    """Accounting for one timed section."""

    def __init__(self):
        self.ops = 0
        self.failed = 0
        self.busy = 0.0          # seconds inside tnexp.cli.main
        self.latencies = []      # per task: seconds per operation
        self.round_rates = []    # per round: successful operations per busy second
        self.rounds = 0
        self.digest = None       # sha256 of the first round's outputs
        self.first_failure = None

    def fail(self, ops: int, argvs, reason: str) -> None:
        self.failed += ops
        if self.first_failure is None:
            self.first_failure = {"argv": argvs, "reason": reason}
            shown = " ; ".join("tnexp " + " ".join(a) for a in argvs)
            print(f"failed: {shown}: {reason}", file=sys.stderr)

    def rate(self) -> float:
        """Median over rounds, so that a slow stretch of the host moves it less."""
        return statistics.median(self.round_rates)


def run_task(cli, task: Task, phase: Phase) -> bytes:
    """Issue the task's commands, check them, return the outputs' hash."""
    cmds = []
    reason = None
    for argv in task.argvs:
        cmd = run_command(cli, argv)
        cmds.append(cmd)
        if cmd.error or cmd.rc != 0:
            reason = cmd.error or f"exit code {cmd.rc}: {cmd.stderr.strip()[:300]}"
            break
    material = b""
    if reason is None:
        try:
            material = task.check(cmds)
        except CheckFailed as exc:
            reason = f"check failed: {exc}"
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            reason = f"malformed output: {type(exc).__name__}: {exc}"
    seconds = sum(c.seconds for c in cmds)
    phase.ops += task.ops
    phase.busy += seconds
    phase.latencies.append(seconds / task.ops)
    if reason is not None:
        phase.fail(task.ops, [c.argv for c in cmds], reason)
        return b"failed"
    return hashlib.sha256(material).digest()


def measure(cli, wl, seconds: float, min_ops: int, expect_digest=None) -> Phase:
    """Whole rounds until the next one would end past `seconds`.

    A run completes at least one round and `min_ops` operations (within
    twice `seconds`).  Round 0's outputs must hash to `expect_digest` when
    given, and a batch workload's later rounds must repeat round 0.
    """
    phase = Phase()
    start = time.perf_counter()
    while True:
        tasks = wl.round(phase.rounds)
        ops, failed, busy = phase.ops, phase.failed, phase.busy
        h = hashlib.sha256(b"".join(run_task(cli, t, phase) for t in tasks)).hexdigest()
        expected = expect_digest if phase.rounds == 0 else (phase.digest if wl.batch else None)
        if expected is not None and h != expected:
            phase.fail(sum(t.ops for t in tasks), tasks[0].argvs,
                       "outputs differ from an earlier pass over the same inputs")
        if phase.rounds == 0:
            phase.digest = h
        phase.round_rates.append((phase.ops - ops - (phase.failed - failed))
                                 / (phase.busy - busy))
        phase.rounds += 1
        elapsed = time.perf_counter() - start
        enough = phase.ops >= min_ops or elapsed >= 2 * seconds
        if enough and elapsed * (phase.rounds + 1) / phase.rounds > seconds:
            return phase


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (q in [0, 1])."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def run(cli, wl, seconds: float, trace: bool) -> dict:
    # Stream workloads first pass over round 0 untimed, checked like any
    # other; it counts against the run's seconds.  A batch round is one
    # command of several seconds, too long to repeat untimed.
    start = time.perf_counter()
    warm = Phase()
    for task in () if wl.batch else wl.round(0):
        run_task(cli, task, warm)
    seconds -= time.perf_counter() - start
    if not trace:
        phase = measure(cli, wl, seconds, wl.min_ops)
        phases = [warm, phase]
        metrics = {
            "ops_per_s": phase.rate(),
            "op_p50_ms": 1e3 * percentile(phase.latencies, 0.5),
            "op_p90_ms": 1e3 * percentile(phase.latencies, 0.9),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        # untraced first half, then the same inputs again under the wrappers
        from tracing import Tracer
        plain = measure(cli, wl, seconds / 2, 0)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(cli, wl, seconds / 2, 0, expect_digest=plain.digest)
        finally:
            tracer.uninstall()
        phases = [warm, plain, traced]
        metrics = tracer.per_op(traced.ops)
        metrics["trace.overhead_pct"] = 100 * (
            traced.busy / traced.ops / (plain.busy / plain.ops) - 1)
        metrics["fail_share"] = sum(p.failed for p in phases) / sum(p.ops for p in phases)
    first = phases[1]
    return {
        "attempted": sum(p.ops for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": metrics,
        "info": {
            "warmup_tasks": len(warm.latencies),
            "rounds": [p.rounds for p in phases[1:]],
            "tasks": [len(p.latencies) for p in phases[1:]],
            "round_rates": [p.round_rates for p in phases[1:]],
            "outputs_sha256": first.digest,
            "first_failure": next((p.first_failure for p in phases if p.first_failure), None),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True, help="directory for output files")
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    args = parser.parse_args(argv)

    import numpy
    import tnexp
    import tnexp.cli as cli

    src = os.environ.get("PYTHONPATH", "")
    if os.path.dirname(os.path.abspath(tnexp.__file__)) != os.path.join(src, "tnexp"):
        print(f"error: imported tnexp from {tnexp.__file__}, not from {src}", file=sys.stderr)
        return 2
    wl = workloads.make_workload(args.workload, args.seed, args.tmp)
    print("ready", flush=True)
    if args.probe:
        return 0

    result = run(cli, wl, args.seconds, bool(args.trace))
    result["info"].update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tnexp_file": tnexp.__file__,
        "versions": {"tnexp": tnexp.__version__, "python": platform.python_version(),
                     "numpy": numpy.__version__},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
