"""tnexp benchmark: entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --list        # workloads, metrics with units, layer map
    python3 perfbench/run.py --self-test   # output checks at tiny sizes

A run starts fresh child processes (child.py) with PYTHONPATH=<checkout>/src,
TNEXP_WORKERS removed and one numeric thread.  Untraced runs (--trace 0)
first start SETUP_PROBES children that only set up, to sample set-up
time, then one child that measures the workload for S seconds and
reports the end-to-end metrics.  Traced runs report the per-layer
metrics.  Output files go to a temporary directory under .bench_tmp/ in
the checkout, removed afterwards.  The last line of stdout is
{"correct", "attempted", "failed", "metrics"}; the line before it
records versions, the seed, the outputs hash and the first failure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6
RUN_TIMEOUT = 170       # seconds for all children of one run


class RunFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("TNEXP_WORKERS", None)       # keep search on one thread
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(script: str, args: list, deadline: float) -> tuple:
    """Run a child to completion; return (seconds until its "ready" line, later stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / script), *args], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
        rc = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if rc != 0 or first.strip() != "ready":
        raise RunFailed(f"{script} {' '.join(args)} exited with {rc}")
    return ready, rest


def benchmark(args, spec: dict, tmp: str) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace), "--tmp", tmp]
    setups = []
    if not args.trace:
        setups = [spawn("child.py", common + ["--probe"], deadline)[0]
                  for _ in range(SETUP_PROBES)]
    ready, out = spawn("child.py", common, deadline)
    setups.append(ready)
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["info"]["setup_s_samples"] = setups
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in declared}:
        raise RunFailed(f"measured {sorted(result['metrics'])}, "
                        f"BENCHMARK.json declares {sorted(m['name'] for m in declared)}")
    result["metrics"] = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
                         for m in declared}
    return result


def print_catalog(spec: dict) -> None:
    from tracing import LAYER_MAP
    from workloads import DOCS
    print("workloads (closed loop, one caller, one thread):")
    for w in spec["workloads"]:
        doc = DOCS[w["name"]]
        print(f"  {w['name']}: {w['why']}")
        for key in ("argv", "seed", "op", "round"):
            print(f"    {key:<6} {doc[key]}")
    print("end-to-end metrics (--trace 0):")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<12} {m['unit']:<6} {m['better']:<7} bound {m['bound']}")
    print("per-layer metrics (--trace 1), per operation of the traced phase:")
    for m in spec["per_layer"]:
        print(f"  {m['name']:<40} {m['unit']}")
    print("layer metric -> end-to-end metric it should move -> where:")
    for metric, moves, where in LAYER_MAP:
        print(f"  {metric}\n      moves {moves}; {where}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tnexp benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true", help="print workloads and metrics")
    parser.add_argument("--self-test", action="store_true", help="check the output checks")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tnexp" / "__init__.py").is_file():
        print(f"error: no tnexp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.list:
        print_catalog(spec)
        return 0
    if not args.self_test and args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"--workload must be one of {[w['name'] for w in spec['workloads']]}")

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_root)
    try:
        if args.self_test:
            return subprocess.run([sys.executable, str(HERE / "selftest.py"), tmp],
                                  cwd=ROOT, env=child_env(), timeout=RUN_TIMEOUT).returncode
        result = benchmark(args, spec, tmp)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    print(json.dumps({"info": result["info"]}))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
