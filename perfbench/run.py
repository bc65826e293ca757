#!/usr/bin/env python3
"""fairslice benchmark: wall time per public call, checked outputs, per-layer traces.

Run from the repository root:

    python3 perfbench/run.py --workload chain-search --seed 1 --seconds 25 --trace 0

Workloads (closed loop, one client, one call in flight; inputs from --seed):

* ``chain-search``: ``envy_free`` and ``max_egalitarian`` at eta 1e-6 on
  Gaussian, linear and binomial instances, n = 2..16.  Cut-query heavy.
* ``nash-dp``: ``max_nash`` on Gaussian and linear instances, n = 3..6,
  eps in {0.01, 0.02, 0.03}.  Nash grid plus partition DP.
* ``cli-eval``: in-process ``fairslice.cli.run`` for ``sw --eta 1e-8``,
  ``plef --eta 1e-2``, ``mlrp-check`` and ``check`` over seeded files.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` its per-layer metrics.  Each workload
runs in a fresh worker process with one BLAS/OpenMP thread; ``setup_s`` is
the median over several fresh processes.  Any failed call or audit makes
``correct`` false and the exit code 1.  Input and span files go to
``.bench_build/perfbench``.
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
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
BENCH_BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("chain-search", "nash-dp", "cli-eval")

#: Fresh processes that time set-up alone, half before and half after the
#: workload process (which adds one more sample), so that the median spans the run.
SETUP_PROBES = 10
#: Every child must end within this many seconds of the start of the run.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def check_checkout() -> dict:
    """The benchmark spec, after checking that the library it measures is present."""
    for rel in ("src/fairslice/__init__.py", "tests/gen.py", "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            raise BenchError(f"{rel} not found under {ROOT}; run from a fairslice checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_worker(extra: list[str], env: dict, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, WORKER, *extra], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(extra)} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(extra)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args, spec: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    os.makedirs(BENCH_BUILD, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH_BUILD)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", workdir]
        if args.small:
            common.append("--small")
        probes = 2 if args.small else SETUP_PROBES

        def probe() -> dict:
            return run_worker(common + ["--setup-only"], env, deadline)["setup"]

        probe()  # compiles the bytecode that later imports reuse; not counted
        setups = [probe() for _ in range(probes // 2)]
        extra = ["--seconds", repr(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            extra += ["--spans", os.path.join(BENCH_BUILD, f"spans-{args.workload}.npz")]
        result = run_worker(common + extra, env, deadline)
        setups += [probe() for _ in range(probes - probes // 2)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setups.append(result["setup"])
    metrics = dict(result["metrics"])
    metrics["setup_s"] = statistics.median(s["import_s"] + s["instances_s"] for s in setups)
    metrics["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
    metrics["setup.instances_s"] = statistics.median(s["instances_s"] for s in setups)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    for message in result["errors"]:
        print(f"perfbench: {args.workload}: {message}", file=sys.stderr)
    return {
        "correct": not result["errors"] and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true", help="reduced instance set, for the self-test")
    args = p.parse_args(argv)
    try:
        spec = check_checkout()
        out = measure(args, spec)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
