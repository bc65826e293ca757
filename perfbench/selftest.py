#!/usr/bin/env python3
"""Self-test of the benchmark: short, reduced-size runs of every workload.

Run from the repository root:

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that ``queries_per_solve`` repeats exactly across two runs of one seed, that
no call fails on that seed, and that the benchmark exits non-zero without a
result when the library is not next to it.  Exits 1 on any failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 1


def bench(args: list[str], cwd: str = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args, "--seed", str(SEED),
                           "--seconds", "1"],
                          cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    failures: list[str] = []

    def check(ok: bool, message: str) -> None:
        if not ok:
            failures.append(message)

    def check_run(label: str, rc: int, out: dict | None, wanted: list[dict]) -> None:
        check(rc == 0 and out is not None, f"{label}: exit {rc}, result {out!r}")
        if out is None:
            return
        check(out["correct"] and out["failed"] == 0, f"{label}: {out['failed']} failed calls")
        units = {name: m["unit"] for name, m in out["metrics"].items()}
        check(units == {m["name"]: m["unit"] for m in wanted}, f"{label}: metrics/units {units}")

    for w in spec["workloads"]:
        name = w["name"]
        runs = [bench(["--workload", name, "--trace", "0", "--small"]) for _ in range(2)]
        for k, (rc, out) in enumerate(runs):
            check_run(f"{name} untraced #{k}", rc, out, spec["end_to_end"])
        if all(out is not None for _, out in runs):
            q = [out["metrics"]["queries_per_solve"]["value"] for _, out in runs]
            check(q[0] == q[1], f"{name}: queries_per_solve differs across runs: {q}")
        rc, out = bench(["--workload", name, "--trace", "1", "--small"])
        check_run(f"{name} traced", rc, out, spec["per_layer"])

    # Without the library beside it the benchmark must refuse, printing no result.
    build_dir = os.path.join(ROOT, ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=build_dir)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for rel in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, rel), os.path.join(bare, rel),
                            ignore=shutil.ignore_patterns("__pycache__"))
        rc, out = bench(["--workload", spec["workloads"][0]["name"]], cwd=bare)
        check(rc != 0 and out is None, f"bare checkout: exit {rc}, result {out!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for message in failures:
        print(f"FAIL {message}")
    print("selftest:", "failed" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
