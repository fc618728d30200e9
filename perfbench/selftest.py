"""Smoke-sized self-test of the benchmark itself.

Run from the repository root:

    python3 perfbench/selftest.py

It runs every workload at smoke size, untraced and traced, including those
``BENCHMARK.json`` does not list. Each run must:

- exit 0 and pass its gates;
- emit exactly the metrics ``BENCHMARK.json`` lists, with their units.

Every per-layer metric must be reached by at least one of them. In a copy
holding only ``BENCHMARK.json`` and ``perfbench/``, the benchmark must exit
non-zero without printing a result.  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import HERE, ROOT, WORKLOAD_NAMES


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    reached = set()
    for w in WORKLOAD_NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, w, trace)
            label = f"{w} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
                continue
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            report = json.loads(lines[-2])["report"]
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} "
                                f"attempted={result['attempted']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics differ from BENCHMARK.json "
                                f"{sorted(set(got) ^ set(want))}")
            if trace:
                reached |= set(want) - set(report["details"]["layers_not_reached"])
            print(f"ok {label}: attempted={result['attempted']} failed={result['failed']}")
    unreached = {m["name"] for m in spec["per_layer"]} - reached
    if unreached:
        problems.append(f"per-layer metrics no workload reaches: {sorted(unreached)}")

    with tempfile.TemporaryDirectory() as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("without src/ the benchmark must fail without a result")
        else:
            print(f"ok without src/: exit {proc.returncode}, no result")

    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
