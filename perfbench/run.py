"""gdscert benchmark: one seeded workload per run, metrics as JSON on stdout.

Usage (from the repository root):

    python3 perfbench/run.py --workload superrad-sweep --seed 1 --seconds 45 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The metric names and units are the ones
listed in ``BENCHMARK.json``.  The package is imported from ``src/`` of the
same checkout; nothing is installed.  The last stdout line is the result
object; the line before it is a report with machine facts, gate outcomes and
the details behind each metric.  A failed correctness gate prints
``"correct": false`` and exits with code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# BENCHMARK.json lists the first two; the certify workloads stay runnable by
# hand (see README.md for why they are not in it)
WORKLOAD_NAMES = ("superrad-sweep", "mc-volume", "certify-sep", "certify-simplex")
SETUP_REPEATS = 7
MIN_PASSES = 3
MIN_TRACED_PASSES = 2  # per half of a traced run: untraced, then traced
# One BLAS thread: the batched 16x16 and 64x64 eigensolves of mc-volume run
# faster without threads, and on a shared 2-core machine the 1024-dim
# eigensolves of superrad-sweep spread about 4x wider with two threads.
BLAS_THREADS = 1


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=45.0,
                    help="measuring time; at least the minimum number of passes runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="shrink every workload's inputs (self-test only; not comparable)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be a non-negative integer")
    return args


class SetupProbe:
    """Set-up time samples, spread over the measuring window.

    Each sample is the seconds from starting a fresh interpreter until it has
    imported gdscert, scipy and click.  Spreading the samples between passes
    lets them see the same machine conditions as the passes do.
    """

    def __init__(self, repeats: int):
        self.repeats = repeats
        self.samples = []

    def __call__(self, share: float):
        """Take the samples due once ``share`` of the measuring time has passed."""
        while len(self.samples) < min(self.repeats, math.ceil(share * self.repeats)):
            t0 = perf_counter()
            with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
                                  stdout=subprocess.PIPE, text=True) as proc:
                line = proc.stdout.readline()
                self.samples.append(perf_counter() - t0)
                proc.stdout.read()
            if proc.returncode != 0 or not line.startswith("ready"):
                raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")


def timed_passes(workload, seconds: float, minimum: int, progress=None) -> list:
    """Run passes until the next one would end after ``seconds`` of pass time.

    At least ``minimum`` passes run.  ``progress(share)`` is called between
    passes with the share of ``seconds`` used so far, outside any pass.
    """
    passes, busy = [], 0.0
    while len(passes) < minimum or busy + passes[-1].wall_s <= seconds:
        p = workload.run_pass()
        p.signature = workload.signature(p)
        if passes:
            p.outputs = None  # one pass's outputs feed the gates; others would only load the GC
        passes.append(p)
        busy += p.wall_s
        if progress is not None:
            progress(busy / seconds)
    if progress is not None:
        progress(1.0)
    return passes


def git_commit() -> str | None:
    """HEAD of the checkout's git metadata, read from files (no git process)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "gdscert").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_facts(threads: int, seed: int) -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_pinned": threads,
        "seed": seed,
        "gdscert_commit": git_commit(),
        "gdscert_source_sha256": source_digest(),
    }


def end_to_end(passes, setup_samples, peak_rss_mb) -> tuple[dict, dict]:
    import numpy as np
    from workloads import tail_percentile

    med = statistics.median
    n_verdicts = len(passes[0].verdict_latency_ms)
    q = tail_percentile(n_verdicts)
    values = {
        "setup_s": med(setup_samples),
        "wall_s": med(p.wall_s for p in passes),
        "verdicts_per_s": med(len(p.verdict_latency_ms) / p.verdict_s for p in passes),
        "verdict_p50_ms": med(float(np.percentile(p.verdict_latency_ms, 50)) for p in passes),
        "verdict_p99_ms": med(float(np.percentile(p.verdict_latency_ms, q)) for p in passes),
        "mc_samples_per_s": med(p.samples / p.wall_s for p in passes),
        "mc_time_to_target_s": med(p.time_to_target_s for p in passes),
        "peak_rss_mb": peak_rss_mb,
    }
    details = {
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "setup_samples_s": setup_samples,
        "verdicts_per_pass": n_verdicts,
        "verdict_tail_percentile": q,
        "samples_per_pass": passes[0].samples,
    }
    return values, details


def emit(spec: list, values: dict, required: bool) -> dict:
    out = {}
    for m in spec:
        if m["name"] not in values and required:
            raise KeyError(f"metric {m['name']} was not measured")
        out[m["name"]] = {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gdscert" / "__init__.py").is_file():
        print(f"error: no gdscert sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    # pin BLAS threads before numpy is first imported in this process
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)

    setup = SetupProbe(2 if args.smoke else SETUP_REPEATS)
    sys.path.insert(0, str(SRC))
    import gdscert

    if Path(gdscert.__file__).resolve().parent != (SRC / "gdscert").resolve():
        raise RuntimeError(f"imported gdscert from {gdscert.__file__}, not from {SRC}")
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    workload.run_pass()  # warm-up: BLAS threads, first-touch of large buffers

    if args.trace:
        untraced = timed_passes(workload, args.seconds / 2, MIN_TRACED_PASSES, setup)
        tracer = tracing.Tracer()
        tracing.install(tracer, workloads)
        try:
            traced = timed_passes(workload, args.seconds / 2, MIN_TRACED_PASSES)
        finally:
            tracer.restore()
        passes = untraced + traced
    else:
        passes = timed_passes(workload, args.seconds, MIN_PASSES, setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures, wrong, attempted, gate_details = workload.check(passes[0])
    if any(p.signature != passes[0].signature for p in passes[1:]):
        failures.append("passes over the same inputs gave different outputs")

    values, details = end_to_end(passes if not args.trace else untraced,
                                 setup.samples, peak_rss_mb)
    if args.trace:
        layer = tracing.layer_values(tracer, len(traced))
        traced_wall = statistics.median(p.wall_s for p in traced)
        layer["trace.wall_s"] = traced_wall
        layer["trace.overhead_s"] = traced_wall - values["wall_s"]
        layer["trace.overhead_share"] = layer["trace.overhead_s"] / values["wall_s"]
        details["layer_values"] = layer
        details["layers_not_reached"] = [m["name"] for m in spec["per_layer"]
                                         if m["name"] not in layer]
        metrics = emit(spec["per_layer"], layer, required=False)
    else:
        details["end_to_end"] = values
        metrics = emit(spec["end_to_end"], values, required=True)

    report = {
        "workload": args.workload,
        "trace": args.trace,
        "smoke": args.smoke,
        "machine": machine_facts(threads, args.seed),
        "gates": {"passed": not failures, "failures": failures[:20], **gate_details},
        "wrong_verdict_share": wrong / attempted,
        "details": details,
    }
    print(json.dumps({"report": report}, default=float))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": wrong,
                      "metrics": metrics}))
    for name, m in metrics.items():
        print(f"{args.workload:>16} {name:<48} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    return 0 if not failures else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # report and fail without printing a result line
        traceback.print_exc()
        sys.exit(1)
