"""Child process of the benchmark: runs one workload's sweeps through kerrqed.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --workdir DIR --result FILE
    python3 perfbench/worker.py --setup --workload W --seed N --probe K --workdir DIR

The first form runs one warm-up sweep, then timed sweeps until the next one
would overrun --seconds (at least MIN_SWEEPS).  With --trace 1 it alternates
untraced and traced sweeps instead, and records layer spans of the traced
ones.  It writes walls, inputs, outputs, peak RSS and the environment to
FILE.  The --setup form runs the minimal input once in a fresh interpreter
and prints the CLOCK_MONOTONIC time at which that first call ended.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

MIN_SWEEPS = 3


def _openblas():
    """(config string, threads in effect) of the loaded OpenBLAS, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None, None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    return get_config().decode(), get_threads()
    return None, None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config, threads = _openblas()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": config, "threads_in_effect": threads},
        "env_vars": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                      "KERRQED_JOBS", "PYTHONDONTWRITEBYTECODE")},
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


def setup_probe(args):
    inp = workloads.draw(args.workload, args.seed, -1 - args.probe, minimal=True)
    workloads.run_sweep(args.workload, inp, args.workdir, f"setup{args.probe}")
    print(json.dumps({"end_monotonic": time.monotonic()}))


def run(args):
    from layers import Tracer, per_layer_metrics

    tracer = Tracer()
    sweeps, summaries, spans = [], [], None

    def sweep(phase):
        nonlocal spans
        index = len(sweeps)
        inp = workloads.draw(args.workload, args.seed, index)
        if phase == "traced":
            with tracer:
                wall, record = workloads.run_sweep(args.workload, inp, args.workdir, f"s{index}")
            summaries.append(tracer.sweep_summary(wall))
            if spans is None:
                spans = tracer.spans
        else:
            wall, record = workloads.run_sweep(args.workload, inp, args.workdir, f"s{index}")
        sweeps.append({"index": index, "phase": phase, "wall_s": wall,
                       "points": workloads.points(args.workload), "inputs": inp,
                       "record": record})

    sweep("warmup")
    phases = ("untraced", "traced") if args.trace else ("timed",)
    start = time.perf_counter()
    rounds = []
    while True:
        t0 = time.perf_counter()
        for phase in phases:
            sweep(phase)
        rounds.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_SWEEPS and elapsed + statistics.median(rounds) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "measured_s": time.perf_counter() - start, "peak_rss_mb": peak_rss_mb,
              "sweeps": sweeps, "env": environment()}
    if args.trace:
        def s_per_point(phase):
            return [s["wall_s"] / s["points"] for s in sweeps if s["phase"] == phase]

        result["per_layer"] = per_layer_metrics(summaries, s_per_point("traced"),
                                                s_per_point("untraced"))
        result["first_traced_sweep_spans"] = spans
    args.result.write_text(json.dumps(result))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path)
    ap.add_argument("--setup", action="store_true")
    ap.add_argument("--probe", type=int, default=0)
    args = ap.parse_args()
    if args.setup:
        setup_probe(args)
    else:
        run(args)


if __name__ == "__main__":
    main()
