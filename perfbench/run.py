"""kerrqed sweep benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

NAME is one of shift_sweep, cpt_sweep, kappa_sweep, dephasing_xval; "all"
runs the four in turn and keys the final metrics "<workload>.<metric>".
Run from anywhere; it imports kerrqed from the ``src/`` directory next to
``perfbench/``.  Each workload runs in its own child process (worker.py)
with one BLAS thread and KERRQED_JOBS unset.  With --trace 0 it prints the
end-to-end metrics (points_per_s, setup_s, peak_rss_mb, passed_frac); with
--trace 1 the per-layer metrics of layers.py.  Every sweep's outputs are
checked against the frozen reference in oracle.py.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# One BLAS thread on every commit: with two, the first eigh of a fresh
# process sometimes took ~0.9 s, and CPT points were slower and noisier.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(CHILD_ENV)
os.environ.pop("KERRQED_JOBS", None)

sys.path.insert(0, str(HERE))
import check  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
WORKER = [sys.executable, str(HERE / "worker.py")]
# Time a child may take beyond --seconds: warm-up, the last sweep's overrun,
# environment record.
CHILD_SLACK_S = 90


def measure_setup(workload, seed, workdir):
    """Median wall from a fresh interpreter's start to the end of its first
    call on the workload's minimal input, over SETUP_PROBES processes."""
    walls = []
    for probe in range(SETUP_PROBES):
        start = time.monotonic()
        out = subprocess.run(
            WORKER + ["--setup", "--workload", workload, "--seed", str(seed),
                      "--probe", str(probe), "--workdir", str(workdir)],
            stdout=subprocess.PIPE, text=True, timeout=60, check=True)
        walls.append(json.loads(out.stdout.splitlines()[-1])["end_monotonic"] - start)
    return statistics.median(walls), walls


def run_worker(workload, seed, seconds, trace, workdir):
    result_path = workdir / "result.json"
    subprocess.run(
        WORKER + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                  "--trace", str(trace), "--workdir", str(workdir), "--result", str(result_path)],
        stdout=sys.stderr, timeout=seconds + CHILD_SLACK_S, check=True)
    return json.loads(result_path.read_text())


def check_all(workload, seed, sweeps):
    attempted, failures = 0, []
    for s in sweeps:
        n, bad = check.check_sweep(workload, s["inputs"], s["record"], f"{seed}:{s['index']}")
        attempted += n
        failures += [f"sweep {s['index']}: {b}" for b in bad]
    return attempted, failures


def run_workload(workload, seed, seconds, trace):
    """Run, check and report one workload; returns (attempted, failed, metrics)."""
    workdir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = None if trace else measure_setup(workload, seed, workdir)
        result = run_worker(workload, seed, seconds, trace, workdir)
        attempted, failures = check_all(workload, seed, result["sweeps"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(failures)
    timed = [s for s in result["sweeps"] if s["phase"] == "timed"]
    if trace:
        metrics = result["per_layer"]
    else:
        metrics = {
            "points_per_s": {"value": sum(s["points"] for s in timed)
                             / sum(s["wall_s"] for s in timed), "unit": "1/s"},
            "setup_s": {"value": setup[0], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "passed_frac": {"value": (attempted - failed) / attempted, "unit": "frac"},
        }

    sweeps = {p: sum(s["phase"] == p for s in result["sweeps"])
              for p in ("warmup", "timed", "untraced", "traced")}
    summary = {
        "workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
        "env": result["env"],
        "sizes": {"points_per_sweep": workloads.points(workload), "sweeps": sweeps,
                  "check_sample": check.SAMPLE[workload]},
        "sweep_walls_s": [[s["phase"], s["wall_s"]] for s in result["sweeps"]],
        "setup_walls_s": setup[1] if setup else None,
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "failures": failures[:20], "metrics": metrics,
        "first_traced_sweep_spans": result.get("first_traced_sweep_spans"),
    }
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(summary, indent=1))

    print(f"workload {workload}  seed {seed}  trace {trace}  sweeps {sweeps}  "
          f"points/sweep {workloads.points(workload)}")
    print("env " + json.dumps(result["env"]))
    for f in failures[:5]:
        print(f"FAILED {f}")
    print(f"{'failed_frac':48s} {failed / attempted:.6g} ({failed}/{attempted})")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    return attempted, failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "kerrqed" / "__init__.py").is_file():
        print(f"error: no kerrqed sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        a, f, m = run_workload(name, args.seed, args.seconds, args.trace)
        attempted, failed = attempted + a, failed + f
        metrics.update(m if len(names) == 1 else {f"{name}.{k}": v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
