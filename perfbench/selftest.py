"""Self-test of the correctness check: a perturbed output must be caught.

    python3 perfbench/selftest.py

For each workload it runs one sweep through kerrqed, checks that the
unperturbed outputs pass, then corrupts one point that the reference
recomputes and checks that exactly that point is counted as failed:

- shift_sweep: the (0,1) and (1,0) dressed labels of one point are swapped
  before chi and chi' are extracted, as a mislabeling engine would;
- cpt_sweep: chi of one point is offset by 10x the check's tolerance;
- kappa_sweep: snr of one point is scaled by 1 + 10x READOUT_RTOL;
- dephasing_xval: gamma of one triple is scaled by 1 + 10x GAMMA_RTOL.

Exits 0 when every perturbation is caught, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

SEED = 12345


def _rewrite_csv_cell(path, row_index, column, change):
    """Replace one value of a kerrqed CSV by change(old value)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
    data = [i for i, ln in enumerate(lines) if not ln.startswith("#")]
    header = lines[data[0]].rstrip("\n").split(",")
    line_no = data[1 + row_index]
    cells = lines[line_no].rstrip("\n").split(",", len(header) - 1)
    i = header.index(column)
    cells[i] = repr(float(change(float(cells[i]))))
    lines[line_no] = ",".join(cells) + "\n"
    Path(path).write_text("".join(lines), encoding="utf-8")


def _swapped_label_shifts(inp, point):
    from kerrqed.dispersive import extract_shifts, mixed_model_spectrum
    from kerrqed.models import MixedCouplingParams

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ds = mixed_model_spectrum(MixedCouplingParams(
            inp["nu_q"], inp["nu_r"], point["g_X"], point["g_P"], inp["n_max"]))
    labels = dict(ds.labels)
    labels[0, 1], labels[1, 0] = labels[1, 0], labels[0, 1]
    return extract_shifts(dataclasses.replace(ds, labels=labels))


def perturb(workload, inp, record, i):
    """Corrupt point i of the sweep in place; returns a description."""
    if workload == "dephasing_xval":
        record["rows"][i][0] *= 1.0 + 10.0 * oracle.GAMMA_RTOL
        return "gamma scaled by 1 + 10 GAMMA_RTOL"
    point, _, _ = check.cli_points(workload, inp, record)[i]
    if workload == "shift_sweep":
        rep = _swapped_label_shifts(inp, point)
        _rewrite_csv_cell(record["csv"], i, "chi_Hz", lambda _: rep.chi)
        _rewrite_csv_cell(record["csv"], i, "chi_prime_Hz", lambda _: rep.chi_prime)
        return f"(0,1)/(1,0) labels swapped: chi {rep.chi!r} Hz, chi' {rep.chi_prime!r} Hz"
    if workload == "cpt_sweep":
        tol = check.reference(workload, inp, point)[2]
        _rewrite_csv_cell(record["csv"], i, "chi_Hz", lambda v: v + 10.0 * tol)
        return f"chi offset by 10 x {tol:.3g} Hz"
    _rewrite_csv_cell(record["csv"], i, "snr", lambda v: v * (1.0 + 10.0 * oracle.READOUT_RTOL))
    return "snr scaled by 1 + 10 READOUT_RTOL"


def main():
    workdir = HERE / "out" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    ok = True
    try:
        for workload in workloads.WORKLOADS:
            inp = workloads.draw(workload, SEED, 0)
            _, record = workloads.run_sweep(workload, inp, workdir, workload)
            sample_seed = f"{SEED}:0"
            n, clean = check.check_sweep(workload, inp, record, sample_seed)
            i = check.sample_indices(workload, n, sample_seed)[-1]
            what = perturb(workload, inp, record, i)
            n, bad = check.check_sweep(workload, inp, record, sample_seed)
            caught = not clean and len(bad) == 1
            ok &= caught
            print(f"{'PASS' if caught else 'FAIL'} {workload}: unperturbed {len(clean)}/{n} "
                  f"failed; point {i} {what}: {len(bad)}/{n} failed, "
                  f"failed_frac {len(bad) / n:.4g}")
            for b in bad:
                print(f"    {b}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
