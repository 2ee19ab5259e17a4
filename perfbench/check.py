"""Correctness check of one sweep's outputs against the frozen reference.

Every point is checked for a recorded failure and for finite outputs, and
the CLI grid columns must be the configured grid in row-major order.  A
seeded sample of each sweep's points is recomputed by ``oracle`` and
compared within its tolerances.  A point that raised or mismatched counts
as failed.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np

import oracle

# Points per sweep recomputed by the reference, chosen so the reference
# costs about a tenth of the sweep's own run time.
SAMPLE = {"shift_sweep": 96, "cpt_sweep": 12, "kappa_sweep": 8, "dephasing_xval": 1}

VALUE_COLUMNS = {
    "shift_sweep": ("chi_Hz", "chi_prime_Hz"),
    "cpt_sweep": ("chi_Hz", "chi_prime_Hz"),
    "kappa_sweep": ("snr", "error", "n_final"),
}


def read_csv(path):
    """(header, rows of strings) of a kerrqed CSV, '#' metadata skipped."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",", len(header) - 1) for ln in lines[1:] if ln]


def reference(workload, inp, point):
    if workload == "shift_sweep":
        return oracle.mixed_shifts(inp["nu_q"], inp["nu_r"], point["g_X"], point["g_P"],
                                   inp["n_max"])
    if workload == "cpt_sweep":
        return oracle.cpt_shifts(inp["E_J_sigma"], point["E_J_delta"], inp["E_C_sigma"],
                                 point["E_C_delta"], inp["E_Cr"], inp["E_Lr"], inp["n_g"],
                                 inp["phi_ext"], inp["n_charge_max"], inp["n_fock"])
    return oracle.readout_point(point["kappa"], inp["chi"], inp["chi_prime"], inp["eta"],
                                inp["n_steady"], inp["tau"])


def _mismatch(workload, values, ref):
    if workload == "kappa_sweep":
        return oracle.readout_mismatch(values, ref)
    return oracle.shift_mismatch(values[0], values[1], ref)


def cli_points(workload, inp, record):
    """[(point dict, values tuple or None, failure message)] in grid order."""
    header, rows = read_csv(record["csv"])
    axes = inp["axes"]
    names = [a[0] for a in axes]
    expected = list(itertools.product(*(np.linspace(a, b, c) for _, a, b, c in axes)))
    if len(rows) != len(expected):
        raise ValueError(f"{len(rows)} rows for a grid of {len(expected)} points")
    col = {name: i for i, name in enumerate(header)}
    out = []
    for row, grid_point in zip(rows, expected):
        point = {n: float(row[col[n]]) for n in names}
        if list(point.values()) != [float(v) for v in grid_point]:
            raise ValueError(f"row {point} is not grid point {grid_point} in row-major order")
        message = row[col["fail"]]
        values = None if message else tuple(float(row[col[c]]) for c in VALUE_COLUMNS[workload])
        out.append((point, values, message))
    return out


def sample_indices(workload, n_points, sample_seed):
    """Indices of the points the reference recomputes, ascending."""
    n = min(SAMPLE[workload], n_points)
    return sorted(random.Random(sample_seed).sample(range(n_points), n))


def check_sweep(workload, inp, record, sample_seed):
    """(points attempted, [failure descriptions]) of one sweep."""
    if workload == "dephasing_xval":
        points = [({"kappa": k, "chi_prime": c, "n_th": n}, r[:3] if not r[3] else None, r[3])
                  for (k, c, n), r in zip(inp["triples"], record["rows"])]
    else:
        size = math.prod(axis[3] for axis in inp["axes"])
        if record["exit_code"] != 0:
            return size, [f"kerrqed exited with {record['exit_code']}"] * size
        try:
            points = cli_points(workload, inp, record)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return size, [f"unreadable output: {exc}"] * size
    failures = {}
    for i, (point, values, message) in enumerate(points):
        if message:
            failures[i] = f"{point}: raised {message}"
        elif not all(math.isfinite(v) for v in values):
            failures[i] = f"{point}: non-finite output {values}"
    for i in sample_indices(workload, len(points), sample_seed):
        point, values, _ = points[i]
        if i in failures:
            continue
        if workload == "dephasing_xval":
            why = oracle.dephasing_mismatch(
                values[0], complex(values[1], values[2]),
                oracle.dephasing_triple(point["kappa"], point["chi_prime"], point["n_th"]))
        else:
            why = _mismatch(workload, values, reference(workload, inp, point))
        if why:
            failures[i] = f"{point}: {why}"
    return len(points), list(failures.values())
