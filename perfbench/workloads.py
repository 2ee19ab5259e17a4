"""Seeded workload inputs and the sweeps that run them through kerrqed.

Every sweep draws its own parameters from ``random.Random`` seeded by
(seed, workload, sweep index), with the grid shape fixed, so no two sweeps of
a run send kerrqed identical inputs.  Ranges and why they hold:

shift_sweep     nu_q in 4.5-5.5 GHz, nu_r = 8 GHz, n_max = 10; each axis
                runs from 0-5 MHz to 140-150 MHz.  The smallest detuning is
                2.5 GHz, so couplings stay below 10% of it and the
                strong-coupling warning never fires.
cpt_sweep       criterion-9 circuit (E_J_sigma 18 GHz, E_C_sigma 10 GHz,
                E_Cr 10 GHz, E_Lr 100 GHz, 13 charge states, n_fock 8);
                E_J_delta spans +-(2.8-3.0) GHz and E_C_delta +-(8.5-9.0) GHz,
                which keeps every junction and charging share positive;
                n_g in 0.40-0.50 keeps the charge basis centred on 0;
                phi_ext in 2.80-2.95 rad stays just below the criterion-9
                point.  From phi_ext ~3.05 at n_g >= 0.46 the (0, 2) dressed
                state hybridizes below the 0.5 overlap floor and kerrqed
                reports a labeling failure; in the chosen box no point of
                8580 scanned did.
kappa_sweep     criterion-7 readout (n_steady 15, tau 400 ns, chi = 0) with
                chi' in 0.10-0.14 MHz and kappa from 1.0-1.1 MHz to
                7.9-8.0 MHz.  Criteria 6 and 7 cover this box; no point is
                bistable or runs away.
dephasing_xval  three (kappa, chi', n_th) triples per sweep, one per
                criterion-3 level n_th in {1e-4, 1e-3, 1e-2}; chi' in {0.01,
                0.1, 1} MHz and kappa in {1, 3, 10} MHz cycle with the sweep
                index, so nine consecutive sweeps cover the 27 criterion-3
                combinations.  Each value is then scaled by 10**U(-0.15,
                0.15).  Every triple costs the same 9000 RK4 steps.
"""

from __future__ import annotations

import json
import math
import random
import time

WORKLOADS = ("shift_sweep", "cpt_sweep", "kappa_sweep", "dephasing_xval")
CLI_WORKLOADS = WORKLOADS[:3]

# Points per sweep, and the minimal input that set-up time is measured on.
SHAPES = {
    "shift_sweep": {"sweep": (31, 31), "minimal": (2, 2)},
    "cpt_sweep": {"sweep": (11, 13), "minimal": (2, 2)},
    "kappa_sweep": {"sweep": (29,), "minimal": (2,)},
    "dephasing_xval": {"sweep": (3,), "minimal": (1,)},
}

TWO_PI = 2.0 * math.pi


def points(workload):
    """Points per timed sweep."""
    return math.prod(SHAPES[workload]["sweep"])


def draw(workload, seed, index, minimal=False):
    """Inputs of sweep `index` (negative indices are set-up probes)."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    shape = SHAPES[workload]["minimal" if minimal else "sweep"]
    if workload == "shift_sweep":
        return {
            "nu_q": rng.uniform(4.5e9, 5.5e9), "nu_r": 8e9, "n_max": 10,
            "axes": [["g_X", rng.uniform(0.0, 5e6), rng.uniform(140e6, 150e6), shape[0]],
                     ["g_P", rng.uniform(0.0, 5e6), rng.uniform(140e6, 150e6), shape[1]]],
        }
    if workload == "cpt_sweep":
        ej, ec = rng.uniform(2.8e9, 3.0e9), rng.uniform(8.5e9, 9.0e9)
        return {
            "E_J_sigma": 18e9, "E_C_sigma": 10e9, "E_Cr": 10e9, "E_Lr": 100e9,
            "n_g": rng.uniform(0.40, 0.50), "phi_ext": rng.uniform(2.80, 2.95),
            "n_charge_max": 6, "n_fock": 8,
            "axes": [["E_J_delta", -ej, ej, shape[0]], ["E_C_delta", -ec, ec, shape[1]]],
        }
    if workload == "kappa_sweep":
        return {
            "chi": 0.0, "chi_prime": rng.uniform(0.10e6, 0.14e6), "eta": 1.0,
            "n_steady": 15.0, "tau": 400e-9,
            "axes": [["kappa", rng.uniform(1.0e6, 1.1e6), rng.uniform(7.9e6, 8.0e6), shape[0]]],
        }
    triples = []
    for i in range(shape[0]):
        j, level = index % 3, (index // 3 + i) % 3
        kappa, chi_prime, n_th = (1e6, 3e6, 10e6)[level], (0.01e6, 0.1e6, 1e6)[j], 10.0 ** -(4 - i)
        triples.append([x * 10.0 ** rng.uniform(-0.15, 0.15) for x in (kappa, chi_prime, n_th)])
    return {"triples": triples}


def _hz(v):
    return f"{float(v)!r} Hz"


def cli_config(workload, inp):
    """kerrqed JSON config for a CLI workload's sweep inputs."""
    if workload == "shift_sweep":
        params = {"nu_q": _hz(inp["nu_q"]), "nu_r": _hz(inp["nu_r"]), "n_max": inp["n_max"]}
        experiment = "shift_sweep"
    elif workload == "cpt_sweep":
        params = {k: _hz(inp[k]) for k in ("E_J_sigma", "E_C_sigma", "E_Cr", "E_Lr")}
        params.update({k: inp[k] for k in ("n_g", "phi_ext", "n_charge_max", "n_fock")})
        experiment = "cpt_sweep"
    else:
        params = {"chi": _hz(inp["chi"]), "chi_prime": _hz(inp["chi_prime"]),
                  "eta": inp["eta"], "n_steady": inp["n_steady"], "tau": f"{inp['tau']!r} s"}
        experiment = "kappa_sweep"
    grid = [{"name": n, "start": _hz(a), "stop": _hz(b), "count": c} for n, a, b, c in inp["axes"]]
    return {"experiment": experiment, "params": params, "grid": grid,
            "output": {"format": "csv"}}


def run_sweep(workload, inp, workdir, tag):
    """Run one sweep through kerrqed; returns (wall seconds, record).

    CLI workloads go through ``kerrqed.cli.main`` as a user runs them; the
    record names the CSV it wrote.  dephasing_xval calls ``gamma_ode`` and
    ``z_trajectory`` per triple, since no batched public entry exists, and
    the record holds [gamma, Re Z, Im Z, failure message] per triple.
    """
    # kerrqed is imported on first use: the parent process never imports it.
    if workload in CLI_WORKLOADS:
        from kerrqed import cli

        cfg_path = workdir / f"{tag}.json"
        out_path = workdir / f"{tag}.csv"
        cfg_path.write_text(json.dumps(cli_config(workload, inp)))
        start = time.perf_counter()
        rc = cli.main(["run", str(cfg_path), "--out", str(out_path), "--keep-going"])
        wall = time.perf_counter() - start
        return wall, {"exit_code": rc, "csv": str(out_path)}

    from kerrqed import dephasing
    from kerrqed.errors import KerrqedError

    rows = []
    start = time.perf_counter()
    for kappa, chi_prime, n_th in inp["triples"]:
        try:
            p = dephasing.DephasingParams(kappa=kappa, chi_prime=chi_prime, n_th=n_th)
            gamma = dephasing.gamma_ode(p, model="cubic").gamma
            ka = TWO_PI * kappa
            z = dephasing.z_trajectory(p, t_end=40.0 / ka, dt=1.0 / (100.0 * ka),
                                       model="quadratic").Z[-1]
            rows.append([float(gamma), float(z.real), float(z.imag), ""])
        except (KerrqedError, ValueError, FloatingPointError) as exc:
            rows.append([None, None, None, str(exc) or type(exc).__name__])
    wall = time.perf_counter() - start
    return wall, {"rows": rows}
