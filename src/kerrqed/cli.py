"""Batch command-line front end.

Experiments are described by JSON config files:

    {
      "experiment": "shift_sweep",
      "params": {"nu_q": "5 GHz", "nu_r": "8 GHz", "n_max": 12},
      "grid": [
        {"name": "g_X", "start": "0 MHz", "stop": "150 MHz", "count": 101},
        {"name": "g_P", "start": "0 MHz", "stop": "150 MHz", "count": 101}
      ],
      "output": {"path": "shifts.csv", "format": "csv"}
    }

Frequencies, times, and temperatures are strings with explicit unit
suffixes; dimensionless parameters are plain numbers.  Grid axes take
"scale": "linear" (default) or "log" and count >= 2; rows are emitted in
row-major grid order (first axis slowest) regardless of worker scheduling.

Exit codes: 0 success, 1 config error, 2 numerical failure at a grid point
(suppressed by --keep-going, which records failures in the fail column
instead).
"""

from __future__ import annotations

import argparse
import difflib
import itertools
import json
import math
import os
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .dephasing import DephasingParams, gamma_closed_form, thermal_occupation
from .dispersive import cpt_shifts, mixed_model_shifts
from .diagnostics import overlap_scan as _overlap_scan
from .errors import KerrqedError
from .models import CptParams, MixedCouplingParams, build_mixed_spin_boson
from .readout import ReadoutConfig, integrate_trajectory, read_at
from .units import UnitError, parse_quantity

JOBS_ENV_VAR = "KERRQED_JOBS"


class ConfigError(KerrqedError):
    """Invalid experiment configuration."""


# Parameter schemas: name -> (kind, required, default).  Kinds `frequency`,
# `time`, and `temperature` are unit strings; `number`, `int`, `bool`, and
# `int_list` are plain JSON values.
SCHEMAS = {
    "shift_sweep": {
        "nu_q": ("frequency", True, None),
        "nu_r": ("frequency", True, None),
        "n_max": ("int", False, 12),
        "g_X": ("frequency", False, 0.0),
        "g_P": ("frequency", False, 0.0),
    },
    "cpt_sweep": {
        "E_J_sigma": ("frequency", True, None),
        "E_C_sigma": ("frequency", True, None),
        "E_Cr": ("frequency", True, None),
        "E_Lr": ("frequency", True, None),
        "n_g": ("number", True, None),
        "phi_ext": ("number", True, None),
        "n_charge_max": ("int", False, 6),
        "n_fock": ("int", False, 8),
        "E_J_delta": ("frequency", False, 0.0),
        "E_C_delta": ("frequency", False, 0.0),
    },
    "dephasing_curve": {
        "chi": ("frequency", False, 0.0),
        "chi_prime": ("frequency", False, 0.0),
        "kappa": ("frequency", True, None),
        "nu_r": ("frequency", True, None),
        "combine": ("bool", False, True),
        "T": ("temperature", False, 0.05),
    },
    "readout_sim": {
        "kappa": ("frequency", True, None),
        "chi": ("frequency", False, 0.0),
        "chi_prime": ("frequency", True, None),
        "eta": ("number", False, 1.0),
        "n_steady": ("number", True, None),
        "t_end": ("time", True, None),
        "dt": ("time", False, None),
    },
    "kappa_sweep": {
        "kappa": ("frequency", False, 3e6),
        "chi": ("frequency", False, 0.0),
        "chi_prime": ("frequency", True, None),
        "eta": ("number", False, 1.0),
        "n_steady": ("number", True, None),
        "tau": ("time", True, None),
    },
    "overlap_scan": {
        "nu_q": ("frequency", True, None),
        "nu_r": ("frequency", True, None),
        "g_X": ("frequency", False, 0.0),
        "g_P": ("frequency", False, 0.0),
        "n_max": ("int", True, None),
        "n_max_scan": ("int", True, None),
        "q_list": ("int_list", False, (0, 1)),
        "q_prime_list": ("int_list", False, (0, 1)),
    },
}

GRIDDABLE = {
    "shift_sweep": ("g_X", "g_P"),
    "cpt_sweep": ("E_J_delta", "E_C_delta"),
    "dephasing_curve": ("T",),
    "kappa_sweep": ("kappa",),
    "readout_sim": (),
    "overlap_scan": (),
}

EXPERIMENT_HELP = {
    "shift_sweep": "dispersive and Kerr shifts of the mixed-coupling model over a (g_X, g_P) grid",
    "cpt_sweep": "CPT shifts over an (E_J_delta, E_C_delta) asymmetry grid",
    "dephasing_curve": "shot-noise dephasing time versus temperature",
    "readout_sim": "semiclassical readout trajectory with SNR and error curves",
    "kappa_sweep": "readout error at fixed integration time versus resonator linewidth",
    "overlap_scan": "dressed qubit-state fidelity versus resonator photon number",
}


def _parse_value(name, kind, raw):
    if kind in ("frequency", "time", "temperature"):
        try:
            return parse_quantity(raw, kind)
        except UnitError as exc:
            raise ConfigError(f"params.{name}: {exc}") from None
    if kind == "number":
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise ConfigError(f"params.{name}: expected a number, got {raw!r}")
        return float(raw)
    if kind == "int":
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise ConfigError(f"params.{name}: expected an integer, got {raw!r}")
        return raw
    if kind == "bool":
        if not isinstance(raw, bool):
            raise ConfigError(f"params.{name}: expected true/false, got {raw!r}")
        return raw
    if kind == "int_list":
        if not isinstance(raw, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in raw
        ):
            raise ConfigError(f"params.{name}: expected a list of integers, got {raw!r}")
        return tuple(raw)
    raise ConfigError(f"params.{name}: unhandled kind {kind!r}")


def parse_params(experiment, raw_params):
    schema = SCHEMAS[experiment]
    unknown = set(raw_params) - set(schema)
    if unknown:
        raise ConfigError(f"unknown parameter(s) for {experiment}: {sorted(unknown)}")
    out = {}
    for name, (kind, required, default) in schema.items():
        if name in raw_params:
            out[name] = _parse_value(name, kind, raw_params[name])
        elif required:
            raise ConfigError(f"missing required parameter params.{name} for {experiment}")
        else:
            out[name] = default
    return out


def parse_grid(experiment, raw_grid):
    """[(axis name, numpy values)] in config order; empty list when absent."""
    if raw_grid is None:
        return []
    if not isinstance(raw_grid, list):
        raise ConfigError("grid must be a list of axis records")
    schema = SCHEMAS[experiment]
    allowed = GRIDDABLE[experiment]
    axes = []
    for i, axis in enumerate(raw_grid):
        if not isinstance(axis, dict):
            raise ConfigError(f"grid[{i}] must be an object")
        for key in ("name", "start", "stop", "count"):
            if key not in axis:
                raise ConfigError(f"grid[{i}] missing field {key!r}")
        name = axis["name"]
        if name not in allowed:
            raise ConfigError(
                f"grid[{i}].name {name!r} is not sweepable for {experiment}; "
                f"allowed axes: {list(allowed)}"
            )
        kind = schema[name][0]
        start = _parse_value(name, kind, axis["start"])
        stop = _parse_value(name, kind, axis["stop"])
        count = axis["count"]
        if not isinstance(count, int) or count < 2:
            raise ConfigError(f"grid[{i}].count must be an integer >= 2")
        scale = axis.get("scale", "linear")
        if scale == "linear":
            values = np.linspace(start, stop, count)
        elif scale == "log":
            if start <= 0 or stop <= 0:
                raise ConfigError(f"grid[{i}]: log scale requires positive endpoints")
            values = np.geomspace(start, stop, count)
        else:
            raise ConfigError(f"grid[{i}].scale must be 'linear' or 'log', got {scale!r}")
        axes.append((name, values))
    if len({name for name, _ in axes}) != len(axes):
        raise ConfigError("grid axes must have distinct names")
    return axes


def _point_shift_sweep(p):
    rep = mixed_model_shifts(
        MixedCouplingParams(p["nu_q"], p["nu_r"], p["g_X"], p["g_P"], p["n_max"])
    )
    return {"chi_Hz": rep.chi, "chi_prime_Hz": rep.chi_prime}


def _point_cpt_sweep(p):
    cpt = CptParams(
        E_J1=0.5 * (p["E_J_sigma"] + p["E_J_delta"]),
        E_J2=0.5 * (p["E_J_sigma"] - p["E_J_delta"]),
        E_C1=0.5 * (p["E_C_sigma"] + p["E_C_delta"]),
        E_C2=0.5 * (p["E_C_sigma"] - p["E_C_delta"]),
        E_Cr=p["E_Cr"],
        E_Lr=p["E_Lr"],
        n_g=p["n_g"],
        phi_ext=p["phi_ext"],
        n_charge_max=p["n_charge_max"],
        n_fock=p["n_fock"],
    )
    rep = cpt_shifts(cpt)
    return {"chi_Hz": rep.chi, "chi_prime_Hz": rep.chi_prime}


def _point_dephasing_curve(p):
    n_th = thermal_occupation(p["nu_r"], p["T"])
    dp = DephasingParams(kappa=p["kappa"], chi=p["chi"], chi_prime=p["chi_prime"], n_th=n_th)
    res = gamma_closed_form(dp, p["combine"])
    return {"n_th": n_th, "gamma_per_s": res.gamma, "T_phi_s": res.t_phi}


def _point_kappa_sweep(p):
    cfg = ReadoutConfig(
        kappa=p["kappa"],
        chi=p["chi"],
        chi_prime=p["chi_prime"],
        eta=p["eta"],
        n_steady=p["n_steady"],
        t_end=p["tau"],
    )
    return read_at(integrate_trajectory(cfg), p["tau"])


POINT_FUNCS = {
    "shift_sweep": _point_shift_sweep,
    "cpt_sweep": _point_cpt_sweep,
    "dephasing_curve": _point_dephasing_curve,
    "kappa_sweep": _point_kappa_sweep,
}

POINT_COLUMNS = {
    "shift_sweep": ("chi_Hz", "chi_prime_Hz"),
    "cpt_sweep": ("chi_Hz", "chi_prime_Hz"),
    "dephasing_curve": ("n_th", "gamma_per_s", "T_phi_s"),
    "kappa_sweep": ("snr", "error", "n_final"),
}


def _rows_readout_sim(p):
    cfg = ReadoutConfig(
        kappa=p["kappa"],
        chi=p["chi"],
        chi_prime=p["chi_prime"],
        eta=p["eta"],
        n_steady=p["n_steady"],
        t_end=p["t_end"],
        dt=p["dt"],
    )
    traj = integrate_trajectory(cfg)
    columns = ("t_s", "alpha0_re", "alpha0_im", "alpha1_re", "alpha1_im", "snr", "error")
    rows = [
        (
            float(traj.times[i]),
            float(traj.alpha0[i].real),
            float(traj.alpha0[i].imag),
            float(traj.alpha1[i].real),
            float(traj.alpha1[i].imag),
            float(traj.snr[i]),
            float(traj.error[i]),
        )
        for i in range(len(traj.times))
    ]
    return columns, rows


def _rows_overlap_scan(p):
    mp = MixedCouplingParams(p["nu_q"], p["nu_r"], p["g_X"], p["g_P"], p["n_max"])
    scan = _overlap_scan(
        build_mixed_spin_boson(mp),
        mp.space(),
        q_list=list(p["q_list"]),
        q_prime_list=list(p["q_prime_list"]),
        n_max_scan=p["n_max_scan"],
        qubit_energies=np.array([-0.5 * mp.nu_q, 0.5 * mp.nu_q]) * 2.0 * np.pi,
        boson_freq=2.0 * np.pi * mp.nu_r,
        model_id="mixed_spin_boson",
    )
    columns = ("q", "q_prime", "n", "fidelity")
    return columns, [tuple(r) for r in scan.rows]


ROW_FUNCS = {"readout_sim": _rows_readout_sim, "overlap_scan": _rows_overlap_scan}


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be an object")
    if "experiment" not in cfg:
        raise ConfigError(f"{path}: missing 'experiment' field")
    experiment = cfg["experiment"]
    if experiment not in SCHEMAS:
        close = difflib.get_close_matches(str(experiment), SCHEMAS, n=1)
        hint = f"; did you mean {close[0]!r}?" if close else ""
        raise ConfigError(f"unknown experiment {experiment!r}{hint}")
    unknown = set(cfg) - {"experiment", "params", "grid", "output"}
    if unknown:
        raise ConfigError(f"unknown top-level field(s): {sorted(unknown)}")
    raw_params = cfg.get("params", {})
    if not isinstance(raw_params, dict):
        raise ConfigError("params must be an object")
    output = cfg.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("output must be an object")
    fmt = output.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"output.format must be 'csv' or 'json', got {fmt!r}")
    params = parse_params(experiment, raw_params)
    grid = parse_grid(experiment, cfg.get("grid"))
    if experiment in ROW_FUNCS and grid:
        raise ConfigError(f"{experiment} does not take a grid")
    if experiment in POINT_FUNCS and not grid:
        raise ConfigError(f"{experiment} requires at least one grid axis")
    return {
        "experiment": experiment,
        "params": params,
        "grid": grid,
        "out_path": output.get("path"),
        "format": fmt,
        "echo": cfg,
    }


def _fmt_cell(v):
    if v is None:
        return ""
    return repr(v) if isinstance(v, float) else str(v)


def write_csv(path, columns, rows, metadata):
    lines = [f"# {k}: {v}" for k, v in metadata.items()]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt_cell(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def write_json(path, columns, rows, metadata):
    def clean(v):
        """Strict JSON has no NaN or infinity: NaN -> null, +-inf -> "inf"/"-inf"."""
        if isinstance(v, float) and not math.isfinite(v):
            return None if math.isnan(v) else repr(v)
        return v

    doc = {
        "metadata": metadata,
        "columns": list(columns),
        "rows": [[clean(v) for v in row] for row in rows],
    }
    text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _evaluate_point(func, params):
    """(result dict or None, failure message)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return func(params), ""
    except (KerrqedError, ValueError, FloatingPointError) as exc:
        return None, str(exc)


def run(config_path, out_path=None, fmt=None, jobs=None, keep_going=False):
    cfg = load_config(config_path)
    experiment = cfg["experiment"]
    out_path = out_path if out_path is not None else cfg["out_path"]
    fmt = fmt if fmt is not None else cfg["format"]
    if jobs is None:
        jobs = int(os.environ.get(JOBS_ENV_VAR, "1"))
    if jobs < 1:
        raise ConfigError("--jobs must be >= 1")

    t0 = time.monotonic()
    failed = 0
    if experiment in ROW_FUNCS:
        result, message = _evaluate_point(ROW_FUNCS[experiment], cfg["params"])
        if result is None:
            columns, rows = ("fail",), [(message,)]
            failed = 1
        else:
            columns, rows = result
    else:
        axes = cfg["grid"]
        axis_names = [name for name, _ in axes]
        value_cols = POINT_COLUMNS[experiment]
        columns = tuple(axis_names) + value_cols + ("fail",)
        points = []
        for combo in itertools.product(*(vals for _, vals in axes)):
            p = dict(cfg["params"])
            p.update(zip(axis_names, (float(v) for v in combo)))
            points.append((combo, p))
        func = POINT_FUNCS[experiment]
        if jobs == 1:
            results = [_evaluate_point(func, p) for _, p in points]
        else:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(lambda item: _evaluate_point(func, item[1]), points))
        rows = []
        for (combo, _), (result, message) in zip(points, results):
            if result is None:
                failed += 1
                rows.append(tuple(float(v) for v in combo) + (None,) * len(value_cols) + (message,))
            else:
                rows.append(
                    tuple(float(v) for v in combo)
                    + tuple(result[c] for c in value_cols)
                    + ("",)
                )

    metadata = {
        "generator": f"kerrqed {__version__}",
        "experiment": experiment,
        "config": json.dumps(cfg["echo"], sort_keys=True, separators=(",", ":")),
        "wall_time_s": f"{time.monotonic() - t0:.3f}",
    }
    writer = write_csv if fmt == "csv" else write_json
    writer(out_path, columns, rows, metadata)
    if failed and not keep_going:
        print(f"{failed} grid point(s) failed; see the fail column", file=sys.stderr)
        return 2
    return 0


def list_experiments():
    lines = []
    for name in SCHEMAS:
        required = [p for p, (_, req, _) in SCHEMAS[name].items() if req]
        grid = GRIDDABLE[name]
        extra = f"; grid axes: {', '.join(grid)}" if grid else ""
        lines.append(
            f"{name:16s} {EXPERIMENT_HELP[name]} (required params: {', '.join(required)}{extra})"
        )
    return "\n".join(lines)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kerrqed", description="Batch experiments for dispersive and Kerr-shift circuit QED."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.add_argument("--out", default=None, help="output path (overrides config; default stdout)")
    p_run.add_argument("--format", choices=("csv", "json"), default=None, help="output format")
    p_run.add_argument(
        "--jobs", type=int, default=None, help=f"worker pool size (default ${JOBS_ENV_VAR} or 1)"
    )
    p_run.add_argument(
        "--keep-going", action="store_true", help="record per-point failures instead of exiting 2"
    )
    sub.add_parser("list", help="list available experiments")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "list":
        print(list_experiments())
        return 0
    try:
        return run(
            args.config,
            out_path=args.out,
            fmt=args.format,
            jobs=args.jobs,
            keep_going=args.keep_going,
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
