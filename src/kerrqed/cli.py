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
instead).  Warnings raised at a point are not filtered; they reach stderr.
"""

from __future__ import annotations

import argparse
import difflib
import json
import math
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .dephasing import DephasingParams, gamma_closed_form, thermal_occupation
from .dispersive import cpt_shifts, mixed_shift_batch
from .diagnostics import overlap_scan as _overlap_scan
from .errors import KerrqedError
from .models import CptParams, MixedCouplingParams, build_mixed_spin_boson
from .readout import ReadoutConfig, integrate_trajectory, read_at
from .sweep import batch, grid
from .units import UnitError, parse_quantity


class ConfigError(KerrqedError):
    """Invalid experiment configuration."""


def _parse_value(name, kind, raw):
    if kind in ("frequency", "time", "temperature"):
        try:
            return parse_quantity(raw, kind)
        except UnitError as exc:
            raise ConfigError(f"params.{name}: {exc}") from None
    if kind == "number":
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise ConfigError(f"params.{name}: expected a number, got {raw!r}")
        try:
            value = float(raw)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"params.{name}: expected a finite number, got {raw!r}")
        return value
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
    schema = EXPERIMENTS[experiment].params
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
    schema = EXPERIMENTS[experiment].params
    allowed = EXPERIMENTS[experiment].axes
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


@batch
def _batch_shift_sweep(p):
    chi, chi_prime, errors = mixed_shift_batch(p["nu_q"], p["nu_r"], p["n_max"], p["g_X"], p["g_P"])
    return [
        {"chi_Hz": float(c), "chi_prime_Hz": float(cp)} if exc is None else exc
        for c, cp, exc in zip(chi, chi_prime, errors)
    ]


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


def _rows_readout_sim(p):
    t = integrate_trajectory(ReadoutConfig(**p))
    columns = ("t_s", "alpha0_re", "alpha0_im", "alpha1_re", "alpha1_im", "snr", "error")
    values = (t.times, t.alpha0.real, t.alpha0.imag, t.alpha1.real, t.alpha1.imag, t.snr, t.error)
    return columns, [tuple(map(float, row)) for row in zip(*values)]


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
    )
    columns = ("q", "q_prime", "n", "fidelity")
    return columns, [tuple(r) for r in scan.rows]


class Experiment(NamedTuple):
    """One CLI experiment.

    params maps name -> (kind, required, default).  Kinds `frequency`,
    `time` and `temperature` are unit strings; `number`, `int`, `bool` and
    `int_list` are plain JSON values.  An experiment with grid axes has
    rule(params) -> {column: value} for its value columns, or a batch rule
    (`sweep.batch`) returning one such dict per point; one without runs
    once, and rule(params) -> (columns, rows).
    """

    help: str
    params: dict
    axes: tuple
    rule: Callable
    columns: tuple = ()


EXPERIMENTS = {
    "shift_sweep": Experiment(
        "dispersive and Kerr shifts of the mixed-coupling model over a (g_X, g_P) grid",
        {
            "nu_q": ("frequency", True, None),
            "nu_r": ("frequency", True, None),
            "n_max": ("int", False, 12),
            "g_X": ("frequency", False, 0.0),
            "g_P": ("frequency", False, 0.0),
        },
        ("g_X", "g_P"),
        _batch_shift_sweep,
        ("chi_Hz", "chi_prime_Hz"),
    ),
    "cpt_sweep": Experiment(
        "CPT shifts over an (E_J_delta, E_C_delta) asymmetry grid",
        {
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
        ("E_J_delta", "E_C_delta"),
        _point_cpt_sweep,
        ("chi_Hz", "chi_prime_Hz"),
    ),
    "dephasing_curve": Experiment(
        "shot-noise dephasing time versus temperature",
        {
            "chi": ("frequency", False, 0.0),
            "chi_prime": ("frequency", False, 0.0),
            "kappa": ("frequency", True, None),
            "nu_r": ("frequency", True, None),
            "combine": ("bool", False, True),
            "T": ("temperature", False, 0.05),
        },
        ("T",),
        _point_dephasing_curve,
        ("n_th", "gamma_per_s", "T_phi_s"),
    ),
    "readout_sim": Experiment(
        "semiclassical readout trajectory with SNR and error curves",
        {
            "kappa": ("frequency", True, None),
            "chi": ("frequency", False, 0.0),
            "chi_prime": ("frequency", True, None),
            "eta": ("number", False, 1.0),
            "n_steady": ("number", True, None),
            "t_end": ("time", True, None),
            "dt": ("time", False, None),
        },
        (),
        _rows_readout_sim,
    ),
    "kappa_sweep": Experiment(
        "readout error at fixed integration time versus resonator linewidth",
        {
            "kappa": ("frequency", False, 3e6),
            "chi": ("frequency", False, 0.0),
            "chi_prime": ("frequency", True, None),
            "eta": ("number", False, 1.0),
            "n_steady": ("number", True, None),
            "tau": ("time", True, None),
        },
        ("kappa",),
        _point_kappa_sweep,
        ("snr", "error", "n_final"),
    ),
    "overlap_scan": Experiment(
        "dressed qubit-state fidelity versus resonator photon number",
        {
            "nu_q": ("frequency", True, None),
            "nu_r": ("frequency", True, None),
            "g_X": ("frequency", False, 0.0),
            "g_P": ("frequency", False, 0.0),
            "n_max": ("int", True, None),
            "n_max_scan": ("int", True, None),
            "q_list": ("int_list", False, (0, 1)),
            "q_prime_list": ("int_list", False, (0, 1)),
        },
        (),
        _rows_overlap_scan,
    ),
}


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
    if experiment not in EXPERIMENTS:
        close = difflib.get_close_matches(str(experiment), EXPERIMENTS, n=1)
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
    axes = parse_grid(experiment, cfg.get("grid"))
    if EXPERIMENTS[experiment].axes and not axes:
        raise ConfigError(f"{experiment} requires at least one grid axis")
    return {
        "experiment": experiment,
        "params": params,
        "grid": axes,
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


def run(config_path, out_path=None, fmt=None, jobs=1, keep_going=False):
    cfg = load_config(config_path)
    experiment = cfg["experiment"]
    exp = EXPERIMENTS[experiment]
    out_path = out_path if out_path is not None else cfg["out_path"]
    fmt = fmt if fmt is not None else cfg["format"]
    if jobs < 1:
        raise ConfigError("--jobs must be >= 1")

    t0 = time.monotonic()
    axes = cfg["grid"]
    points = grid(exp.rule, cfg["params"], axes, jobs)
    failed = sum(exc is not None for _, _, exc in points)
    if not exp.axes:
        [(_, result, exc)] = points
        columns, rows = result if exc is None else (("fail",), [(str(exc),)])
    else:
        columns = tuple(name for name, _ in axes) + exp.columns + ("fail",)
        rows = [
            values + tuple(result[c] for c in exp.columns) + ("",)
            if exc is None
            else values + (None,) * len(exp.columns) + (str(exc),)
            for values, result, exc in points
        ]

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
    for name, exp in EXPERIMENTS.items():
        required = [p for p, (_, req, _) in exp.params.items() if req]
        extra = f"; grid axes: {', '.join(exp.axes)}" if exp.axes else ""
        lines.append(f"{name:16s} {exp.help} (required params: {', '.join(required)}{extra})")
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
        "--jobs",
        type=int,
        default=1,
        help="worker thread pool size for per-point experiments (default 1); "
        "shift_sweep runs as one batched solve",
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
