import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from kerrqed.cli import (
    ConfigError,
    list_experiments,
    load_config,
    main,
    run,
    write_csv,
    write_json,
)
from kerrqed.dephasing import dephasing_curve
from kerrqed.dispersive import mixed_model_shifts
from kerrqed.errors import LabelingError
from kerrqed.models import MixedCouplingParams
from kerrqed.readout import ReadoutConfig, error_curve_sweep
from kerrqed.units import UnitError, parse_quantity


class TestUnits:
    def test_frequency(self):
        assert parse_quantity("5 GHz", "frequency") == 5e9
        assert parse_quantity("0.12 MHz", "frequency") == pytest.approx(0.12e6)
        assert parse_quantity("-3 kHz", "frequency") == -3e3
        assert parse_quantity("1e3 Hz", "frequency") == 1e3

    def test_time_and_temperature(self):
        assert parse_quantity("400 ns", "time") == pytest.approx(400e-9)
        assert parse_quantity("1.5 us", "time") == pytest.approx(1.5e-6)
        assert parse_quantity("50 mK", "temperature") == pytest.approx(0.05)
        assert parse_quantity("4 K", "temperature") == 4.0

    def test_strictness(self):
        with pytest.raises(UnitError):
            parse_quantity(5e9, "frequency")  # bare numbers rejected
        with pytest.raises(UnitError):
            parse_quantity("5 Ghz", "frequency")  # unit case matters
        with pytest.raises(UnitError):
            parse_quantity("5 GHz", "time")
        with pytest.raises(UnitError):
            parse_quantity("fast", "frequency")
        with pytest.raises(ValueError):
            parse_quantity("5 m", "length")


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def shift_config(tmp_path, count=3, **extra):
    doc = {
        "experiment": "shift_sweep",
        "params": {"nu_q": "5 GHz", "nu_r": "8 GHz", "n_max": 6},
        "grid": [
            {"name": "g_X", "start": "0 MHz", "stop": "100 MHz", "count": count},
            {"name": "g_P", "start": "0 MHz", "stop": "100 MHz", "count": count},
        ],
    }
    doc.update(extra)
    return write_config(tmp_path, doc)


def read_rows(path):
    lines = [l for l in open(path).read().splitlines() if not l.startswith("#")]
    return lines[0].split(","), [l.split(",") for l in lines[1:]]


class TestConfigParsing:
    def test_unknown_experiment_nearest_match(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "shift_sweap"})
        with pytest.raises(ConfigError, match="shift_sweep"):
            load_config(path)

    def test_missing_required_param(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "experiment": "shift_sweep",
                "params": {"nu_q": "5 GHz"},
                "grid": [{"name": "g_X", "start": "0 MHz", "stop": "1 MHz", "count": 2}],
            },
        )
        with pytest.raises(ConfigError, match="nu_r"):
            load_config(path)

    def test_bare_number_frequency_rejected(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "experiment": "shift_sweep",
                "params": {"nu_q": 5e9, "nu_r": "8 GHz"},
                "grid": [{"name": "g_X", "start": "0 MHz", "stop": "1 MHz", "count": 2}],
            },
        )
        with pytest.raises(ConfigError, match="nu_q"):
            load_config(path)

    def test_bad_grid_axis(self, tmp_path):
        path = shift_config(tmp_path)
        doc = json.loads(open(path).read())
        doc["grid"][0]["name"] = "nu_q"
        with pytest.raises(ConfigError, match="not sweepable"):
            load_config(write_config(tmp_path, doc, "bad.json"))

    def test_count_minimum(self, tmp_path):
        path = shift_config(tmp_path)
        doc = json.loads(open(path).read())
        doc["grid"][0]["count"] = 1
        with pytest.raises(ConfigError, match="count"):
            load_config(write_config(tmp_path, doc, "bad.json"))

    def test_invalid_json_diagnostics(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"experiment": }')
        with pytest.raises(ConfigError, match="line"):
            load_config(str(path))


class TestRun:
    def test_shift_sweep_csv(self, tmp_path):
        out = tmp_path / "out.csv"
        status = run(shift_config(tmp_path), out_path=str(out), fmt="csv")
        assert status == 0
        columns, rows = read_rows(out)
        assert columns == ["g_X", "g_P", "chi_Hz", "chi_prime_Hz", "fail"]
        assert len(rows) == 9
        # row-major order: g_X slowest
        assert [r[0] for r in rows[:3]] == ["0.0", "0.0", "0.0"]
        meta = [l for l in open(out).read().splitlines() if l.startswith("#")]
        assert any(l.startswith("# config:") for l in meta)

    def test_determinism_and_parallel_order(self, tmp_path):
        cfg = shift_config(tmp_path)
        out1, out2, out3 = (tmp_path / f"o{i}.csv" for i in range(3))
        run(cfg, out_path=str(out1), fmt="csv", jobs=1)
        run(cfg, out_path=str(out2), fmt="csv", jobs=1)
        run(cfg, out_path=str(out3), fmt="csv", jobs=4)
        strip = lambda p: [l for l in open(p).read().splitlines() if not l.startswith("# wall")]
        assert strip(out1) == strip(out2) == strip(out3)

    def test_json_format(self, tmp_path):
        out = tmp_path / "out.json"
        run(shift_config(tmp_path), out_path=str(out), fmt="json")
        doc = json.loads(open(out).read())
        assert doc["columns"][0] == "g_X"
        assert len(doc["rows"]) == 9
        assert "config" in doc["metadata"]

    def test_writers_non_finite(self, tmp_path):
        def reject(constant):
            raise ValueError(f"non-strict JSON constant {constant}")

        columns = ("x", "y")
        rows = [(float("nan"), float("-inf")), (1.0, float("inf"))]
        write_json(tmp_path / "out.json", columns, rows, {})
        doc = json.loads((tmp_path / "out.json").read_text(), parse_constant=reject)
        assert doc["rows"] == [[None, "-inf"], [1.0, "inf"]]
        write_csv(tmp_path / "out.csv", columns, rows, {})
        assert (tmp_path / "out.csv").read_text().splitlines() == ["x,y", "nan,-inf", "1.0,inf"]

    def test_readout_sim_rows(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "experiment": "readout_sim",
                "params": {
                    "kappa": "3 MHz",
                    "chi_prime": "0.1 MHz",
                    "n_steady": 15,
                    "t_end": "400 ns",
                },
            },
        )
        out = tmp_path / "ro.csv"
        assert run(path, out_path=str(out), fmt="csv") == 0
        columns, rows = read_rows(out)
        assert columns[:3] == ["t_s", "alpha0_re", "alpha0_im"]
        assert len(rows) > 100

    def test_failed_point_exit_code_and_keep_going(self, tmp_path):
        # the last E_C_delta value makes E_C2 = 0, an invalid parameter set
        path = write_config(
            tmp_path,
            {
                "experiment": "cpt_sweep",
                "params": {
                    "E_J_sigma": "18 GHz",
                    "E_C_sigma": "10 GHz",
                    "E_Cr": "10 GHz",
                    "E_Lr": "100 GHz",
                    "n_g": 0.5,
                    "phi_ext": 3.0,
                },
                "grid": [
                    {"name": "E_C_delta", "start": "0 GHz", "stop": "10 GHz", "count": 3}
                ],
            },
        )
        out = tmp_path / "cpt.csv"
        assert run(path, out_path=str(out), fmt="csv") == 2
        assert run(path, out_path=str(out), fmt="csv", keep_going=True) == 0
        columns, rows = read_rows(out)
        fail_col = columns.index("fail")
        assert rows[0][fail_col] == ""
        assert rows[2][fail_col] != ""
        # the thread pool gives the same rows, the failure row included
        out2 = tmp_path / "cpt2.csv"
        assert run(path, out_path=str(out2), fmt="csv", jobs=2, keep_going=True) == 0
        assert read_rows(out2) == (columns, rows)

    def test_shift_sweep_records_failed_points(self, tmp_path):
        # g_X = 3 GHz, g_P = 1 GHz at 4/8 GHz is the ultrastrong point whose
        # labeling fails; nu_q = nu_r fails every point of its grid
        grid = [{"name": "g_X", "start": "10 MHz", "stop": "3 GHz", "count": 2}]
        path = write_config(
            tmp_path,
            {
                "experiment": "shift_sweep",
                "params": {"nu_q": "4 GHz", "nu_r": "8 GHz", "g_P": "1 GHz", "n_max": 10},
                "grid": grid,
            },
        )
        out = tmp_path / "ultra.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run(path, out_path=str(out), fmt="csv") == 2
            ok = mixed_model_shifts(MixedCouplingParams(4e9, 8e9, 10e6, 1e9, 10))
            with pytest.raises(LabelingError) as failed:
                mixed_model_shifts(MixedCouplingParams(4e9, 8e9, 3e9, 1e9, 10))
        # the fail message holds a comma, so read_rows splits it in two
        _, rows = read_rows(out)
        assert rows[0] == ["10000000.0", repr(ok.chi), repr(ok.chi_prime), ""]
        assert rows[1][:3] == ["3000000000.0", "", ""]
        assert ",".join(rows[1][3:]) == str(failed.value)
        path = write_config(
            tmp_path,
            {"experiment": "shift_sweep", "params": {"nu_q": "8 GHz", "nu_r": "8 GHz"}, "grid": grid},
        )
        assert run(path, out_path=str(out), fmt="csv", keep_going=True) == 0
        _, rows = read_rows(out)
        assert [row[-1] for row in rows] == ["dispersive regime requires nu_q != nu_r"] * 2

    def test_warnings_reach_caller(self, tmp_path):
        # 1 MHz detuning: every coupling exceeds 10% of it
        path = write_config(
            tmp_path,
            {
                "experiment": "shift_sweep",
                "params": {"nu_q": "7.999 GHz", "nu_r": "8 GHz", "n_max": 10},
                "grid": [{"name": "g_X", "start": "90 MHz", "stop": "100 MHz", "count": 4}],
            },
        )
        out = tmp_path / "near.csv"
        with pytest.warns(UserWarning, match="couplings exceed 10%") as caught:
            assert run(path, out_path=str(out), fmt="csv") == 0
        assert sum("couplings exceed 10%" in str(w.message) for w in caught) == 4
        columns, rows = read_rows(out)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for row in rows:
                rep = mixed_model_shifts(MixedCouplingParams(7.999e9, 8e9, float(row[0]), 0.0, 10))
                assert row[1:] == [repr(rep.chi), repr(rep.chi_prime), ""]

    def test_log_scale_axis(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "experiment": "dephasing_curve",
                "params": {"chi_prime": "1 MHz", "kappa": "3 MHz", "nu_r": "7 GHz"},
                "grid": [
                    {"name": "T", "start": "10 mK", "stop": "1 K", "count": 5, "scale": "log"}
                ],
            },
        )
        out = tmp_path / "deph.csv"
        assert run(path, out_path=str(out), fmt="csv") == 0
        _, rows = read_rows(out)
        temps = [float(r[0]) for r in rows]
        ratios = [b / a for a, b in zip(temps, temps[1:])]
        assert all(r == pytest.approx(ratios[0], rel=1e-9) for r in ratios)

    def test_deep_cold_temperature_point(self, tmp_path):
        # h nu_r / k_B T = 768 at 0.5 mK: n_th underflows to 0 instead of raising
        path = write_config(
            tmp_path,
            {
                "experiment": "dephasing_curve",
                "params": {"chi_prime": "1 MHz", "kappa": "3 MHz", "nu_r": "8 GHz"},
                "grid": [{"name": "T", "start": "0.5 mK", "stop": "50 mK", "count": 3}],
            },
        )
        out = tmp_path / "cold.csv"
        assert run(path, out_path=str(out), fmt="csv") == 0
        columns, rows = read_rows(out)
        assert all(r[columns.index("fail")] == "" for r in rows)
        assert rows[0][columns.index("T_phi_s")] == "inf"


class TestLibraryAgreement:
    """A CLI sweep row equals the library's row for the same point."""

    def test_kappa_sweep_matches_error_curve_sweep(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "experiment": "kappa_sweep",
                "params": {
                    "chi": "0.2 MHz", "chi_prime": "0.1 MHz", "n_steady": 15, "tau": "200 ns"
                },
                "grid": [{"name": "kappa", "start": "2 MHz", "stop": "5 MHz", "count": 3}],
            },
        )
        out = tmp_path / "kappa.csv"
        assert run(path, out_path=str(out), fmt="csv") == 0
        columns, rows = read_rows(out)
        p = load_config(path)["params"]
        cfg = ReadoutConfig(
            kappa=p["kappa"], chi=p["chi"], chi_prime=p["chi_prime"], eta=p["eta"],
            n_steady=p["n_steady"], t_end=p["tau"],
        )
        kappas = [float(r[0]) for r in rows]
        lib = error_curve_sweep(cfg, "kappa", kappas, tau=p["tau"])
        for row, want in zip(rows, lib):
            got = dict(zip(columns, row))
            assert want["failed"] == got["fail"] == ""
            for key in ("snr", "error", "n_final"):
                assert float(got[key]) == want[key]

    def test_dephasing_curve_matches_library(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "experiment": "dephasing_curve",
                "params": {
                    "chi": "0.5 MHz", "chi_prime": "1 MHz", "kappa": "3 MHz", "nu_r": "7 GHz"
                },
                "grid": [{"name": "T", "start": "20 mK", "stop": "200 mK", "count": 4}],
            },
        )
        out = tmp_path / "deph.csv"
        assert run(path, out_path=str(out), fmt="csv") == 0
        columns, rows = read_rows(out)
        p = load_config(path)["params"]
        temps = [float(r[0]) for r in rows]
        lib = dephasing_curve(p["chi"], p["chi_prime"], p["kappa"], p["nu_r"], temps)
        t_phi = columns.index("T_phi_s")
        assert [float(r[t_phi]) for r in rows] == [t for _, t in lib]


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in (
            "shift_sweep",
            "cpt_sweep",
            "dephasing_curve",
            "readout_sim",
            "kappa_sweep",
            "overlap_scan",
        ):
            assert name in out
        assert list_experiments().count("\n") == 5

    def test_config_error_exit_1(self, tmp_path, capsys):
        path = write_config(tmp_path, {"experiment": "nope"})
        assert main(["run", path]) == 1
        assert "config error" in capsys.readouterr().err

    def test_run_to_stdout(self, tmp_path, capsys):
        assert main(["run", shift_config(tmp_path, count=2)]) == 0
        out = capsys.readouterr().out
        assert "chi_Hz" in out


def test_import_loads_no_scipy():
    # a cold start imports numpy only: scipy would add ~0.3 s and ~20 MB
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, kerrqed, kerrqed.cli; "
         "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "doc, name",
    [
        (
            {
                "experiment": "shift_sweep",
                "params": {"nu_q": "1e400 GHz", "nu_r": "8 GHz", "n_max": 6},
                "grid": [{"name": "g_X", "start": "0 MHz", "stop": "100 MHz", "count": 3}],
            },
            "nu_q",
        ),
        (
            {
                "experiment": "cpt_sweep",
                "params": {
                    "E_J_sigma": "18 GHz", "E_C_sigma": "10 GHz", "E_Cr": "10 GHz",
                    "E_Lr": "100 GHz", "n_g": float("nan"), "phi_ext": 3.0,
                },
                "grid": [{"name": "E_C_delta", "start": "0 GHz", "stop": "1 GHz", "count": 2}],
            },
            "n_g",
        ),
        (
            {
                "experiment": "kappa_sweep",
                "params": {"chi_prime": "0.1 MHz", "n_steady": float("nan"), "tau": "400 ns"},
                "grid": [{"name": "kappa", "start": "1 MHz", "stop": "3 MHz", "count": 2}],
            },
            "n_steady",
        ),
        (
            {
                "experiment": "kappa_sweep",
                "params": {"chi_prime": "0.1 MHz", "n_steady": 10**400, "tau": "400 ns"},
                "grid": [{"name": "kappa", "start": "1 MHz", "stop": "3 MHz", "count": 2}],
            },
            "n_steady",
        ),
        (
            {
                "experiment": "kappa_sweep",
                "params": {"chi_prime": "0.1 MHz", "n_steady": 15, "tau": "400 ns"},
                "grid": [{"name": "kappa", "start": "1 MHz", "stop": "1e400 MHz", "count": 2}],
            },
            "kappa",
        ),
    ],
    ids=["quantity_overflow", "nan_number", "nan_n_steady", "int_overflow", "grid_endpoint"],
)
def test_non_finite_input_is_config_error(tmp_path, capsys, doc, name):
    # json.dumps writes NaN as the JSON extension token json.load accepts
    path = write_config(tmp_path, doc)
    assert main(["run", path, "--out", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and name in err
    assert not (tmp_path / "out.csv").exists()
