import math

import numpy as np
import pytest

from kerrqed.errors import ConvergenceError
from kerrqed.ode import rk4
from kerrqed.readout import (
    ReadoutConfig,
    calibrate_drive,
    error_curve_sweep,
    integrate_trajectory,
    output_field,
    rhs,
    snr_and_error,
    steady_state_amplitude,
)


def config(**overrides):
    base = dict(
        kappa=3e6,
        chi=0.0,
        chi_prime=0.1e6,
        eta=1.0,
        n_steady=15.0,
        t_end=400e-9,
    )
    base.update(overrides)
    return ReadoutConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            config(kappa=-1.0)
        with pytest.raises(ValueError):
            config(eta=0.0)
        with pytest.raises(ValueError):
            config(eta=1.5)
        with pytest.raises(ValueError):
            config(n_steady=0.0)

    def test_dt_guard(self):
        ka = 2 * math.pi * 3e6
        with pytest.raises(ValueError):
            config(dt=1.0 / (10.0 * ka))
        config(dt=1.0 / (200.0 * ka))  # fine


class TestSteadyState:
    def test_linear_closed_form(self):
        cfg = config(chi=0.4e6, chi_prime=0.0)
        ka = cfg.kappa_angular
        ca = 2 * math.pi * cfg.chi
        eps = 0.3 * ka
        for sz in (+1, -1):
            al = steady_state_amplitude(cfg, sz, epsilon=eps)
            assert al == pytest.approx(eps / (0.5 * ka + 1j * ca * sz), rel=1e-9)

    def test_fixed_point_property(self):
        cfg = config(chi=0.2e6)
        eps = 0.4 * cfg.kappa_angular
        for sz in (+1, -1):
            al = steady_state_amplitude(cfg, sz, epsilon=eps)
            assert abs(rhs(al, sz, cfg, epsilon=eps)) < 1e-6 * eps

    def test_requires_epsilon(self):
        with pytest.raises(ValueError):
            steady_state_amplitude(config(), +1)


class TestCalibration:
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"chi": 0.4e6},
            {"chi": -0.3e6},
            {"chi_prime": -0.1e6},
            {"chi": 0.4e6, "chi_prime": -0.05e6},
            # chi + chi' n crosses zero below n_steady: the bistable window
            {"kappa": 1e6, "chi": -1e6, "chi_prime": 0.05e6, "n_steady": 40.0},
        ],
        ids=["base", "chi_pos", "chi_neg", "kerr_neg", "chi_pos_kerr_neg", "bistable"],
    )
    def test_targets_photon_number(self, overrides):
        cfg = config(**overrides)
        eps = calibrate_drive(cfg)
        al = steady_state_amplitude(cfg, +1, epsilon=eps)
        assert abs(al) ** 2 == pytest.approx(cfg.n_steady, rel=1e-6)

    def test_chi_zero_photon_parity(self):
        cfg = config()
        eps = calibrate_drive(cfg)
        n_up = abs(steady_state_amplitude(cfg, +1, epsilon=eps)) ** 2
        n_dn = abs(steady_state_amplitude(cfg, -1, epsilon=eps)) ** 2
        assert abs(n_up - n_dn) / n_up < 1e-10


class TestTrajectory:
    def test_reaches_steady_state(self):
        ka = 2 * math.pi * 3e6
        cfg = config(t_end=40.0 / ka)
        traj = integrate_trajectory(cfg)
        ss = steady_state_amplitude(cfg, +1, epsilon=traj.epsilon)
        assert abs(traj.alpha0[-1] - ss) / abs(ss) < 1e-6

    def test_calibration_idempotence(self):
        ka = 2 * math.pi * 3e6
        cfg = config(t_end=20.0 / ka)
        traj = integrate_trajectory(cfg)
        assert abs(traj.alpha0[-1]) ** 2 == pytest.approx(cfg.n_steady, rel=1e-4)

    def test_snr_monotone_error_bounded(self):
        traj = integrate_trajectory(config())
        assert np.all(np.diff(traj.snr) >= -1e-12)
        assert np.all(np.diff(traj.error) <= 1e-12)
        assert traj.error[0] == pytest.approx(0.5)
        assert np.all(traj.error > 0)

    def test_chi_zero_amplitude_parity(self):
        traj = integrate_trajectory(config())
        scale = np.abs(traj.alpha0[1:])
        assert np.all(np.abs(np.abs(traj.alpha1[1:]) - scale) <= 1e-9 * scale)

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"chi": 0.4e6}, {"chi": -0.3e6, "chi_prime": -0.05e6}],
        ids=["base", "chi_pos", "chi_neg_kerr_neg"],
    )
    def test_minus_branch_is_conjugate(self, overrides):
        # sigma_z = -1 integrated on its own equals the conjugated +1 branch
        cfg = config(**overrides)
        traj = integrate_trajectory(cfg)
        steps = len(traj.times) - 1
        direct = rk4(
            lambda al: rhs(al, -1, cfg, epsilon=traj.epsilon),
            0.0 + 0.0j, cfg.step, steps, lambda k, al: None,
        )
        assert np.array_equal(direct, traj.alpha1)

    @pytest.mark.parametrize(
        "kappa, chi_prime, chi",
        [(1e6, 0.12e6, 0.0), (4.5e6, -0.05e6, 0.4e6), (8e6, 0.0, -0.3e6)],
    )
    def test_bound_rhs_matches_rhs(self, kappa, chi_prime, chi):
        # the constants bound once per trajectory give the per-call rhs bitwise
        cfg = config(kappa=kappa, chi_prime=chi_prime, chi=chi)
        traj = integrate_trajectory(cfg)
        steps = len(traj.times) - 1
        direct = rk4(
            lambda al: rhs(al, +1, cfg, epsilon=traj.epsilon),
            0.0 + 0.0j, cfg.step, steps, lambda k, al: None,
        )
        assert np.array_equal(direct, traj.alpha0)

    def test_error_is_stdlib_erfc(self):
        """error = erfc(SNR/2)/2 with math.erfc, out to where it underflows.

        scipy.special.erfc agrees within 1e-13 relative wherever its value
        is a normal float.  They differ in the underflow: for SNR/2 between
        about 26.6 and 27.2, scipy flushes to 0.0 while math.erfc returns a
        subnormal.
        """
        traj = integrate_trajectory(
            config(kappa=2e6, chi=1e6, chi_prime=0.0, n_steady=50.0, t_end=2e-6)
        )
        half = traj.snr / 2.0
        assert half[0] == 0.0 and half[-1] > 27.5
        error = snr_and_error(traj, 1.0)[1]
        assert np.array_equal(error, [0.5 * math.erfc(x) for x in half])

        special = pytest.importorskip("scipy.special")
        ref = 0.5 * special.erfc(half)
        normal = ref >= np.finfo(float).tiny
        assert normal.sum() > 100
        rel = np.abs(error[normal] - ref[normal]) / ref[normal]
        assert np.max(rel) <= 1e-13

    def test_dt_convergence(self):
        cfg = config()
        coarse = integrate_trajectory(cfg)
        fine = integrate_trajectory(config(dt=cfg.step / 2))
        assert fine.error[-1] == pytest.approx(coarse.error[-1], rel=0.01)

    def test_output_field_relation(self):
        traj = integrate_trajectory(config())
        ka = 2 * math.pi * traj.kappa
        out = output_field(traj, branch=0)
        want = -traj.epsilon / np.sqrt(ka) + np.sqrt(ka) * traj.alpha0
        assert np.allclose(out, want)


class TestSweep:
    def test_rows_and_order(self):
        values = [2e6, 3e6, 4e6]
        rows = error_curve_sweep(config(), "kappa", values, tau=400e-9)
        assert [r["kappa"] for r in rows] == values
        assert all(r["failed"] == "" for r in rows)
        assert all(0 < r["error"] < 0.5 for r in rows)

    def test_bad_sweep_param(self):
        with pytest.raises(ValueError):
            error_curve_sweep(config(), "eta", [0.5])

    def test_failure_recorded_not_raised(self):
        # dt fixed for kappa=3 MHz violates the step guard at much larger kappa
        ka = 2 * math.pi * 3e6
        cfg = config(dt=1.0 / (100.0 * ka))
        rows = error_curve_sweep(cfg, "kappa", [3e6, 30e6], tau=400e-9)
        assert rows[0]["failed"] == ""
        assert rows[1]["failed"] != ""
        assert rows[1]["error"] is None


class TestRunaway:
    def test_runaway_detection(self):
        # drive far above the calibrated level blows past 2 n_steady
        cfg = config(epsilon=10.0 * 0.5 * 2 * math.pi * 3e6 * math.sqrt(15.0))
        with pytest.raises(ConvergenceError):
            integrate_trajectory(cfg)
