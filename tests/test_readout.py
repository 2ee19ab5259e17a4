import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from kerrqed.errors import ConvergenceError
from kerrqed.ode import rk4
from kerrqed.readout import (
    ReadoutConfig,
    calibrate_drive,
    integrate_trajectory,
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


# PR-2 bistable set: kappa x chi' x chi x n_steady, all in MHz but n.  At the
# exact fold (3, 0.1, -3, 15) the cubic's roots are 15, 15, 30.
BISTABLE_SET = list(itertools.product(
    (1.0, 3.0), (0.02, 0.05, 0.1, -0.05), (-6.0, -3.0, -1.0, -0.5, 1.0, 3.0), (15.0, 40.0)
))
UPPER_BRANCH = {
    (1.0, 0.02, -1.0, 40.0), (1.0, 0.05, -3.0, 40.0), (1.0, 0.05, -1.0, 15.0),
    (1.0, 0.1, -6.0, 40.0), (1.0, 0.1, -3.0, 15.0), (1.0, -0.05, 1.0, 15.0),
    (1.0, -0.05, 3.0, 40.0), (3.0, 0.05, -3.0, 40.0), (3.0, 0.1, -6.0, 40.0),
    (3.0, -0.05, 3.0, 40.0),
}


def photon_cubic(cfg, n):
    """n [(kappa/2)^2 + (chi' n + chi)^2] in angular units."""
    u = 2 * math.pi * (cfg.chi_prime * n + cfg.chi)
    return n * ((0.5 * cfg.kappa_angular) ** 2 + u * u)


class TestLowerBranch:
    """The steady state is the lowest root of the photon-number cubic."""

    @seed(20261020)
    @settings(max_examples=12, deadline=None, database=None)
    @given(
        kappa=st.floats(0.5e6, 10e6),
        chi_frac=st.floats(-1.0, 1.0),
        chi_prime=st.floats(-0.3e6, 0.3e6),
        n_steady=st.floats(1.0, 50.0),
    )
    # the other two roots of the cubic in n sit near +-1e103 i: a companion
    # matrix of that cubic loses the real root, one of the cubic in 1/n keeps it
    @example(kappa=0.5e6, chi_frac=0.0, chi_prime=5.5e-99, n_steady=1.0)
    def test_rk4_lands_on_steady_state(self, kappa, chi_frac, chi_prime, n_steady):
        # |chi| <= 0.8 (sqrt(3)/2) kappa: the cubic is monotone for every
        # chi' and drive, and the slowest linearized decay rate is at least
        # (kappa/2)(1 - 0.8) = kappa/10 (reached where chi' n = -2 chi/3).
        # 200/kappa leaves e^-20; 100/kappa reached 1.5e-5 relative there.
        # RK4 keeps the exact fixed point, so only the transient decays.
        chi = chi_frac * 0.8 * (math.sqrt(3) / 2) * kappa
        cfg = config(kappa=kappa, chi=chi, chi_prime=chi_prime, n_steady=n_steady)
        eps = calibrate_drive(cfg)
        steps = int(round(200.0 / (cfg.kappa_angular * cfg.step)))
        end = rk4(
            lambda al: rhs(al, +1, cfg, epsilon=eps), 0.0 + 0.0j, cfg.step, steps, lambda k, al: None
        )[-1]
        ss = steady_state_amplitude(cfg, +1, epsilon=eps)
        assert abs(end - ss) <= 1e-8 * abs(ss)

    @seed(20261021)
    @settings(max_examples=200, deadline=None, database=None)
    @given(
        kappa=st.floats(0.5e6, 10e6),
        chi_over_kappa=st.floats(0.9, 8.0),
        chi_sign=st.sampled_from([1.0, -1.0]),
        chi_prime=st.floats(0.005e6, 0.3e6),
        drive_frac=st.floats(0.01, 0.99),
    )
    def test_three_roots_returns_lowest(self, kappa, chi_over_kappa, chi_sign, chi_prime, drive_frac):
        # chi chi' < 0 and |chi| > (sqrt(3)/2) kappa put both critical points
        # n_lo < n_hi of the cubic at n > 0; a drive strictly between their
        # values gives three real roots, and the lowest is the only root in
        # (0, n_lo), where the cubic rises monotonically.
        chi = chi_sign * chi_over_kappa * kappa
        cfg = config(kappa=kappa, chi=chi, chi_prime=-chi_sign * chi_prime)
        ha, ca, cpa = 0.5 * cfg.kappa_angular, 2 * math.pi * cfg.chi, 2 * math.pi * cfg.chi_prime
        # d/dn of the cubic: 3 cpa^2 n^2 + 4 cpa ca n + ha^2 + ca^2
        root = math.sqrt(4 * ca * ca - 3 * (ha * ha + ca * ca))
        n_lo, n_hi = sorted((-2 * ca + s * root) / (3 * cpa) for s in (1.0, -1.0))
        assert 0.0 < n_lo < n_hi
        g_lo, g_hi = photon_cubic(cfg, n_lo), photon_cubic(cfg, n_hi)
        eps = math.sqrt(g_hi + drive_frac * (g_lo - g_hi))
        for sz in (+1, -1):
            al = steady_state_amplitude(cfg, sz, epsilon=eps)
            n = abs(al) ** 2
            assert n < n_lo
            assert abs(photon_cubic(cfg, n) - eps * eps) <= 1e-9 * eps * eps
            assert abs(rhs(al, sz, cfg, epsilon=eps)) <= 1e-9 * eps
        assert steady_state_amplitude(cfg, -1, epsilon=eps) == steady_state_amplitude(
            cfg, +1, epsilon=eps
        ).conjugate()

    def test_exact_fold_calibrates_to_double_root(self):
        # roots 15, 15, 30: the double root at the fold is the lower branch
        cfg = config(kappa=3e6, chi=-3e6, chi_prime=0.1e6, n_steady=15.0)
        eps = calibrate_drive(cfg)
        n = abs(steady_state_amplitude(cfg, +1, epsilon=eps)) ** 2
        assert abs(n - 15.0) <= 1e-6 * 15.0
        assert photon_cubic(cfg, 30.0) == pytest.approx(eps * eps, rel=1e-12)

    def test_bistable_set_split(self):
        raised = set()
        for kappa, chi_prime, chi, n in BISTABLE_SET:
            cfg = config(kappa=kappa * 1e6, chi=chi * 1e6, chi_prime=chi_prime * 1e6, n_steady=n)
            try:
                calibrate_drive(cfg)
            except ConvergenceError as exc:
                assert "not on the lower branch" in str(exc)
                raised.add((kappa, chi_prime, chi, n))
        assert raised == UPPER_BRANCH


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


class TestRunaway:
    def test_runaway_detection(self):
        # drive far above the calibrated level blows past 2 n_steady
        cfg = config(epsilon=10.0 * 0.5 * 2 * math.pi * 3e6 * math.sqrt(15.0))
        with pytest.raises(ConvergenceError):
            integrate_trajectory(cfg)
