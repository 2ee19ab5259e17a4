import math

import numpy as np
import pytest

from kerrqed.dephasing import (
    DephasingParams,
    ZTrajectory,
    gamma_closed_form,
    gamma_from_Z,
    gamma_linear,
    gamma_nonlinear_analytic,
    gamma_ode,
    thermal_occupation,
    z_quadratic_analytic,
    z_trajectory,
)
from kerrqed.errors import ConvergenceError


class TestParams:
    def test_n_th_required(self):
        with pytest.raises(TypeError):
            DephasingParams(kappa=3e6)
        assert DephasingParams(kappa=3e6, n_th=thermal_occupation(7e9, 0.05)).n_th > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            DephasingParams(kappa=-1.0, n_th=1e-3)
        with pytest.raises(ValueError):
            DephasingParams(kappa=3e6, n_th=-0.1)


class TestThermalOccupation:
    def test_zero_temperature(self):
        assert thermal_occupation(7e9, 0.0) == 0.0

    def test_bose_value_50mK(self):
        # h * 7 GHz / (k_B * 50 mK) = 6.7196; n = 1/(e^x - 1)
        assert thermal_occupation(7e9, 0.05) == pytest.approx(1.2093e-3, rel=1e-3)

    def test_high_temperature_limit(self):
        # n -> k_B T / (h nu)
        n = thermal_occupation(1e9, 10.0)
        assert n == pytest.approx(1.380649e-23 * 10 / (6.62607015e-34 * 1e9), rel=1e-2)

    def test_deep_cold_underflows(self):
        # h * 8 GHz / (k_B * 0.5 mK) = 768, past where expm1 overflows
        assert thermal_occupation(8e9, 0.5e-3) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            thermal_occupation(-1e9, 0.05)
        with pytest.raises(ValueError):
            thermal_occupation(7e9, -0.1)


class TestClosedForms:
    def test_linear_zero_chi(self):
        p = DephasingParams(kappa=3e6, chi=0.0, n_th=1e-3)
        assert gamma_linear(p).gamma == 0.0

    def test_linear_value(self):
        # n_th=1e-3, chi/2pi=1 MHz, kappa/2pi=3 MHz
        p = DephasingParams(kappa=3e6, chi=1e6, n_th=1e-3)
        r = gamma_linear(p)
        assert r.gamma == pytest.approx(1.885e3, rel=1e-3)
        assert r.t_phi == pytest.approx(5.3e-4, rel=1e-2)

    def test_linear_large_chi_asymptote(self):
        p = DephasingParams(kappa=3e6, chi=1e12, n_th=1e-3)
        ka = 2 * math.pi * 3e6
        assert gamma_linear(p).gamma == pytest.approx(1e-3 * ka, rel=1e-6)

    def test_nonlinear_zero_occupation(self):
        p = DephasingParams(kappa=3e6, chi_prime=1e6, n_th=0.0)
        assert gamma_nonlinear_analytic(p).gamma == 0.0

    def test_nonlinear_value(self):
        p = DephasingParams(kappa=3e6, chi_prime=0.1e6, n_th=1e-2)
        assert gamma_nonlinear_analytic(p).gamma == pytest.approx(1.34, rel=1e-2)


class TestZOde:
    def test_dt_guard(self):
        p = DephasingParams(kappa=3e6, chi_prime=0.1e6, n_th=1e-3)
        with pytest.raises(ValueError):
            z_trajectory(p, t_end=1e-6, dt=1e-6)

    def test_unknown_model(self):
        p = DephasingParams(kappa=3e6, chi_prime=0.1e6, n_th=1e-3)
        with pytest.raises(ValueError):
            z_trajectory(p, t_end=1e-6, dt=1e-10, model="quartic")

    def test_divergence_guard(self):
        p = DephasingParams(kappa=1e6, chi_prime=10e6, n_th=100)
        ka = 2 * math.pi * p.kappa
        with pytest.raises(ConvergenceError, match=r"\|Z\| diverged at t = 6\.366e-09 s"):
            z_trajectory(p, t_end=5 / ka, dt=1 / (100 * ka), model="cubic")

    def test_quadratic_matches_closed_form(self):
        p = DephasingParams(kappa=3e6, chi_prime=1e6, n_th=1e-2)
        ka = 2 * math.pi * p.kappa
        traj = z_trajectory(p, t_end=40 / ka, dt=1 / (200 * ka), model="quadratic")
        z_ref = z_quadratic_analytic(p)
        assert abs(traj.Z[-1] - z_ref) / abs(z_ref) < 1e-10

    def test_quadratic_closed_form_chi_zero_limit(self):
        n_th = 3e-3
        p0 = DephasingParams(kappa=3e6, chi_prime=0.0, n_th=n_th)
        assert z_quadratic_analytic(p0) == pytest.approx(2 * n_th)
        p1 = DephasingParams(kappa=3e6, chi_prime=1.0, n_th=n_th)
        assert z_quadratic_analytic(p1) == pytest.approx(2 * n_th, rel=1e-4)

    def test_cubic_matches_nonlinear_closed_form(self):
        p = DephasingParams(kappa=3e6, chi_prime=0.1e6, n_th=1e-3)
        ode = gamma_ode(p, model="cubic").gamma
        ref = gamma_nonlinear_analytic(p).gamma
        assert ode == pytest.approx(ref, rel=0.05)

    def test_gamma_from_z_sign_guard(self):
        with pytest.raises(ValueError):
            gamma_from_Z(1.0 + 1.0j, 1e6)

    def test_z_is_complex_series(self):
        p = DephasingParams(kappa=3e6, chi_prime=0.5e6, n_th=1e-2)
        ka = 2 * math.pi * p.kappa
        traj = z_trajectory(p, t_end=10 / ka, dt=1 / (100 * ka))
        assert isinstance(traj, ZTrajectory)
        assert traj.Z.dtype == complex
        assert traj.Z.shape == traj.times.shape == (1001,)
        assert traj.Z[0] == 0 and abs(traj.Z[-1].imag) > 0


def t_phi_at(chi, chi_prime, T, combine=True):
    """T_phi of gamma_closed_form at kappa = 3 MHz and nu_r = 7 GHz, as the
    CLI dephasing_curve evaluates one temperature."""
    p = DephasingParams(
        kappa=3e6, chi=chi, chi_prime=chi_prime, n_th=thermal_occupation(7e9, T)
    )
    return gamma_closed_form(p, combine).t_phi


class TestCurve:
    def test_monotone_decreasing_t_phi(self):
        t_phis = [t_phi_at(0.0, 1e6, T) for T in np.linspace(0.02, 0.2, 10)]
        assert all(a > b for a, b in zip(t_phis, t_phis[1:]))

    def test_zero_coupling_infinite(self):
        assert t_phi_at(0.0, 0.0, 0.05) == math.inf

    def test_combine_sums_rates(self):
        both = t_phi_at(1e6, 1e6, 0.05, combine=True)
        nl_only = t_phi_at(0.0, 1e6, 0.05, combine=False)
        lin_only = t_phi_at(1e6, 1e6, 0.05, combine=False)
        assert 1 / both == pytest.approx(1 / nl_only + 1 / lin_only, rel=1e-9)
