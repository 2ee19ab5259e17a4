import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

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
        with pytest.raises(ValueError, match="model must be 'cubic' or 'quadratic', got 'quartic'"):
            gamma_ode(p, model="quartic")

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

    def test_root_where_fixed_step_diverges(self):
        # test_divergence_guard's config: RK4 at dt = 1/(100 kappa) is
        # unstable here (|f'(Z)| dt ~ 2.9), the ODE is not
        p = DephasingParams(kappa=1e6, chi_prime=10e6, n_th=100)
        ka = 2 * math.pi * p.kappa
        gamma = gamma_ode(p).gamma
        assert gamma == pytest.approx(gamma_from_Z(cubic_root(p), p.chi_prime).gamma, rel=1e-12)
        z_end = z_trajectory(p, t_end=50 / ka, dt=1 / (2000 * ka)).Z[-1]
        assert gamma == pytest.approx(gamma_from_Z(z_end, p.chi_prime).gamma, rel=1e-12)

    def test_zero_rate_is_positive_zero(self):
        assert math.copysign(1.0, gamma_from_Z(0j, 1e6).gamma) == 1.0
        # h 8 GHz / (k_B 0.54 mK) = 711: n_th = 1.6e-309, subnormal
        for p in (
            DephasingParams(kappa=3e6, chi_prime=1e6, n_th=0.0),
            DephasingParams(kappa=3e6, chi_prime=0.0, n_th=1e-3),
            DephasingParams(kappa=3e6, chi_prime=1e6, n_th=thermal_occupation(8e9, 0.54e-3)),
        ):
            for model in ("cubic", "quadratic"):
                gamma = gamma_ode(p, model=model).gamma
                assert gamma == 0.0 and math.copysign(1.0, gamma) == 1.0

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


def cubic_root(p):
    """gamma_ode's cubic steady state as its docstring states it: Z = 2 n_th / w
    for the root w of largest |w| of w^3 - w^2 - c w - c n_th."""
    c = 8j * p.chi_prime * p.n_th / p.kappa
    w = np.roots([1.0, -1.0, -c, -c * p.n_th])
    return complex(2.0 * p.n_th / w[np.argmax(np.abs(w))])


class TestCubicSteadyState:
    """gamma_ode's cubic root is the stable state that RK4 reaches from Z = 0."""

    # box: kappa 0.1-100 MHz, |chi'| 1 Hz-100 MHz of either sign, n_th
    # 1e-8-100, each log-uniform; on 3000 random configs of this box
    # Re f'(Z) < 0 and RK4 landed within 1.3e-14 of the root
    @seed(20261027)
    @settings(max_examples=20, deadline=None, database=None)
    @given(
        log_kappa=st.floats(5.0, 8.0),
        log_chi_prime=st.floats(0.0, 8.0),
        chi_sign=st.sampled_from([1.0, -1.0]),
        log_n_th=st.floats(-8.0, 2.0),
    )
    def test_rk4_lands_on_stable_root(self, log_kappa, log_chi_prime, chi_sign, log_n_th):
        p = DephasingParams(
            kappa=10.0**log_kappa, chi_prime=chi_sign * 10.0**log_chi_prime, n_th=10.0**log_n_th
        )
        z = cubic_root(p)
        assert gamma_ode(p).gamma == pytest.approx(gamma_from_Z(z, p.chi_prime).gamma, rel=1e-12)
        ka = 2 * math.pi * p.kappa
        slope = -4j * math.pi * p.chi_prime * (3 * z**2 + 4 * z) - ka
        assert slope.real < 0
        # |f'(Z)| dt <= 1/2 keeps fixed-step RK4 stable near the root
        dt = min(1 / (100 * ka), 0.5 / abs(slope))
        z_end = z_trajectory(p, t_end=60 / ka, dt=dt).Z[-1]
        assert abs(z_end - z) <= 1e-10 * abs(z)


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
