"""Photon-shot-noise dephasing: closed-form linear and nonlinear (Kerr)
rates, and the positive-P phase-space ODEs for the off-diagonal qubit
coherence (cubic and quadratic variants) with the quadratic closed form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import BOLTZMANN_K, PLANCK_H, TWO_PI
from .errors import ConvergenceError
from .ode import rk4

# gamma_ode integrates in kappa-scaled time: RK4 steps per 1/kappa, and the
# horizon in units of 1/kappa.
KAPPA_STEPS = 100
KAPPA_HORIZON = 50.0


@dataclass(frozen=True)
class DephasingParams:
    """kappa, chi, chi' in Hz (linear convention); thermal occupation either
    given directly (n_th) or via (T_eff, nu_r)."""

    kappa: float
    chi: float = 0.0
    chi_prime: float = 0.0
    n_th: float | None = None
    T_eff: float | None = None
    nu_r: float | None = None

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        direct = self.n_th is not None
        thermal = self.T_eff is not None and self.nu_r is not None
        if direct == thermal:
            raise ValueError("supply exactly one of n_th or (T_eff, nu_r)")
        if direct and self.n_th < 0:
            raise ValueError("n_th must be >= 0")

    @property
    def occupation(self) -> float:
        if self.n_th is not None:
            return self.n_th
        return thermal_occupation(self.nu_r, self.T_eff)


@dataclass(frozen=True)
class DephasingResult:
    """Dephasing rate gamma (1/s), induced frequency shift delta (rad/s)."""

    gamma: float
    delta: float
    method: str

    @property
    def t_phi(self) -> float:
        return math.inf if self.gamma == 0.0 else 1.0 / self.gamma


@dataclass(frozen=True)
class ZTrajectory:
    times: np.ndarray
    Z: np.ndarray
    mu: np.ndarray


def thermal_occupation(nu_r: float, T_eff: float) -> float:
    """Bose occupation 1/(exp(h nu_r / k_B T) - 1); 0 at T = 0."""
    if nu_r <= 0:
        raise ValueError("nu_r must be positive")
    if T_eff < 0:
        raise ValueError("temperature must be >= 0")
    if T_eff == 0.0:
        return 0.0
    x = PLANCK_H * nu_r / (BOLTZMANN_K * T_eff)
    return 1.0 / math.expm1(x)


def gamma_linear(p: DephasingParams) -> DephasingResult:
    """Linear dispersive shot-noise rate: Gamma = n_th kappa chi^2/(kappa^2 + chi^2)."""
    ka = TWO_PI * p.kappa
    ca = TWO_PI * p.chi
    gamma = p.occupation * ka * ca**2 / (ka**2 + ca**2)
    return DephasingResult(gamma=gamma, delta=0.0, method="closed_linear")


def gamma_nonlinear_analytic(p: DephasingParams) -> DephasingResult:
    """Kerr-shift shot-noise rate in the low-occupation limit:
    Gamma = 64 n_th^3 chi'^2 / kappa."""
    ka = TWO_PI * p.kappa
    cpa = TWO_PI * p.chi_prime
    gamma = 64.0 * p.occupation**3 * cpa**2 / ka
    return DephasingResult(gamma=gamma, delta=0.0, method="closed_nonlinear")


def _z_rhs(Z, kappa_a, chip_a, n_th, model):
    if model == "cubic":
        return -2j * chip_a * (Z**3 + 2.0 * Z**2) - kappa_a * Z + 2.0 * kappa_a * n_th
    if model == "quadratic":
        return -4j * chip_a * Z**2 - kappa_a * Z + 2.0 * kappa_a * n_th
    raise ValueError(f"model must be 'cubic' or 'quadratic', got {model!r}")


def z_trajectory(p: DephasingParams, t_end: float, dt: float, model: str = "cubic") -> ZTrajectory:
    """Fixed-step RK4 integration of the coherence ODE from Z(0) = mu(0) = 0.

    The accumulated mu integrates mu' = -chi' Z^2 alongside Z.
    """
    ka = TWO_PI * p.kappa
    cpa = TWO_PI * p.chi_prime
    n_th = p.occupation
    if dt > 1.0 / (50.0 * ka):
        raise ValueError(f"dt = {dt:.3e} s violates dt <= 1/(50 kappa) = {1.0/(50.0*ka):.3e} s")
    steps = max(1, int(round(t_end / dt)))
    times = np.arange(steps + 1) * dt

    def f(state):
        z, _ = state
        return np.array([_z_rhs(z, ka, cpa, n_th, model), -cpa * z**2])

    def check(k, y):
        if abs(y[0]) > 1e3:
            raise ConvergenceError(f"|Z| diverged at t = {times[k]:.3e} s")

    Z, mu = rk4(f, np.array([0.0 + 0j, 0.0 + 0j]), dt, steps, check).T
    return ZTrajectory(times=times, Z=Z, mu=mu)


def z_quadratic_analytic(p: DephasingParams) -> complex:
    """Steady state of the quadratic ODE:
    Z_ss = (i/(8 chi'))(kappa - sqrt(kappa^2 + 32 i kappa n_th chi')),
    principal branch with Re sqrt > 0; continuous limit 2 n_th at chi' = 0."""
    ka = TWO_PI * p.kappa
    cpa = TWO_PI * p.chi_prime
    n_th = p.occupation
    if cpa == 0.0:
        return complex(2.0 * n_th)
    root = np.sqrt(ka**2 + 32j * ka * n_th * cpa)
    if root.real < 0:
        root = -root
    return (1j / (8.0 * cpa)) * (ka - root)


def gamma_from_Z(Z_ss: complex, chi_prime: float, method: str = "quadratic_analytic") -> DephasingResult:
    """Gamma = -chi' Im(Z^2), Delta = -chi' Re(Z^2) (angular chi')."""
    cpa = TWO_PI * chi_prime
    z2 = Z_ss * Z_ss
    gamma = -cpa * z2.imag
    delta = -cpa * z2.real
    if gamma < -1e-12:
        raise ValueError(
            f"negative dephasing rate {gamma:.3e}: square-root branch or sign convention error"
        )
    return DephasingResult(gamma=max(gamma, 0.0), delta=delta, method=method)


def gamma_ode(p: DephasingParams, model: str = "cubic") -> DephasingResult:
    """Dephasing rate from the steady state of the Z ODE.

    Integrates with step 1/(100 kappa) to steady state (relative change of Z
    over one 1/kappa window below 1e-9, capped at 50/kappa); Z_ss is the
    average over the final 10% of the trajectory.
    """
    ka = TWO_PI * p.kappa
    dt = 1.0 / (KAPPA_STEPS * ka)
    traj = z_trajectory(p, KAPPA_HORIZON / ka, dt, model=model)
    Z = traj.Z
    converged = False
    for k in range(KAPPA_STEPS, len(Z), KAPPA_STEPS):
        ref = max(abs(Z[k]), 1e-30)
        if abs(Z[k] - Z[k - KAPPA_STEPS]) / ref < 1e-9:
            converged = True
            break
    if not converged:
        warnings.warn("Z ODE did not meet the steady-state criterion within 50/kappa", stacklevel=2)
    tail = max(1, len(Z) // 10)
    Z_ss = complex(np.mean(Z[-tail:]))
    return gamma_from_Z(Z_ss, p.chi_prime, method=f"ode_{model}")


def gamma_closed_form(p: DephasingParams, combine: bool = True) -> DephasingResult:
    """Closed-form shot-noise rate: combine=True sums the linear and
    nonlinear laws; otherwise only the law whose coupling is nonzero
    contributes (the nonlinear one at chi = 0)."""
    g_lin = gamma_linear(p).gamma
    g_nl = gamma_nonlinear_analytic(p).gamma
    if combine:
        gamma = g_lin + g_nl
    else:
        gamma = g_nl if p.chi == 0.0 else g_lin
    return DephasingResult(gamma=gamma, delta=0.0, method="closed_form")


def dephasing_curve(
    chi: float,
    chi_prime: float,
    kappa: float,
    nu_r: float,
    T_range,
    combine: bool = True,
):
    """(T, T_phi) rows for a temperature sweep of gamma_closed_form."""
    T_vals = list(T_range)
    if any(t <= 0 for t in T_vals) or any(b < a for a, b in zip(T_vals, T_vals[1:])):
        raise ValueError("temperatures must be positive and ascending")
    rows = []
    for T in T_vals:
        params = DephasingParams(
            kappa=kappa, chi=chi, chi_prime=chi_prime, n_th=thermal_occupation(nu_r, T)
        )
        rows.append((T, gamma_closed_form(params, combine).t_phi))
    return rows
