"""Photon-shot-noise dephasing: closed-form linear and nonlinear (Kerr)
rates, and the positive-P phase-space ODEs for the off-diagonal qubit
coherence (cubic and quadratic variants). gamma_ode takes the ODE's stable
steady state as a polynomial root; z_trajectory integrates the ODE with
fixed-step RK4 as the independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import BOLTZMANN_K, PLANCK_H, TWO_PI
from .errors import ConvergenceError
from .ode import rk4


@dataclass(frozen=True)
class DephasingParams:
    """kappa, chi, chi' in Hz (linear convention); thermal occupation n_th
    (use thermal_occupation for a temperature)."""

    kappa: float
    n_th: float
    chi: float = 0.0
    chi_prime: float = 0.0

    def __post_init__(self):
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")
        if not self.n_th >= 0:
            raise ValueError("n_th must be >= 0")
        for name in ("chi", "chi_prime"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class DephasingResult:
    """Dephasing rate gamma (1/s)."""

    gamma: float

    @property
    def t_phi(self) -> float:
        return math.inf if self.gamma == 0.0 else 1.0 / self.gamma


@dataclass(frozen=True)
class ZTrajectory:
    times: np.ndarray
    Z: np.ndarray


def thermal_occupation(nu_r: float, T: float) -> float:
    """Bose occupation 1/(exp(h nu_r / k_B T) - 1); 0 at T = 0."""
    if not nu_r > 0:
        raise ValueError("nu_r must be positive")
    if not T >= 0:
        raise ValueError("temperature must be >= 0")
    if T == 0.0:
        return 0.0
    x = PLANCK_H * nu_r / (BOLTZMANN_K * T)
    try:
        return 1.0 / math.expm1(x)
    except OverflowError:
        # x > ~709.78, where 1/expm1(x) = exp(-x) to double precision
        return math.exp(-x)


def gamma_linear(p: DephasingParams) -> DephasingResult:
    """Linear dispersive shot-noise rate: Gamma = n_th kappa chi^2/(kappa^2 + chi^2)."""
    ka = TWO_PI * p.kappa
    ca = TWO_PI * p.chi
    gamma = p.n_th * ka * ca**2 / (ka**2 + ca**2)
    return DephasingResult(gamma)


def gamma_nonlinear_analytic(p: DephasingParams) -> DephasingResult:
    """Kerr-shift shot-noise rate in the low-occupation limit:
    Gamma = 64 n_th^3 chi'^2 / kappa."""
    ka = TWO_PI * p.kappa
    cpa = TWO_PI * p.chi_prime
    gamma = 64.0 * p.n_th**3 * cpa**2 / ka
    return DephasingResult(gamma)


def z_trajectory(p: DephasingParams, t_end: float, dt: float, model: str = "cubic") -> ZTrajectory:
    """Fixed-step RK4 integration of the coherence ODE from Z(0) = 0."""
    ka = TWO_PI * p.kappa
    cpa = TWO_PI * p.chi_prime
    source = 2.0 * ka * p.n_th
    if model == "cubic":
        def f(z):
            return -2j * cpa * (z**3 + 2.0 * z**2) - ka * z + source
    elif model == "quadratic":
        def f(z):
            return -4j * cpa * z**2 - ka * z + source
    else:
        raise ValueError(f"model must be 'cubic' or 'quadratic', got {model!r}")
    if dt > 1.0 / (50.0 * ka):
        raise ValueError(f"dt = {dt:.3e} s violates dt <= 1/(50 kappa) = {1.0/(50.0*ka):.3e} s")
    steps = max(1, int(round(t_end / dt)))
    times = np.arange(steps + 1) * dt

    def check(k, z):
        if abs(z) > 1e3:
            raise ConvergenceError(f"|Z| diverged at t = {times[k]:.3e} s")

    return ZTrajectory(times=times, Z=rk4(f, 0.0 + 0j, dt, steps, check))


def z_quadratic_analytic(p: DephasingParams) -> complex:
    """Steady state of the quadratic ODE:
    Z_ss = (i/(8 chi'))(kappa - sqrt(kappa^2 + 32 i kappa n_th chi')),
    principal branch with Re sqrt > 0; continuous limit 2 n_th at chi' = 0."""
    ka = TWO_PI * p.kappa
    cpa = TWO_PI * p.chi_prime
    if cpa == 0.0:
        return complex(2.0 * p.n_th)
    root = np.sqrt(ka**2 + 32j * ka * p.n_th * cpa)
    if root.real < 0:
        root = -root
    return (1j / (8.0 * cpa)) * (ka - root)


def gamma_from_Z(Z_ss: complex, chi_prime: float) -> DephasingResult:
    """Gamma = -chi' Im(Z^2) (angular chi')."""
    gamma = -TWO_PI * chi_prime * (Z_ss * Z_ss).imag
    if gamma < -1e-12:
        raise ValueError(
            f"negative dephasing rate {gamma:.3e}: square-root branch or sign convention error"
        )
    # max keeps the first of equal values, so a zero rate is +0.0, not -0.0
    return DephasingResult(max(0.0, gamma))


def gamma_ode(p: DephasingParams, model: str = "cubic") -> DephasingResult:
    """Dephasing rate from the steady state of the Z ODE, the state that
    z_trajectory settles on from Z(0) = 0.

    Cubic: Z = 2 n_th / w for the root w of largest |w| of
    w^3 - w^2 - c w - c n_th with c = 8i chi' n_th / kappa, which is f(Z) = 0
    written in w = 2 n_th / Z; w = 1 and Z = 2 n_th at chi' = 0.
    Quadratic: z_quadratic_analytic.
    """
    if model == "cubic":
        c = 8j * p.chi_prime * p.n_th / p.kappa
        w = np.roots([1.0, -1.0, -c, -c * p.n_th])
        Z = 2.0 * p.n_th / w[np.argmax(np.abs(w))]
    elif model == "quadratic":
        Z = z_quadratic_analytic(p)
    else:
        raise ValueError(f"model must be 'cubic' or 'quadratic', got {model!r}")
    return gamma_from_Z(complex(Z), p.chi_prime)


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
    return DephasingResult(gamma)
