"""Semiclassical nonlinear (Kerr-shift) readout.

Coherent amplitude equation of motion, per qubit state sigma_z = +/-1:

    alpha' = -i (chi' |alpha|^2 + chi) sigma_z alpha - kappa/2 alpha - sqrt(kappa) alpha_in

with alpha_in = -eps / sqrt(kappa); qubit |0> maps to sigma_z = +1 and |1>
to -1.  SNR uses the matched-filter convention
SNR(tau) = sqrt(2 eta kappa int_0^tau |alpha_1 - alpha_0|^2 dt) with
error = erfc(SNR/2)/2; the overall SNR prefactor is frozen at 1 (it already
satisfies the sub-1e-4-at-400-ns readout-error anchor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import TWO_PI
from .errors import ConvergenceError
from .ode import rk4
from .sweep import grid

# One-time calibration constant of the unspecified SNR normalization; frozen.
SNR_PREFACTOR = 1.0

# Elementwise standard-library erfc (object array out; cast to float64).
_erfc = np.frompyfunc(math.erfc, 1, 1)


@dataclass(frozen=True)
class ReadoutConfig:
    """kappa, chi, chi_prime in Hz; eta in (0, 1]; epsilon (rad/s) may be
    omitted and calibrated from n_steady."""

    kappa: float
    chi: float
    chi_prime: float
    eta: float
    n_steady: float
    t_end: float
    dt: float | None = None
    epsilon: float | None = None

    def __post_init__(self):
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must be in (0, 1]")
        if not self.n_steady > 0:
            raise ValueError("n_steady must be positive")
        if not self.t_end > 0:
            raise ValueError("t_end must be positive")
        dt = self.step
        if not dt <= 1.0 / (50.0 * self.kappa_angular):
            raise ValueError(
                f"dt = {dt:.3e} s violates dt <= 1/(50 kappa) = {1.0/(50.0*self.kappa_angular):.3e} s"
            )

    @property
    def kappa_angular(self) -> float:
        return TWO_PI * self.kappa

    @property
    def step(self) -> float:
        return self.dt if self.dt is not None else 1.0 / (100.0 * self.kappa_angular)


@dataclass(frozen=True)
class ReadoutTrajectory:
    """Coherent amplitudes for both qubit states plus SNR(t) and error(t).

    alpha0 is the sigma_z = +1 (qubit |0>) branch, alpha1 the sigma_z = -1
    branch, its complex conjugate.
    """

    times: np.ndarray
    alpha0: np.ndarray
    alpha1: np.ndarray
    snr: np.ndarray
    error: np.ndarray
    kappa: float
    epsilon: float


def _rhs_fn(cfg: ReadoutConfig, sigma_z: int, eps: float):
    """alpha -> alpha' for one sigma_z branch, with the constants bound once."""
    half_ka = 0.5 * cfg.kappa_angular
    ca = TWO_PI * cfg.chi
    cpa = TWO_PI * cfg.chi_prime

    def f(alpha):
        # -sqrt(kappa) alpha_in = +eps
        return -1j * (cpa * abs(alpha) ** 2 + ca) * sigma_z * alpha - half_ka * alpha + eps

    return f


def rhs(alpha: complex, sigma_z: int, cfg: ReadoutConfig, epsilon: float | None = None) -> complex:
    """Right-hand side of the amplitude equation; epsilon overrides cfg."""
    return _rhs_fn(cfg, sigma_z, cfg.epsilon if epsilon is None else epsilon)(alpha)


def steady_state_amplitude(cfg: ReadoutConfig, sigma_z: int, epsilon: float | None = None) -> complex:
    """Steady state on the lower branch, in closed form.

    Both sigma_z branches hold n = |alpha|^2 photons with
    n [(kappa/2)^2 + (chi' n + chi)^2] = eps^2 (Drummond & Walls, J. Phys. A
    13, 725 (1980)): one positive root outside the bistable window, three
    inside it.  The lowest root is the one continuation from chi' = 0 reaches
    whenever it reaches full chi'; then alpha = eps / (kappa/2 + i sigma_z
    (chi' n + chi)).
    """
    eps = cfg.epsilon if epsilon is None else epsilon
    if eps is None:
        raise ValueError("epsilon not set; calibrate first")
    if eps == 0.0:
        return 0.0 + 0.0j
    half_ka = 0.5 * cfg.kappa_angular
    ca = TWO_PI * cfg.chi
    cpa = TWO_PI * cfg.chi_prime
    # The cubic in m = 1/n: eigenvalue roots are accurate relative to the
    # largest, and the largest real m is the lowest n even when the other
    # roots lie decades away (chi' -> 0).  Real means within the calibration
    # tolerance, so round-off keeps a double root at a fold.
    m = np.roots([-eps * eps, half_ka * half_ka + ca * ca, 2.0 * cpa * ca, cpa * cpa])
    n = 1.0 / m.real[(np.abs(m.imag) <= 1e-6 * np.abs(m)) & (m.real > 0.0)].max()
    return eps / (half_ka + 1j * sigma_z * (cpa * n + ca))


def calibrate_drive(cfg: ReadoutConfig) -> float:
    """Drive eps > 0 with |alpha_ss(sigma_z=+1)|^2 = n_steady.

    At steady state eps = sqrt(n) |kappa/2 + i (chi' n + chi)| exactly; the
    lower-branch root at that eps must hold n_steady photons, otherwise
    n_steady sits on an upper branch of a bistable drive.
    """
    n = cfg.n_steady
    eps = np.sqrt(n) * np.hypot(0.5 * cfg.kappa_angular, TWO_PI * (cfg.chi_prime * n + cfg.chi))
    n_lower = abs(steady_state_amplitude(cfg, +1, epsilon=eps)) ** 2
    if abs(n_lower - n) > 1e-6 * n:
        raise ConvergenceError(
            f"n_steady = {n:g} is not on the lower branch: at this drive the "
            f"lower-branch steady state holds n = {n_lower:.6g}"
        )
    return eps


def integrate_trajectory(cfg: ReadoutConfig) -> ReadoutTrajectory:
    """RK4 integration from alpha(0) = 0 of the sigma_z = +1 branch only: eps
    is real, so sigma_z -> -sigma_z conjugates the equation of motion."""
    eps = cfg.epsilon if cfg.epsilon is not None else calibrate_drive(cfg)
    dt = cfg.step
    steps = max(1, int(round(cfg.t_end / dt)))
    times = np.arange(steps + 1) * dt
    limit = 2.0 * cfg.n_steady

    def check(k, al):
        if abs(al) ** 2 > limit:
            raise ConvergenceError(
                f"runaway amplitude |alpha|^2 = {abs(al)**2:.2f} > 2 n_steady"
            )

    alpha0 = rk4(_rhs_fn(cfg, +1, eps), 0.0 + 0.0j, dt, steps, check)
    traj = ReadoutTrajectory(
        times=times,
        alpha0=alpha0,
        alpha1=alpha0.conj(),
        snr=np.zeros(steps + 1),
        error=np.full(steps + 1, 0.5),
        kappa=cfg.kappa,
        epsilon=eps,
    )
    snr, error = snr_and_error(traj, cfg.eta)
    return replace(traj, snr=snr, error=error)


def snr_and_error(traj: ReadoutTrajectory, eta: float):
    """Cumulative matched-filter SNR and assignment error from the branch
    separation; trapezoid rule on the common time grid."""
    d2 = np.abs(traj.alpha1 - traj.alpha0) ** 2
    dt = np.diff(traj.times)
    integral = np.concatenate(([0.0], np.cumsum(0.5 * (d2[1:] + d2[:-1]) * dt)))
    ka = TWO_PI * traj.kappa
    snr = SNR_PREFACTOR * np.sqrt(2.0 * eta * ka * integral)
    error = 0.5 * _erfc(snr / 2.0).astype(np.float64)
    return snr, error


def output_field(traj: ReadoutTrajectory, branch: int = 0) -> np.ndarray:
    """alpha_out = alpha_in + sqrt(kappa) alpha for one sigma_z branch."""
    ka = TWO_PI * traj.kappa
    alpha_in = -traj.epsilon / np.sqrt(ka)
    alpha = traj.alpha0 if branch == 0 else traj.alpha1
    return alpha_in + np.sqrt(ka) * alpha


def read_at(traj: ReadoutTrajectory, tau: float) -> dict:
    """SNR and error at the first grid time >= tau (else the last), and the
    sigma_z = +1 photon number at the end of the trajectory."""
    i = min(int(np.searchsorted(traj.times, tau)), len(traj.times) - 1)
    return {
        "snr": float(traj.snr[i]),
        "error": float(traj.error[i]),
        "n_final": float(abs(traj.alpha0[-1]) ** 2),
    }


def error_curve_sweep(cfg: ReadoutConfig, sweep_param: str, values, tau: float | None = None):
    """Recalibrate and integrate per sweep point; returns a list of row dicts.

    sweep_param is 'chi_prime' or 'kappa'.  Failures are recorded per point
    and the sweep continues.
    """
    if sweep_param not in ("chi_prime", "kappa"):
        raise ValueError("sweep_param must be 'chi_prime' or 'kappa'")
    if tau is None:
        tau = cfg.t_end
    rows = []
    for (v,), result, exc in grid(
        lambda p: read_at(integrate_trajectory(replace(cfg, **p, epsilon=None)), tau),
        {},
        [(sweep_param, values)],
    ):
        row = {sweep_param: v, "error": None, "snr": None, "n_final": None, "failed": ""}
        if exc is None:
            row.update(result)
        else:
            row["failed"] = str(exc)
        rows.append(row)
    return rows
