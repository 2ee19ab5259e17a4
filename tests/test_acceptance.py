"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line on the real terminal (bypassing
capture) so the whole gate is auditable from the pytest log.
"""

import math
import warnings

import numpy as np
import pytest

from kerrqed.dephasing import (
    DephasingParams,
    gamma_linear,
    gamma_nonlinear_analytic,
    gamma_ode,
    thermal_occupation,
    z_quadratic_analytic,
    z_trajectory,
)
from kerrqed.dispersive import (
    chi_prime_noise_floor,
    chi_zero_gp,
    cpt_shifts,
    extract_shifts,
    label_dressed_states,
    mixed_model_shifts,
    mixed_shift_grid,
)
from kerrqed.models import CptParams, MixedCouplingParams, build_synthetic_dispersive
from kerrqed.qspace import Boson, HilbertSpace, SpinHalf, eigendecompose
from kerrqed.readout import (
    SNR_PREFACTOR,
    ReadoutConfig,
    calibrate_drive,
    integrate_trajectory,
    steady_state_amplitude,
)

NU_Q = 5e9
NU_R = 8e9
TWO_PI = 2.0 * math.pi


def report(capsys, number, title, ok):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {title}")
    assert ok, f"criterion {number} failed: {title}"


def mixed(g_X, g_P, n_max):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return MixedCouplingParams(NU_Q, NU_R, g_X, g_P, n_max)


def error_at(tau, **overrides):
    base = dict(kappa=3e6, chi=0.0, chi_prime=0.1e6, eta=1.0, n_steady=15.0, t_end=tau)
    base.update(overrides)
    traj = integrate_trajectory(ReadoutConfig(**base))
    return float(traj.error[-1])


def test_criterion_1_chi_zero_locus(capsys):
    # 101x101 (g_X, g_P) grid over [0, 150 MHz]^2: the numeric chi
    # sign-change contour tracks the analytic root curve within one cell.
    g_vals = np.linspace(0.0, 150e6, 101)
    h = g_vals[1] - g_vals[0]
    chi, _ = mixed_shift_grid(NU_Q, NU_R, g_vals, g_vals, n_max=10)

    ok = True
    for i, gx in enumerate(g_vals):
        if gx == 0.0:
            continue
        roots = [r for r in chi_zero_gp(gx, NU_Q, NU_R) if 0.0 < r < 150e6]
        col = chi[i]
        crossings = [
            0.5 * (g_vals[j] + g_vals[j + 1])
            for j in range(100)
            if col[j] * col[j + 1] < 0
        ]
        # every numeric crossing sits within one cell of an analytic root
        for c in crossings:
            if not roots or min(abs(c - r) for r in roots) > h:
                ok = False
        # every interior analytic root produces a crossing within one cell
        for r in roots:
            if h < r < 150e6 - h and (
                not crossings or min(abs(c - r) for c in crossings) > h
            ):
                ok = False
    report(capsys, 1, "chi = 0 locus within one grid cell of the analytic roots", ok)


def test_criterion_2_non_simultaneous_suppression(capsys):
    # On the lower chi = 0 branch the Kerr shift stays well above the
    # truncation noise floor.
    ok = True
    for gx in np.linspace(50e6, 150e6, 6):
        gp, _ = chi_zero_gp(gx, NU_Q, NU_R)
        p = mixed(gx, gp, n_max=12)
        chip = abs(mixed_model_shifts(p).chi_prime)
        floor = chi_prime_noise_floor(p)
        if not chip > 10.0 * floor:
            ok = False
    report(capsys, 2, "chi' exceeds 10x the truncation noise floor on the chi=0 branch", ok)


def test_criterion_3_dephasing_cross_validation(capsys):
    ok = True
    for n_th in (1e-4, 1e-3, 1e-2):
        for chip in (0.01e6, 0.1e6, 1e6):
            for kappa in (1e6, 3e6, 10e6):
                p = DephasingParams(kappa=kappa, chi_prime=chip, n_th=n_th)
                ode = gamma_ode(p, model="cubic").gamma
                ref = gamma_nonlinear_analytic(p).gamma
                if abs(ode - ref) > 0.05 * ref:
                    ok = False
                ka = TWO_PI * kappa
                traj = z_trajectory(p, t_end=40 / ka, dt=1 / (100 * ka), model="quadratic")
                z_ref = z_quadratic_analytic(p)
                if abs(traj.Z[-1] - z_ref) > 1e-8 * abs(z_ref):
                    ok = False
    report(capsys, 3, "cubic ODE within 5% of closed form; quadratic Z within 1e-8", ok)


def test_criterion_4_cubic_scaling_law(capsys):
    n_ths = np.geomspace(1e-4, 1e-2, 7)
    gammas = [
        gamma_ode(DephasingParams(kappa=3e6, chi_prime=0.1e6, n_th=n), model="cubic").gamma
        for n in n_ths
    ]
    slope_nl = np.polyfit(np.log(n_ths), np.log(gammas), 1)[0]
    lin = [
        gamma_linear(DephasingParams(kappa=3e6, chi=1e6, n_th=n)).gamma for n in n_ths
    ]
    slope_lin = np.polyfit(np.log(n_ths), np.log(lin), 1)[0]
    ok = abs(slope_nl - 3.0) <= 0.05 and abs(slope_lin - 1.0) <= 0.02
    report(capsys, 4, f"scaling slopes {slope_nl:.3f} (cubic), {slope_lin:.3f} (linear)", ok)


def test_criterion_5_one_second_claim(capsys):
    n_th = thermal_occupation(7e9, 0.05)
    p = DephasingParams(kappa=3e6, chi=0.0, chi_prime=1e6, n_th=n_th)
    t_closed = gamma_nonlinear_analytic(p).t_phi
    t_ode = gamma_ode(p, model="cubic").t_phi
    ok = t_closed > 1.0 and t_ode > 1.0
    report(capsys, 5, f"T_phi at 50 mK: {t_closed:.2f} s closed, {t_ode:.2f} s ODE", ok)


def test_criterion_6_readout_anchors(capsys):
    assert SNR_PREFACTOR == 1.0  # frozen before the eta sweeps below
    e1 = error_at(400e-9)
    e2 = error_at(300e-9, chi_prime=0.12e6)
    e3 = error_at(400e-9, eta=0.25)
    ok = e1 < 1e-4 and e2 < 1e-4 and e3 < 1e-3
    report(capsys, 6, f"readout errors {e1:.1e} (400ns), {e2:.1e} (300ns), {e3:.1e} (eta=0.25)", ok)


def test_criterion_7_kappa_optimum(capsys):
    kappas = np.arange(1.0e6, 8.01e6, 0.5e6)
    errors = [error_at(400e-9, kappa=k, chi_prime=0.12e6) for k in kappas]
    i_min = int(np.argmin(errors))
    interior = 0 < i_min < len(kappas) - 1
    near_four = abs(kappas[i_min] - 4e6) <= 1e6
    e_moderate = error_at(400e-9, kappa=1.5e6, chi_prime=0.12e6)
    ok = interior and near_four and e_moderate < 1e-4
    report(
        capsys,
        7,
        f"error minimum at kappa = {kappas[i_min]/1e6:.1f} MHz; error(1.5 MHz) = {e_moderate:.1e}",
        ok,
    )


def test_criterion_8_chi_zero_photon_parity(capsys):
    ok = True
    for overrides in ({}, {"chi_prime": 0.12e6}, {"eta": 0.25}):
        base = dict(kappa=3e6, chi=0.0, chi_prime=0.1e6, eta=1.0, n_steady=15.0, t_end=400e-9)
        base.update(overrides)
        cfg = ReadoutConfig(**base)
        eps = calibrate_drive(cfg)
        n_up = abs(steady_state_amplitude(cfg, +1, epsilon=eps)) ** 2
        n_dn = abs(steady_state_amplitude(cfg, -1, epsilon=eps)) ** 2
        if abs(n_up - n_dn) > 1e-10 * n_up:
            ok = False
    report(capsys, 8, "steady-state photon number identical for both qubit states at chi=0", ok)


def test_criterion_9_cpt_landscape(capsys):
    # E_J_sigma = 18 GHz, E_C_sigma = 10 GHz, E_Cr = 10 GHz, E_Lr = 100 GHz
    def shifts(ejd, ecd):
        p = CptParams(
            E_J1=9e9 + ejd / 2,
            E_J2=9e9 - ejd / 2,
            E_C1=5e9 + ecd / 2,
            E_C2=5e9 - ecd / 2,
            E_Cr=10e9,
            E_Lr=100e9,
            n_g=0.5,
            phi_ext=3.0,
            n_charge_max=6,
            n_fock=8,
        )
        rep = cpt_shifts(p)
        return rep.chi, rep.chi_prime

    ejds = np.linspace(-3e9, 3e9, 5)
    ecds = np.linspace(-9e9, 9e9, 7)
    chi = np.empty((5, 7))
    chip = np.empty((5, 7))
    for i, ejd in enumerate(ejds):
        for j, ecd in enumerate(ecds):
            chi[i, j], chip[i, j] = shifts(ejd, ecd)

    edges = []
    for i in range(5):
        for j in range(6):
            if chi[i, j] * chi[i, j + 1] < 0:
                edges.append(((i, j), (i, j + 1)))
    for i in range(4):
        for j in range(7):
            if chi[i, j] * chi[i + 1, j] < 0:
                edges.append(((i, j), (i + 1, j)))

    has_contour = len(edges) > 0
    # the contour branch through the origin-adjacent region crosses the
    # symmetric-junction axis (E_J_delta = 0); on those crossings the
    # interpolated Kerr shift must stay clearly nonzero
    axis_edges = [(a, b) for a, b in edges if a[0] == 2 and b[0] == 2]
    kerr_alive = bool(axis_edges)
    for a, b in axis_edges:
        t = chi[a] / (chi[a] - chi[b])
        chip_on_contour = chip[a] + t * (chip[b] - chip[a])
        if abs(chip_on_contour) < 1e6:
            kerr_alive = False
    ok = has_contour and kerr_alive
    report(capsys, 9, "CPT chi sign-change contour present with chi' nonzero along it", ok)


def test_criterion_10_extraction_oracle(capsys):
    rng = np.random.default_rng(1234)
    ok = True
    for _ in range(100):
        chi = rng.choice([-1, 1]) * 10 ** rng.uniform(4, 6.7)
        chip = rng.choice([-1, 1]) * 10 ** rng.uniform(4, 6)
        H = build_synthetic_dispersive(chi, chip, NU_R, NU_Q, n_max=6)
        ds = label_dressed_states(
            eigendecompose(H),
            HilbertSpace((SpinHalf(), Boson(6))),
            q_levels=2,
            n_levels=3,
            qubit_energies=np.array([-0.5, 0.5]) * TWO_PI * NU_Q,
            boson_freq=TWO_PI * NU_R,
        )
        rep = extract_shifts(ds)
        if abs(rep.chi - chi) > 1e-9 * abs(chi) or abs(rep.chi_prime - chip) > 1e-9 * abs(chip):
            ok = False
    report(capsys, 10, "synthetic (chi, chi') recovered to 1e-9 relative over 100 trials", ok)
