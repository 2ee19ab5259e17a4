"""Frozen reference evaluator for the benchmark's correctness check.

Numpy and the standard library only.  Nothing here calls kerrqed: the
per-point functions of the package are what later changes replace, so the
reference recomputes each checked point from the model formulas.

- Shift points: dense H from the model formulas, ``np.linalg.eigh`` and a
  greedy maximum-overlap labeling of the dressed states.
- Readout points: the closed-form drive ``eps = sqrt(n) |kappa/2 + i(chi' n +
  chi)|`` followed by scalar RK4 of both qubit branches.
- Dephasing triples: scalar RK4 of the cubic and quadratic Z equations.

Tolerances
----------
Shift: chi and chi' are sums and differences of dressed energies of order
||H|| ~ 1e11-1e12 rad/s, so float64 round-off of one energy is about
eps64 * ||H||.  The check allows ``SHIFT_ROUNDOFF_FACTOR * eps64 * ||H|| /
2 pi`` Hz (about 0.02 Hz for the mixed model, 0.25 Hz for the CPT).  A
reordered, real, partial or batched eigensolver stays far inside it; a
mislabeled dressed state moves chi or chi' by kHz to MHz and fails.

Readout: kerrqed calibrates the drive by bisection and accepts it when the
photon number is within 1e-6 of the target, so snr and n_final may differ
from the closed-form drive by a few 1e-7.  ``READOUT_RTOL`` = 1e-5 relative;
the assignment error erfc(snr/2)/2 is compared on a log scale with that
tolerance times snr^2/2, its sensitivity to a relative change of snr.

Dephasing: both integrations are fixed-step RK4 with dt = 1/(100 kappa).
The cubic rate gamma = -chi' Im(Z^2) is compared at ``GAMMA_RTOL`` = 1e-6
relative (Im Z is small next to |Z|, which amplifies round-off up to ~1e-9);
the quadratic Z(40/kappa) at ``Z_RTOL`` = 1e-9 of |Z|.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi
EPS64 = float(np.finfo(float).eps)

SHIFT_ROUNDOFF_FACTOR = 1e3
READOUT_RTOL = 1e-5
GAMMA_RTOL = 1e-6
Z_RTOL = 1e-9
OVERLAP_FLOOR = 0.5


# ----------------------------------------------------------------- shifts


def _ladder(n_max):
    return np.diag(np.sqrt(np.arange(1.0, n_max + 1)), k=1)


def mixed_hamiltonian(nu_q, nu_r, g_X, g_P, n_max):
    """(w_q/2) s_z + w_r n + g_X s_x X + g_P s_y P, qubit factor first, rad/s.

    s_y P = [[0, -i], [i, 0]] (x) i(a+ - a) is real, so H is real symmetric.
    """
    a = _ladder(n_max)
    ad = a.T
    ib = np.eye(n_max + 1)
    sz = np.diag([1.0, -1.0])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sy_p = np.kron(np.array([[0.0, 1.0], [-1.0, 0.0]]), ad - a)
    return TWO_PI * (
        0.5 * nu_q * np.kron(sz, ib)
        + nu_r * np.kron(np.eye(2), ad @ a)
        + g_X * np.kron(sx, ad + a)
        + g_P * sy_p
    )


def cpt_hamiltonians(E_J_sigma, E_J_delta, E_C_sigma, E_C_delta, E_Cr, E_Lr, n_g, phi_ext,
                     n_charge_max, n_fock):
    """Full CPT Hamiltonian on island (x) resonator and the bare island one, rad/s."""
    center = round(n_g)
    charges = np.arange(-n_charge_max, n_charge_max + 1) + center
    d = charges.size
    dn = np.diag(charges - n_g)
    off = np.eye(d, k=1)
    cos_phi = 0.5 * (off + off.T)
    sin_phi = -0.5j * (off - off.T)
    b = _ladder(n_fock)
    zpf_d = (2.0 * E_Cr / E_Lr) ** 0.25
    zpf_n = (E_Lr / (32.0 * E_Cr)) ** 0.25
    delta = zpf_d * (b + b.T)
    n_delta = 1j * zpf_n * (b.T - b)
    w, u = np.linalg.eigh(delta)
    cos_half = (u * np.cos((phi_ext + w) / 2.0)) @ u.T
    sin_half = (u * np.sin((phi_ext + w) / 2.0)) @ u.T
    h_osc = 4.0 * E_Cr * (n_delta @ n_delta) + 0.5 * E_Lr * (delta @ delta)
    H = (
        np.kron(np.eye(d), h_osc)
        + E_C_sigma * np.kron(dn @ dn, np.eye(n_fock + 1))
        - E_C_delta * np.kron(dn, n_delta)
        - E_J_sigma * np.kron(cos_phi, cos_half)
        + E_J_delta * np.kron(sin_phi, sin_half)
    )
    island = (
        E_C_sigma * (dn @ dn)
        - E_J_sigma * math.cos(phi_ext / 2.0) * cos_phi
        + E_J_delta * math.sin(phi_ext / 2.0) * sin_phi
    )
    return TWO_PI * (H + H.conj().T) / 2.0, TWO_PI * (island + island.conj().T) / 2.0


def _greedy_labels(vectors, bare, bare_energies):
    """{label: eigenindex}; bare[label] is the bare vector, assigned in
    ascending bare energy to the unused eigenvector of largest overlap."""
    labels = {}
    used = np.zeros(vectors.shape[1], dtype=bool)
    for label in sorted(bare, key=lambda lab: (bare_energies[lab], lab)):
        overlaps = np.abs(bare[label].conj() @ vectors) ** 2
        overlaps[used] = -1.0
        k = int(np.argmax(overlaps))
        if overlaps[k] >= OVERLAP_FLOOR:
            used[k] = True
            labels[label] = k
    return labels


def _shifts(H, bare, bare_energies):
    """(chi, chi', tolerance) in Hz, or None when a needed label is missing."""
    energies, vectors = np.linalg.eigh(H)
    labels = _greedy_labels(vectors, bare, bare_energies)
    if any((q, n) not in labels for q in (0, 1) for n in (0, 1, 2)):
        return None
    E = {lab: float(energies[k]) for lab, k in labels.items()}
    chi = ((E[1, 1] - E[1, 0]) - (E[0, 1] - E[0, 0])) / (2.0 * TWO_PI)
    k0 = (E[0, 2] - 2.0 * E[0, 1] + E[0, 0]) / TWO_PI
    k1 = (E[1, 2] - 2.0 * E[1, 1] + E[1, 0]) / TWO_PI
    tol = SHIFT_ROUNDOFF_FACTOR * EPS64 * float(np.max(np.abs(energies))) / TWO_PI
    return chi, (k1 - k0) / 4.0, tol


def mixed_shifts(nu_q, nu_r, g_X, g_P, n_max):
    H = mixed_hamiltonian(nu_q, nu_r, g_X, g_P, n_max)
    db = n_max + 1
    # Qubit factor index 1 is the sigma_z = -1 bare ground state (q = 0).
    bare, energy = {}, {}
    for q, qi in ((0, 1), (1, 0)):
        for n in range(3):
            v = np.zeros(2 * db)
            v[qi * db + n] = 1.0
            bare[q, n] = v
            energy[q, n] = TWO_PI * ((q - 0.5) * nu_q + n * nu_r)
    return _shifts(H, bare, energy)


def cpt_shifts(E_J_sigma, E_J_delta, E_C_sigma, E_C_delta, E_Cr, E_Lr, n_g, phi_ext,
               n_charge_max, n_fock):
    H, island = cpt_hamiltonians(E_J_sigma, E_J_delta, E_C_sigma, E_C_delta, E_Cr, E_Lr,
                                 n_g, phi_ext, n_charge_max, n_fock)
    ei, vi = np.linalg.eigh(island)
    nu_r = math.sqrt(8.0 * E_Cr * E_Lr)
    bare, energy = {}, {}
    for q in range(3):
        for n in range(3):
            e_n = np.zeros(n_fock + 1)
            e_n[n] = 1.0
            bare[q, n] = np.kron(vi[:, q], e_n)
            energy[q, n] = ei[q] + n * TWO_PI * nu_r
    return _shifts(H, bare, energy)


# ---------------------------------------------------------------- readout


def readout_point(kappa, chi, chi_prime, eta, n_steady, tau):
    """(snr, error, n_final) at t = tau for the kappa_sweep point."""
    ka, ca, cpa = TWO_PI * kappa, TWO_PI * chi, TWO_PI * chi_prime
    eps = math.sqrt(n_steady) * abs(complex(0.5 * ka, cpa * n_steady + ca))
    dt = 1.0 / (100.0 * ka)
    steps = max(1, int(round(tau / dt)))
    d2 = [0.0]
    a0 = a1 = 0j
    for _ in range(steps):
        a0 = _rk4_amplitude(a0, +1.0, ka, ca, cpa, eps, dt)
        a1 = _rk4_amplitude(a1, -1.0, ka, ca, cpa, eps, dt)
        d2.append(abs(a1 - a0) ** 2)
    integral = sum(0.5 * (d2[k] + d2[k + 1]) * dt for k in range(steps))
    snr = math.sqrt(2.0 * eta * ka * integral)
    return snr, 0.5 * math.erfc(snr / 2.0), abs(a0) ** 2


def _rk4_amplitude(al, sz, ka, ca, cpa, eps, dt):
    def f(x):
        return -1j * (cpa * abs(x) ** 2 + ca) * sz * x - 0.5 * ka * x + eps

    k1 = f(al)
    k2 = f(al + 0.5 * dt * k1)
    k3 = f(al + 0.5 * dt * k2)
    k4 = f(al + dt * k3)
    return al + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


# -------------------------------------------------------------- dephasing


def _z_rk4(kappa, chi_prime, n_th, cubic, t_units):
    """Z after t_units / kappa_angular with 100 RK4 steps per 1/kappa."""
    ka, cpa = TWO_PI * kappa, TWO_PI * chi_prime
    if cubic:
        def f(z):
            return -2j * cpa * (z**3 + 2.0 * z**2) - ka * z + 2.0 * ka * n_th
    else:
        def f(z):
            return -4j * cpa * z**2 - ka * z + 2.0 * ka * n_th
    dt = 1.0 / (100.0 * ka)
    z = 0j
    for _ in range(100 * t_units):
        k1 = f(z)
        k2 = f(z + 0.5 * dt * k1)
        k3 = f(z + 0.5 * dt * k2)
        k4 = f(z + dt * k3)
        z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return z


def dephasing_triple(kappa, chi_prime, n_th):
    """(cubic steady-state gamma at 50/kappa, quadratic Z at 40/kappa)."""
    z_ss = _z_rk4(kappa, chi_prime, n_th, cubic=True, t_units=50)
    gamma = -TWO_PI * chi_prime * (z_ss * z_ss).imag
    return gamma, _z_rk4(kappa, chi_prime, n_th, cubic=False, t_units=40)


# ------------------------------------------------------------- comparison


def shift_mismatch(got_chi, got_chip, ref):
    """'' when (chi, chi') match the reference (chi, chi', tol), else why not."""
    if ref is None:
        return "reference could not label (q, n) for q < 2, n < 3"
    chi, chip, tol = ref
    if abs(got_chi - chi) > tol or abs(got_chip - chip) > tol:
        return (f"chi {got_chi!r} vs {chi!r}, chi' {got_chip!r} vs {chip!r} Hz "
                f"(tolerance {tol:.2e} Hz)")
    return ""


def readout_mismatch(got, ref):
    """got and ref are (snr, error, n_final)."""
    snr, err, n_final = ref
    bad = []
    if abs(got[0] - snr) > READOUT_RTOL * abs(snr):
        bad.append(f"snr {got[0]!r} vs {snr!r}")
    if abs(got[2] - n_final) > READOUT_RTOL * abs(n_final):
        bad.append(f"n_final {got[2]!r} vs {n_final!r}")
    log_tol = READOUT_RTOL * max(1.0, 0.5 * snr * snr)
    if err > 0.0 and got[1] > 0.0:
        if abs(math.log(got[1]) - math.log(err)) > log_tol:
            bad.append(f"error {got[1]!r} vs {err!r}")
    elif got[1] != err and max(got[1], err) > 1e-300:
        bad.append(f"error {got[1]!r} vs {err!r}")
    return "; ".join(bad)


def dephasing_mismatch(got_gamma, got_z, ref):
    gamma, z = ref
    bad = []
    if abs(got_gamma - gamma) > GAMMA_RTOL * abs(gamma):
        bad.append(f"gamma {got_gamma!r} vs {gamma!r}")
    if abs(got_z - z) > Z_RTOL * abs(z):
        bad.append(f"Z {got_z!r} vs {z!r}")
    return "; ".join(bad)
