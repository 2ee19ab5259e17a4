"""Model Hamiltonians: minimal mixed spin-boson coupling, a synthetic
dispersive+Kerr reference, and the Cooper pair transistor (CPT).

Parameters are given as linear frequencies nu (Hz); matrix entries are
angular frequencies omega = 2 pi nu (rad/s).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .constants import TWO_PI
from .errors import DegeneratePointError
from .qspace import Boson, Charge, HilbertSpace, SpinHalf, annihilation, pauli


STRONG_COUPLING_WARNING = (
    "couplings exceed 10% of the qubit-resonator detuning; "
    "weak-coupling (perturbative) assumptions may fail"
)


def strong_coupling(nu_q, nu_r, g_X, g_P):
    """Whether max(|g_X|, |g_P|) exceeds 10% of |nu_r - nu_q|; elementwise on arrays."""
    return np.maximum(np.abs(g_X), np.abs(g_P)) > 0.1 * np.abs(nu_r - nu_q)


@dataclass(frozen=True)
class MixedCouplingParams:
    """Minimal mixed-coupling model: qubit nu_q, resonator nu_r, couplings
    g_X (sigma_x X) and g_P (sigma_y P), all in Hz."""

    nu_q: float
    nu_r: float
    g_X: float
    g_P: float
    n_max: int

    def __post_init__(self):
        if not (self.nu_q > 0 and self.nu_r > 0):
            raise ValueError("nu_q and nu_r must be positive")
        if self.nu_q == self.nu_r:
            raise ValueError("dispersive regime requires nu_q != nu_r")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if strong_coupling(self.nu_q, self.nu_r, self.g_X, self.g_P):
            warnings.warn(STRONG_COUPLING_WARNING, stacklevel=2)

    def space(self) -> HilbertSpace:
        return HilbertSpace((SpinHalf(), Boson(self.n_max)))


def build_mixed_spin_boson(p: MixedCouplingParams) -> np.ndarray:
    """H/hbar = (w_q/2) s_z + w_r a+a + g_X s_x X + g_P s_y P  on SpinHalf x Boson.

    Real symmetric: s_y P = (i s_y) (a+ - a) with i s_y = [[0, 1], [-1, 0]].
    """
    a = annihilation(p.n_max)
    ad = a.T
    sx, sz = pauli("x").real, pauli("z").real
    isy = (1j * pauli("y")).real
    Ib = np.eye(p.n_max + 1)

    wq, wr = TWO_PI * p.nu_q, TWO_PI * p.nu_r
    gx, gp = TWO_PI * p.g_X, TWO_PI * p.g_P
    return (
        0.5 * wq * np.kron(sz, Ib)
        + wr * np.kron(np.eye(2), ad @ a)
        + gx * np.kron(sx, ad + a)
        + gp * np.kron(isy, ad - a)
    )


def build_synthetic_dispersive(
    chi: float, chi_prime: float, nu_r: float, nu_q: float, n_max: int
) -> np.ndarray:
    """Reference Hamiltonian, diagonal in the product basis (real) on
    SpinHalf x Boson(n_max):
    H/hbar = (w_q/2) s_z + w_r a+a + chi s_z a+a + chi' s_z a+a+aa."""
    if n_max < 3:
        raise ValueError("Kerr extraction needs n_max >= 3")
    n = np.arange(n_max + 1, dtype=float)
    wq, wr = TWO_PI * nu_q, TWO_PI * nu_r
    ca, cpa = TWO_PI * chi, TWO_PI * chi_prime
    diag = []
    for s in (+1.0, -1.0):
        diag.append(0.5 * wq * s + wr * n + ca * s * n + cpa * s * n * (n - 1))
    return np.diag(np.concatenate(diag))


@dataclass(frozen=True)
class CptParams:
    """Cooper pair transistor coupled to a lumped LC resonator.

    Junction energies E_J1, E_J2 and charging shares E_C1, E_C2 define the
    sums/differences E_JS, E_JD, E_CS, E_CD; E_Cr and E_Lr set the resonator
    mode; n_g is the island offset charge (2e units) and phi_ext the external
    flux in radians.  All energies in Hz.
    """

    E_J1: float
    E_J2: float
    E_C1: float
    E_C2: float
    E_Cr: float
    E_Lr: float
    n_g: float
    phi_ext: float
    n_charge_max: int
    n_fock: int

    def __post_init__(self):
        for name in ("E_J1", "E_J2", "E_C1", "E_C2", "E_Cr", "E_Lr"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.n_charge_max < 5:
            raise ValueError("n_charge_max must be >= 5")
        if self.n_fock < 3:
            raise ValueError("n_fock must be >= 3")

    @property
    def E_J_sigma(self) -> float:
        return self.E_J1 + self.E_J2

    @property
    def E_J_delta(self) -> float:
        return self.E_J1 - self.E_J2

    @property
    def E_C_sigma(self) -> float:
        return self.E_C1 + self.E_C2

    @property
    def E_C_delta(self) -> float:
        return self.E_C1 - self.E_C2

    @property
    def delta_zpf(self) -> float:
        return (2.0 * self.E_Cr / self.E_Lr) ** 0.25

    @property
    def n_zpf(self) -> float:
        return (self.E_Lr / (32.0 * self.E_Cr)) ** 0.25

    @property
    def nu_r_bare(self) -> float:
        """Uncoupled resonator frequency sqrt(8 E_Cr E_Lr), Hz."""
        return np.sqrt(8.0 * self.E_Cr * self.E_Lr)

    def space(self) -> HilbertSpace:
        return HilbertSpace(
            (Charge(self.n_charge_max, center=round(self.n_g)), Boson(self.n_fock))
        )


def _island_operators(p: CptParams):
    """Charge operator and the cos/sin phase-shift operators on the island."""
    charge = Charge(p.n_charge_max, center=round(p.n_g))
    d = charge.dim
    n_op = np.diag(charge.values.astype(float)).astype(complex)
    cos_phi = np.zeros((d, d), dtype=complex)
    sin_phi = np.zeros((d, d), dtype=complex)
    for i in range(d - 1):
        cos_phi[i, i + 1] = cos_phi[i + 1, i] = 0.5
        sin_phi[i, i + 1] = 1.0 / 2j
        sin_phi[i + 1, i] = -1.0 / 2j
    return n_op, cos_phi, sin_phi


def _resonator_operators(p: CptParams):
    """delta, n_delta, and exact cos/sin of (phi_ext + delta)/2 in the Fock basis."""
    b = annihilation(p.n_fock)
    bd = b.T
    delta = p.delta_zpf * (b + bd)
    n_delta = 1j * p.n_zpf * (bd - b)
    evals, U = np.linalg.eigh(delta)
    arg = (p.phi_ext + evals) / 2.0
    cos_half = (U * np.cos(arg)) @ U.conj().T
    sin_half = (U * np.sin(arg)) @ U.conj().T
    return delta, n_delta, cos_half, sin_half


def build_cpt_hamiltonian(p: CptParams) -> np.ndarray:
    """Full CPT Hamiltonian on Charge(island) x Boson(resonator), rad/s.

    Complex Hermitian: the E_J_delta and E_C_delta terms are imaginary.

    H = 4 E_Cr n_d^2 + (E_Lr/2) d^2 + E_CS (n_I - n_g)^2 - E_CD n_d (n_I - n_g)
        - E_JS cos((phi_ext + d)/2) cos(phi_I) + E_JD sin((phi_ext + d)/2) sin(phi_I)

    Trig of the d operator is evaluated exactly via its eigendecomposition.
    """
    n_I, cos_phi, sin_phi = _island_operators(p)
    delta, n_delta, cos_half, sin_half = _resonator_operators(p)
    di = n_I.shape[0]
    Ii = np.eye(di, dtype=complex)
    Ib = np.eye(p.n_fock + 1, dtype=complex)
    dn = n_I - p.n_g * Ii

    H_osc = 4.0 * p.E_Cr * (n_delta @ n_delta) + 0.5 * p.E_Lr * (delta @ delta)
    H = (
        np.kron(Ii, H_osc)
        + p.E_C_sigma * np.kron(dn @ dn, Ib)
        - p.E_C_delta * np.kron(dn, n_delta)
        - p.E_J_sigma * np.kron(cos_phi, cos_half)
        + p.E_J_delta * np.kron(sin_phi, sin_half)
    )
    return TWO_PI * (H + H.conj().T) / 2.0


def cpt_island_hamiltonian(p: CptParams) -> np.ndarray:
    """Bare island Hamiltonian (resonator frozen at delta = 0), rad/s."""
    n_I, cos_phi, sin_phi = _island_operators(p)
    dn = n_I - p.n_g * np.eye(n_I.shape[0], dtype=complex)
    H = (
        p.E_C_sigma * (dn @ dn)
        - p.E_J_sigma * np.cos(p.phi_ext / 2.0) * cos_phi
        + p.E_J_delta * np.sin(p.phi_ext / 2.0) * sin_phi
    )
    H = TWO_PI * (H + H.conj().T) / 2.0
    return H


@dataclass(frozen=True)
class CptTwoLevelCouplings:
    """Coefficients of the CPB two-level reduction of the CPT couplings.

    gX_eff multiplies n_delta sigma_x, gP_eff multiplies delta sigma_y;
    extra_terms lists the remaining coefficients with operator signatures.
    All coefficients in Hz.
    """

    z: complex
    m: float
    eps_island: float
    gX_eff: float
    gP_eff: float
    extra_terms: tuple


def cpt_two_level_couplings(p: CptParams, n_g_prime: float | None = None) -> CptTwoLevelCouplings:
    """Rotated two-level coupling coefficients of the CPT in the CPB limit.

    n_g_prime defaults to 1 - 2 n_g (deviation from charge degeneracy in the
    two-level subspace); it can be overridden directly.
    """
    if p.E_C_sigma < p.E_J_sigma:
        warnings.warn(
            "E_C_sigma < E_J_sigma: outside the Cooper-pair-box charging limit; "
            "two-level coefficients are only indicative",
            stacklevel=2,
        )
    if n_g_prime is None:
        n_g_prime = 1.0 - 2.0 * p.n_g
    EJS, EJD = p.E_J_sigma, p.E_J_delta
    ECS, ECD = p.E_C_sigma, p.E_C_delta
    z = -np.cos(p.phi_ext / 2.0) + 1j * (EJD / EJS) * np.sin(p.phi_ext / 2.0)
    if abs(z) < 1e-12:
        raise DegeneratePointError(
            "z = 0 (phi_ext = pi with balanced junctions): island rotation is singular"
        )
    m = ECS * n_g_prime / (2.0 * EJS)
    eps = float(np.hypot(m, abs(z)))
    gX_eff = ECD * abs(z) / (2.0 * eps)
    gP_eff = EJD / abs(z)
    extra = (
        ("n_delta sigma_z", ECD * ECS * n_g_prime / (4.0 * EJS * eps)),
        ("delta sigma_z", (EJS**2 + EJD**2) * np.sin(p.phi_ext) / (4.0 * EJS * eps)),
        ("delta^2 sigma_z", 0.25 * EJS * abs(z) ** 2 / eps),
        (
            "delta sigma_x",
            -ECS * (EJS**2 - EJD**2) * n_g_prime * np.sin(p.phi_ext) / (4.0 * EJS * eps * abs(z)),
        ),
        ("delta^2 sigma_x", 0.25 * EJS * abs(z) * m / eps),
    )
    return CptTwoLevelCouplings(
        z=complex(z), m=m, eps_island=eps, gX_eff=gX_eff, gP_eff=gP_eff, extra_terms=extra
    )
