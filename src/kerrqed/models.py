"""Model Hamiltonians: minimal mixed spin-boson coupling, a synthetic
dispersive+Kerr reference, and the Cooper pair transistor (CPT).

Parameters are given as linear frequencies nu (Hz); matrix entries are
angular frequencies omega = 2 pi nu (rad/s).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import TWO_PI
from .qspace import Boson, Charge, HilbertSpace, SpinHalf, annihilation, pauli, require_hermitian


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
        for name in ("g_X", "g_P"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
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
        for name in ("E_J1", "E_J2", "E_C1", "E_C2", "E_Cr", "E_Lr", "n_g", "phi_ext"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
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


class CptOperators(NamedTuple):
    """The CPT Hamiltonians split by their dependence on the asymmetries, rad/s.

    The full Hamiltonian is H0 + E_J_delta V_J + E_C_delta V_C and the bare
    island one I0 + E_J_delta I_J, with V_J, V_C and I_J per Hz of asymmetry.
    Every piece is Hermitian.
    """

    H0: np.ndarray
    V_J: np.ndarray
    V_C: np.ndarray
    I0: np.ndarray
    I_J: np.ndarray

    def hamiltonian(self, E_J_delta, E_C_delta, out=None):
        """The full Hamiltonian at the asymmetries, written into out when given."""
        H = np.multiply(self.V_J, E_J_delta, out=out)
        H += self.H0
        H += E_C_delta * self.V_C
        return H

    def island(self, E_J_delta):
        """The bare island Hamiltonian at the junction asymmetry."""
        return self.I0 + E_J_delta * self.I_J


def cpt_operators(p: CptParams) -> CptOperators:
    """The split of the CPT Hamiltonians at p's sums E_J_sigma and E_C_sigma;
    p's asymmetries are not read.

    H = 4 E_Cr n_d^2 + (E_Lr/2) d^2 + E_CS (n_I - n_g)^2 - E_CD n_d (n_I - n_g)
        - E_JS cos((phi_ext + d)/2) cos(phi_I) + E_JD sin((phi_ext + d)/2) sin(phi_I)

    on Charge(island) x Boson(resonator); the island Hamiltonian freezes the
    resonator at d = 0.  Trig of the d operator is evaluated exactly via its
    eigendecomposition.  Each piece is checked Hermitian and then symmetrized.
    """
    n_I, cos_phi, sin_phi = _island_operators(p)
    delta, n_delta, cos_half, sin_half = _resonator_operators(p)
    Ii = np.eye(n_I.shape[0], dtype=complex)
    Ib = np.eye(p.n_fock + 1, dtype=complex)
    dn = n_I - p.n_g * Ii

    H_osc = 4.0 * p.E_Cr * (n_delta @ n_delta) + 0.5 * p.E_Lr * (delta @ delta)
    pieces = dict(
        H0=np.kron(Ii, H_osc)
        + p.E_C_sigma * np.kron(dn @ dn, Ib)
        - p.E_J_sigma * np.kron(cos_phi, cos_half),
        V_J=np.kron(sin_phi, sin_half),
        V_C=-np.kron(dn, n_delta),
        I0=p.E_C_sigma * (dn @ dn) - p.E_J_sigma * np.cos(p.phi_ext / 2.0) * cos_phi,
        I_J=np.sin(p.phi_ext / 2.0) * sin_phi,
    )
    for name, M in pieces.items():
        require_hermitian(M, what=f"CPT {name}")
        pieces[name] = TWO_PI * (M + M.conj().T) / 2.0
    return CptOperators(**pieces)


def build_cpt_hamiltonian(p: CptParams) -> np.ndarray:
    """Full CPT Hamiltonian on Charge(island) x Boson(resonator), rad/s
    (see cpt_operators).  Complex Hermitian: the E_J_delta and E_C_delta
    terms are imaginary."""
    return cpt_operators(p).hamiltonian(p.E_J_delta, p.E_C_delta)
