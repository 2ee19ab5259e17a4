"""Dressed-state labeling and extraction of dispersive / Kerr shifts.

The dressed label q orders bare qubit levels by energy (q = 0 is the bare
ground state).  chi is defined from the n = 0 -> 1 dressed resonator
transition; K_r is the conditioned second difference E(q,2) - 2E(q,1) +
E(q,0) and chi' = (K_r1 - K_r0)/4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import TWO_PI
from .errors import LabelingError
from .models import (
    CptParams,
    MixedCouplingParams,
    build_cpt_hamiltonian,
    build_mixed_spin_boson,
    cpt_island_hamiltonian,
)
from .qspace import Boson, EigenSystem, HilbertSpace, eigendecompose
from .sweep import grid

DEFAULT_OVERLAP_FLOOR = 0.5


@dataclass(frozen=True)
class DressedSpectrum:
    """Labeled dressed eigenstates.

    labels maps (q, n) -> (energy rad/s, overlap, eigenindex); unassigned
    lists eigenindices of best candidates that fell below the overlap floor.
    """

    labels: dict
    unassigned: tuple
    eigensystem: EigenSystem
    space: HilbertSpace

    def energy(self, q: int, n: int) -> float:
        try:
            return self.labels[(q, n)][0]
        except KeyError:
            raise LabelingError(f"no dressed label for (q={q}, n={n})") from None

    def vector(self, q: int, n: int) -> np.ndarray:
        idx = self.labels[(q, n)][2]
        return self.eigensystem.vectors[:, idx]


@dataclass(frozen=True)
class ShiftReport:
    """Extracted shifts, Hz.  chi_prime = (K_r1 - K_r0)/4 by construction."""

    chi: float
    chi_prime: float
    K_r0: float
    K_r1: float
    nu_r_dressed: float
    nu_q_dressed: float


def label_dressed_states(
    es: EigenSystem,
    space: HilbertSpace,
    q_levels: int,
    n_levels: int,
    qubit_energies: np.ndarray,
    boson_freq: float,
    qubit_vectors: np.ndarray | None = None,
    overlap_floor: float = DEFAULT_OVERLAP_FLOOR,
) -> DressedSpectrum:
    """Greedy maximum-overlap assignment of dressed states to bare labels.

    Bare states are |q, n> with the qubit factor first and a Boson factor
    second, visited in ascending bare energy qubit_energies[q] + n boson_freq
    (rad/s).  qubit_vectors columns give the bare qubit states in ascending
    energy; by default the qubit is a SpinHalf with ground state sigma_z = -1
    (basis index 1), matching a +omega_q/2 sigma_z bare Hamiltonian.
    Assignments with best overlap below overlap_floor are left unlabeled.
    """
    if len(space.factors) != 2 or not isinstance(space.factors[1], Boson):
        raise ValueError("labeling expects a two-factor space (qubit x Boson)")
    dq, db = space.factor_dims()
    if q_levels > dq or n_levels > db:
        raise LabelingError(
            f"requested (q_levels={q_levels}, n_levels={n_levels}) exceeds factor "
            f"dimensions ({dq}, {db})"
        )
    if qubit_vectors is None:
        if dq != 2:
            raise ValueError("qubit_vectors required for non-spin qubit factors")
        qubit_vectors = np.array([[0.0, 1.0], [1.0, 0.0]])

    order = sorted(
        ((qubit_energies[q] + n * boson_freq, q, n) for q in range(q_levels) for n in range(n_levels))
    )
    labels = {}
    unassigned = []
    used = set()
    V = es.vectors
    fock = np.eye(db)
    for _, q, n in order:
        bare = np.kron(qubit_vectors[:, q], fock[n])
        overlaps = np.abs(bare.conj() @ V) ** 2
        best = None
        for k in np.argsort(-overlaps):
            if k not in used:
                best = int(k)
                break
        if best is None:
            raise LabelingError("ran out of eigenstates during labeling")
        if overlaps[best] < overlap_floor:
            unassigned.append(best)
            continue
        used.add(best)
        labels[(q, n)] = (float(es.energies[best]), float(overlaps[best]), best)
    return DressedSpectrum(
        labels=labels, unassigned=tuple(unassigned), eigensystem=es, space=space
    )


def extract_shifts(ds: DressedSpectrum) -> ShiftReport:
    """chi, chi', and conditioned self-Kerr values from labeled energies."""
    E = {}
    for q in (0, 1):
        for n in (0, 1, 2):
            E[(q, n)] = ds.energy(q, n)
    wr0 = E[(0, 1)] - E[(0, 0)]
    wr1 = E[(1, 1)] - E[(1, 0)]
    chi = (wr1 - wr0) / (2.0 * TWO_PI)
    K_r0 = (E[(0, 2)] - 2.0 * E[(0, 1)] + E[(0, 0)]) / TWO_PI
    K_r1 = (E[(1, 2)] - 2.0 * E[(1, 1)] + E[(1, 0)]) / TWO_PI
    chi_prime = (K_r1 - K_r0) / 4.0
    return ShiftReport(
        chi=chi,
        chi_prime=chi_prime,
        K_r0=K_r0,
        K_r1=K_r1,
        nu_r_dressed=0.5 * (wr0 + wr1) / TWO_PI,
        nu_q_dressed=(E[(1, 0)] - E[(0, 0)]) / TWO_PI,
    )


def mixed_model_spectrum(p: MixedCouplingParams) -> DressedSpectrum:
    """Diagonalize the minimal mixed model and label (q, n) for q < 2, n < 3."""
    es = eigendecompose(build_mixed_spin_boson(p))
    return label_dressed_states(
        es,
        p.space(),
        q_levels=2,
        n_levels=3,
        qubit_energies=np.array([-0.5 * p.nu_q, 0.5 * p.nu_q]) * TWO_PI,
        boson_freq=TWO_PI * p.nu_r,
    )


def mixed_model_shifts(p: MixedCouplingParams) -> ShiftReport:
    return extract_shifts(mixed_model_spectrum(p))


def chi_prime_noise_floor(p: MixedCouplingParams) -> float:
    """Truncation noise floor: change of extracted chi' when n_max grows by 5."""
    r1 = mixed_model_shifts(p)
    p2 = MixedCouplingParams(p.nu_q, p.nu_r, p.g_X, p.g_P, p.n_max + 5)
    r2 = mixed_model_shifts(p2)
    return abs(r2.chi_prime - r1.chi_prime)


def mixed_shift_grid(nu_q, nu_r, g_X_values, g_P_values, n_max):
    """chi and chi' (Hz) over a (g_X, g_P) grid; arrays indexed [i_gX, i_gP].

    A failed point raises the first failure in grid order."""
    points = grid(
        lambda p: mixed_model_shifts(MixedCouplingParams(**p)),
        {"nu_q": nu_q, "nu_r": nu_r, "n_max": n_max},
        [("g_X", g_X_values), ("g_P", g_P_values)],
    )
    for _, _, exc in points:
        if exc is not None:
            raise exc
    shape = (len(g_X_values), len(g_P_values))
    chi = np.reshape([rep.chi for _, rep, _ in points], shape)
    chip = np.reshape([rep.chi_prime for _, rep, _ in points], shape)
    return chi, chip


def cpt_spectrum(p: CptParams) -> DressedSpectrum:
    """Diagonalize the full CPT model and label (q, n) for q < 3, n < 3;
    the bare qubit basis is the island eigenstates."""
    es = eigendecompose(build_cpt_hamiltonian(p))
    ei, vi = np.linalg.eigh(cpt_island_hamiltonian(p))
    return label_dressed_states(
        es,
        p.space(),
        q_levels=3,
        n_levels=3,
        qubit_energies=ei,
        boson_freq=TWO_PI * p.nu_r_bare,
        qubit_vectors=vi,
    )


def cpt_shifts(p: CptParams) -> ShiftReport:
    return extract_shifts(cpt_spectrum(p))


def chi_analytic(p: MixedCouplingParams) -> float:
    """Leading-order dispersive shift, Hz:
    chi = [w_q (g_X^2 + g_P^2) - 2 w_r g_P g_X] / (w_r^2 - w_q^2)."""
    if p.nu_q == p.nu_r:
        raise ValueError("resonant nu_q = nu_r")
    num = p.nu_q * (p.g_X**2 + p.g_P**2) - 2.0 * p.nu_r * p.g_P * p.g_X
    return num / (p.nu_r**2 - p.nu_q**2)


# Exact diagonalization (and second-order perturbation theory carried out for
# the pinned Pauli convention) gives a dispersive shift of -2x the closed-form
# chi_analytic above; the proportionality is exact, so both share the same
# zero locus.  The numeric extraction is the ground truth.
CHI_ANALYTIC_TO_NUMERIC = -2.0


def chi_zero_gp(g_X: float, nu_q: float, nu_r: float):
    """The two g_P roots of chi = 0: g_P = (g_X/w_q)(w_r +/- sqrt(w_r^2 - w_q^2))."""
    if not nu_r > nu_q > 0:
        raise ValueError("real roots require nu_r > nu_q > 0")
    s = np.sqrt(nu_r**2 - nu_q**2)
    return (g_X / nu_q) * (nu_r - s), (g_X / nu_q) * (nu_r + s)


@dataclass(frozen=True)
class CorrectionCoefficients:
    """Coefficients (Hz) of sigma_z X^2 and sigma_z P^2 in the leading-order
    correction Hamiltonian."""

    c_X2: float
    c_P2: float


def deltaH_coefficients(p: MixedCouplingParams) -> CorrectionCoefficients:
    if p.nu_q == p.nu_r:
        raise ValueError("resonant nu_q = nu_r")
    den = p.nu_r**2 - p.nu_q**2
    c_X2 = (p.nu_r * p.g_P * p.g_X - p.nu_q * p.g_X**2) / den
    c_P2 = (p.nu_r * p.g_P * p.g_X + p.nu_q * p.g_P**2) / den
    return CorrectionCoefficients(c_X2=c_X2, c_P2=c_P2)
