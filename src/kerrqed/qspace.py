"""Truncated operator algebra on small tensor-product Hilbert spaces.

Dense matrices throughout; every problem in this library fits in a few
thousand dimensions.  Hamiltonian entries are angular frequencies (rad/s),
observables and states are dimensionless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HermiticityError

HERMITICITY_RTOL = 1e-12


@dataclass(frozen=True)
class SpinHalf:
    """Two-level factor."""

    @property
    def dim(self) -> int:
        return 2


@dataclass(frozen=True)
class Boson:
    """Bosonic mode truncated at photon number n_max (dimension n_max + 1)."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError(f"Boson cutoff must be >= 1, got {self.n_max}")

    @property
    def dim(self) -> int:
        return self.n_max + 1


@dataclass(frozen=True)
class Charge:
    """Charge basis n in [center - n_max, center + n_max] (dimension 2 n_max + 1)."""

    n_max: int
    center: int = 0

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError(f"Charge cutoff must be >= 1, got {self.n_max}")

    @property
    def dim(self) -> int:
        return 2 * self.n_max + 1

    @property
    def values(self) -> np.ndarray:
        return np.arange(-self.n_max, self.n_max + 1) + self.center


@dataclass(frozen=True)
class HilbertSpace:
    """Ordered tensor product of factors."""

    factors: tuple

    def __post_init__(self):
        if not self.factors:
            raise ValueError("HilbertSpace needs at least one factor")

    @property
    def dim(self) -> int:
        d = 1
        for f in self.factors:
            d *= f.dim
        return d

    def factor_dims(self):
        return tuple(f.dim for f in self.factors)


@dataclass(frozen=True)
class EigenSystem:
    """Ascending real eigenvalues and the unitary of column eigenvectors."""

    energies: np.ndarray
    vectors: np.ndarray


def hermiticity_residual(m: np.ndarray) -> float:
    """Relative Frobenius-norm deviation from Hermiticity."""
    norm = np.linalg.norm(m)
    if norm == 0.0:
        return 0.0
    return np.linalg.norm(m - m.conj().T) / norm


def require_hermitian(m: np.ndarray, rtol: float = HERMITICITY_RTOL, what: str = "operator"):
    res = hermiticity_residual(m)
    if res > rtol:
        raise HermiticityError(f"{what} is not Hermitian: relative residual {res:.3e} > {rtol:.1e}")


def annihilation(n_max: int) -> np.ndarray:
    """Truncated annihilation operator a with a[n-1, n] = sqrt(n); real."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    return np.diag(np.sqrt(np.arange(1, n_max + 1)), k=1)


_PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def pauli(axis: str) -> np.ndarray:
    """Pauli matrix; convention pinned with sigma_y = [[0, -i], [i, 0]]."""
    if axis not in _PAULI:
        raise ValueError(f"axis must be one of x, y, z; got {axis!r}")
    return _PAULI[axis].copy()


def eigendecompose(H: np.ndarray) -> EigenSystem:
    """Full Hermitian eigendecomposition, energies ascending; real
    symmetric H gives real eigenvectors."""
    require_hermitian(H, what="eigendecompose input")
    energies, vectors = np.linalg.eigh(H)
    return EigenSystem(energies=energies, vectors=vectors)
