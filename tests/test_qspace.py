import numpy as np
import pytest

from kerrqed.errors import HermiticityError
from kerrqed.qspace import (
    Boson,
    Charge,
    HilbertSpace,
    SpinHalf,
    annihilation,
    eigendecompose,
    hermiticity_residual,
    pauli,
    require_hermitian,
)

rng = np.random.default_rng(20260824)


def test_factor_dimensions():
    assert SpinHalf().dim == 2
    assert Boson(7).dim == 8
    assert Charge(6).dim == 13
    space = HilbertSpace((SpinHalf(), Boson(4)))
    assert space.dim == 10
    assert space.factor_dims() == (2, 5)


def test_charge_values_centered():
    c = Charge(2, center=3)
    assert list(c.values) == [1, 2, 3, 4, 5]


def test_boson_cutoff_validation():
    with pytest.raises(ValueError):
        Boson(0)
    with pytest.raises(ValueError):
        Charge(0)


def test_annihilation_commutator():
    n_max = 9
    a = annihilation(n_max)
    assert a.dtype == np.float64
    comm = a @ a.conj().T - a.conj().T @ a
    # the identity holds everywhere except the truncation corner
    expected = np.eye(n_max + 1)
    expected[-1, -1] = -n_max
    assert np.allclose(comm, expected)


def test_pauli_algebra():
    sx, sy, sz = (pauli(ax) for ax in "xyz")
    assert np.allclose(sy, [[0, -1j], [1j, 0]])
    assert np.allclose(sx @ sy, 1j * sz)
    assert np.allclose(sx @ sx, np.eye(2))
    with pytest.raises(ValueError):
        pauli("w")


def test_hermiticity_check():
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert hermiticity_residual(m + m.conj().T) < 1e-15
    with pytest.raises(HermiticityError):
        require_hermitian(m)


def test_eigendecompose_reconstruction():
    dim = 12
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    H = m + m.conj().T
    es = eigendecompose(H)
    assert np.all(np.diff(es.energies) >= 0)
    rebuilt = (es.vectors * es.energies) @ es.vectors.conj().T
    assert np.allclose(rebuilt, H, atol=1e-10)

