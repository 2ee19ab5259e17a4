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
    fidelity,
    hermiticity_residual,
    pauli,
    reduced_state,
    require_density_matrix,
    require_hermitian,
)

rng = np.random.default_rng(20260824)


def random_density(dim):
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


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


def test_reduced_state_product():
    space = HilbertSpace((SpinHalf(), Boson(2)))
    qubit = np.array([1.0, 1.0]) / np.sqrt(2)
    fock = np.array([0.0, 1.0, 0.0])
    v = np.kron(qubit, fock)
    rho = reduced_state(v, space, 0)
    assert np.allclose(rho, np.outer(qubit, qubit))
    purity = np.trace(rho @ rho).real
    assert purity == pytest.approx(1.0, abs=1e-12)


def test_reduced_state_entangled():
    space = HilbertSpace((SpinHalf(), Boson(1)))
    v = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    rho = reduced_state(v, space, 0)
    assert np.allclose(rho, np.eye(2) / 2)


def test_reduced_state_requires_normalization():
    space = HilbertSpace((SpinHalf(), Boson(1)))
    with pytest.raises(ValueError):
        reduced_state(np.ones(4), space, 0)


def test_require_density_matrix():
    require_density_matrix(np.eye(3) / 3)
    with pytest.raises(ValueError):
        require_density_matrix(np.eye(3))


def test_fidelity_basic():
    rho = random_density(4)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    assert fidelity(p0, p1) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_symmetric():
    for _ in range(5):
        r1, r2 = random_density(3), random_density(3)
        assert fidelity(r1, r2) == pytest.approx(fidelity(r2, r1), abs=1e-10)
        assert 0.0 <= fidelity(r1, r2) <= 1.0


def test_fidelity_pure_states():
    # for pure states F = |<a|b>|^2
    a = rng.normal(size=3) + 1j * rng.normal(size=3)
    b = rng.normal(size=3) + 1j * rng.normal(size=3)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    f = fidelity(np.outer(a, a.conj()), np.outer(b, b.conj()))
    assert f == pytest.approx(abs(a.conj() @ b) ** 2, abs=1e-6)
