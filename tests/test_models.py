import warnings

import numpy as np
import pytest

from kerrqed.constants import TWO_PI
from kerrqed.dephasing import DephasingParams, thermal_occupation
from kerrqed.errors import DegeneratePointError
from kerrqed.models import (
    CptParams,
    MixedCouplingParams,
    build_cpt_hamiltonian,
    build_mixed_spin_boson,
    build_synthetic_dispersive,
    cpt_island_hamiltonian,
    cpt_two_level_couplings,
)
from kerrqed.qspace import hermiticity_residual
from kerrqed.readout import ReadoutConfig

NAN = float("nan")


def mixed(g_X, g_P, n_max=6, nu_q=5e9, nu_r=8e9):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return MixedCouplingParams(nu_q, nu_r, g_X, g_P, n_max)


def cpt(**overrides):
    base = dict(
        E_J1=9e9,
        E_J2=9e9,
        E_C1=5e9,
        E_C2=5e9,
        E_Cr=10e9,
        E_Lr=100e9,
        n_g=0.5,
        phi_ext=3.0,
        n_charge_max=6,
        n_fock=8,
    )
    base.update(overrides)
    return CptParams(**base)


class TestMixedModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            MixedCouplingParams(5e9, 5e9, 1e6, 1e6, 5)
        with pytest.raises(ValueError):
            MixedCouplingParams(-5e9, 8e9, 1e6, 1e6, 5)
        with pytest.raises(ValueError):
            MixedCouplingParams(5e9, 8e9, 1e6, 1e6, 0)

    def test_strong_coupling_warns(self):
        with pytest.warns(UserWarning):
            MixedCouplingParams(5e9, 8e9, 5e8, 0.0, 5)

    def test_hermitian_and_dimension(self):
        H = build_mixed_spin_boson(mixed(50e6, 30e6))
        assert H.shape == (14, 14)
        assert hermiticity_residual(H) < 1e-14

    def test_zero_coupling_diagonal(self):
        p = mixed(0.0, 0.0, n_max=4)
        H = build_mixed_spin_boson(p)
        assert np.allclose(H, np.diag(np.diag(H)))
        # |up, n=0> sits at +wq/2; |down, 0> at -wq/2
        assert H[0, 0] == pytest.approx(TWO_PI * 0.5 * p.nu_q)
        assert H[5, 5] == pytest.approx(-TWO_PI * 0.5 * p.nu_q)
        assert H[1, 1] == pytest.approx(TWO_PI * (0.5 * p.nu_q + p.nu_r))

    def test_rotating_antirotating_content(self):
        # Basis order: |up,0>, |up,1>, ..., |down,0>, |down,1>, ...
        # g_X = -g_P keeps only excitation-conserving terms: the
        # counter-rotating element <up,1|H|down,0> vanishes.
        g = 40e6
        n_max = 5
        H = build_mixed_spin_boson(mixed(g, -g, n_max=n_max))
        up1, down0 = 1, n_max + 1
        assert abs(H[up1, down0]) < 1e-3
        assert abs(H[0, n_max + 2]) == pytest.approx(TWO_PI * 2 * g, rel=1e-12)
        # g_X = +g_P keeps only the counter-rotating terms.
        H = build_mixed_spin_boson(mixed(g, g, n_max=n_max))
        assert abs(H[up1, down0]) == pytest.approx(TWO_PI * 2 * g, rel=1e-12)
        assert abs(H[0, n_max + 2]) < 1e-3


class TestSyntheticDispersive:
    def test_energies(self):
        chi, chip = 2e6, -0.3e6
        nu_r, nu_q = 8e9, 5e9
        H = build_synthetic_dispersive(chi, chip, nu_r, nu_q, n_max=5)
        assert np.allclose(H, np.diag(np.diag(H)))
        for s, offset in ((+1, 0), (-1, 6)):
            for n in range(6):
                want = TWO_PI * (
                    0.5 * nu_q * s + nu_r * n + chi * s * n + chip * s * n * (n - 1)
                )
                assert H[offset + n, offset + n].real == pytest.approx(want, rel=1e-12)

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            build_synthetic_dispersive(1e6, 1e3, 8e9, 5e9, n_max=2)


class TestCpt:
    def test_derived_parameters(self):
        p = cpt(E_J1=10e9, E_J2=8e9, E_C1=7e9, E_C2=3e9)
        assert p.E_J_sigma == pytest.approx(18e9)
        assert p.E_J_delta == pytest.approx(2e9)
        assert p.E_C_sigma == pytest.approx(10e9)
        assert p.E_C_delta == pytest.approx(4e9)
        assert p.nu_r_bare == pytest.approx(np.sqrt(8 * 10e9 * 100e9))
        assert p.delta_zpf == pytest.approx((2 * 10e9 / 100e9) ** 0.25)
        assert p.n_zpf == pytest.approx((100e9 / (32 * 10e9)) ** 0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            cpt(E_J1=-1e9)
        with pytest.raises(ValueError):
            cpt(n_charge_max=3)
        with pytest.raises(ValueError):
            cpt(n_fock=2)

    def test_hermitian(self):
        H = build_cpt_hamiltonian(cpt())
        assert hermiticity_residual(H) < 1e-13
        assert H.shape == (13 * 9, 13 * 9)

    def test_charge_parity_symmetry(self):
        # Balanced junctions and charging shares at n_g = 0, phi_ext = 0:
        # reflecting the island charge n -> -n is a symmetry.
        p = cpt(n_g=0.0, phi_ext=0.0)
        H = build_cpt_hamiltonian(p)
        d = 2 * p.n_charge_max + 1
        R = np.kron(np.fliplr(np.eye(d)), np.eye(p.n_fock + 1))
        comm = H @ R - R @ H
        assert np.linalg.norm(comm) / np.linalg.norm(H) < 1e-10

    def test_decoupled_resonator_spacing(self):
        # With the Josephson terms negligible and E_C_delta = 0 the resonator
        # decouples and its level spacing is sqrt(8 E_Cr E_Lr).
        # Charging energy well above the resonator quantum so the lowest
        # excitation is the resonator one.
        p = cpt(E_J1=1e3, E_J2=1e3, E_C1=100e9, E_C2=100e9, n_g=0.0)
        H = build_cpt_hamiltonian(p)
        evals = np.linalg.eigvalsh(H)
        spacing = (evals[1] - evals[0]) / TWO_PI
        assert spacing == pytest.approx(p.nu_r_bare, rel=1e-3)

    def test_island_qubit_frequency_scale(self):
        # Reference bias point: lowest island splitting in the few-GHz range.
        p = cpt(E_J1=9e9, E_J2=9e9, phi_ext=2.5786)
        ei = np.sort(np.linalg.eigvalsh(cpt_island_hamiltonian(p)))
        nu_q = (ei[1] - ei[0]) / TWO_PI
        assert 3e9 < nu_q < 7e9


def test_hamiltonian_dtypes():
    assert build_mixed_spin_boson(mixed(50e6, 30e6)).dtype == np.float64
    assert build_synthetic_dispersive(2e6, -0.3e6, 8e9, 5e9, n_max=5).dtype == np.float64
    assert build_cpt_hamiltonian(cpt(E_J1=10e9, E_J2=8e9)).dtype == np.complex128


class TestCptTwoLevel:
    def test_degenerate_point(self):
        with pytest.raises(DegeneratePointError):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                cpt_two_level_couplings(cpt(phi_ext=np.pi))

    def test_charging_limit_warning(self):
        with pytest.warns(UserWarning):
            cpt_two_level_couplings(cpt(E_C1=2e9, E_C2=2e9))

    def test_coefficients(self):
        p = cpt(E_J1=10e9, E_J2=8e9, E_C1=12e9, E_C2=8e9, n_g=0.4, phi_ext=2.0)
        c = cpt_two_level_couplings(p)
        EJS, EJD = p.E_J_sigma, p.E_J_delta
        z = -np.cos(1.0) + 1j * (EJD / EJS) * np.sin(1.0)
        assert c.z == pytest.approx(z)
        n_g_prime = 1 - 2 * p.n_g
        m = p.E_C_sigma * n_g_prime / (2 * EJS)
        assert c.m == pytest.approx(m)
        eps = np.hypot(m, abs(z))
        assert c.eps_island == pytest.approx(eps)
        assert c.gX_eff == pytest.approx(p.E_C_delta * abs(z) / (2 * eps))
        assert c.gP_eff == pytest.approx(EJD / abs(z))
        names = [name for name, _ in c.extra_terms]
        assert "delta sigma_z" in names and "delta^2 sigma_x" in names

    def test_n_g_prime_override(self):
        p = cpt(n_g=0.3, E_C1=10e9, E_C2=10e9)
        default = cpt_two_level_couplings(p)
        explicit = cpt_two_level_couplings(p, n_g_prime=1 - 2 * 0.3)
        assert default.m == pytest.approx(explicit.m)
        other = cpt_two_level_couplings(p, n_g_prime=0.0)
        assert other.m == 0.0


@pytest.mark.parametrize(
    "build",
    [
        lambda: ReadoutConfig(kappa=NAN, chi=0.0, chi_prime=0.1e6, eta=1.0, n_steady=15.0, t_end=4e-7),
        lambda: ReadoutConfig(kappa=3e6, chi=0.0, chi_prime=0.1e6, eta=1.0, n_steady=NAN, t_end=4e-7),
        lambda: ReadoutConfig(kappa=3e6, chi=0.0, chi_prime=0.1e6, eta=1.0, n_steady=15.0, t_end=NAN),
        lambda: ReadoutConfig(
            kappa=3e6, chi=0.0, chi_prime=0.1e6, eta=1.0, n_steady=15.0, t_end=4e-7, dt=NAN
        ),
        lambda: DephasingParams(kappa=NAN, n_th=0.1),
        lambda: DephasingParams(kappa=3e6, n_th=NAN),
        lambda: thermal_occupation(NAN, 0.05),
        lambda: thermal_occupation(8e9, NAN),
        lambda: MixedCouplingParams(NAN, 8e9, 0.0, 0.0, 10),
        lambda: MixedCouplingParams(5e9, NAN, 0.0, 0.0, 10),
        lambda: cpt(E_J1=NAN),
        lambda: cpt(E_Lr=NAN),
    ],
    ids=[
        "readout_kappa", "readout_n_steady", "readout_t_end", "readout_dt",
        "dephasing_kappa", "dephasing_n_th", "thermal_nu_r", "thermal_T",
        "mixed_nu_q", "mixed_nu_r", "cpt_E_J1", "cpt_E_Lr",
    ],
)
def test_nan_parameters_rejected(build):
    with pytest.raises(ValueError):
        build()
