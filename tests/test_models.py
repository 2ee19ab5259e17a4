import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from kerrqed.constants import TWO_PI
from kerrqed.dephasing import DephasingParams, thermal_occupation
from kerrqed.dispersive import mixed_shift_batch
from kerrqed.models import (
    CptParams,
    MixedCouplingParams,
    build_cpt_hamiltonian,
    build_mixed_spin_boson,
    build_synthetic_dispersive,
    cpt_operators,
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
        ei = np.sort(np.linalg.eigvalsh(cpt_operators(p).island(p.E_J_delta)))
        nu_q = (ei[1] - ei[0]) / TWO_PI
        assert 3e9 < nu_q < 7e9


def kron_cpt_oracle(p):
    """The CPT Hamiltonian and its bare island one as single kron sums, rad/s."""
    charges = np.arange(-p.n_charge_max, p.n_charge_max + 1) + round(p.n_g)
    di = charges.size
    dn = np.diag(charges - p.n_g).astype(complex)
    cos_phi = (np.eye(di, k=1) + np.eye(di, k=-1)) / 2.0
    sin_phi = (np.eye(di, k=1) - np.eye(di, k=-1)) / 2j
    b = np.diag(np.sqrt(np.arange(1.0, p.n_fock + 1)), k=1)
    delta = p.delta_zpf * (b + b.T)
    n_delta = 1j * p.n_zpf * (b.T - b)
    evals, U = np.linalg.eigh(delta)
    cos_half = (U * np.cos((p.phi_ext + evals) / 2.0)) @ U.T
    sin_half = (U * np.sin((p.phi_ext + evals) / 2.0)) @ U.T
    Ib = np.eye(p.n_fock + 1)
    H = (
        np.kron(np.eye(di), 4.0 * p.E_Cr * (n_delta @ n_delta) + 0.5 * p.E_Lr * (delta @ delta))
        + p.E_C_sigma * np.kron(dn @ dn, Ib)
        - p.E_C_delta * np.kron(dn, n_delta)
        - p.E_J_sigma * np.kron(cos_phi, cos_half)
        + p.E_J_delta * np.kron(sin_phi, sin_half)
    )
    island = (
        p.E_C_sigma * (dn @ dn)
        - p.E_J_sigma * np.cos(p.phi_ext / 2.0) * cos_phi
        + p.E_J_delta * np.sin(p.phi_ext / 2.0) * sin_phi
    )
    return [TWO_PI * (M + M.conj().T) / 2.0 for M in (H, island)]


@seed(20261023)
@settings(max_examples=40, deadline=None, database=None)
@given(
    E_J_delta=st.floats(-17e9, 17e9),
    E_C_delta=st.floats(-9.9e9, 9.9e9),
    n_g=st.floats(-2.0, 2.0),
    phi_ext=st.floats(0.0, 2.0 * np.pi),
)
def test_cpt_operator_split_matches_kron_formula(E_J_delta, E_C_delta, n_g, phi_ext):
    p = cpt(
        E_J1=9e9 + E_J_delta / 2,
        E_J2=9e9 - E_J_delta / 2,
        E_C1=5e9 + E_C_delta / 2,
        E_C2=5e9 - E_C_delta / 2,
        n_g=n_g,
        phi_ext=phi_ext,
    )
    H, island = kron_cpt_oracle(p)
    ops = cpt_operators(p)
    for got, ref in ((build_cpt_hamiltonian(p), H), (ops.island(p.E_J_delta), island)):
        assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref)
    for M in ops:
        assert np.array_equal(M, M.conj().T)


def test_hamiltonian_dtypes():
    assert build_mixed_spin_boson(mixed(50e6, 30e6)).dtype == np.float64
    assert build_synthetic_dispersive(2e6, -0.3e6, 8e9, 5e9, n_max=5).dtype == np.float64
    assert build_cpt_hamiltonian(cpt(E_J1=10e9, E_J2=8e9)).dtype == np.complex128


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


INF = float("inf")
READOUT = dict(kappa=3e6, chi=0.0, chi_prime=0.1e6, eta=1.0, n_steady=15.0, t_end=4e-7)


@pytest.mark.parametrize(
    "name, build",
    [
        ("chi", lambda: ReadoutConfig(**{**READOUT, "chi": NAN})),
        ("chi_prime", lambda: ReadoutConfig(**{**READOUT, "chi_prime": INF})),
        ("epsilon", lambda: ReadoutConfig(**READOUT, epsilon=NAN)),
        ("chi", lambda: DephasingParams(kappa=3e6, n_th=0.01, chi=NAN)),
        ("chi_prime", lambda: DephasingParams(kappa=3e6, n_th=0.01, chi_prime=-INF)),
        ("g_X", lambda: MixedCouplingParams(5e9, 8e9, NAN, 0.0, 10)),
        ("g_P", lambda: MixedCouplingParams(5e9, 8e9, 0.0, INF, 10)),
        ("g_X", lambda: mixed_shift_batch(5e9, 8e9, 10, [1e6, NAN], 1e6)),
        ("g_P", lambda: mixed_shift_batch(5e9, 8e9, 10, 1e6, [1e6, -INF])),
    ],
    ids=[
        "readout_chi", "readout_chi_prime", "readout_epsilon", "dephasing_chi",
        "dephasing_chi_prime", "mixed_g_X", "mixed_g_P", "batch_g_X", "batch_g_P",
    ],
)
def test_non_finite_signed_parameters_rejected(name, build):
    # these may be zero or negative, so a positivity check does not catch NaN
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        build()


CPT_ENERGIES = ("E_J1", "E_J2", "E_C1", "E_C2", "E_Cr", "E_Lr")


@pytest.mark.parametrize("value", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", [*CPT_ENERGIES, "n_g", "phi_ext"])
def test_cpt_non_finite_parameters_rejected(name, value):
    # the energies' positivity check runs first and keeps its text for NaN and -inf
    text = "positive" if name in CPT_ENERGIES and not value > 0 else "finite"
    with pytest.raises(ValueError, match=rf"^{name} must be {text}$"):
        cpt(**{name: value})
