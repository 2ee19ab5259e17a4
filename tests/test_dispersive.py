import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

import kerrqed.dispersive
from kerrqed.constants import TWO_PI
from kerrqed.dispersive import (
    BATCH_CHUNK,
    CHI_ANALYTIC_TO_NUMERIC,
    CPT_CHUNK,
    SHIFT_LABELS,
    _mixed_blocks,
    chi_analytic,
    chi_prime_noise_floor,
    chi_zero_gp,
    cpt_shift_batch,
    cpt_shifts,
    extract_shifts,
    label_dressed_states,
    mixed_model_shifts,
    mixed_model_spectrum,
    mixed_shift_batch,
    mixed_shift_grid,
)
from kerrqed.errors import LabelingError
from kerrqed.models import (
    CptParams,
    MixedCouplingParams,
    build_cpt_hamiltonian,
    build_mixed_spin_boson,
    build_synthetic_dispersive,
    cpt_operators,
)
from kerrqed.qspace import (
    Boson,
    HilbertSpace,
    SpinHalf,
    annihilation,
    eigendecompose,
)

rng = np.random.default_rng(7)


def mixed(g_X, g_P, n_max=10, nu_q=5e9, nu_r=8e9):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return MixedCouplingParams(nu_q, nu_r, g_X, g_P, n_max)


class TestLabeling:
    def test_zero_coupling_identity(self):
        ds = mixed_model_spectrum(mixed(0.0, 0.0, n_max=5))
        for (q, n), (_, overlap, _) in ds.labels.items():
            assert overlap == pytest.approx(1.0, abs=1e-12)
        assert ds.unassigned == ()

    def test_perturbative_overlaps(self):
        # g / detuning = 0.01
        ds = mixed_model_spectrum(mixed(30e6, 0.0, n_max=8))
        for (_, _), (_, overlap, _) in ds.labels.items():
            assert overlap > 0.99

    def test_resonant_hybridization(self):
        # On-resonance Jaynes-Cummings doublets: dressed states are 50/50
        # mixtures, so they fall below a 0.6 floor and stay unassigned.
        nu = 6e9
        g = 50e6
        n_max = 4
        space = HilbertSpace((SpinHalf(), Boson(n_max)))
        a = np.diag(np.sqrt(np.arange(1, n_max + 1)), k=1).astype(complex)
        sm = np.array([[0, 0], [1, 0]], dtype=complex)  # lowers |up> -> |down>
        n_op = a.conj().T @ a
        sz = np.diag([1.0, -1.0]).astype(complex)
        H = TWO_PI * (
            0.5 * nu * np.kron(sz, np.eye(n_max + 1))
            + nu * np.kron(np.eye(2), n_op)
            + g * (np.kron(sm.T, a) + np.kron(sm, a.conj().T))
        )
        es = eigendecompose(H)
        ds = label_dressed_states(
            es,
            space,
            q_levels=2,
            n_levels=2,
            qubit_energies=np.array([-0.5, 0.5]) * TWO_PI * nu,
            boson_freq=TWO_PI * nu,
            overlap_floor=0.6,
        )
        assert len(ds.unassigned) > 0
        assert (1, 0) not in ds.labels or (0, 1) not in ds.labels

    def test_unassigned_lists_each_index_once(self):
        # criterion-9 circuit at (E_J_delta, E_C_delta) = (1.5, 8.8) GHz: the
        # (0, 2) and (1, 2) best candidates are both eigenindex 15, below the floor
        ejd, ecd = 1.5e9, 8.8e9
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
        ds = cpt_reference_spectrum(p)
        assert ds.unassigned == (15,)
        assert sorted(ds.labels) == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]
        # the per-point solve raises the first missing label's failure
        with pytest.raises(LabelingError, match=r"^no dressed label for \(q=0, n=2\)$"):
            cpt_shifts(p)

    def test_missing_label_raises(self):
        ds = mixed_model_spectrum(mixed(0.0, 0.0, n_max=5))
        with pytest.raises(LabelingError):
            ds.energy(5, 0)

    def test_too_many_levels_raises(self):
        es = eigendecompose(build_synthetic_dispersive(0, 0, 8e9, 5e9, 3))
        space = HilbertSpace((SpinHalf(), Boson(3)))
        with pytest.raises(LabelingError):
            label_dressed_states(
                es,
                space,
                q_levels=2,
                n_levels=10,
                qubit_energies=np.array([-0.5, 0.5]) * TWO_PI * 5e9,
                boson_freq=TWO_PI * 8e9,
            )


def reference_labels(
    es, space, q_levels, n_levels, qubit_energies, boson_freq, qubit_vectors=None,
    overlap_floor=0.5,
):
    """label_dressed_states as it was before one greedy assignment served
    every model, kept verbatim as the reference: (labels, unassigned)."""
    dq, db = space.factor_dims()
    if qubit_vectors is None:
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
            if best not in unassigned:
                unassigned.append(best)
            continue
        used.add(best)
        labels[(q, n)] = (float(es.energies[best]), float(overlaps[best]), best)
    return labels, tuple(unassigned)


def assert_labels_match_reference(es, space, **kwargs):
    labels, unassigned = reference_labels(es, space, **kwargs)
    ds = label_dressed_states(es, space, **kwargs)
    assert ds.unassigned == unassigned
    assert list(ds.labels) == list(labels)
    for label, (energy, overlap, k) in labels.items():
        assert ds.labels[label][2] == k
        assert ds.labels[label][0] == energy
        assert abs(ds.labels[label][1] - overlap) <= 1e-14


def criterion9_cpt(E_J_delta, E_C_delta, n_g=0.5, phi_ext=3.0):
    # E_J_sigma = 18 GHz, E_C_sigma = 10 GHz, E_Cr = 10 GHz, E_Lr = 100 GHz
    return CptParams(
        E_J1=9e9 + E_J_delta / 2,
        E_J2=9e9 - E_J_delta / 2,
        E_C1=5e9 + E_C_delta / 2,
        E_C2=5e9 - E_C_delta / 2,
        E_Cr=10e9,
        E_Lr=100e9,
        n_g=n_g,
        phi_ext=phi_ext,
        n_charge_max=6,
        n_fock=8,
    )


# The benchmark's cpt_sweep box, and the criterion-9 line E_J_delta = 1.5 GHz
# where the (0, 2) and (1, 2) labels fall below the floor and come back
# swapped.  Seeds and ranges are fixed; do not narrow them.
CPT_BOX = st.tuples(
    st.floats(-3.0e9, 3.0e9), st.floats(-9.0e9, 9.0e9), st.floats(0.40, 0.50), st.floats(2.80, 2.95)
)
CPT_LINE = st.tuples(st.just(1.5e9), st.floats(7.5e9, 9.0e9), st.just(0.5), st.just(3.0))


class TestGreedyMatchesReference:
    @seed(20261020)
    @settings(max_examples=300, deadline=None, database=None)
    @given(
        n_max=st.integers(3, 8),
        dtype=st.sampled_from([float, complex]),
        strength=st.floats(-3.0, 1.0).map(lambda x: 10.0**x),
        floor=st.sampled_from([0.5, 0.6]),
        data=st.data(),
    )
    def test_random_hamiltonians(self, n_max, dtype, strength, floor, data):
        # bare levels from random qubit energies plus a random Hermitian
        # coupling of random strength relative to the level spacing
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        db = n_max + 1
        qubit_energies = np.sort(rng.uniform(-1.0, 1.0, 2))
        boson_freq = rng.uniform(0.1, 1.0)
        diagonal = np.concatenate([qubit_energies[q] + boson_freq * np.arange(db) for q in (1, 0)])
        A = rng.normal(size=(2 * db, 2 * db))
        if dtype is complex:
            A = A + 1j * rng.normal(size=A.shape)
        A = (A + A.conj().T) / 2.0
        H = np.diag(diagonal).astype(dtype) + strength * boson_freq * A / np.linalg.norm(A, 2)
        assert_labels_match_reference(
            eigendecompose(H),
            HilbertSpace((SpinHalf(), Boson(n_max))),
            q_levels=data.draw(st.integers(1, 2)),
            n_levels=data.draw(st.integers(1, db)),
            qubit_energies=qubit_energies,
            boson_freq=boson_freq,
            overlap_floor=floor,
        )

    @seed(20261021)
    @settings(max_examples=60, deadline=None, database=None)
    @given(point=st.one_of(CPT_BOX, CPT_LINE))
    @example(point=(1.5e9, 8.8e9, 0.5, 3.0))
    @example(point=(1.5e9, 9.0e9, 0.5, 3.0))
    def test_cpt_points(self, point):
        p = criterion9_cpt(*point)
        ei, vi = np.linalg.eigh(cpt_operators(p).island(p.E_J_delta))
        assert_labels_match_reference(
            eigendecompose(build_cpt_hamiltonian(p)),
            p.space(),
            q_levels=3,
            n_levels=3,
            qubit_energies=ei,
            boson_freq=TWO_PI * p.nu_r_bare,
            qubit_vectors=vi,
        )


def tiny_shifts():
    """Shifts of either sign with magnitude 1e-6 to 1 Hz."""
    return st.tuples(st.sampled_from([1.0, -1.0]), st.floats(1e-6, 1.0)).map(lambda s: s[0] * s[1])


class TestExtraction:
    def test_synthetic_round_trip(self):
        chi, chip = -2.4e6, 37e3
        H = build_synthetic_dispersive(chi, chip, 8e9, 5e9, n_max=6)
        ds = label_dressed_states(
            eigendecompose(H),
            HilbertSpace((SpinHalf(), Boson(6))),
            q_levels=2,
            n_levels=3,
            qubit_energies=np.array([-0.5, 0.5]) * TWO_PI * 5e9,
            boson_freq=TWO_PI * 8e9,
        )
        rep = extract_shifts(ds)
        assert rep.chi == pytest.approx(chi, rel=1e-9)
        assert rep.chi_prime == pytest.approx(chip, rel=1e-9)
        nu_q_dressed = (ds.energy(1, 0) - ds.energy(0, 0)) / TWO_PI
        assert nu_q_dressed == pytest.approx(5e9, rel=1e-9)

    @seed(20261020)
    @settings(max_examples=200, deadline=None, database=None)
    @given(
        chi=st.one_of(st.just(0.0), tiny_shifts(), st.floats(-5e6, 5e6)),
        chip=st.one_of(st.just(0.0), tiny_shifts(), st.floats(-1e6, 1e6)),
        n_max=st.integers(3, 8),
    )
    def test_synthetic_oracle_recovers_any_shift(self, chi, chip, n_max):
        # absolute, so a shift of 0 or 1e-6 Hz is recovered to round-off of
        # the level energies; 20,000 seeded draws of this box fit within
        # 0.03 of it
        H = build_synthetic_dispersive(chi, chip, 8e9, 5e9, n_max=n_max)
        ds = label_dressed_states(
            eigendecompose(H),
            HilbertSpace((SpinHalf(), Boson(n_max))),
            q_levels=2,
            n_levels=3,
            qubit_energies=np.array([-0.5, 0.5]) * TWO_PI * 5e9,
            boson_freq=TWO_PI * 8e9,
        )
        rep = extract_shifts(ds)
        tol = 10 * np.finfo(float).eps * np.linalg.norm(H, 2) / TWO_PI
        assert abs(rep.chi - chi) <= tol
        assert abs(rep.chi_prime - chip) <= tol

    def test_kerr_quarter_of_conditioned_difference(self):
        ds = mixed_model_spectrum(mixed(60e6, 20e6))
        K_r0, K_r1 = (
            (ds.energy(q, 2) - 2 * ds.energy(q, 1) + ds.energy(q, 0)) / TWO_PI for q in (0, 1)
        )
        assert extract_shifts(ds).chi_prime == pytest.approx((K_r1 - K_r0) / 4, rel=1e-12)

    def test_cutoff_convergence(self):
        r1 = mixed_model_shifts(mixed(50e6, 50e6, n_max=10))
        r2 = mixed_model_shifts(mixed(50e6, 50e6, n_max=16))
        assert r1.chi == pytest.approx(r2.chi, rel=1e-6)


class TestRealMixedHamiltonian:
    """The real mixed H gives the shifts of its complex cast up to round-off."""

    @staticmethod
    def points():
        # 20 points of the benchmark's shift_sweep box, points near the
        # nu_q = nu_r avoided crossing, and one ultrastrong point whose
        # labeling fails.
        box_rng = np.random.default_rng(20261018)
        box = [
            (box_rng.uniform(4.5e9, 5.5e9), box_rng.uniform(0.0, 150e6), box_rng.uniform(0.0, 150e6))
            for _ in range(20)
        ]
        near = [
            (nu_q, g_X, g_P)
            for nu_q in (7.99e9, 7.999e9, 8.001e9, 8.01e9)
            for g_X, g_P in ((40e6, 20e6), (100e6, -100e6), (5e6, 5e6))
        ]
        return box + near + [(4e9, 3e9, 1e9)]

    def test_matches_complex_cast(self, monkeypatch):
        eps = np.finfo(np.float64).eps
        for nu_q, g_X, g_P in self.points():
            p = mixed(g_X, g_P, nu_q=nu_q)
            tol = 1e3 * eps * np.linalg.norm(build_mixed_spin_boson(p), 2) / TWO_PI
            reports = []
            for ladder in (annihilation, lambda n: annihilation(n).astype(complex)):
                monkeypatch.setattr(kerrqed.dispersive, "annihilation", ladder)
                try:
                    reports.append(mixed_model_shifts(p))
                except LabelingError:
                    reports.append(None)
            real, cplx = reports
            assert (real is None) == (cplx is None), (nu_q, g_X, g_P)
            if real is not None:
                assert abs(real.chi - cplx.chi) <= tol, (nu_q, g_X, g_P)
                assert abs(real.chi_prime - cplx.chi_prime) <= tol, (nu_q, g_X, g_P)

    def test_grid_raises_failed_point(self):
        # the ultrastrong point of points(), inside a grid
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(LabelingError):
                mixed_shift_grid(4e9, 8e9, [10e6, 3e9], [1e9], 10)


NU_R = 8e9
# Points of the benchmark's shift_sweep box (nu_q 4.5-5.5 GHz, g 0-150 MHz)
# and of nu_q within 10 MHz of nu_r (g of either sign up to 150 MHz), at
# nu_r = 8 GHz and n_max = 10.  Seeds and ranges are fixed; do not narrow them.
BOX = (st.floats(4.5e9, 5.5e9), (0.0, 150e6))
NEAR = (st.floats(7.99e9, 8.01e9).filter(lambda nu_q: nu_q != NU_R), (-150e6, 150e6))
ULTRASTRONG = (4e9, 3e9, 1e9)  # (nu_q, g_X, g_P): labeling fails


def region_points(region):
    nu_q, (lo, hi) = region
    return st.tuples(nu_q, st.floats(lo, hi), st.floats(lo, hi))


def per_point_spectrum(p):
    """The per-point path the batched engine replaced: a full
    eigendecompose of H and label_dressed_states."""
    return label_dressed_states(
        eigendecompose(build_mixed_spin_boson(p)),
        p.space(),
        q_levels=2,
        n_levels=3,
        qubit_energies=np.array([-0.5 * p.nu_q, 0.5 * p.nu_q]) * TWO_PI,
        boson_freq=TWO_PI * p.nu_r,
    )


def per_point_shifts(p):
    return extract_shifts(per_point_spectrum(p))


def cpt_reference_spectrum(p):
    """The full-basis CPT path, independent of the batched solve: a full
    eigendecompose of H and label_dressed_states for q, n < 3, with the
    island eigenstates as the bare qubit basis."""
    ei, vi = np.linalg.eigh(cpt_operators(p).island(p.E_J_delta))
    return label_dressed_states(
        eigendecompose(build_cpt_hamiltonian(p)),
        p.space(),
        q_levels=3,
        n_levels=3,
        qubit_energies=ei,
        boson_freq=TWO_PI * p.nu_r_bare,
        qubit_vectors=vi,
    )


class TestBatchedEngine:
    @seed(20261018)
    @settings(max_examples=150, deadline=None, database=None)
    @given(point=st.one_of(region_points(BOX), region_points(NEAR)))
    @example(point=ULTRASTRONG)
    def test_matches_per_point_path(self, point):
        nu_q, g_X, g_P = point
        p = mixed(g_X, g_P, nu_q=nu_q, nu_r=NU_R)
        outcomes = []
        for solve in (per_point_shifts, mixed_model_shifts):
            try:
                outcomes.append(solve(p))
            except LabelingError:
                outcomes.append(None)
        ref, got = outcomes
        eps = np.finfo(np.float64).eps
        tol = 1e3 * eps * np.linalg.norm(build_mixed_spin_boson(p), 2) / TWO_PI
        assert (ref is None) == (got is None)
        if ref is not None:
            assert abs(got.chi - ref.chi) <= tol
            assert abs(got.chi_prime - ref.chi_prime) <= tol
        # the same labels as the full-basis path, at the same energies
        ds, ref_ds = mixed_model_spectrum(p), per_point_spectrum(p)
        assert ds.labels.keys() == ref_ds.labels.keys()
        assert len(ds.unassigned) == len(ref_ds.unassigned)
        for label, (energy, _, _) in ref_ds.labels.items():
            assert abs(ds.labels[label][0] - energy) / TWO_PI <= tol
        # every labeled vector has a definite parity sigma_z (-1)^(a+a)
        parity = np.kron([1.0, -1.0], (-1.0) ** np.arange(p.n_max + 1))
        for q, n in ds.labels:
            v = ds.vector(q, n)
            assert abs(v @ (parity * v)) >= 1.0 - 1e-12

    @seed(20261019)
    @settings(max_examples=8, deadline=None, database=None)
    @given(region=st.sampled_from([BOX, NEAR]), data=st.data())
    def test_batch_of_one_is_bitwise_in_batch(self, region, data):
        # BATCH_CHUNK + 44 drawn points plus the ultrastrong couplings span two chunks
        nu_q = data.draw(region[0])
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        g_X = np.append(rng.uniform(*region[1], BATCH_CHUNK + 44), ULTRASTRONG[1])
        g_P = np.append(rng.uniform(*region[1], BATCH_CHUNK + 44), ULTRASTRONG[2])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            chi, chi_prime, errors = mixed_shift_batch(nu_q, NU_R, 10, g_X, g_P)
        for i in range(g_X.size):
            try:
                rep = mixed_model_shifts(mixed(g_X[i], g_P[i], nu_q=nu_q, nu_r=NU_R))
            except LabelingError as exc:
                assert str(errors[i]) == str(exc) and np.isnan(chi[i])
                continue
            assert errors[i] is None
            assert chi[i] == rep.chi and chi_prime[i] == rep.chi_prime


@seed(20261024)
@settings(max_examples=30, deadline=None, database=None)
@given(
    nu_q=st.one_of(st.floats(4.5e9, 5.5e9), NEAR[0]),
    nu_r=st.sampled_from([NU_R, 6.3e9]),
    n_max=st.integers(2, 16),
)
def test_mixed_blocks_restrict_full_build(nu_q, nu_r, n_max):
    # H0, V_X and V_P from their formulas are the full build's, as exact
    # differences of builds at 1 Hz couplings, restricted to each parity
    # block's rows in ascending order, bitwise; the full H0 has nothing off
    # its diagonal, and at nonzero couplings the full H has nothing between
    # the two blocks
    build = lambda g_X, g_P: build_mixed_spin_boson(mixed(g_X, g_P, n_max, nu_q, nu_r))
    H0 = build(0.0, 0.0)
    assert np.array_equal(H0, np.diag(np.diag(H0)))
    V_X, V_P = build(1.0, 0.0) - H0, build(0.0, 1.0) - H0
    parity = np.kron([1, -1], (-1) ** np.arange(n_max + 1))
    assert np.all(build(40e6, -70e6)[parity[:, None] != parity[None, :]] == 0.0)
    rows, blocks = _mixed_blocks(nu_q, nu_r, n_max)
    for r, s, block in zip(rows, (1, -1), blocks, strict=True):
        assert np.array_equal(r, np.flatnonzero(parity == s))
        for M, full in zip(block[:3], (H0, V_X, V_P), strict=True):
            assert np.array_equal(M, full[np.ix_(r, r)])
            assert np.array_equal(M, M.T)


def test_n_max_1_lacks_the_n_2_labels():
    # chi' reads the n = 2 levels, so both paths refuse n_max = 1 alike
    message = "requested (q_levels=2, n_levels=3) exceeds factor dimensions (2, 2)"
    with pytest.raises(LabelingError) as batch:
        mixed_shift_batch(5e9, 8e9, 1, [10e6], [20e6])
    with pytest.raises(LabelingError) as point:
        mixed_model_shifts(mixed(10e6, 20e6, n_max=1))
    assert str(batch.value) == str(point.value) == message


# The dispersive box of the perturbative checks: nu_q 3-10 GHz, nu_r 4-9 GHz,
# |Delta| >= 0.5 GHz, g_e / |Delta| <= 0.16 with g_e = |g_X| + |g_P| split by
# share, either sign of each coupling.  Never narrow it.
DISPERSIVE_BOX = dict(
    nu_q=st.floats(3e9, 10e9),
    nu_r=st.floats(4e9, 9e9),
    ratio=st.floats(0.0, 0.16),
    share=st.floats(0.0, 1.0),
    sign_X=st.sampled_from([1.0, -1.0]),
    sign_P=st.sampled_from([1.0, -1.0]),
)


def box_point(nu_q, nu_r, ratio, share, sign_X, sign_P):
    """The n_max = 10 params of a DISPERSIVE_BOX draw, and the bound
    40 g_e^6 / |Delta|^5 + 100 eps ||H||_2 / 2 pi on its sixth-order rest."""
    detuning = abs(nu_q - nu_r)
    assume(detuning >= 0.5e9)
    g_X, g_P = sign_X * share * ratio * detuning, sign_P * (1 - share) * ratio * detuning
    p = mixed(g_X, g_P, nu_q=nu_q, nu_r=nu_r)
    round_off = 100 * np.finfo(float).eps * np.linalg.norm(build_mixed_spin_boson(p), 2) / TWO_PI
    g_e = abs(g_X) + abs(g_P)
    return p, 40 * g_e**6 / detuning**5 + round_off


def pt4_shifts(p):
    """chi and chi' (Hz) of fourth-order Rayleigh-Schroedinger perturbation
    theory on the bare basis, with no truncation error.

    H = H0 + V with H0 the diagonal of the full build and V the rest.  For
    bare state k, with D_m = E_k - E_m and sums over states other than k,
    E2 = sum |V_mk|^2 / D_m and
    E4 = sum V_km V_ml V_lj V_jk / (D_m D_l D_j) - E2 sum |V_mk|^2 / D_m^2;
    E1 = E3 = 0, as V flips the qubit.  A fourth-order path moves at most
    two photons, so n_max = 4 holds every path from n <= 2.  The bare
    energies cancel from chi and chi', so only E2 + E4 enters.
    """
    n_max = 4
    H = build_mixed_spin_boson(mixed(p.g_X, p.g_P, n_max, p.nu_q, p.nu_r))
    E0 = np.diag(H)
    V = H - np.diag(E0)
    E = {}
    for q, n in SHIFT_LABELS:
        k = (1 - q) * (n_max + 1) + n  # |q=0> is sigma_z = -1, basis index 1
        others = np.arange(E0.size) != k
        inv_D = np.divide(1.0, E0[k] - E0, out=np.zeros_like(E0), where=others)
        w = V[:, k] * inv_D  # V_mk / D_m
        E2 = V[k] @ w
        E[(q, n)] = E2 + w @ V @ (inv_D * (V @ w)) - E2 * (w @ w)
    chi = ((E[(1, 1)] - E[(1, 0)]) - (E[(0, 1)] - E[(0, 0)])) / (2 * TWO_PI)
    K_r0, K_r1 = ((E[(q, 2)] - 2 * E[(q, 1)] + E[(q, 0)]) / TWO_PI for q in (0, 1))
    return chi, (K_r1 - K_r0) / 4


class TestAnalyticFormulas:
    def test_chi_analytic_value(self):
        # nu_q=5 GHz, nu_r=8 GHz, g_X=g_P=50 MHz
        p = mixed(50e6, 50e6)
        assert chi_analytic(p) == pytest.approx(-384615.3846, rel=1e-6)

    def test_analytic_numeric_proportionality(self):
        # perturbative regime |g|/detuning <= 0.02
        for gx, gp in ((30e6, 0.0), (0.0, 30e6), (20e6, 40e6), (40e6, 15e6)):
            p = mixed(gx, gp, n_max=12)
            num = mixed_model_shifts(p).chi
            ana = CHI_ANALYTIC_TO_NUMERIC * chi_analytic(p)
            assert abs(num - ana) <= 0.05 * abs(ana) + 1e3

    def test_zero_roots_annihilate_analytic(self):
        lo, hi = chi_zero_gp(80e6, 5e9, 8e9)
        for root in (lo, hi):
            p = mixed(80e6, root)
            assert abs(chi_analytic(p)) < 1e-3
        with pytest.raises(ValueError):
            chi_zero_gp(80e6, 8e9, 5e9)

    def test_numeric_chi_small_on_zero_locus(self):
        g_X = 80e6
        lo, _ = chi_zero_gp(g_X, 5e9, 8e9)
        on_locus = abs(mixed_model_shifts(mixed(g_X, lo, n_max=12)).chi)
        off_locus = abs(mixed_model_shifts(mixed(g_X, g_X, n_max=12)).chi)
        assert on_locus < 0.01 * off_locus

    @seed(20261026)
    @settings(max_examples=500, deadline=None, database=None)
    @given(**DISPERSIVE_BOX)
    @example(nu_q=10e9, nu_r=4e9, ratio=0.01, share=0.0, sign_X=1.0, sign_P=1.0)
    def test_fourth_order_identity(self, nu_q, nu_r, ratio, share, sign_X, sign_P):
        # chi = -2 chi_analytic + 2 chi' + O(g_e^6 / |Delta|^5), g_e = |g_X| + |g_P|,
        # over g_e / |Delta| <= 0.16 and |Delta| >= 0.5 GHz.  The rest's
        # constant peaks at 31.5 in this box, for one coupling as g_e -> 0 at
        # the corner nu_q = 10 GHz, nu_r = 4 GHz (the example); the seeded
        # draws fit at most 30.2.
        p, bound = box_point(nu_q, nu_r, ratio, share, sign_X, sign_P)
        rep = mixed_model_shifts(p)
        rest = rep.chi - (CHI_ANALYTIC_TO_NUMERIC * chi_analytic(p) + 2 * rep.chi_prime)
        assert abs(rest) <= bound

    @seed(20261027)
    @settings(max_examples=500, deadline=None, database=None)
    @given(**DISPERSIVE_BOX)
    @example(nu_q=9.75e9, nu_r=4.25e9, ratio=0.02, share=0.0, sign_X=1.0, sign_P=1.0)
    def test_fourth_order_perturbation_theory(self, nu_q, nu_r, ratio, share, sign_X, sign_P):
        # exact diagonalization at n_max = 10 gives chi and chi' of fourth-order
        # perturbation theory up to O(g_e^6 / |Delta|^5).  The constant peaks
        # near 23.5 for chi' on a dense grid of this box, at nu_q = 9.75 GHz,
        # nu_r = 4.25 GHz with g_P = 110 MHz alone (the example).
        p, bound = box_point(nu_q, nu_r, ratio, share, sign_X, sign_P)
        rep = mixed_model_shifts(p)
        chi, chi_prime = pt4_shifts(p)
        assert abs(rep.chi - chi) <= bound
        assert abs(rep.chi_prime - chi_prime) <= bound


class TestNoiseFloor:
    def test_floor_much_smaller_than_signal(self):
        p = mixed(100e6, 30e6, n_max=10)
        floor = chi_prime_noise_floor(p)
        signal = abs(mixed_model_shifts(p).chi_prime)
        assert floor < 0.1 * signal


# The sums and resonator of the criterion-9 circuit, as a cpt_sweep base.
CPT9 = {"E_J_sigma": 18e9, "E_C_sigma": 10e9, "E_Cr": 10e9, "E_Lr": 100e9, "n_charge_max": 6, "n_fock": 8}


def sweep_point(base, E_J_delta, E_C_delta):
    """The per-point CptParams of a cpt_sweep point."""
    S, C = base["E_J_sigma"], base["E_C_sigma"]
    return CptParams(
        E_J1=0.5 * (S + E_J_delta),
        E_J2=0.5 * (S - E_J_delta),
        E_C1=0.5 * (C + E_C_delta),
        E_C2=0.5 * (C - E_C_delta),
        **{k: base[k] for k in ("E_Cr", "E_Lr", "n_g", "phi_ext", "n_charge_max", "n_fock")},
    )


def assert_batch_matches_per_point(base, E_J_delta, E_C_delta):
    """cpt_shift_batch against the full-basis path on each point's own
    CptParams: the same failure, or shifts within 1e3 eps ||H||_2 / 2 pi."""
    chi, chi_prime, errors = cpt_shift_batch(base, E_J_delta, E_C_delta)
    E_J_delta, E_C_delta = (a.ravel() for a in np.broadcast_arrays(E_J_delta, E_C_delta))
    for i, point in enumerate(zip(E_J_delta, E_C_delta)):
        try:
            p = sweep_point(base, *point)
            rep = extract_shifts(cpt_reference_spectrum(p))
        except (ValueError, LabelingError) as exc:
            assert type(errors[i]) is type(exc) and str(errors[i]) == str(exc), point
            assert np.isnan(chi[i]) and np.isnan(chi_prime[i])
            continue
        assert errors[i] is None, point
        tol = 1e3 * np.finfo(np.float64).eps * np.linalg.norm(build_cpt_hamiltonian(p), 2) / TWO_PI
        assert abs(chi[i] - rep.chi) <= tol and abs(chi_prime[i] - rep.chi_prime) <= tol, point
    return errors


class TestCptBatch:
    @seed(20261025)
    @settings(max_examples=60, deadline=None, database=None)
    @given(point=st.one_of(CPT_BOX, CPT_LINE))
    @example(point=(1.5e9, 8.8e9, 0.5, 3.0))
    @example(point=(1.5e9, 9.0e9, 0.5, 3.0))
    def test_matches_per_point(self, point):
        E_J_delta, E_C_delta, n_g, phi_ext = point
        assert_batch_matches_per_point({**CPT9, "n_g": n_g, "phi_ext": phi_ext}, E_J_delta, E_C_delta)

    def test_criterion9_grid_across_chunks(self):
        # the criterion-9 line and the box's corners, with E_J2 = 0 on the
        # last row, read flattened over more than one chunk
        E_J_delta = np.array([-3e9, 0.0, 1.5e9, 3e9, 18e9])[:, None]
        E_C_delta = np.array([-9e9, -4.5e9, 0.0, 4.5e9, 7.5e9, 8.0e9, 8.5e9, 8.8e9, 8.9e9, 9e9])
        assert E_J_delta.size * E_C_delta.size > CPT_CHUNK
        errors = assert_batch_matches_per_point({**CPT9, "n_g": 0.5, "phi_ext": 3.0}, E_J_delta, E_C_delta)
        assert sum(isinstance(e, LabelingError) for e in errors) >= 2
        assert sum(isinstance(e, ValueError) for e in errors) == E_C_delta.size

    def test_visiting_order_changes_within_a_chunk(self):
        # with the resonator at 8.9 GHz the island levels cross its bare
        # ladder as E_J_delta varies: points of one chunk visit their bare
        # states in different orders, and many fail their labeling
        base = {**CPT9, "E_Cr": 1e9, "E_Lr": 10e9, "n_g": 0.5, "phi_ext": 3.0}
        E_J_delta = np.linspace(-17e9, 17e9, 2 * CPT_CHUNK + 3)
        errors = assert_batch_matches_per_point(base, E_J_delta, 2e9)
        assert 0 < sum(e is not None for e in errors) < E_J_delta.size

    def test_fock_cutoff_error(self):
        # criterion 9's 35 points at n_fock = 8 against 13; the charge cutoff
        # adds nothing at this scale.  Measured: |d chi| <= 0.298 Hz and
        # |d chi'| <= 54.45 Hz (at n_fock = 6: 349 Hz and 55.1 kHz).  The
        # bounds leave a margin of about 3x and 2x.
        base = {**CPT9, "n_g": 0.5, "phi_ext": 3.0}
        E_J_delta, E_C_delta = np.linspace(-3e9, 3e9, 5)[:, None], np.linspace(-9e9, 9e9, 7)
        (chi, chi_prime, errors), (chi_ref, chi_prime_ref, errors_ref) = (
            cpt_shift_batch({**base, "n_fock": n_fock}, E_J_delta, E_C_delta) for n_fock in (8, 13)
        )
        assert errors == errors_ref == [None] * 35
        assert np.max(np.abs(chi - chi_ref)) <= 1.0
        assert np.max(np.abs(chi_prime - chi_prime_ref)) <= 100.0


class TestCptShifts:
    def test_shift_extraction_runs(self):
        p = CptParams(
            E_J1=9e9,
            E_J2=9e9,
            E_C1=5e9 + 2e9,
            E_C2=5e9 - 2e9,
            E_Cr=10e9,
            E_Lr=100e9,
            n_g=0.5,
            phi_ext=3.0,
            n_charge_max=6,
            n_fock=8,
        )
        ds = cpt_reference_spectrum(p)
        rep = extract_shifts(ds)
        assert np.isfinite(rep.chi) and np.isfinite(rep.chi_prime)
        tol = 1e3 * np.finfo(np.float64).eps * np.linalg.norm(build_cpt_hamiltonian(p), 2) / TWO_PI
        got = cpt_shifts(p)
        assert abs(got.chi - rep.chi) <= tol and abs(got.chi_prime - rep.chi_prime) <= tol
        # dressed resonator frequency stays near the bare LC value
        nu_r_dressed = sum(ds.energy(q, 1) - ds.energy(q, 0) for q in (0, 1)) / (2 * TWO_PI)
        assert nu_r_dressed == pytest.approx(p.nu_r_bare, rel=0.15)

    def test_chi_sign_change_along_charging_asymmetry(self):
        chis = []
        for ecd in (3e9, 6e9):
            p = CptParams(
                E_J1=9e9,
                E_J2=9e9,
                E_C1=5e9 + ecd / 2,
                E_C2=5e9 - ecd / 2,
                E_Cr=10e9,
                E_Lr=100e9,
                n_g=0.5,
                phi_ext=3.0,
                n_charge_max=6,
                n_fock=8,
            )
            chis.append(cpt_shifts(p).chi)
        assert chis[0] * chis[1] < 0
