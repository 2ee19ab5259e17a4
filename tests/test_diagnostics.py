import warnings

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from kerrqed.constants import TWO_PI
from kerrqed.dispersive import label_dressed_states, mixed_model_spectrum, overlap_scan
from kerrqed.errors import LabelingError
from kerrqed.models import MixedCouplingParams, build_mixed_spin_boson
from kerrqed.qspace import EigenSystem


def params(g_X, g_P, n_max, nu_q=5e9, nu_r=8e9):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return MixedCouplingParams(nu_q, nu_r, g_X, g_P, n_max)


def scan_for(g_X, g_P, n_max, n_max_scan, nu_q=5e9, nu_r=8e9, q_list=(0, 1), q_prime_list=(0, 1)):
    return overlap_scan(params(g_X, g_P, n_max, nu_q, nu_r), q_list, q_prime_list, n_max_scan)


def pair(rows, q, q_prime):
    """The (n, fidelity) sequence of one label pair of overlap_scan rows."""
    return [(n, f) for (a, b, n, f) in rows if a == q and b == q_prime]


def reference_scan(p, q_list, q_prime_list, n_max_scan):
    """overlap_scan's rows, or the text of its LabelingError, from a
    full-basis eigh of build_mixed_spin_boson and the general 2x2 closed form
    of the Uhlmann fidelity, F = tr(rho sigma) + 2 sqrt(det rho det sigma)."""
    q_all = sorted(set(q_list) | set(q_prime_list))
    ds = label_dressed_states(
        EigenSystem(*np.linalg.eigh(build_mixed_spin_boson(p))),
        p.space(),
        q_levels=max(q_all) + 1,
        n_levels=n_max_scan + 1,
        qubit_energies=np.array([-0.5 * p.nu_q, 0.5 * p.nu_q]) * TWO_PI,
        boson_freq=TWO_PI * p.nu_r,
    )
    for q in q_all:
        for n in range(n_max_scan + 1):
            if (q, n) not in ds.labels:
                return f"dressed state (q={q}, n={n}) unlabeled within the scan range"

    def reduced(q, n):
        psi = ds.vector(q, n).reshape(2, -1)
        return psi @ psi.conj().T

    def det(rho):
        return max(np.linalg.det(rho).real, 0.0)

    rows = []
    for q in q_list:
        rho = reduced(q, 0)
        for qp in q_prime_list:
            for n in range(n_max_scan + 1):
                sigma = reduced(qp, n)
                f = np.trace(rho @ sigma).real + 2 * np.sqrt(det(rho) * det(sigma))
                rows.append((q, qp, n, f))
    return rows


class TestOverlapScan:
    def test_zero_coupling(self):
        scan = scan_for(0.0, 0.0, n_max=10, n_max_scan=5)
        for n, f in pair(scan, 0, 0):
            assert f == pytest.approx(1.0, abs=1e-10)
        for n, f in pair(scan, 0, 1):
            assert f == pytest.approx(0.0, abs=1e-10)

    def test_perturbative_same_state(self):
        # g / detuning = 0.01, scan up to n = 10
        scan = scan_for(30e6, 0.0, n_max=16, n_max_scan=10)
        for q in (0, 1):
            for _, f in pair(scan, q, q):
                assert f > 0.99

    def test_same_ge_cross(self):
        scan = scan_for(40e6, 20e6, n_max=14, n_max_scan=8)
        for n in range(9):
            same = dict(pair(scan, 0, 0))[n]
            cross = dict(pair(scan, 0, 1))[n]
            assert same >= cross

    def test_rows_ascending_in_n(self):
        scan = scan_for(30e6, 0.0, n_max=12, n_max_scan=6)
        for q in (0, 1):
            for qp in (0, 1):
                ns = [n for n, _ in pair(scan, q, qp)]
                assert ns == sorted(ns)

    def test_guard_levels_enforced(self):
        with pytest.raises(ValueError):
            scan_for(30e6, 0.0, n_max=10, n_max_scan=8)

    def test_rejects_qubit_labels_other_than_0_and_1(self):
        with pytest.raises(ValueError, match=r"^qubit labels must be 0 or 1, got \[-1\]$"):
            scan_for(30e6, 0.0, n_max=10, n_max_scan=3, q_list=[-1])
        with pytest.raises(ValueError, match=r"^qubit labels must be 0 or 1, got \[2\]$"):
            scan_for(30e6, 0.0, n_max=10, n_max_scan=3, q_prime_list=[0, 2])


class TestFullBasisReference:
    # nu_q 3-10 GHz, nu_r 4-9 GHz, |Delta| >= 0.5 GHz, |g_X|, |g_P| <= 0.2 |Delta|
    # and n_max 6-26.  Never narrow the box.
    @seed(20261020)
    @settings(max_examples=100, deadline=None, database=None)
    @given(
        nu_q=st.floats(3e9, 10e9),
        nu_r=st.floats(4e9, 9e9),
        x=st.floats(-0.2, 0.2),
        y=st.floats(-0.2, 0.2),
        n_max=st.integers(6, 26),
        q_list=st.lists(st.sampled_from([0, 1]), min_size=1, max_size=3),
        q_prime_list=st.lists(st.sampled_from([0, 1]), min_size=1, max_size=3),
        data=st.data(),
    )
    def test_matches_full_basis_reference(
        self, nu_q, nu_r, x, y, n_max, q_list, q_prime_list, data
    ):
        detuning = abs(nu_q - nu_r)
        assume(detuning >= 0.5e9)
        p = params(x * detuning, y * detuning, n_max, nu_q, nu_r)
        n_max_scan = data.draw(st.integers(0, n_max - 5))
        want = reference_scan(p, q_list, q_prime_list, n_max_scan)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if isinstance(want, str):
                with pytest.raises(LabelingError) as exc:
                    overlap_scan(p, q_list, q_prime_list, n_max_scan)
                assert str(exc.value) == want
                return
            got = overlap_scan(p, q_list, q_prime_list, n_max_scan)
        assert [row[:3] for row in got] == [row[:3] for row in want]
        assert max(abs(a[3] - b[3]) for a, b in zip(got, want)) <= 1e-12
        # a block eigenvector has no weight where its qubit coherence would
        ds = mixed_model_spectrum(p)
        for label in ds.labels:
            psi = ds.vector(*label).reshape(2, -1)
            assert psi[0] @ psi[1].conj() == 0


class TestCriticalPhoton:
    def test_far_detuned_no_crossing(self):
        # g / detuning = 0.01: no cross-state hybridization above 0.05
        # within n <= 20
        scan = scan_for(30e6, 0.0, n_max=26, n_max_scan=20)
        cross = [f for (q, qp, _, f) in scan if q != qp]
        assert len(cross) == 2 * 21
        assert all(f <= 0.05 for f in cross)
