import warnings

import numpy as np
import pytest

from kerrqed.diagnostics import overlap_scan
from kerrqed.models import MixedCouplingParams, build_mixed_spin_boson


def scan_for(g_X, g_P, n_max, n_max_scan, nu_q=5e9, nu_r=8e9, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = MixedCouplingParams(nu_q, nu_r, g_X, g_P, n_max)
    return overlap_scan(
        build_mixed_spin_boson(p),
        p.space(),
        q_list=[0, 1],
        q_prime_list=[0, 1],
        n_max_scan=n_max_scan,
        qubit_energies=np.array([-0.5 * nu_q, 0.5 * nu_q]) * 2 * np.pi,
        boson_freq=2 * np.pi * nu_r,
        **kwargs,
    )


def pair(rows, q, q_prime):
    """The (n, fidelity) sequence of one label pair of overlap_scan rows."""
    return [(n, f) for (a, b, n, f) in rows if a == q and b == q_prime]


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


class TestCriticalPhoton:
    def test_far_detuned_no_crossing(self):
        # g / detuning = 0.01: no cross-state hybridization above 0.05
        # within n <= 20
        scan = scan_for(30e6, 0.0, n_max=26, n_max_scan=20)
        cross = [f for (q, qp, _, f) in scan if q != qp]
        assert len(cross) == 2 * 21
        assert all(f <= 0.05 for f in cross)
