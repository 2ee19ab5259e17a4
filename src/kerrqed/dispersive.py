"""Dressed-state labeling and extraction of dispersive / Kerr shifts.

The dressed label q orders bare qubit levels by energy (q = 0 is the bare
ground state).  chi is defined from the n = 0 -> 1 dressed resonator
transition; K_r is the conditioned second difference E(q,2) - 2E(q,1) +
E(q,0) and chi' = (K_r1 - K_r0)/4.  overlap_scan checks the dispersive
regime: how far the qubit of |q', n> drifts from that of |q, 0> with photon
number n.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .constants import TWO_PI
from .errors import LabelingError
from .models import (
    STRONG_COUPLING_WARNING,
    CptParams,
    MixedCouplingParams,
    cpt_operators,
    strong_coupling,
)
from .qspace import Boson, EigenSystem, HilbertSpace, annihilation

DEFAULT_OVERLAP_FLOOR = 0.5
# Points per stacked solve in mixed_shift_batch; bounds the stack's memory on
# large grids.  On a 31x31 grid one unchunked stack was no faster and raised
# peak RSS by ~3%.
BATCH_CHUNK = 256
# Points per stacked island solve and labeling call in cpt_shift_batch; each
# point's 117-dimensional eigh runs on its own.
CPT_CHUNK = 32
# The labels the shift extraction reads, in the order a missing one is reported.
SHIFT_LABELS = tuple((q, n) for q in (0, 1) for n in (0, 1, 2))
# A CPT point labels the bare states (q, n) with q, n < CPT_LEVELS.
CPT_LEVELS = 3
# overlap_scan warns where a pair's fidelity moves more than this between
# neighbouring photon numbers.
FIDELITY_JUMP_THRESHOLD = 0.5


@dataclass(frozen=True)
class DressedSpectrum:
    """Labeled dressed eigenstates.

    labels maps (q, n) -> (energy rad/s, overlap, eigenindex); unassigned
    lists eigenindices of best candidates that fell below the overlap floor.
    """

    labels: dict
    unassigned: tuple
    eigensystem: EigenSystem

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


def _check_levels(q_levels, n_levels, dq, db):
    if q_levels > dq or n_levels > db:
        raise LabelingError(
            f"requested (q_levels={q_levels}, n_levels={n_levels}) exceeds factor "
            f"dimensions ({dq}, {db})"
        )


def _visiting_order(q_levels, n_levels, qubit_energies, boson_freq):
    """Bare labels (q, n) in ascending bare energy qubit_energies[q] + n boson_freq."""
    bare = sorted(
        (qubit_energies[q] + n * boson_freq, q, n) for q in range(q_levels) for n in range(n_levels)
    )
    return [(q, n) for _, q, n in bare]


def _greedy(overlaps, floor):
    """The greedy assignment behind every dressed label.

    overlaps[p, j, k] is the overlap of bare state j (in visiting order) with
    eigenvector k at point p.  Each bare state in turn takes its unused
    eigenvector of largest overlap; the eigenvector is used up only when
    that overlap reaches floor.  Returns (eigenindex, overlap, labeled),
    arrays [p, j].
    """
    points = np.arange(len(overlaps))
    used = np.zeros_like(overlaps[:, 0], dtype=bool)
    index = np.empty(overlaps.shape[:2], dtype=np.intp)
    for j in range(overlaps.shape[1]):
        k = index[:, j] = np.argmax(np.where(used, -1.0, overlaps[:, j]), axis=1)
        used[points, k] = overlaps[points, j, k] >= floor
    best = np.take_along_axis(overlaps, index[:, :, None], axis=2)[:, :, 0]
    return index, best, best >= floor


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
    Assignments with best overlap below overlap_floor are left unlabeled;
    their best candidates are listed once each in `unassigned`.
    """
    if len(space.factors) != 2 or not isinstance(space.factors[1], Boson):
        raise ValueError("labeling expects a two-factor space (qubit x Boson)")
    dq, db = space.factor_dims()
    _check_levels(q_levels, n_levels, dq, db)
    if qubit_vectors is None:
        if dq != 2:
            raise ValueError("qubit_vectors required for non-spin qubit factors")
        qubit_vectors = np.array([[0.0, 1.0], [1.0, 0.0]])

    order = _visiting_order(q_levels, n_levels, qubit_energies, boson_freq)
    # row j of bare is |q, n>, indexed (qubit, Fock) as the product basis
    bare = np.zeros((len(order), dq, db), dtype=qubit_vectors.dtype)
    for j, (q, n) in enumerate(order):
        bare[j, :, n] = qubit_vectors[:, q]
    overlaps = np.abs(bare.reshape(len(order), dq * db).conj() @ es.vectors) ** 2
    index, best, labeled = (a[0] for a in _greedy(overlaps[None], overlap_floor))
    labels = {
        label: (float(es.energies[k]), float(overlap), int(k))
        for label, k, overlap, ok in zip(order, index, best, labeled)
        if ok
    }
    unassigned = tuple(dict.fromkeys(int(k) for k in index[~labeled]))
    return DressedSpectrum(labels=labels, unassigned=unassigned, eigensystem=es)


def _shift_values(E):
    """(chi, chi') in Hz from the labeled energies E[(q, n)] in rad/s;
    scalars and arrays alike."""
    wr0 = E[(0, 1)] - E[(0, 0)]
    wr1 = E[(1, 1)] - E[(1, 0)]
    K_r0 = (E[(0, 2)] - 2.0 * E[(0, 1)] + E[(0, 0)]) / TWO_PI
    K_r1 = (E[(1, 2)] - 2.0 * E[(1, 1)] + E[(1, 0)]) / TWO_PI
    return (wr1 - wr0) / (2.0 * TWO_PI), (K_r1 - K_r0) / 4.0


def extract_shifts(ds: DressedSpectrum) -> ShiftReport:
    """chi and chi' from labeled energies."""
    return ShiftReport(*_shift_values({label: ds.energy(*label) for label in SHIFT_LABELS}))


def _mixed_blocks(nu_q, nu_r, n_max):
    """The two parity blocks of the mixed model, H = H0 + g_X V_X + g_P V_P,
    with V_X = 2 pi sigma_x (a + a+) and V_P = 2 pi (i sigma_y)(a+ - a).

    H commutes with sigma_z (-1)^(a+a).  Returns the full-basis rows of each
    block, ascending, and each block's (H0, V_X, V_P, bare), with V in rad/s
    per Hz of coupling and bare the block's ((q, n), row within block) in
    visiting order.
    """
    MixedCouplingParams(nu_q, nu_r, 0.0, 0.0, n_max)  # rejects nu_q = nu_r and the like
    dim = n_max + 1
    _check_levels(2, 3, 2, dim)
    a = annihilation(n_max)
    V_X = TWO_PI * np.kron([[0.0, 1.0], [1.0, 0.0]], a.T + a)
    V_P = TWO_PI * np.kron([[0.0, 1.0], [-1.0, 0.0]], a.T - a)
    # H0 is diagonal: its entries as build_mixed_spin_boson forms them, bitwise
    # (np.arange(dim) would not be, as sqrt(n)**2 != n)
    wq, wr = TWO_PI * nu_q, TWO_PI * nu_r
    H0 = 0.5 * wq * np.repeat([1.0, -1.0], dim) + wr * np.tile(np.diag(a.T @ a), 2)
    parity = np.outer([1, -1], (-1) ** np.arange(dim)).ravel()
    rows = [np.flatnonzero(parity == s) for s in (1, -1)]
    bare = ([], [])
    qubit_energies = np.array([-0.5 * nu_q, 0.5 * nu_q]) * TWO_PI
    for q, n in _visiting_order(2, 3, qubit_energies, wr):
        i = (1 - q) * dim + n  # |q=0> is sigma_z = -1, basis index 1
        b = 0 if parity[i] == 1 else 1
        bare[b].append(((q, n), int(np.searchsorted(rows[b], i))))
    blocks = [
        (np.diag(H0[r]), V_X[np.ix_(r, r)], V_P[np.ix_(r, r)], labels)
        for r, labels in zip(rows, bare)
    ]
    return rows, blocks


def _store_shifts(E, found, points, chi, chi_prime, errors):
    """Store the shifts of labeled energies E[label] and the labels' found
    flags (arrays over points) at the indices points of chi, chi_prime and
    errors; a point missing a label gets NaN and the LabelingError of its
    first missing label, as extract_shifts raises it."""
    ok = np.logical_and.reduce([found[label] for label in SHIFT_LABELS])
    chi[points], chi_prime[points] = _shift_values(
        {label: np.where(ok, E[label], np.nan) for label in SHIFT_LABELS}
    )
    for q, n in reversed(SHIFT_LABELS):
        for i in np.flatnonzero(~found[(q, n)]):
            errors[points[i]] = LabelingError(f"no dressed label for (q={q}, n={n})")


def mixed_shift_batch(nu_q, nu_r, n_max, g_X, g_P):
    """chi and chi' (Hz) of the mixed model at each (g_X, g_P) point.

    g_X and g_P broadcast against each other and are read flattened.
    Returns (chi, chi_prime, errors): arrays over the points, NaN where the
    point's labeling failed, and per point None or its LabelingError.
    Warns once per point whose couplings exceed 10% of the detuning.
    Each parity block is labeled on its own: within a block a bare state is
    a unit vector, so its overlaps are a row of the eigenvector matrix squared.
    """
    _, blocks = _mixed_blocks(nu_q, nu_r, n_max)
    g_X, g_P = np.broadcast_arrays(np.asarray(g_X, float), np.asarray(g_P, float))
    g_X, g_P = g_X.ravel(), g_P.ravel()
    for name, g in (("g_X", g_X), ("g_P", g_P)):
        if not np.isfinite(g).all():
            raise ValueError(f"{name} must be finite")
    for _ in range(np.count_nonzero(strong_coupling(nu_q, nu_r, g_X, g_P))):
        warnings.warn(STRONG_COUPLING_WARNING, stacklevel=2)
    chi, chi_prime = np.empty(g_X.size), np.empty(g_X.size)
    errors = [None] * g_X.size
    for start in range(0, g_X.size, BATCH_CHUNK):
        part = slice(start, start + BATCH_CHUNK)
        gx, gp = g_X[part, None, None], g_P[part, None, None]
        E, found = {}, {}
        for H0, V_X, V_P, bare in blocks:
            w, v = np.linalg.eigh(H0 + gx * V_X + gp * V_P)
            labels, rows = zip(*bare)
            k, _, labeled = _greedy(np.abs(v[:, list(rows), :]) ** 2, DEFAULT_OVERLAP_FLOOR)
            E.update(zip(labels, np.take_along_axis(w, k, axis=1).T))
            found.update(zip(labels, labeled.T))
        _store_shifts(E, found, np.arange(g_X.size)[part], chi, chi_prime, errors)
    return chi, chi_prime, errors


def _mixed_spectrum(p: MixedCouplingParams, n_levels: int) -> DressedSpectrum:
    """Label (q, n) for q < 2, n < n_levels of the minimal mixed model: the
    parity blocks are solved as in mixed_shift_batch, their eigenvectors
    scattered back into the full basis with energies ascending, and labeled
    there."""
    rows, blocks = _mixed_blocks(p.nu_q, p.nu_r, p.n_max)
    eig = [np.linalg.eigh(H0 + p.g_X * V_X + p.g_P * V_P) for H0, V_X, V_P, _ in blocks]
    dim = p.n_max + 1
    energies = np.concatenate([w for w, _ in eig])
    vectors = np.zeros((2 * dim, 2 * dim), dtype=eig[0][1].dtype)
    for b, (r, (_, v)) in enumerate(zip(rows, eig)):
        vectors[r, b * dim : (b + 1) * dim] = v
    ascending = np.argsort(energies, kind="stable")
    es = EigenSystem(energies[ascending], vectors[:, ascending])
    qubit_energies = np.array([-0.5 * p.nu_q, 0.5 * p.nu_q]) * TWO_PI
    return label_dressed_states(es, p.space(), 2, n_levels, qubit_energies, TWO_PI * p.nu_r)


def mixed_model_spectrum(p: MixedCouplingParams) -> DressedSpectrum:
    """Label (q, n) for q < 2, n < 3 of the minimal mixed model."""
    return _mixed_spectrum(p, 3)


def mixed_model_shifts(p: MixedCouplingParams) -> ShiftReport:
    return extract_shifts(mixed_model_spectrum(p))


def chi_prime_noise_floor(p: MixedCouplingParams) -> float:
    """Truncation noise floor: change of extracted chi' when n_max grows by 5."""
    r1 = mixed_model_shifts(p)
    p2 = MixedCouplingParams(p.nu_q, p.nu_r, p.g_X, p.g_P, p.n_max + 5)
    r2 = mixed_model_shifts(p2)
    return abs(r2.chi_prime - r1.chi_prime)


def overlap_scan(p: MixedCouplingParams, q_list, q_prime_list, n_max_scan: int) -> tuple:
    """Fidelity of the reduced qubit state of |q', n> against that of |q, 0>
    in the mixed model, as rows (q, q_prime, n, fidelity) with n ascending
    per (q, q_prime) pair; q and q' are 0 or 1.

    Each parity-block eigenvector lives on |up, n even> and |down, n odd>
    or on the reverse, so its reduced qubit state is diag(w_up, w_down) and
    the Uhlmann fidelity of two of them is (sum of sqrt(w w'))^2.

    Requires at least 5 guard Fock levels above n_max_scan so truncation
    artifacts stay out of the scanned range.
    """
    if n_max_scan > p.n_max - 5:
        raise ValueError(
            f"n_max_scan = {n_max_scan} exceeds n_max - 5 = {p.n_max - 5}; add guard levels"
        )
    if n_max_scan < 0:
        raise ValueError("n_max_scan must be >= 0")
    q_all = sorted(set(q_list) | set(q_prime_list))
    bad = [q for q in q_all if q not in (0, 1)]
    if bad:
        raise ValueError(f"qubit labels must be 0 or 1, got {bad}")
    ds = _mixed_spectrum(p, n_max_scan + 1)
    for q in q_all:
        for n in range(n_max_scan + 1):
            if (q, n) not in ds.labels:
                raise LabelingError(
                    f"dressed state (q={q}, n={n}) unlabeled within the scan range"
                )
    # per label, the (up, down) diagonal of the reduced qubit state
    weights = {
        label: (np.abs(ds.vector(*label).reshape(2, -1)) ** 2).sum(axis=1) for label in ds.labels
    }
    rows = []
    for q in q_list:
        for qp in q_prime_list:
            prev = None
            for n in range(n_max_scan + 1):
                f = min(float(np.sqrt(weights[(q, 0)] * weights[(qp, n)]).sum() ** 2), 1.0)
                if prev is not None and abs(f - prev) > FIDELITY_JUMP_THRESHOLD:
                    warnings.warn(
                        f"fidelity jump of {abs(f - prev):.2f} between n={n - 1} and n={n} "
                        f"for pair (q={q}, q'={qp}): possible labeling failure",
                        stacklevel=2,
                    )
                prev = f
                rows.append((q, qp, n, f))
    return tuple(rows)


def mixed_shift_grid(nu_q, nu_r, g_X_values, g_P_values, n_max):
    """chi and chi' (Hz) over a (g_X, g_P) grid; arrays indexed [i_gX, i_gP].

    A failed point raises the first failure in grid order."""
    g_X = np.asarray(g_X_values, float)[:, None]
    g_P = np.asarray(g_P_values, float)[None, :]
    chi, chi_prime, errors = mixed_shift_batch(nu_q, nu_r, n_max, g_X, g_P)
    for exc in errors:
        if exc is not None:
            raise exc
    shape = (g_X.size, g_P.size)
    return chi.reshape(shape), chi_prime.reshape(shape)


def _cpt_solve(ops, params):
    """(chi, chi_prime, errors) as mixed_shift_batch returns them, of valid
    CptParams params whose Hamiltonians all come from the operator split ops."""
    H = np.empty_like(ops.H0)
    L, dim = CPT_LEVELS, H.shape[0]
    dq, db = params[0].space().factor_dims()
    # rows |charge, n < L> of an eigenvector, charge-major
    rows = (np.arange(dq)[:, None] * db + np.arange(L)).ravel()
    boson_n = TWO_PI * params[0].nu_r_bare * np.arange(L)
    ejd = np.array([p.E_J_delta for p in params])
    ei, vi = np.linalg.eigh(ops.island(ejd[:, None, None]))
    bare = vi[:, :, :L].conj().transpose(0, 2, 1)
    energies = np.empty((len(params), dim))
    overlaps = np.empty((len(params), L * L, dim))
    for c, p in enumerate(params):
        energies[c], v = np.linalg.eigh(ops.hamiltonian(p.E_J_delta, p.E_C_delta, out=H))
        overlaps[c] = (np.abs(bare[c] @ v[rows].reshape(dq, -1)) ** 2).reshape(L * L, dim)
        del v  # kept alive, glibc re-faults eigh's work buffers at every other point
    # each point visits its bare states (q, n) in ascending bare energy,
    # ties in (q, n) order as _visiting_order breaks them
    order = np.argsort((ei[:, :L, None] + boson_n).reshape(-1, L * L), axis=1, kind="stable")
    k, _, labeled = _greedy(
        np.take_along_axis(overlaps, order[:, :, None], axis=1), DEFAULT_OVERLAP_FLOOR
    )
    # back to (q, n) order: column j of the visit is bare state order[:, j]
    place = np.argsort(order, axis=1)
    k, labeled = (np.take_along_axis(a, place, axis=1) for a in (k, labeled))
    e = np.take_along_axis(energies, k, axis=1)
    E = {(q, n): e[:, L * q + n] for q, n in SHIFT_LABELS}
    found = {(q, n): labeled[:, L * q + n] for q, n in SHIFT_LABELS}
    chi, chi_prime, errors = np.empty(len(params)), np.empty(len(params)), [None] * len(params)
    _store_shifts(E, found, np.arange(len(params)), chi, chi_prime, errors)
    return chi, chi_prime, errors


def cpt_shifts(p: CptParams) -> ShiftReport:
    """chi and chi' (Hz) of the CPT at p: the solve of cpt_shift_batch on one
    point, raising its LabelingError."""
    (chi,), (chi_prime,), (exc,) = _cpt_solve(cpt_operators(p), [p])
    if exc is not None:
        raise exc
    return ShiftReport(float(chi), float(chi_prime))


def _cpt_params(base, E_J_delta, E_C_delta):
    """The CptParams of one cpt_shift_batch point."""
    S, C = base["E_J_sigma"], base["E_C_sigma"]
    return CptParams(
        E_J1=0.5 * (S + E_J_delta),
        E_J2=0.5 * (S - E_J_delta),
        E_C1=0.5 * (C + E_C_delta),
        E_C2=0.5 * (C - E_C_delta),
        E_Cr=base["E_Cr"],
        E_Lr=base["E_Lr"],
        n_g=base["n_g"],
        phi_ext=base["phi_ext"],
        n_charge_max=base["n_charge_max"],
        n_fock=base["n_fock"],
    )


def cpt_shift_batch(base, E_J_delta, E_C_delta):
    """chi and chi' (Hz) of the CPT at each (E_J_delta, E_C_delta) point.

    base maps E_J_sigma, E_C_sigma, E_Cr, E_Lr (Hz), n_g, phi_ext,
    n_charge_max and n_fock to their values; other keys are ignored.
    E_J_delta and E_C_delta broadcast against each other and are read
    flattened.  Returns (chi, chi_prime, errors) as mixed_shift_batch does,
    with the ValueError of CptParams for an invalid point.  The valid points
    are solved as cpt_shifts solves one, CPT_CHUNK at a time, from one
    operator split built at the first of them (the split reads no asymmetry).
    """
    deltas = np.broadcast_arrays(np.asarray(E_J_delta, float), np.asarray(E_C_delta, float))
    E_J_delta, E_C_delta = (a.ravel().tolist() for a in deltas)
    size = len(E_J_delta)
    chi, chi_prime = np.full(size, np.nan), np.full(size, np.nan)
    errors = [None] * size
    points, params = [], []
    for i in range(size):
        try:
            params.append(_cpt_params(base, E_J_delta[i], E_C_delta[i]))
            points.append(i)
        except ValueError as exc:
            errors[i] = exc
    ops = cpt_operators(params[0]) if params else None
    for start in range(0, len(params), CPT_CHUNK):
        part = slice(start, start + CPT_CHUNK)
        idx = points[part]
        chi[idx], chi_prime[idx], errs = _cpt_solve(ops, params[part])
        for i, exc in zip(idx, errs):
            errors[i] = exc
    return chi, chi_prime, errors


def chi_analytic(p: MixedCouplingParams) -> float:
    """Leading-order dispersive shift, Hz:
    chi = [w_q (g_X^2 + g_P^2) - 2 w_r g_P g_X] / (w_r^2 - w_q^2)."""
    if p.nu_q == p.nu_r:
        raise ValueError("resonant nu_q = nu_r")
    num = p.nu_q * (p.g_X**2 + p.g_P**2) - 2.0 * p.nu_r * p.g_P * p.g_X
    return num / (p.nu_r**2 - p.nu_q**2)


# In the pinned Pauli convention the numeric chi is -2 chi_analytic at second
# order in the couplings, and chi_zero_gp's roots are that order's zero locus.
# At fourth order chi = -2 chi_analytic + 2 chi' + O(g_e^6 / |Delta|^5), with
# g_e = |g_X| + |g_P| and Delta = nu_q - nu_r, so where chi_analytic vanishes
# the numeric chi is 2 chi', not 0.  The numeric extraction is the ground truth.
CHI_ANALYTIC_TO_NUMERIC = -2.0


def chi_zero_gp(g_X: float, nu_q: float, nu_r: float):
    """The two g_P roots of the second-order chi_analytic = 0:
    g_P = (g_X/w_q)(w_r +/- sqrt(w_r^2 - w_q^2)).

    There the numeric chi is 2 chi' + O(g_e^6 / |Delta|^5), not 0 (see
    CHI_ANALYTIC_TO_NUMERIC)."""
    if not nu_r > nu_q > 0:
        raise ValueError("real roots require nu_r > nu_q > 0")
    s = np.sqrt(nu_r**2 - nu_q**2)
    return (g_X / nu_q) * (nu_r - s), (g_X / nu_q) * (nu_r + s)
