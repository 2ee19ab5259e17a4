"""Dispersive-regime validation via dressed-state qubit overlaps.

For each labeled dressed state |q', n> the qubit degree of freedom is the
partial trace over the resonator; comparing it with the reduced state of
|q, 0> versus photon number n shows where it starts to hybridize with
other levels.
"""

from __future__ import annotations

import warnings

import numpy as np

from .dispersive import DressedSpectrum, label_dressed_states
from .errors import LabelingError
from .qspace import Boson, HilbertSpace, eigendecompose, fidelity, reduced_state

FIDELITY_JUMP_THRESHOLD = 0.5


def _reduced_qubit(ds: DressedSpectrum, q: int, n: int) -> np.ndarray:
    return reduced_state(ds.vector(q, n), ds.space, 0)


def overlap_scan(
    H: np.ndarray,
    space: HilbertSpace,
    q_list,
    q_prime_list,
    n_max_scan: int,
    qubit_energies: np.ndarray,
    boson_freq: float,
) -> tuple:
    """Fidelity of the reduced qubit state of |q', n> against that of |q, 0>,
    as rows (q, q_prime, n, fidelity) with n ascending per (q, q_prime) pair.

    The qubit is a SpinHalf factor; qubit_energies and boson_freq (rad/s)
    order the bare states for labeling.

    Requires at least 5 guard Fock levels above n_max_scan so truncation
    artifacts stay out of the scanned range.
    """
    if len(space.factors) != 2 or not isinstance(space.factors[1], Boson):
        raise ValueError("overlap_scan expects a two-factor space (qubit x Boson)")
    n_max = space.factors[1].n_max
    if n_max_scan > n_max - 5:
        raise ValueError(
            f"n_max_scan = {n_max_scan} exceeds n_max - 5 = {n_max - 5}; add guard levels"
        )
    if n_max_scan < 0:
        raise ValueError("n_max_scan must be >= 0")
    q_all = sorted(set(q_list) | set(q_prime_list))
    es = eigendecompose(H)
    ds = label_dressed_states(
        es,
        space,
        q_levels=max(q_all) + 1,
        n_levels=n_max_scan + 1,
        qubit_energies=qubit_energies,
        boson_freq=boson_freq,
    )
    for q in q_all:
        for n in range(n_max_scan + 1):
            if (q, n) not in ds.labels:
                raise LabelingError(
                    f"dressed state (q={q}, n={n}) unlabeled within the scan range"
                )
    rows = []
    for q in q_list:
        ref = _reduced_qubit(ds, q, 0)
        for qp in q_prime_list:
            prev = None
            for n in range(n_max_scan + 1):
                f = fidelity(ref, _reduced_qubit(ds, qp, n))
                if prev is not None and abs(f - prev) > FIDELITY_JUMP_THRESHOLD:
                    warnings.warn(
                        f"fidelity jump of {abs(f - prev):.2f} between n={n - 1} and n={n} "
                        f"for pair (q={q}, q'={qp}): possible labeling failure",
                        stacklevel=2,
                    )
                prev = f
                rows.append((q, qp, n, f))
    return tuple(rows)
