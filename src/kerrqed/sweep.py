"""The sweep engine of the CLI experiments, `mixed_shift_grid` and
`error_curve_sweep`: one point rule evaluated over a parameter grid."""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor

from .errors import KerrqedError

POINT_ERRORS = (KerrqedError, ValueError, FloatingPointError)


def grid(point, base, axes, jobs=1):
    """[(values, result, exc)] of point(params) over the row-major product of axes.

    axes is [(name, values)], first axis slowest; params is base updated
    with the float axis values, which form `values` (with no axes, point
    runs once on base).  A point raising one of POINT_ERRORS is recorded as
    (values, None, exc); other exceptions propagate.  jobs > 1 uses a thread
    pool without changing the order.  No warning filter is installed.
    """
    names = [name for name, _ in axes]
    combos = [tuple(map(float, c)) for c in itertools.product(*(vals for _, vals in axes))]

    def evaluate(values):
        try:
            return values, point({**base, **dict(zip(names, values))}), None
        except POINT_ERRORS as exc:
            return values, None, exc

    if jobs == 1:
        return [evaluate(values) for values in combos]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(evaluate, combos))
