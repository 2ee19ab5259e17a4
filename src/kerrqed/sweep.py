"""The sweep engine of the CLI experiments: one point rule, or one batch
rule, evaluated over a parameter grid."""

from __future__ import annotations

import itertools

import numpy as np

from .errors import KerrqedError

POINT_ERRORS = (KerrqedError, ValueError, FloatingPointError)


def batch(rule):
    """Mark rule as a batch rule of `grid`: it is called once, with each axis
    as the array of its row-major values, and returns one result or one
    exception per point."""
    rule.batch = True
    return rule


def grid(point, base, axes):
    """[(values, result, exc)] of point(params) over the row-major product of axes.

    axes is [(name, values)], first axis slowest; params is base updated
    with the float axis values, which form `values` (with no axes, point
    runs once on base).  A point raising one of POINT_ERRORS is recorded as
    (values, None, exc); other exceptions propagate.  A rule marked with
    `batch` runs once on the whole grid instead; an exception it returns for
    a point is recorded for that point, and one of POINT_ERRORS that it
    raises is recorded for every point.  No warning filter is installed.
    """
    names = [name for name, _ in axes]
    combos = [tuple(map(float, c)) for c in itertools.product(*(vals for _, vals in axes))]

    if getattr(point, "batch", False):
        columns = np.array(combos, dtype=float).reshape(len(combos), len(names)).T
        try:
            results = point({**base, **dict(zip(names, columns))})
        except POINT_ERRORS as exc:
            results = [exc] * len(combos)
        return [
            (values, None, r) if isinstance(r, BaseException) else (values, r, None)
            for values, r in zip(combos, results, strict=True)
        ]

    def evaluate(values):
        try:
            return values, point({**base, **dict(zip(names, values))}), None
        except POINT_ERRORS as exc:
            return values, None, exc

    return [evaluate(values) for values in combos]
