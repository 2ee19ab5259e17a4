import numpy as np
import pytest

from kerrqed.errors import ConvergenceError
from kerrqed.sweep import grid


def point(p):
    if p["x"] == 2.0 and p["y"] == 10.0:
        raise ConvergenceError("no root")
    return p["x"] * p["y"] + p["c"]


class TestGrid:
    axes = [("x", np.array([1, 2])), ("y", [10.0, 20.0, 30.0])]

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_row_major_with_failures(self, jobs):
        out = grid(point, {"c": 0.5}, self.axes, jobs=jobs)
        assert [values for values, _, _ in out] == [
            (1.0, 10.0), (1.0, 20.0), (1.0, 30.0), (2.0, 10.0), (2.0, 20.0), (2.0, 30.0)
        ]
        assert all(type(v) is float for values, _, _ in out for v in values)
        assert [result for _, result, _ in out] == [10.5, 20.5, 30.5, None, 40.5, 60.5]
        failures = [exc for _, _, exc in out if exc is not None]
        assert len(failures) == 1 and isinstance(failures[0], ConvergenceError)

    def test_no_axes_runs_once_on_base(self):
        assert grid(lambda p: dict(p), {"a": 1}, []) == [((), {"a": 1}, None)]

    def test_other_errors_propagate(self):
        with pytest.raises(KeyError):
            grid(lambda p: p["missing"], {}, [("x", [1.0, 2.0])])
