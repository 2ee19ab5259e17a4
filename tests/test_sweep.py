import numpy as np
import pytest

from kerrqed.errors import ConvergenceError
from kerrqed.sweep import batch, grid


def point(p):
    if p["x"] == 2.0 and p["y"] == 10.0:
        raise ConvergenceError("no root")
    return p["x"] * p["y"] + p["c"]


@batch
def batch_point(p):
    return [
        ConvergenceError("no root") if (x, y) == (2.0, 10.0) else x * y + p["c"]
        for x, y in zip(p["x"], p["y"])
    ]


class TestGrid:
    axes = [("x", np.array([1, 2])), ("y", [10.0, 20.0, 30.0])]

    @pytest.mark.parametrize("rule", [point, batch_point], ids=["point", "batch"])
    def test_row_major_with_failures(self, rule):
        out = grid(rule, {"c": 0.5}, self.axes)
        assert [values for values, _, _ in out] == [
            (1.0, 10.0), (1.0, 20.0), (1.0, 30.0), (2.0, 10.0), (2.0, 20.0), (2.0, 30.0)
        ]
        assert all(type(v) is float for values, _, _ in out for v in values)
        assert [result for _, result, _ in out] == [10.5, 20.5, 30.5, None, 40.5, 60.5]
        failures = [exc for _, _, exc in out if exc is not None]
        assert len(failures) == 1 and isinstance(failures[0], ConvergenceError)

    def test_batch_rule_raising_fails_every_point(self):
        @batch
        def rule(p):
            raise ConvergenceError("no grid")

        out = grid(rule, {}, self.axes)
        assert [values for values, _, _ in out] == [(1.0, 10.0), (1.0, 20.0), (1.0, 30.0),
                                                   (2.0, 10.0), (2.0, 20.0), (2.0, 30.0)]
        assert all(result is None and str(exc) == "no grid" for _, result, exc in out)

    def test_no_axes_runs_once_on_base(self):
        assert grid(lambda p: dict(p), {"a": 1}, []) == [((), {"a": 1}, None)]

    def test_other_errors_propagate(self):
        with pytest.raises(KeyError):
            grid(lambda p: p["missing"], {}, [("x", [1.0, 2.0])])
