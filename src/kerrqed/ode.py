"""Fixed-step classical Runge-Kutta (RK4) integration shared by the readout
and coherence ODEs."""

from __future__ import annotations

import numpy as np


def rk4(f, y0, dt: float, steps: int, check) -> np.ndarray:
    """Integrate y' = f(y) from y0 over `steps` steps of size dt.

    Returns the complex series of shape (steps + 1,) + shape(y0), starting
    at y0.  check(k, y) runs after step k lands on y = series[k]; it raises
    to abort the integration.
    """
    series = np.zeros((steps + 1,) + np.shape(y0), dtype=complex)
    series[0] = y0
    y = y0
    for k in range(1, steps + 1):
        k1 = f(y)
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        check(k, y)
        series[k] = y
    return series
