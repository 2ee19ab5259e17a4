"""Physical constants (CODATA 2018)."""

import math

# Planck constant, J s
PLANCK_H = 6.62607015e-34
# Boltzmann constant, J / K
BOLTZMANN_K = 1.380649e-23

TWO_PI = 2.0 * math.pi
