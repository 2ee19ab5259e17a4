"""Dispersive and Kerr-shift circuit QED: exact-diagonalization shift
extraction, shot-noise dephasing, and semiclassical nonlinear readout."""

__version__ = "0.1.0"

from .dephasing import (
    DephasingParams,
    DephasingResult,
    gamma_linear,
    gamma_nonlinear_analytic,
    gamma_ode,
    thermal_occupation,
    z_quadratic_analytic,
    z_trajectory,
)
from .dispersive import (
    DressedSpectrum,
    ShiftReport,
    chi_analytic,
    chi_zero_gp,
    cpt_shift_batch,
    cpt_shifts,
    extract_shifts,
    label_dressed_states,
    mixed_model_shifts,
    mixed_model_spectrum,
    mixed_shift_batch,
    mixed_shift_grid,
    overlap_scan,
)
from .errors import (
    ConvergenceError,
    HermiticityError,
    KerrqedError,
    LabelingError,
)
from .models import (
    CptParams,
    MixedCouplingParams,
    build_cpt_hamiltonian,
    build_mixed_spin_boson,
    build_synthetic_dispersive,
)
from .qspace import (
    Boson,
    Charge,
    HilbertSpace,
    SpinHalf,
    eigendecompose,
)
from .readout import (
    ReadoutConfig,
    ReadoutTrajectory,
    calibrate_drive,
    integrate_trajectory,
    steady_state_amplitude,
)

__all__ = [
    "__version__",
    "Boson",
    "Charge",
    "ConvergenceError",
    "CptParams",
    "DephasingParams",
    "DephasingResult",
    "DressedSpectrum",
    "HermiticityError",
    "HilbertSpace",
    "KerrqedError",
    "LabelingError",
    "MixedCouplingParams",
    "ReadoutConfig",
    "ReadoutTrajectory",
    "ShiftReport",
    "SpinHalf",
    "build_cpt_hamiltonian",
    "build_mixed_spin_boson",
    "build_synthetic_dispersive",
    "calibrate_drive",
    "chi_analytic",
    "chi_zero_gp",
    "cpt_shift_batch",
    "cpt_shifts",
    "eigendecompose",
    "extract_shifts",
    "gamma_linear",
    "gamma_nonlinear_analytic",
    "gamma_ode",
    "integrate_trajectory",
    "label_dressed_states",
    "mixed_model_shifts",
    "mixed_model_spectrum",
    "mixed_shift_batch",
    "mixed_shift_grid",
    "overlap_scan",
    "steady_state_amplitude",
    "thermal_occupation",
    "z_quadratic_analytic",
    "z_trajectory",
]
