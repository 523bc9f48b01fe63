"""Continuous-variable qumode probe simulation and thermodynamic inference."""

from .models import (
    RegimePreset,
    dicke_interaction,
    linear_family,
    preset_by_name,
    rabi_interaction,
    regime_presets,
)
from .operators import (
    ConvergenceError,
    EigenDecomposition,
    HermitianOperator,
    SpectralLine,
    Spectrum,
    SystemState,
    commutator_norm,
    evenly_spaced_spectrum,
    sigma_x,
    sigma_z,
    site_sum,
    spectrum_of,
    spin_x,
    thermal_state,
)
from .probe import (
    Bin,
    Ideal,
    LineMixture,
    ProbeConfig,
    Squeezed,
    apply_detector_binning,
    dephasing_function,
    distribution_for,
    distribution_numeric_oracle,
    map_p_to_E,
)
from .reconstruct import (
    Histogram,
    ResolutionParams,
    detect_peaks,
    histogram,
    reconstruct_record,
    required_samples,
    resolution_params,
)
from .sampling import MeasurementRecord, sample_measurements
from .thermo import (
    DegenerateGroundStateError,
    NonThermalSpectrumError,
    QuenchReport,
    ThermoReport,
    ValidityReport,
    estimate_beta,
    ground_state_overlap,
    log_partition_function,
    quench_work,
    recover_degeneracies,
    thermo_report,
    validity_check,
)

__version__ = "0.1.0"
