"""Two-port coupled-oscillator scattering toolkit.

Semiclassical coupled-mode model of a two-port resonator strongly coupled to
a matter oscillator: scattering spectra, coherent-perfect-absorption
analysis, rate-space phase diagrams, a brute-force time-domain oracle, and a
spectrum-fitting pipeline.
"""

from .model import (
    Background,
    DegenerateResponseError,
    ModelParams,
    PoleZeroSet,
    SpectrumTable,
    det_s,
    poles_zeros,
    s_elements,
    scattering_matrix,
    single_beam_spectrum,
    steady_state_response,
)
from .twoport import (
    JointAbsorbanceExtrema,
    NonReciprocalError,
    PhaseUndefinedError,
    ReciprocalDecomposition,
    SMatrix2,
    decompose,
    delta_psi,
    dets_from_observables,
    joint_absorbance,
    joint_extrema,
    wrap_phase,
)
from .regimes import (
    CpaPoint,
    CriticalLociMap,
    RegimeReport,
    classify_regime,
    critical_loci,
    find_cpa,
    min_abs_dets,
)
from .timedomain import (
    DriveSpec,
    OracleResult,
    SteadyStateNotConvergedError,
    Trajectory,
    integrate,
    oracle_scattering,
)
from .fitting import (
    FitResult,
    SpectrumDataset,
    fit_params,
    model_values,
    synth_dataset,
)

__version__ = "0.1.0"
