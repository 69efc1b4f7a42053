"""Exact reduced dynamics of a damped oscillator coupled to a finite bosonic bath."""

import os
import sys

# OpenBLAS's factorizations and products give bits that depend on the thread
# count, so artifacts are byte-identical only at a fixed count: one, unless the
# caller set one.  OpenBLAS reads these variables when numpy is first imported,
# so BLAS_THREADS holds the values in effect, or None when numpy came first.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_pinned = {var: os.environ.setdefault(var, "1") for var in BLAS_THREAD_VARS}
BLAS_THREADS = None if "numpy" in sys.modules else _pinned

from .baths import (
    BathSpec,
    CoherentStateBath,
    EquilibriumBath,
    GaussianFSeries,
    NoiseCorrelation,
    NumberStateBath,
    bath_F_eval,
    bath_sums,
    delta_correlations,
    occupation,
    sample_coherent_states,
    sample_number_states,
)
from .config import RunConfig, load_config, parse_config, realize_bath
from .errors import (
    AccuracyError,
    DataError,
    NumericalError,
    ParameterError,
    PhysicalityError,
    QbathError,
    SchemaError,
    SingularGeneratorError,
)
from .mastereq import (
    DENOM_FLOOR,
    general_generator,
    general_generator_residual,
    generator_coefficients,
    generator_residual,
)
from .model import (
    CouplingFamily,
    ModelSpec,
    SpectralDiscretization,
    SpectralFamily,
    Units,
    build_model,
    dynamical_matrix,
    quadratic_form_matrix,
    spectral_density,
    validate_model,
)
from .observables import (
    EnsembleSummary,
    asymptotic_purity,
    asymptotic_variances,
    averaged_purity_number_ensemble,
    chi_eval,
    displaced_vacuum_check,
    mean_xp,
    number_variance_of_variance,
    observable_series,
    purity,
    square_eta_grid,
    summarize,
    variances,
)
from .propagator import (
    DecayReport,
    PropagatorCoefficients,
    TimeGrid,
    compute_propagator,
    decay_report,
    row_slice,
    sum_rule_defects,
)
from .rwa import (
    MinPurityReport,
    min_purity_check,
    purity_cat_rwa,
    purity_squeezed_rwa,
)
from .states import (
    CatState,
    GaussianMoments,
    OscillatorState,
    SqueezedDisplaced,
    central_moments,
    chi0_eval,
    chi0_wirtinger,
    coherent_overlap,
    gaussian_chi_params,
    initial_moments,
    is_gaussian,
    vacuum_state,
)

__version__ = "0.1.0"
