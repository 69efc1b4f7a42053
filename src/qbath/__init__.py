"""Exact reduced dynamics of a damped oscillator coupled to a finite bosonic bath."""

from .baths import (
    BathSpec,
    CoherentStateBath,
    EquilibriumBath,
    GaussianFParams,
    NoiseCorrelation,
    NumberStateBath,
    bath_F_eval,
    bath_f_params,
    coherent_F_params,
    delta_correlations,
    equilibrium_F_params,
    member_rng,
    number_F_eval,
    occupation,
    sample_coherent_state,
    sample_number_state,
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
    GaussianFSeries,
    GeneralResidualReport,
    GeneratorCoefficients,
    chi_time_derivative,
    coherent_f_series,
    equilibrium_f_series,
    f_series_for,
    gaussian_generator,
    general_generator_apply,
    general_generator_residual,
    generator_residual,
    generator_series,
    xi_zeta,
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
    purity_rows,
    square_eta_grid,
    summarize,
    variance_weights,
    variances,
)
from .presets import STOCK_MODEL_NAMES, stock_config, stock_model
from .propagator import (
    DecayReport,
    PropagatorCoefficients,
    TimeGrid,
    compute_propagator,
    decay_report,
    is_rwa,
    plateau_window,
    sum_rule_defect,
    sum_rule_defects,
)
from .rwa import (
    MinPurityReport,
    OverlapParams,
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
