"""zenolab: a desk-scale laboratory for iterated-measurement quantum dynamics.

Computes n-fold measurement-interrupted evolution products on dense complex
matrices, verifies their convergence to the compressed-generator dynamics,
analyzes survival-probability decay and the Zeno / anti-Zeno crossing of the
effective rate, classifies energy distributions by tail weight, and checks
thermal (KMS) boundary identities on full and compressed algebras.
"""

from .errors import (
    ConfigError,
    DimensionMismatch,
    IOFailure,
    NoCrossing,
    NonExponential,
    NonFinite,
    NonpositiveProbability,
    NotHermitian,
    NotNormalized,
    NotPSD,
    NotSectorial,
    NotSmooth,
    Overflow,
    QuadratureFailure,
    WindowTooSmall,
    ZenoLabError,
    ZeroRank,
    ZeroSpan,
)
from .gibbs import (
    DensityState,
    gibbs_state,
    heisenberg_evolve,
    kms_residual,
    kms_scale,
    reduced_kms_residual,
    zeno_gibbs_state,
)
from .operators import (
    HermitianOperator,
    OrthogonalProjection,
    arrowhead_eigendecompose,
    eigendecompose,
    evolve,
    expm,
    identity_projection,
    operator_norm,
    projection_from_span,
)
from .scenarios import (
    RunReport,
    Scenario,
    ScenarioConfig,
    Table,
    build_scenario,
    emit_csv,
    load_config,
    parse_config,
    perturbed_invariance_check,
    run_scenario,
)
from .semigroup import (
    DegenerateForm,
    SectorialOperator,
    degenerate_form,
    degenerate_product,
    form_sum_operator,
    full_support_form,
    kato_form_sum_product,
    sector_margin,
    sectorial_operator,
)
from .spectral import (
    Cauchy,
    Classification,
    DiscreteMeasure,
    Gaussian,
    SpectralMeasure,
    TailReport,
    TwoSidedPareto,
    classify_regime,
    lln_mc,
    spectral_measure_of_state,
    tail_delta_curve,
    zeno_modulus_table,
)
from .survival import (
    DecayFit,
    DecayProfile,
    decay_fit,
    decay_profile,
    effective_rate_curve,
    find_crossing,
    geometric_speed,
    iterated_survival,
    survival_amplitude,
    survival_probability,
)
from .zeno import (
    AzcFit,
    ZenoConvergenceReport,
    ZenoProduct,
    ZenoSchedule,
    azc_fit,
    reduced_dynamics,
    zeno_convergence_report,
    zeno_generator,
    zeno_product,
)

__version__ = "0.1.0"
