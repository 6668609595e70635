"""Numerics for matrix coefficients of the Lorentz group double cover at the
constrained labels (k = j, rho = tau * j), SU(2) harmonic analysis, and the
series diagnostics connecting the two.
"""
from .config import RunConfig, load_run_config
from .expansion import (
    CoefficientTable,
    ExpansionConfig,
    GrowthReport,
    NormIdentityReport,
    SingularTauError,
    divergence_probe,
    norm_identity,
    partial_sum_diagonal,
    partial_sum_triple,
    synthesize,
)
from .lie_group import (
    CartanFactors,
    MatrixInvariantError,
    QuadratureGrid,
    SL2CElement,
    SU2Element,
    cartan_decompose,
    epsilon_of,
    haar_quadrature_su2,
    su2_from_euler,
)
from .logcomplex import LogComplexValue, log_sum
from .principal_series import (
    EXACT_J_LIMIT,
    EpsilonDomainError,
    IndexRangeError,
    boundary_ratio_test,
    diagonal_coefficient,
    diagonal_coefficients,
    evaluation_path,
    ratio_test,
)
from .reports import SeriesReport, TermRecord
from .special import (
    GammaPoleError,
    Hyp2F1DomainError,
    SaddlePointDomainError,
    SeriesConvergenceError,
    hyp2f1,
    log_gamma,
    saddle_point_2f1,
)
from .wigner import (
    FourierTableSU2,
    PaleyWienerReport,
    SpinLabel,
    WignerIndexError,
    paley_wiener_report,
    su2_fourier,
    synthesize_su2,
    wigner_D,
    wigner_small_d,
)
from .ymap import YMapRequest, ymap_apply, ymap_convergence_report

__version__ = "0.1.0"
