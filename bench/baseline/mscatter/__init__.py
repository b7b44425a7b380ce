"""M-functionals of multivariate scatter and location.

Scatter estimation is posed over weighted finite distributions Q of
positive semidefinite matrices: the fitted scatter minimizes

    L(S, Q) = sum_i w_i [rho(tr(S^-1 M_i)) - rho(tr M_i)] + log det S

for a loss family rho.  This covers Tyler's distribution-free estimator
(the scale-invariant log loss), maximum likelihood for multivariate t and
Weibull-type models, proportional covariance matrices (atoms are Wishart
group scatters) and symmetrized estimators of arbitrary order (atoms are
sample covariances of k-subsets).  The solver iterates the fixed-point map
with guaranteed criterion descent; existence diagnostics, influence
functions and asymptotic standard errors round out the toolkit.
"""

__version__ = "0.1.0"

from .asymptotics import (
    InfluenceReport,
    SphericalConstants,
    acov_scatter,
    influence_k1,
    influence_kge2,
    location_influence,
    orth_hessian_coeffs,
    spherical_constants,
)
from .distribution import (
    ExistenceReport,
    ExistenceWitness,
    MatrixDistribution,
    WishartGroup,
    build_kstat,
    check_existence,
    from_observations,
    from_wishart_groups,
    sample_covariance,
    transform,
)
from .errors import (
    DimensionMismatchError,
    DomainError,
    InternalConsistencyError,
    InvalidInputError,
    InvalidRegimeError,
    MScatterError,
    NotPositiveDefiniteError,
    RangeError,
    UnsupportedOperationError,
)
from .location import (
    AugmentedProblem,
    LocationScatterEstimate,
    augment,
    check_location_existence,
    estimate_location_scatter,
    location_criterion,
)
from .rho import (
    RhoFunction,
    ValidationReport,
    custom,
    gaussian,
    rho_gap_bounds,
    t_dist,
    tyler,
    validate,
    weibull,
)
from .samplers import SeededStream, haar_orthogonal, mvn, mvt, sphere, wishart
from .solver import (
    HessianOperator,
    ProCovEstimate,
    ScatterEstimate,
    SolverConfig,
    criterion,
    directional_scan,
    fixed_point_solve,
    gradient,
    hessian,
    psi_map,
    solve_procov,
)
from .symmat import (
    PsdAtom,
    SpdMatrix,
    SpectralDecomp,
    SymMatrix,
    inner,
    solve_trace,
    spectral,
    sym_exp,
    sym_log,
)
