"""Connection coefficients between twisted-monomial bases, at four levels.

The central object is the (N+1) x (N+1) matrix relating the products
h_k(x; a) h_{N-k}(x; b) to h_l(x; c) h_{N-l}(x; d), where h_k is a
two-sided shifted factorial in a point on a conic.  The same matrix
specializes down a cascade: elliptic -> trigonometric -> q-Racah ->
Krawtchouk.  Four independent construction routes, the identities the
matrix satisfies (biorthogonality, addition, convolution, multifactor
fusion, summation formulas, difference-operator relations), and a seeded
verification harness for all of them live here.
"""

from .backend import BACKEND
from .basis import (
    BasisPair,
    basis_valid,
    collocation_points,
    expand_by_solve,
    expansion_residual,
    h_pair_fn,
    h_value,
    wn_membership,
    xi_from_x,
)
from .context import EllipticContext, make_context
from .errors import (
    BalancingError,
    DomainError,
    EvaluationPointError,
    IllConditionedError,
    SamplingError,
    SingularParameterError,
    SixjError,
)
from .harness import (
    IDENTITY_COVERAGE,
    LEVEL_TOL,
    SUITES,
    AggregateReport,
    Failure,
    Level,
    SampleConfig,
    Shape,
    VerifyReport,
    aggregate_json,
    report_json,
    run_suite,
    sample_generic,
)
from .scalar import (
    elliptic_pochhammer,
    q_binomial,
    q_pochhammer,
    rising_factorial,
    theta,
)
from .series import (
    SeriesSpec,
    eval_V12,
    eval_W,
    eval_rFs,
    eval_rphi_s,
    eval_series,
    f_spec,
    jackson_rhs,
    jackson_spec,
    phi_spec,
    series_terms,
    v12_spec,
    w_spec,
)
from .sixj import (
    CoeffMatrix,
    LimitKind,
    LimitReport,
    ParamQuad,
    Route,
    R_double_sum,
    R_explicit,
    R_matrix,
    R_paths,
    R_solve,
    band_quad,
    elliptic_W6j,
    gbt_row,
    inverted_a,
    krawtchouk_K,
    krawtchouk_inverse,
    krawtchouk_matrix,
    multiconv_rhs,
    paths_gf,
    paths_qbinomial,
    qracah_C,
    qracah_D,
    qracah_matrix,
    subset_expansion_sides,
)
from .sklyanin import (
    DiffOpSpec,
    GevpReport,
    apply_delta,
    eigenrelation_check,
    gevp_check,
    off_band_mass,
    operator_matrix,
    pfl_residual,
    riemann_residual,
    tadd_residual,
)
from .wilson import (
    WilsonParams,
    eto_norm,
    eto_pairing_sum,
    eto_weight,
    quad_to_wilson,
    rational_R,
    rational_S,
    wilson_addition,
    wilson_biorth_sum,
    wilson_norm,
    wilson_r,
    wilson_to_quad,
    wilson_weight,
)

__version__ = "0.1.0"
