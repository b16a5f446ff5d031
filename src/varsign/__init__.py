"""varsign: certify variation-bounding properties of matrices and of LTI
observability/controllability operators via compound-matrix sign
consistency and external positivity of derived compound systems."""

from .linalg import (
    DEFAULT_TOL,
    Backend,
    IndexTuple,
    IndexOutOfRangeError,
    LinalgError,
    Matrix,
    NonSquareError,
    RankOutOfRangeError,
    SingularMatrixError,
    SizeMismatchError,
    compound,
    det,
    inverse,
    lex_tuples,
    minor,
    rank,
    sign_of,
)
from .variation import gauss_smoother, v_minus, v_plus
from .signcons import (
    CertificateResult,
    Conclusion,
    FamilyPair,
    MatrixPropertyCheck,
    OrderedVerdicts,
    PreconditionError,
    ReducedCheckResult,
    SignSummary,
    SignVerdict,
    classify_family,
    consecutive_certificate,
    k_positive,
    reduced_check,
    reduced_family,
    sign_conclusion,
    sign_consistent,
    sign_regular,
    vb_matrix_check,
    vd_matrix_check,
)
from .lti import (
    EigenSolveFailedError,
    ExtPosStatus,
    ExtPosVerdict,
    LtiSystem,
    TailCertificate,
    default_horizon,
    dominant_tail,
    eigen_sorted,
    external_positivity,
    impulse_response,
    minimal_recurrence_system,
    observability_matrix,
)
from .obsv import (
    BadIndicesError,
    BetaEntry,
    Certificate,
    EigenScreen,
    NotObservableError,
    SystemVerdict,
    VariationBoundReport,
    beta_family,
    certify_controllability,
    certify_hankel,
    certify_k_positive,
    certify_observability,
    certify_svb,
    certify_vb,
    certify_vd,
    compound_system,
    eigen_necessary_check,
    full_compound_systems,
    impulse_variation_bound,
)
from .oracle import (
    OracleReport,
    Violation,
    falsify_matrix_vb,
    falsify_operator_vb,
    sample_bounded_variation,
)

__version__ = "0.1.0"
