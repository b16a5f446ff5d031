"""The public surface of ``varsign``: the names the package exports and the
parameters of its operator certifiers.  A removal or rename shows up here
as one explicit diff."""

import inspect

import pytest

import varsign

PUBLIC_NAMES = [
    "Backend", "BadIndicesError", "BetaEntry", "Certificate", "CertificateResult",
    "Conclusion", "DEFAULT_TOL", "EigenScreen", "EigenSolveFailedError", "ExtPosStatus",
    "ExtPosVerdict", "FamilyPair", "IndexOutOfRangeError", "IndexTuple", "LinalgError",
    "LtiSystem", "Matrix", "MatrixPropertyCheck", "NonSquareError", "NotObservableError",
    "OracleReport", "OrderedVerdicts", "PreconditionError", "RankOutOfRangeError",
    "ReducedCheckResult", "SignSummary", "SignVerdict", "SingularLeadingBlockError",
    "SingularMatrixError", "SizeMismatchError", "SystemVerdict", "TailBlockTransform",
    "TailCertificate", "VariationBoundReport", "Violation", "beta_family",
    "certify_controllability", "certify_hankel", "certify_k_positive",
    "certify_observability", "certify_svb", "certify_vb", "certify_vd", "classify_family",
    "compound", "compound_system", "consecutive_certificate", "default_horizon", "det",
    "dominant_tail", "eigen_necessary_check", "eigen_sorted", "external_positivity",
    "falsify_matrix_vb", "falsify_operator_vb", "full_compound_systems", "gauss_smoother",
    "impulse_response", "impulse_variation_bound", "inverse",
    "k_positive", "lex_tuples", "minimal_recurrence_system", "minor", "observability_matrix",
    "pena_transform", "rank", "reduced_check", "reduced_family", "sample_bounded_variation",
    "sign_conclusion", "sign_consistent", "sign_of", "sign_regular", "v_minus", "v_plus",
    "vb_matrix_check", "vd_matrix_check",
]

CERTIFIER_PARAMETERS = {
    "certify_svb": ["A", "c", "k", "horizon", "tol"],
    "certify_vb": ["A", "c", "k", "horizon", "tol"],
    "certify_k_positive": ["A", "c", "k", "strict", "horizon", "tol"],
    "certify_vd": ["A", "c", "k", "horizon", "tol"],
    "certify_observability": ["A", "c", "k", "prop", "horizon", "tol", "strict"],
    "certify_controllability": ["A", "b", "k", "prop", "horizon", "tol", "strict"],
    "certify_hankel": ["A", "b", "c", "k", "prop", "horizon", "tol", "strict"],
}


def test_public_names():
    # submodules become package attributes once imported, so they are left out
    names = sorted(name for name, value in vars(varsign).items()
                   if not name.startswith("_") and not inspect.ismodule(value))
    assert names == PUBLIC_NAMES


@pytest.mark.parametrize("name", sorted(CERTIFIER_PARAMETERS))
def test_certifier_parameters(name):
    params = list(inspect.signature(getattr(varsign, name)).parameters)
    assert params == CERTIFIER_PARAMETERS[name]
