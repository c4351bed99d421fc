"""Desk-scale numerics for Lorentz sequence spaces, nuclear
representations, finite-rank approximation, and trace-formula audits on
finite l_p spaces."""

from .sequences import (
    FactorizationCertificate,
    LorentzIndex,
    Padded,
    factor_l1_lorentz,
    holder_product_bound,
    lorentz_quasi_norm,
    sharpness_witness,
)
from .spaces import (
    AmbientSpace,
    NormBracket,
    OperatorMatrix,
    Vector,
    dual_exponent,
    lp_norm,
    operator_norm,
    projection_onto_span,
    vector_norm,
)
from .nuclear import (
    NuclearIndex,
    Representation,
    improve_representation,
    induced_matrix,
    nuclear_trace,
    quasi_norm,
    rebalance,
    trace_perturbation_bound,
    weak_norm_bracket,
)
from .spectral import (
    NilpotentReport,
    SimilarityReport,
    TraceAudit,
    audit_trace_formula,
    characteristic_roots,
    eigenvalues,
    match_spectra,
    nilpotent_check,
    similarity_spectrum_check,
    trace_formula_exponent,
)
from .approximation import (
    ApproximationCertificate,
    build_approximant,
    projection_growth_exponent,
    select_rank,
)
from .experiments import ExperimentConfig, RunReport, run

__version__ = "0.1.0"

__all__ = [
    "AmbientSpace",
    "ApproximationCertificate",
    "ExperimentConfig",
    "FactorizationCertificate",
    "LorentzIndex",
    "NilpotentReport",
    "NormBracket",
    "NuclearIndex",
    "OperatorMatrix",
    "Padded",
    "Representation",
    "RunReport",
    "SimilarityReport",
    "TraceAudit",
    "Vector",
    "audit_trace_formula",
    "build_approximant",
    "characteristic_roots",
    "dual_exponent",
    "eigenvalues",
    "factor_l1_lorentz",
    "holder_product_bound",
    "improve_representation",
    "induced_matrix",
    "lorentz_quasi_norm",
    "match_spectra",
    "nilpotent_check",
    "nuclear_trace",
    "operator_norm",
    "projection_growth_exponent",
    "projection_onto_span",
    "quasi_norm",
    "rebalance",
    "run",
    "select_rank",
    "sharpness_witness",
    "similarity_spectrum_check",
    "trace_formula_exponent",
    "trace_perturbation_bound",
    "lp_norm",
    "vector_norm",
    "weak_norm_bracket",
]
