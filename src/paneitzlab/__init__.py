"""Spectral geometry of the fourth-order curvature operator on submanifolds.

The package computes eigenvalues of the conformally covariant fourth-order
operator (biharmonic principal part, curvature-corrected second order,
Q-curvature zero order) on compact submanifolds of Euclidean space, both in
closed form for products of round spheres and numerically for torus
immersions with finitely many Fourier modes, then checks sharp upper bounds
for low eigenvalues against the computed spectra, diagnoses the equality
cases, and can replay the underlying trial-function derivations step by
step.

Layering, bottom up: ``coefficients`` (dimension constants as exact
rationals), ``geometry`` (pointwise curvature from immersion 2-jets),
``catalog`` (closed-form spectra), ``fourier``/``discrete``/``eigensolve``
(pseudospectral discretization and solvers), ``bounds``/``replay``
(inequality checks), ``specfile``/``report``/``cli`` (the command-line
surface).
"""

from .bounds import (
    BoundReport,
    DeltaChoice,
    EqualityDiagnosis,
    GeometrySummary,
    diagnose_equality,
    evaluate,
    optimal_delta,
    summarize_bundle,
    summarize_model,
    u1_from_lines,
    u1_from_result,
    verify_cor_1_1,
    verify_cor_3_1,
    verify_intro_bounds,
    verify_thm_1_1,
    verify_thm_1_2,
    verify_thm_1_3,
)
from .catalog import (
    ModelManifold,
    SpectralLine,
    SphereFactor,
    expand_lines,
    flat_torus,
    model_constants,
    paneitz_form,
    paneitz_spectrum,
    round_sphere,
    sphere_product,
)
from .coefficients import DimensionCoefficients, paneitz_coefficients, q_curvature
from .discrete import (
    CurvatureBundle,
    PaneitzOperator,
    apply_laplacian,
    apply_paneitz,
    assemble_dense,
    build_bundle,
)
from .eigensolve import SpectrumResult, dense_spectrum, lanczos_smallest, spectrum
from .errors import (
    AmbiguityError,
    DegenerateImmersionError,
    GateError,
    InvalidDimensionError,
    PaneitzLabError,
    PositivityError,
    SolverFailureError,
    SpecFileError,
)
from .fourier import (
    FourierImmersion,
    FourierTerm,
    TorusGrid,
    clifford_torus,
    donut_torus,
)
from .geometry import (
    CurvatureFields,
    CurvaturePoint,
    ImmersionJet,
    MetricData,
    curvature_point,
    gauss_identity_residual,
    induced_metric,
)
from .replay import ProofChainReport, ProofStep, replay_proof, replay_proof_analytic

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "PaneitzLabError", "InvalidDimensionError", "DegenerateImmersionError",
    "GateError", "PositivityError", "AmbiguityError", "SolverFailureError",
    "SpecFileError",
    # coefficients
    "DimensionCoefficients", "paneitz_coefficients", "q_curvature",
    # geometry
    "ImmersionJet", "MetricData", "CurvatureFields", "CurvaturePoint", "induced_metric",
    "curvature_point", "gauss_identity_residual",
    # catalog
    "ModelManifold", "SphereFactor", "SpectralLine", "round_sphere",
    "sphere_product", "flat_torus", "model_constants", "paneitz_form",
    "paneitz_spectrum", "expand_lines",
    # fourier / discrete / solvers
    "TorusGrid", "FourierTerm", "FourierImmersion", "clifford_torus",
    "donut_torus", "CurvatureBundle", "build_bundle", "apply_laplacian",
    "apply_paneitz", "assemble_dense", "PaneitzOperator", "SpectrumResult",
    "dense_spectrum", "lanczos_smallest", "spectrum",
    # bounds / replay
    "GeometrySummary", "summarize_model", "summarize_bundle", "BoundReport",
    "EqualityDiagnosis", "diagnose_equality", "DeltaChoice", "optimal_delta",
    "u1_from_result", "u1_from_lines", "evaluate", "verify_thm_1_1", "verify_cor_1_1",
    "verify_thm_1_2", "verify_thm_1_3", "verify_cor_3_1", "verify_intro_bounds",
    "ProofStep", "ProofChainReport", "replay_proof", "replay_proof_analytic",
]
