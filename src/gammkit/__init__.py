"""Penalized-spline additive mixed models with AR(1) errors.

Submodules are imported lazily (PEP 562), so the command line's --help and
spec-file errors need no numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    # data
    "DataTable": "gammkit.data",
    "FactorColumn": "gammkit.data",
    "load_csv": "gammkit.data",
    # basis
    "BasisBlock": "gammkit.basis",
    "KnotSet": "gammkit.basis",
    "poly_basis": "gammkit.basis",
    "knots_quantile": "gammkit.basis",
    "cr_basis": "gammkit.basis",
    "tp_basis": "gammkit.basis",
    "tensor_product": "gammkit.basis",
    "apply_by_factor": "gammkit.basis",
    "factor_smooth": "gammkit.basis",
    "random_effect": "gammkit.basis",
    "absorb_constraints": "gammkit.basis",
    # terms
    "SmoothTermSpec": "gammkit.terms",
    "ParametricTerm": "gammkit.terms",
    "ModelSpec": "gammkit.terms",
    # fitting
    "AssembledDesign": "gammkit.fitting",
    "FittedModel": "gammkit.fitting",
    "assemble": "gammkit.fitting",
    "ar1_whiten": "gammkit.fitting",
    "pls_solve": "gammkit.fitting",
    "reml_score": "gammkit.fitting",
    "optimize_lambdas": "gammkit.fitting",
    "fit": "gammkit.fitting",
    "predict": "gammkit.fitting",
    "partial_effect": "gammkit.fitting",
    # inference
    "TermSummary": "gammkit.inference",
    "ModelScore": "gammkit.inference",
    "aic": "gammkit.inference",
    "nested_f_test": "gammkit.inference",
    "compare_reml": "gammkit.inference",
    "wald_term_test": "gammkit.inference",
    "summarize_terms": "gammkit.inference",
    # diagnostics
    "AcfResult": "gammkit.diagnostics",
    "acf": "gammkit.diagnostics",
    "residual_acf_by_group": "gammkit.diagnostics",
    "suggest_rho": "gammkit.diagnostics",
    "permutation_fs_test": "gammkit.diagnostics",
    "pilot_spec": "gammkit.diagnostics",
    # simulate
    "ScenarioSpec": "gammkit.simulate",
    "FixedEffect": "gammkit.simulate",
    "gen_trend": "gammkit.simulate",
    "gen_experiment": "gammkit.simulate",
    # errors
    "GammkitError": "gammkit.errors",
    "SchemaError": "gammkit.errors",
    "ParseError": "gammkit.errors",
    "DomainError": "gammkit.errors",
    "RankError": "gammkit.errors",
    "ShapeError": "gammkit.errors",
    "NestingError": "gammkit.errors",
    "NumericError": "gammkit.errors",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'gammkit' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
