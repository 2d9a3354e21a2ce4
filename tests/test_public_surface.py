"""The public names of thetarel, pinned so that none is added or dropped
unnoticed; the benchmark's tracer wraps the functions in each __all__."""

import importlib
import inspect

import pytest

import thetarel

MODULE_ALL = {
    "charalg": [
        "Characteristic", "CycleClass", "MixedClassError", "cycle_number", "class_of",
        "enumerate_shifts", "char_linear_combine",
    ],
    "theta": [
        "PeriodMatrix", "EvalSettings", "ThetaValue", "TruncationError", "theta",
        "theta_constant", "theta_shift_table", "char_shift_phase", "DEFAULT_SETTINGS",
    ],
    "transforms": [
        "TransformMatrix", "smith_matrix", "jacobi_a_matrix", "apply_to_args",
        "apply_to_chars",
    ],
    "relations": [
        "CoefficientMode", "RelationSpec", "RelationTerm", "Relation", "VerificationReport",
        "TrialSampler", "coefficient_kappa", "build_relation", "lhs_value", "rhs_value",
        "verify", "verify_jacobi_a", "overall_verdict", "relation_report", "DEFAULT_SEED",
    ],
    "identities": [
        "IdentityCase", "DEFAULT_CASES", "ternary_cube_check", "ternary_constants_check",
        "jacobi_quartic_check", "smith_relation_check", "constant_symmetries_check",
        "collapse_args_equal_check", "run_suite",
    ],
    "render": [
        "dumps", "terms_to_json_obj", "parse_terms_json", "relation_to_latex",
        "terms_to_text",
    ],
    "cli": ["main", "entry"],
}

# Importing every submodule binds it in the package namespace.
MODULES = {name: importlib.import_module(f"thetarel.{name}") for name in MODULE_ALL}

# Everything the package re-exports, plus its submodules and __version__.
PACKAGE_NAMES = sorted(
    {name for names in MODULE_ALL.values() for name in names}
    - {"dumps", "terms_to_json_obj", "parse_terms_json", "relation_to_latex",
       "terms_to_text", "main", "entry"}
    | set(MODULE_ALL)
    | {"__version__"}
)


@pytest.mark.parametrize("module", MODULE_ALL)
def test_module_all_is_pinned(module):
    mod = MODULES[module]
    assert mod.__all__ == MODULE_ALL[module]
    for name in mod.__all__:
        getattr(mod, name)


def test_package_namespace_is_pinned():
    names = sorted(n for n in vars(thetarel) if not n.startswith("_") or n == "__version__")
    assert names == PACKAGE_NAMES


@pytest.mark.parametrize(
    "module, name, params",
    [
        ("render", "terms_to_json_obj", ["spec", "terms"]),
        ("render", "relation_to_latex", ["spec", "terms"]),
        ("render", "terms_to_text", ["spec", "terms"]),
        ("relations", "relation_report", ["spec", "terms", "reports", "tol"]),
    ],
)
def test_renderer_signatures_are_pinned(module, name, params):
    fn = getattr(MODULES[module], name)
    assert list(inspect.signature(fn).parameters) == params
