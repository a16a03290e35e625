"""The public API, pinned: names in ``prbox.__all__``, the one module that
owns each of them, and the parameters of the locality checks, the lambda
sweep, the random search, the samplers, validation, mixing and JSON loading,
and the modules the package imports.  A change here is a change of the
public interface and should be made on purpose."""

import ast
import importlib
import inspect
import re
import sys
from pathlib import Path

import pytest

import prbox

PUBLIC_NAMES = [
    "BoxFormatError",
    "BoxTable",
    "ChshResult",
    "ClassicalBoundCertificate",
    "ComparisonResult",
    "DEFAULT_EPS",
    "EmpiricalTable",
    "HVDependence",
    "HVModel",
    "InsufficientTrialsError",
    "LambdaDist",
    "LocalityReport",
    "MeasurementAngles",
    "OPTIMAL_CHSH_ANGLES",
    "SampleRecord",
    "SweepPoint",
    "TwoQubitState",
    "ValidationIssue",
    "ValidationResult",
    "Verdict",
    "Witness",
    "all_deterministic_boxes",
    "bell_factorizable",
    "chsh_value",
    "classical_bound_certificate",
    "compare",
    "conditional",
    "conditional_b",
    "conditioned_dependence",
    "convex_mix",
    "correlation",
    "deterministic_local_box",
    "empirical_chsh",
    "from_json",
    "hv_dependence",
    "hv_to_box",
    "lambda_sweep",
    "locality_report",
    "marginal_a",
    "marginal_b",
    "max_chsh_over_random_angles",
    "no_signaling",
    "outcome_independence",
    "parameter_independence",
    "pr_box",
    "pr_constraint_holds",
    "pr_hv_model",
    "records_to_csv",
    "sample_box",
    "sample_box_records",
    "sample_hv",
    "sample_hv_records",
    "signed_outcome",
    "singlet",
    "singlet_box",
    "to_json",
    "truth_table",
    "truth_table_csv",
    "uniform_box",
    "validate",
]

EMPTY = inspect.Parameter.empty
CHECK = [("t", EMPTY), ("eps", 1e-9)]
SIGNATURES = {
    "no_signaling": CHECK,
    "parameter_independence": CHECK,
    "outcome_independence": CHECK,
    "bell_factorizable": CHECK,
    "conditioned_dependence": CHECK,
    "locality_report": CHECK,
    "lambda_sweep": [("distributions", EMPTY), ("eps", 1e-9)],
    "max_chsh_over_random_angles": [("n_points", EMPTY), ("seed", EMPTY)],
    "sample_box": [("t", EMPTY), ("trials_per_setting", EMPTY), ("seed", EMPTY)],
    "sample_box_records": [("t", EMPTY), ("trials_per_setting", EMPTY), ("seed", EMPTY)],
    "sample_hv": [("m", EMPTY), ("trials_per_setting", EMPTY), ("seed", EMPTY)],
    "sample_hv_records": [("m", EMPTY), ("trials_per_setting", EMPTY), ("seed", EMPTY)],
    "validate": CHECK,
    "convex_mix": [("boxes", EMPTY), ("weights", EMPTY), ("eps", 1e-9), ("label", None)],
    "from_json": [("text", EMPTY), ("eps", 1e-9)],
}


def test_public_names_are_pinned():
    assert len(set(prbox.__all__)) == len(prbox.__all__)
    assert sorted(prbox.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    assert [name for name in prbox.__all__ if not hasattr(prbox, name)] == []


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_signature_is_pinned(name):
    parameters = inspect.signature(getattr(prbox, name)).parameters.values()
    assert [(p.name, p.default) for p in parameters] == SIGNATURES[name]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in parameters)


OWNERS = ["box", "chsh", "hidden_variable", "locality", "quantum", "sampler"]


def _defined_at_top_level(module):
    """Names a module binds by def, class or assignment, not by import."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_each_public_name_has_one_owner(name):
    modules = [importlib.import_module(f"prbox.{owner}") for owner in OWNERS]
    owners = [module for module in modules if name in module.__all__]
    assert len(owners) == 1
    assert name in _defined_at_top_level(owners[0])
    assert getattr(prbox, name) is getattr(owners[0], name)


def test_each_input_rule_is_defined_in_box():
    """Every input rule, a function named ``_check_*`` or ``_require_*``,
    nested ones and methods included, is defined in box.py."""
    rules = [
        (path.name, node.name)
        for path in sorted(Path(prbox.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith(("_check_", "_require_"))
    ]
    assert {"_check_eps", "_require_valid"} <= {name for _, name in rules}
    assert [rule for rule in rules if rule[0] != "box.py"] == []


def test_models_are_read_only_through_their_completion():
    """hidden_variable.py alone reads a model's ``.responses`` or ``.dist``:
    every other module sees a model as weights and one box per lambda."""
    reads = [
        (path.name, node.attr)
        for path in sorted(Path(prbox.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in ("responses", "dist")
    ]
    assert ("hidden_variable.py", "responses") in reads
    assert [read for read in reads if read[0] != "hidden_variable.py"] == []


def test_imports_are_stdlib_numpy_or_prbox():
    """pyproject.toml declares numpy as the one dependency, so every import
    in the package, nested ones included, is of the standard library, numpy
    or prbox itself; scipy and the test tools stay out."""
    allowed = sys.stdlib_module_names | {"numpy", "prbox"}
    imports = []
    for path in sorted(Path(prbox.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imports += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imports.append((path.name, node.module))
    assert ("quantum.py", "numpy") in imports
    assert [(f, m) for f, m in imports if m.partition(".")[0] not in allowed] == []


def test_test_extras_cover_every_test_import():
    """CI installs ``.[test]``, so every top-level import under tests/ and
    bench/tests/ that is neither the standard library nor a module of this
    repository is named in pyproject.toml's dependencies or test extra."""
    tomllib = pytest.importorskip("tomllib")  # the standard library from Python 3.11
    root = Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    requirements = [*project["dependencies"], *project["optional-dependencies"]["test"]]
    declared = {re.match(r"[\w.-]+", r)[0].lower().replace("-", "_") for r in requirements}
    local = {path.stem for d in ("tests", "bench", "scripts") for path in (root / d).rglob("*.py")}
    local |= {path.name for path in (root / "src").iterdir() if path.is_dir()}
    imported = set()
    for path in [*(root / "tests").rglob("*.py"), *(root / "bench" / "tests").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    third_party = imported - sys.stdlib_module_names - local
    assert {"numpy", "pytest", "hypothesis"} <= third_party
    assert sorted(third_party - declared) == []


def test_package_names_are_the_owners_lists():
    modules = [importlib.import_module(f"prbox.{owner}") for owner in OWNERS]
    assert prbox.__all__ == [name for module in modules for name in module.__all__]
