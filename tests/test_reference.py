"""The reference routes stay off the production path."""

import ast
from pathlib import Path

import schubert_gb

PACKAGE = Path(schubert_gb.__file__).parent
# the modules the pipeline runs; only verify.py and the tests may use reference.py
PRODUCTION = (
    "groebner", "linalg", "schubert", "decoding", "estimators",
    "formats", "words", "validation", "fixtures", "cli",
)
MOVED = (
    "Monomial", "BinomialPair", "degrevlex_key_exponents", "degrevlex_compare",
    "exponents_from_mask", "_mul", "_div", "_lcm", "_orient", "spoly", "reduce_poly",
    "is_groebner", "_is_groebner_exponents", "exponent_pair", "as_pairs",
    "mask_from_support", "bits_from_mask",
    "scan_coset_leaders", "scan_basis", "coset_minimum",
    "schubert_points_by_plucker_filter", "lex_key", "nn_decode", "CrossCheck", "cross_check",
    "TrialStream", "draw_error",
    "buchberger", "_remainder", "_lead_code", "_lead_key", "_LOW_BITS",
    "_BUCHBERGER_MAX_VARS", "ideal_generators", "field_relation",
)


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def _imported_modules(tree: ast.Module) -> set[str]:
    """Absolute names of the package modules a module imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # from .x import y, or from . import x
                base = "schubert_gb" + (f".{node.module}" if node.module else "")
                out.add(base)
                out.update(f"{base}.{alias.name}" for alias in node.names)
            else:
                out.add(node.module)
                out.update(f"{node.module}.{alias.name}" for alias in node.names)
    return out


def _defined_names(tree: ast.Module) -> set[str]:
    """Names bound at module level or as class members."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Assign):
            out.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return out


def test_no_production_module_imports_reference():
    # the listed modules are every module of the package but verify and reference
    on_disk = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__", "verify", "reference"}
    assert on_disk == set(PRODUCTION)
    for module in PRODUCTION + ("__init__",):
        assert "schubert_gb.reference" not in _imported_modules(_tree(module)), module
    assert "schubert_gb.reference" in _imported_modules(_tree("verify"))


def test_moved_names_are_defined_only_in_reference():
    assert _defined_names(_tree("reference")) >= set(MOVED)
    for module in PRODUCTION + ("verify", "__init__"):
        assert not _defined_names(_tree(module)) & set(MOVED), module
    for module in PRODUCTION + ("__init__",):
        imported = {name.rpartition(".")[2] for name in _imported_modules(_tree(module))}
        assert not imported & set(MOVED), module
    assert not set(MOVED) & set(schubert_gb.__all__)


def test_production_divisor_index_does_not_grow():
    # the coset engine builds each index once; division keeps its leads
    # beside what both rules share, and fills the shared table from them
    from schubert_gb.groebner import _DivisorIndex

    assert {name for name in vars(_DivisorIndex) if not name.startswith("__")} == {
        "lane", "adds", "_fill",
    }
    assert set(vars(_DivisorIndex(3, [3, 5], [4, 2]))) == {"n", "rewrites", "lightest", "leads"}


def test_production_test_set_index_does_not_grow():
    # the index is built once from its list; both rules share one byte-sliced
    # table and its batch form, per-bit rewrite map and scalar form, each
    # cached on first use
    from functools import cached_property

    from schubert_gb.groebner import _RewriteIndex, _TestSet

    shared = {name: value for name, value in vars(_RewriteIndex).items() if not name.startswith("__")}
    assert set(shared) == {"table", "limbs", "picks", "rows"}
    assert all(isinstance(value, cached_property) for value in shared.values())
    assert {name for name in vars(_TestSet) if not name.startswith("__")} == {"lane", "adds", "_fill"}
    assert set(vars(_TestSet(3, [3, 5], [4, 2]))) == {"n", "rewrites", "lightest", "halves", "inner"}
