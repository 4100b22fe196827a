"""Hygiene of the package source, read with the standard library's ast: no
module imports a name it never uses, every private top-level name is
referenced by some module, and the package exports exactly the names
pinned here, so a change to its public API shows in this file."""

import ast
import types
from pathlib import Path

import pytest

import psdorder

MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(Path(psdorder.__file__).parent.glob("*.py"))}

# the public API of psdorder, as `from psdorder import *` sees it
PUBLIC = {
    "BlueVerdict", "ComparisonVerdict", "DEFAULT_TOL", "DimensionMismatch", "InconsistentSamples",
    "Inertia", "LinearModel", "MatrixMap", "McReport", "MinusMethod", "NonConvergence",
    "NotMinusComparable", "NotPositiveSemidefinite", "OrderVerdict", "ParseError",
    "PreservationReport", "PsdMatrix", "PsdOrderError", "QFormEntry", "QFormReport", "Relation",
    "SimCongResult", "SingularS", "SymMatrix", "ToleranceConfig", "blue_check", "congruence_map",
    "efficiency_matrix", "fit_congruence", "inertia", "lowner_leq",
    "mc_quadratic_forms", "minus_leq", "model_compare", "order_holds_many", "order_leq",
    "preserves_order", "probe_inputs", "projector_fixed_point_suite", "qform_rank_criterion",
    "sim_congruence", "star_family_leq",
}


def _loaded(tree):
    """The names a module reads: each bare name it loads, and each
    attribute it reads off another."""
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)} | {
        n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def _imported(tree):
    """The names a module binds by import."""
    return {(alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}


def _private_definitions(tree):
    """The private (one leading underscore) names a module defines at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


# __init__ imports to re-export
@pytest.mark.parametrize("module", sorted(set(MODULES) - {"__init__"}))
def test_no_module_imports_a_name_it_never_uses(module):
    tree = MODULES[module]
    assert sorted(_imported(tree) - _loaded(tree)) == []


def test_every_private_top_level_name_is_referenced():
    referenced = set().union(*map(_loaded, MODULES.values()))
    for tree in MODULES.values():
        referenced |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                       for alias in node.names}
    defined = {(module, name) for module, tree in MODULES.items() for name in _private_definitions(tree)}
    assert sorted((module, name) for module, name in defined if name not in referenced) == []


def test_the_package_exports_exactly_its_public_names():
    exported = {name for name, value in vars(psdorder).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC
