"""The package holds only what runs: no public name that only tests call."""

import ast
from pathlib import Path

import numpy as np
import pytest

import spinboost
from spinboost.channel import plus_state
from spinboost.entangle import bell_phi_plus
from spinboost.spinalg import require_valid

SOURCES = {p.stem: p.read_text(encoding="utf-8")
           for p in sorted(Path(spinboost.__file__).parent.glob("*.py"))}
TREES = {module: ast.parse(text) for module, text in SOURCES.items()}


def public_definitions(tree):
    """(qualified name, name) of each public module-level function and class, and of
    each public method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def loaded_names(tree):
    """The names that ``tree`` reads, bare or as attributes."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def test_every_public_name_is_read_by_a_module_other_than_init():
    used = set().union(*(loaded_names(t) for module, t in TREES.items() if module != "__init__"))
    unused = [f"{module}.{qualified}" for module, tree in TREES.items()
              for qualified, name in public_definitions(tree) if name not in used]
    assert unused == []


def test_density_matrix_is_built_only_in_require_valid():
    assert [m for m, text in SOURCES.items() if "DensityMatrix(" in text] == ["spinalg"]
    require_valid_def = next(node for node in TREES["spinalg"].body
                             if getattr(node, "name", "") == "require_valid")
    segment = ast.get_source_segment(SOURCES["spinalg"], require_valid_def)
    assert SOURCES["spinalg"].count("DensityMatrix(") == segment.count("DensityMatrix(") == 1
    # and nothing unwraps a DensityMatrix: its own check reads its field
    reads = [ast.unparse(node) for t in TREES.values() for node in ast.walk(t)
             if isinstance(node, ast.Attribute) and node.attr == "matrix"]
    assert reads == ["self.matrix"]


@pytest.mark.parametrize("state", [plus_state, bell_phi_plus])
def test_initial_states_are_valid_read_only_arrays(state):
    m = state()
    assert type(m) is np.ndarray and m.dtype == complex and not m.flags.writeable
    require_valid(m)


def test_public_api():
    assert sorted(spinboost.__all__) == [
        "ChoiDiagnostics", "DensityMatrix", "DensityMatrixError", "EtaMax", "McSpec",
        "QuadratureSpec", "Scenario", "average_montecarlo", "average_quadrature",
        "bell_phi_plus", "choi_diagnostics", "choi_stack", "concurrence", "dressed_apply",
        "dressing_transform", "eta_max", "eta_profile", "evolve_elementwise",
        "gauss_hermite_nodes", "operator_sum_apply", "plus_state", "require_valid",
        "two_qubit_average",
    ]


def package_imports(tree):
    """The package modules that ``tree`` imports from, by name."""
    return {node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1}


def test_oracle_imports_nothing_from_channel():
    # the oracles check the closed forms, so they share no code with them
    assert package_imports(TREES["oracle"]) == {"relkin", "spinalg"}


def test_entangle_imports_only_spinalg():
    # the Wootters kernel and the Bell state need no channel, oracle or boost
    assert package_imports(TREES["entangle"]) == {"spinalg"}


def test_scenario_is_defined_only_in_relkin():
    assert [module for module, tree in TREES.items() for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name == "Scenario"] == ["relkin"]


def test_no_boost_attribute_is_read():
    assert [ast.unparse(node) for tree in TREES.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "boost"] == []
