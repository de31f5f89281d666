"""Every name a polarview module exports resolves, so a deletion cannot leave a stale export; the parameters
with defaults and the private names one module takes from another are pinned, so a new option or a new
private coupling shows up as an edit here."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import polarview

MODULES = ["polarview"] + sorted(f"polarview.{m.name}" for m in pkgutil.iter_modules(polarview.__path__))

# (function, parameter) for every parameter with a default in src/polarview; each has callers that pass
# different values, so none of them can become a constant
DEFAULTED_PARAMETERS = [
    ("assignment.build_cost_matrix", "class_cost_form"),
    ("assignment.class_cost", "form"),
    ("camera.EgoPose.identity", "dt"),
    ("cli._add_settings", "own"),
    ("cli.main", "argv"),
    ("loss.finite_difference_gradient", "step"),
    ("loss.loss_gradient", "kink_tol"),
    ("serialization._number_rows", "width"),
    ("simulator.DetectionFrame.__init__", "detections"),
    ("simulator.generate_scene", "rig"),
    ("simulator.render_detections", "range_config"),
    ("tracker.run_tracker", "config"),
]

# (module, source.name) for every private name a module of src/polarview takes from another, by
# ``from .source import _name`` or by ``source._name`` after ``from . import source``
PRIVATE_IMPORTS = [
    ("cli", "serialization._RecordTable"),
    ("cli", "serialization._detections_document"),
    ("loss", "geometry._PAIR_TOL"),
    ("loss", "geometry._box_fields"),
    ("loss", "geometry._encoding_fields"),
    ("loss", "geometry._require_encoding"),
    ("loss", "geometry._require_finite"),
    ("loss", "geometry._require_positive_size"),
    ("loss", "geometry._require_unit_pair"),
    ("simulator", "camera._check_poses"),
    ("simulator", "geometry._PAIR_TOL"),
    ("simulator", "geometry._libm"),
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []


def defaulted_parameters(node, prefix):
    """(qualified function name, parameter) for each parameter with a default under an AST node."""
    for child in ast.iter_child_nodes(node):
        name = f"{prefix}.{getattr(child, 'name', '')}"
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = child.args
            positional = args.posonlyargs + args.args
            yield from ((name, a.arg) for a in positional[len(positional) - len(args.defaults):])
            yield from ((name, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
        yield from defaulted_parameters(child, name if isinstance(child, ast.ClassDef) else prefix)


def test_defaulted_parameters_are_pinned():
    found = []
    for path in pathlib.Path(polarview.__file__).parent.glob("*.py"):
        found += defaulted_parameters(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert sorted(found) == DEFAULTED_PARAMETERS


def private_imports(tree, module):
    """(module, source.name) for each private name the parsed ``module`` takes from a sibling module."""
    siblings = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                siblings.update(a.asname or a.name for a in node.names)
            else:
                yield from ((module, f"{node.module}.{a.name}") for a in node.names if a.name.startswith("_"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in siblings:
            if node.attr.startswith("_"):
                yield module, f"{node.value.id}.{node.attr}"


def test_private_imports_are_pinned():
    found = set()
    for path in pathlib.Path(polarview.__file__).parent.glob("*.py"):
        found.update(private_imports(ast.parse(path.read_text(encoding="utf-8")), path.stem))
    assert sorted(found) == PRIVATE_IMPORTS
