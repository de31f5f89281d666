"""Every name a polarview module exports resolves, so a deletion cannot leave a stale export; the parameters
with defaults are pinned, so a new option shows up as an edit here."""

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
    ("simulator._noisy", "low"),
    ("simulator.generate_scene", "rig"),
    ("simulator.render_detections", "range_config"),
    ("tracker.run_tracker", "config"),
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
