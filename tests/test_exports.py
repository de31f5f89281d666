"""Every name a polarview module exports resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import polarview

MODULES = ["polarview"] + sorted(f"polarview.{m.name}" for m in pkgutil.iter_modules(polarview.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []
