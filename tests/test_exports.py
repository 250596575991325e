"""Every name a module exports exists, so a deleted function cannot linger in __all__."""

import importlib
import pkgutil

import pytest

import cstarhodge

MODULES = {
    m.name: importlib.import_module(f"cstarhodge.{m.name}")
    for m in pkgutil.iter_modules(cstarhodge.__path__)
    if m.name != "__main__"
}
EXPORTING = sorted(name for name, module in MODULES.items() if hasattr(module, "__all__"))


def test_exporting_modules_are_found():
    assert {"algebra", "chain", "hom", "module", "serial", "symbol", "torus"} <= set(EXPORTING)


@pytest.mark.parametrize("name", EXPORTING)
def test_all_names_exist_and_star_import_works(name):
    exported = MODULES[name].__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(MODULES[name], n)] == []
    namespace: dict = {}
    exec(f"from cstarhodge.{name} import *", namespace)
    assert set(exported) <= set(namespace)
