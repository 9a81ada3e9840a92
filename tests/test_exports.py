"""Every name a jpeggan module lists in `__all__` exists, so a deletion
cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import jpeggan

MODULES = sorted(info.name for info in pkgutil.iter_modules(jpeggan.__path__))


def test_modules_found():
    assert {"tensor", "layers", "networks", "training", "codec", "fid", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"jpeggan.{name}")
    exported = list(getattr(module, "__all__", ()))
    assert len(exported) == len(set(exported)), "a name is exported twice"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"jpeggan.{name}.__all__ names missing attributes: {missing}"
