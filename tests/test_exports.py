import importlib

import pytest

import vnsim

MODULES = ["characteristics", "diagnostics", "vlasov_pic", "wavefield"]


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    mod = importlib.import_module(f"vnsim.{name}")
    for export in mod.__all__:
        assert hasattr(mod, export), f"vnsim.{name}.__all__ names missing {export!r}"


def test_package_reexports_public_names():
    for export in (n for n in dir(vnsim) if not n.startswith("_")):
        home = getattr(getattr(vnsim, export), "__module__", "")
        if home.removeprefix("vnsim.") in MODULES:
            assert export in importlib.import_module(home).__all__, (
                f"vnsim.{export} is not in {home}.__all__")
