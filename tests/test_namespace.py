"""The package namespace loads each public name's home module on first use.

The fresh-interpreter cases matter: a test session shares sys.modules, where
some earlier test has already imported every module.
"""

import importlib
import inspect
import json
import subprocess
import sys

import pytest

import revcurve


def fresh(code: str, *args: str) -> str:
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, check=True,
                          timeout=120).stdout


@pytest.mark.parametrize("name", revcurve.__all__)
def test_each_public_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"revcurve.{revcurve._HOME[name]}")
    assert getattr(revcurve, name) is getattr(home, name)


HOME_MODULES = ("dist", "learners", "empirical", "curves", "adversary")


@pytest.mark.parametrize("module", HOME_MODULES)
def test_every_public_definition_is_in_the_package_list(module):
    """A class or function a home module defines without a leading underscore is a public name of the package."""
    home = importlib.import_module(f"revcurve.{module}")
    assert not hasattr(home, "__all__")
    defined = {
        name for name, value in vars(home).items()
        if not name.startswith("_") and (inspect.isclass(value) or inspect.isfunction(value))
        and value.__module__ == home.__name__
    }
    assert defined
    for name in defined:
        assert revcurve._HOME.get(name) == module and getattr(revcurve, name) is getattr(home, name), name


def test_star_import_binds_every_public_name():
    scope: dict = {}
    exec("from revcurve import *", scope)
    assert {name for name in scope if name != "__builtins__"} == set(revcurve.__all__)
    assert scope["parse_learner"] is revcurve.parse_learner


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        revcurve.no_such_name  # noqa: B018
    assert not hasattr(revcurve, "_no_such_private")


def test_dir_lists_the_public_names():
    assert set(revcurve.__all__) <= set(dir(revcurve))


LOADED_AFTER_PARSING = """
import json, sys
import revcurve
revcurve.parse_learner("erm")
revcurve.parse_dist("uniform01")
print(json.dumps(sorted(m for m in ("revcurve.adversary", "revcurve.curves") if m in sys.modules)))
"""


def test_parsing_specs_loads_neither_curves_nor_adversary():
    assert json.loads(fresh(LOADED_AFTER_PARSING)) == []


def test_import_alone_loads_no_numpy_and_no_submodule():
    loaded = json.loads(fresh("import json, sys, revcurve; print(json.dumps(sorted(sys.modules)))"))
    assert [m for m in loaded if m == "numpy" or m.startswith(("numpy.", "revcurve."))] == []


def test_curve_command_loads_no_adversary(tmp_path):
    # -X importtime lists every module the process imports, on stderr
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "revcurve", "curve", "--learner", "erm", "--dist", "uniform01",
         "--grid", "10,20", "--trials", "4", "--workers", "1", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert "revcurve.curves" in loaded and "revcurve.adversary" not in loaded
