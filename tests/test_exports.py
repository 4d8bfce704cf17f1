import importlib
import subprocess
import sys

import pytest

import microset


def test_all_lists_exactly_the_imported_names():
    # the lazy table is the package's only list of imports
    assert microset.__all__ == sorted(microset._EXPORTS)
    namespace: dict = {}
    exec("from microset import *", namespace)
    for name, home in microset._EXPORTS.items():
        defined = getattr(importlib.import_module(f"microset.{home}"), name)
        assert namespace[name] is defined, name
        assert getattr(microset, name) is defined, name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError):
        microset.no_such_name


def test_fresh_import_runs_no_submodule():
    # every library module is registered, none has run its code
    code = (
        "import sys, types, microset\n"
        "for name, module in sorted(sys.modules.items()):\n"
        "    if name.startswith('microset'):\n"
        "        print(name, type(module) is types.ModuleType)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    registered = ("baire", "covers", "dust", "geometry", "rational", "serialize", "svg")
    assert out.splitlines() == ["microset True"] + [f"microset.{name} False" for name in registered]


def test_submodules_are_attributes_after_a_bare_import():
    code = (
        "import microset\n"
        "print(microset.dust.generate(microset.dust.DustSpec(n=1, b=3, depth=1)).spec.depth)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out == "1\n"
