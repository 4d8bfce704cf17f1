import ast
import importlib
import subprocess
import sys
from pathlib import Path

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


def test_each_input_rule_has_one_owner():
    # the float refusal, the admissibility verdict and the power enclosure are each written once
    from microset import cells, cli, rational

    assert cells._frac is rational._frac
    assert not hasattr(cli, "_admissible_spec")
    for name in ("_pow", "pow_lower", "pow_upper"):
        assert not hasattr(rational, name) and name not in microset._EXPORTS


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
    registered = ("baire", "ball", "cells", "covers", "dust", "geometry", "rational", "serialize", "svg")
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


ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "microset").glob("*.py"))

# exported for callers to come, with no caller in the package yet
UNREACHED = {
    "covers_box": "the public entry to the integer coverage core that verify_cover runs per cell",
    "finite_skeleton": "the planned baire-certify subcommand's skeleton of a set",
}


def _statements(path):
    """(name it defines or None, names it reads besides its own) per top-level statement."""
    for top in ast.parse(path.read_text()).body:
        own = getattr(top, "name", None)
        reads = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(top)
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        yield own, reads - {own}


def test_every_export_is_reached_by_the_package():
    # reached: read by code that is no export, or by an export that is reached
    statements = [statement for path in PACKAGE for statement in _statements(path)]
    reached: set = set()
    while True:
        grown = set().union(
            *(reads for own, reads in statements if own not in microset._EXPORTS or own in reached)
        )
        if grown == reached:
            break
        reached = grown
    unreached = sorted(set(microset._EXPORTS) - reached)
    assert unreached == sorted(UNREACHED), unreached


def test_every_private_function_and_class_is_read_in_the_package():
    # a top-level private helper that no other package statement reads is dead code; one
    # that only tests read belongs in tests/ as an oracle.  Dunders such as __getattr__ are
    # read by the interpreter
    read = set().union(*(reads for path in PACKAGE for _, reads in _statements(path)))
    unread = [
        top.name
        for path in PACKAGE
        for top in ast.parse(path.read_text()).body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
        and top.name.startswith("_")
        and not (top.name.startswith("__") and top.name.endswith("__"))
        and top.name not in read
    ]
    assert unread == []


def test_every_public_method_is_read_in_the_package():
    # a public method or property of a package class is read when its name is read as an
    # attribute somewhere in src/; code only tests read lives in tests/fraction_oracles.py.
    # The match is by name, so a clash hides a method: the field BallSpec.boxes, read as
    # ball.boxes, would count a method boxes() of any class as read
    trees = [ast.parse(path.read_text()) for path in PACKAGE]
    read = {node.attr for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    unread = [
        f"{top.name}.{item.name}"
        for tree in trees
        for top in tree.body
        if isinstance(top, ast.ClassDef)
        for item in top.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_") and item.name not in read
    ]
    assert unread == []


def test_every_imported_name_is_read_in_its_module():
    # an import that no line of its module reads is dead weight, such as a helper kept
    # imported after the code that called it is gone
    unused = []
    for path in PACKAGE:
        tree = ast.parse(path.read_text())
        nodes = list(ast.walk(tree))
        read = {node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in nodes:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                bound = (alias.asname or alias.name.split(".")[0] for alias in node.names)
                unused += [f"{path.name}: {name}" for name in bound if name not in read]
    assert unused == []


def test_every_public_function_is_exported_or_read_in_the_package():
    # a module-level public function that no export names and no other package statement
    # reads, as its bare name or as <module>.<name>, is dead code; ``json.dumps`` is no read
    # of a ``serialize.dumps``
    read, public = set(), []
    for path in PACKAGE:
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)
            if isinstance(top, ast.FunctionDef) and not own.startswith("_") and own not in microset._EXPORTS:
                public.append(f"{path.stem}.{own}")
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id != own:
                    read.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    read.add(f"{node.value.id}.{node.attr}")
    unread = [name for name in public if name not in read and name.split(".")[1] not in read]
    assert unread == []


def _sets(call, index, name):
    """Whether a call sets the parameter ``name``, at ``index`` among the positional ones or
    None if keyword-only; ``*args`` sets every positional one, ``**kwargs`` every one."""
    positional = index is not None and (len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args))
    return positional or any(keyword.arg in (name, None) for keyword in call.keywords)


def test_every_default_parameter_of_a_private_function_is_set_in_the_package():
    # a default that no call in src/ overrides, by position or by keyword, is a knob that does nothing
    trees = [ast.parse(path.read_text()) for path in PACKAGE]
    calls: dict = {}
    for node in (node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)):
        calls.setdefault(getattr(node.func, "id", getattr(node.func, "attr", None)), []).append(node)
    unset = []
    for path, tree in zip(PACKAGE, trees):
        for top in tree.body:
            if not isinstance(top, ast.FunctionDef) or not top.name.startswith("_") or top.name.endswith("__"):
                continue
            positional = top.args.posonlyargs + top.args.args
            knobs = list(enumerate(arg.arg for arg in positional))[len(positional) - len(top.args.defaults) :]
            knobs += [(None, a.arg) for a, d in zip(top.args.kwonlyargs, top.args.kw_defaults) if d is not None]
            unset += [
                f"{path.stem}.{top.name}({name})"
                for index, name in knobs
                if not any(_sets(call, index, name) for call in calls.get(top.name, []))
            ]
    assert unset == []


# the Record protocol, which every record class of the package inherits from cells.Record
RECORD_PROTOCOL = {"_set", "_fields"}


def _own_private_names(tree):
    """The private attributes the classes of a module define: the methods and class attributes
    of their bodies, and the instance attributes their code sets."""
    own = set()
    for top in (top for top in tree.body if isinstance(top, ast.ClassDef)):
        for item in top.body:
            targets = getattr(item, "targets", [getattr(item, "target", None)])
            own.update([getattr(item, "name", None), *(getattr(target, "id", None) for target in targets)])
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                own.add(node.attr)
            elif isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__":
                own.update(arg.value for arg in node.args[1:2] if isinstance(arg, ast.Constant))
    return own


def _foreign_private_reads(path):
    """Each ``x._name`` of a module where x is no module it imports and no class of
    the module defines ``_name``."""
    tree = ast.parse(path.read_text())
    modules = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    allowed = _own_private_names(tree) | RECORD_PROTOCOL
    return [
        f"{path.stem}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.endswith("__")
        and node.attr not in allowed
        and getattr(node.value, "id", None) not in modules
    ]


def test_no_module_reads_a_private_attribute_of_a_class_it_does_not_define():
    # a box's integer form, say, is read only by cells, which builds it: other modules get a
    # frame from cells._frame and cells._on_frame, which are module functions, not instance state
    assert [read for path in PACKAGE for read in _foreign_private_reads(path)] == []
