import ast
from pathlib import Path

import microset


def test_all_lists_exactly_the_imported_names():
    namespace: dict = {}
    exec("from microset import *", namespace)
    tree = ast.parse(Path(microset.__file__).read_text())
    imported = sorted(
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if node.module != "__future__"
    )
    assert microset.__all__ == imported
    assert set(imported) <= set(namespace)
