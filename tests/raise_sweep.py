"""Every `raise` of the package runs under tier-1, except the self-checks listed here.

Runs the tier-1 suite in this process with a line tracer on the code of
src/microset (``sys.settrace`` and ``threading.settrace``), then parses each
module and lists the ``raise`` statements whose line never ran.  Exits 0
when those are exactly ``ALLOWED``, 1 otherwise or when tier-1 fails.
Raises reached only by a test's subprocess are not traced, so such a
test does not count.  pytest collects only ``test_*.py``, so tier-1 does not
run this file.  Run it from the repository root:

    CI=1 python tests/raise_sweep.py

``CI=1`` derandomizes Hypothesis, so each run draws the same examples.
"""

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "microset"

# (module, the first string in the raised expression) -> why no test reaches it
ALLOWED = {
    ("covers.py", "greedy emitted a cover that fails verification"):
        "every greedy position holds its target cell, so the search's own re-verification passes",
    ("covers.py", "merge produced an over-budget piece"):
        "interleaving only moves a piece within the strengthened budget, so the re-check passes",
    ("baire.py", "skeleton bracket exceeded delta"):
        "a refinement is the set itself, so the bracket stays within the half cell diameter",
}


def _message(node: ast.Raise) -> str:
    strings = (n.value for n in ast.walk(node) if isinstance(n, ast.Constant) and isinstance(n.value, str))
    return next(strings, ast.unparse(node))


def _raises() -> dict:
    """(module, first string of the raise) per (path, line) of every raise of the package."""
    return {
        (str(path), node.lineno): (path.name, _message(node))
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise)
    }


def main() -> int:
    # as the tier-1 command sets PYTHONPATH=src, for this process and the tests' subprocesses
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    sys.path.insert(0, str(ROOT / "src"))
    import microset
    import pytest

    if Path(microset.__file__).resolve().parent != PACKAGE:
        print(f"microset imported from {microset.__file__}, not {PACKAGE}")
        return 1
    raises = _raises()
    ran: set = set()
    ours: dict = {}  # co_filename -> its resolved path when under src/microset, else None

    def local(frame, event, arg):
        if event == "line":
            ran.add((ours[frame.f_code.co_filename], frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            path = Path(name).resolve()
            ours[name] = str(path) if path.parent == PACKAGE else None
        return local if ours[name] else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code != 0:
        print(f"tier-1 failed (pytest exit {code}), so the sweep is void")
        return 1
    unrun = sorted((key, where) for where, key in raises.items() if where not in ran)
    for key, (path, line) in unrun:
        if key not in ALLOWED:
            print(f"never ran: {Path(path).relative_to(ROOT)}:{line} raise {key[1]!r}")
    for key in sorted(ALLOWED.keys() - {key for key, _ in unrun}):
        print(f"allowed but ran or gone, drop it from ALLOWED: {key[0]} raise {key[1]!r}")
    if [key for key, _ in unrun] != sorted(ALLOWED):
        return 1
    print(f"every raise of the package ran except the {len(ALLOWED)} allowed self-checks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
