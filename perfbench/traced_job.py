"""Run one `microset` command in this process with every layer call traced.

    python3 perfbench/traced_job.py SPANS.json -- <microset arguments>

Imports ``microset.cli`` (timed), then rebinds every public function of the
rational, geometry, covers, dust, baire and serialize modules in every
``microset`` namespace that holds it.  Each call records a span (name,
parent span, start, end and a small probe of its result) in memory; the
spans are written to SPANS.json when the command returns, and the process
exits with the command's own exit code.  Nothing in the program changes.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time

LAYERS = ("rational", "geometry", "covers", "dust", "baire", "serialize")


def _probe(name: str, args, result):
    """Small deterministic fact about one call, for the per-layer counters."""
    if name == "geometry.dist_sq":
        return int(result == 0)
    if name == "geometry.covers_box":
        return int(result is True)
    if name == "covers.greedy_strong_cover":
        return len(result.pieces) if hasattr(result, "pieces") else -1
    if name == "dust.generate":
        return sum(len(level) for level in result.levels)
    if name == "dust.survivor_refute":
        return sum(getattr(result, "level_counts", ()))
    if name == "baire.sample_compact":
        spec = args[0]
        return [(spec.b**spec.depth) ** spec.n, len(result.cells)]
    if name == "serialize.load":
        return os.path.getsize(args[0])
    if name == "serialize.save":
        return len(result)
    return None


def install(spans: list, stack: list) -> None:
    """Wrap the layers' public functions so each call appends a span."""
    clock = time.perf_counter_ns
    wrapped = {}
    for layer in LAYERS:
        module = sys.modules[f"microset.{layer}"]
        for attr, fn in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"

            def wrapper(*args, __fn=fn, __name=name, **kwargs):
                sid = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(sid)
                start = clock()
                try:
                    result = __fn(*args, **kwargs)
                except BaseException:
                    spans[sid] = [__name, parent, start, clock(), None]
                    stack.pop()
                    raise
                spans[sid] = [__name, parent, start, clock(), None]
                stack.pop()
                spans[sid][4] = _probe(__name, args, result)
                return result

            wrapper.__name__ = fn.__name__
            wrapped[fn] = wrapper
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "microset" or mod_name.startswith("microset."):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])


def main() -> int:
    started = time.perf_counter_ns()
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: traced_job.py SPANS.json -- <microset arguments>", file=sys.stderr)
        return 2
    out_path, argv = sys.argv[1], sys.argv[3:]
    import microset.cli

    imported = time.perf_counter_ns()
    spans: list = []
    install(spans, [])
    try:
        return microset.cli.main(argv)
    finally:
        doc = {"import_ns": imported - started, "spans": spans}
        with open(out_path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main())
