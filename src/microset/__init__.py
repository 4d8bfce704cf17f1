"""Exact-arithmetic cover certificates over compact subsets of [0,1]^n.

Everything a verdict depends on is a rational number; irrational
quantities appear only as directed enclosures whose direction is stated
in the operation's name.  The package builds corner-dust trees whose
cover budgets can be refuted by survivor certificates, verifies and
searches budgeted covers, brackets Hausdorff distances, and samples
random digital sets reproducibly.

Every library submodule is registered lazily, so after ``import microset``
each one is in ``sys.modules`` and reachable as ``microset.<module>``, but
its code runs only on first attribute access.  That is the only way a
module loads late: the package modules bind one another with
``from . import x`` at their top, which runs nothing.  Exported names
resolve on first use (PEP 562), and a command line process runs only the
modules its subcommand calls.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"


def _lazy(name: str):
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


rational, geometry, covers, dust, baire, serialize, svg = map(
    _lazy, ("rational", "geometry", "covers", "dust", "baire", "serialize", "svg")
)

# each exported name and the submodule that defines it
_EXPORTS = {
    "BallSpec": "covers",
    "Box": "geometry",
    "CoverReport": "covers",
    "CoverSeq": "covers",
    "DEFAULT_PRECISION": "rational",
    "DigitalSet": "geometry",
    "DustSpec": "dust",
    "DustTree": "dust",
    "GapTable": "dust",
    "GreedyFailure": "covers",
    "HBracket": "geometry",
    "Negative": "rational",
    "Point": "geometry",
    "SampleSpec": "baire",
    "SplitMix64": "baire",
    "SurvivorCertificate": "dust",
    "adversary_random": "dust",
    "adversary_swallow": "dust",
    "ball_membership": "covers",
    "ball_stability_radius": "covers",
    "covers_box": "geometry",
    "finite_skeleton": "baire",
    "format_scalar": "rational",
    "gap_table": "dust",
    "generate": "dust",
    "greedy_strong_cover": "covers",
    "hausdorff_bracket": "geometry",
    "hausdorff_measure_upper": "dust",
    "merge_covers": "covers",
    "parse_scalar": "rational",
    "refutation_budget_lower": "dust",
    "revalidate_survivor": "dust",
    "root_lower": "rational",
    "root_upper": "rational",
    "sample_compact": "baire",
    "survivor_refute": "dust",
    "validate": "dust",
    "verify_cover": "covers",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    home = _EXPORTS.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[home], name)
    globals()[name] = value
    return value
