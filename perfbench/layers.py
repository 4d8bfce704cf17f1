"""Per-layer metrics from the spans of traced jobs.

A span's exclusive time is its duration minus its child spans.  Calls that
stay inside one layer are one visit to that layer, so exclusive time is
credited to the outermost span of each run of same-layer spans: the
``serialize.load`` figure includes the decoder functions it calls, but not
the ``rational.parse_scalar`` calls under them.
"""

from __future__ import annotations

from collections import defaultdict

# name, unit, better; the end-to-end metric each should move is in README.md
METRICS = [
    ("dust.generate.self_frac", "ratio", "lower"),
    ("dust.cubes_built", "count", "lower"),
    ("dust.dist_sq_per_cube", "ratio", "lower"),
    ("dust.gap_table.self_frac", "ratio", "lower"),
    ("dust.survivor_refute.self_frac", "ratio", "lower"),
    ("dust.survivors", "count", "lower"),
    ("dust.revalidate_survivor.self_frac", "ratio", "lower"),
    ("geometry.dist_sq.calls", "count", "lower"),
    ("geometry.dist_sq.self_frac", "ratio", "lower"),
    ("geometry.dist_sq.touch_frac", "ratio", "higher"),
    ("geometry.covers_box.calls", "count", "lower"),
    ("geometry.covers_box.self_frac", "ratio", "lower"),
    ("geometry.covers_box.true_frac", "ratio", "higher"),
    ("geometry.hausdorff_bracket.self_frac", "ratio", "lower"),
    ("covers.greedy_strong_cover.self_frac", "ratio", "lower"),
    ("covers.greedy.found_frac", "ratio", "higher"),
    ("covers.greedy.pieces", "count", "lower"),
    ("covers.verify_cover.calls", "count", "lower"),
    ("covers.verify_cover.self_frac", "ratio", "lower"),
    ("covers.verify_per_search", "ratio", "lower"),
    ("rational.enclosures", "count", "lower"),
    ("rational.self_s", "s", "lower"),
    ("rational.scalar_io", "count", "lower"),
    ("baire.sample_compact.self_frac", "ratio", "lower"),
    ("baire.cells_drawn", "count", "lower"),
    ("baire.cells_kept", "count", "lower"),
    ("serialize.load.self_s", "s", "lower"),
    ("serialize.load.bytes", "B", "lower"),
    ("serialize.save.self_s", "s", "lower"),
    ("serialize.save.bytes", "B", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.other_s", "s", "lower"),
    ("cli.trace_overhead_frac", "ratio", "lower"),
]

# credited time of these functions, as a share of the round's traced job time;
# a share reads 0 where the function never runs and cancels machine drift
_SHARE = {
    "dust.generate.self_frac": "dust.generate",
    "dust.gap_table.self_frac": "dust.gap_table",
    "dust.survivor_refute.self_frac": "dust.survivor_refute",
    "dust.revalidate_survivor.self_frac": "dust.revalidate_survivor",
    "geometry.dist_sq.self_frac": "geometry.dist_sq",
    "geometry.covers_box.self_frac": "geometry.covers_box",
    "geometry.hausdorff_bracket.self_frac": "geometry.hausdorff_bracket",
    "covers.greedy_strong_cover.self_frac": "covers.greedy_strong_cover",
    "covers.verify_cover.self_frac": "covers.verify_cover",
    "baire.sample_compact.self_frac": "baire.sample_compact",
}
_SECONDS = {"serialize.load.self_s": "serialize.load", "serialize.save.self_s": "serialize.save"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def job_figures(doc: dict, wall_s: float) -> dict:
    """Sums over one traced job; ``combine`` adds them up over a round.

    Keys ``self:<span name>`` hold the time credited to each traced function.
    """
    spans = doc["spans"]
    child = [0] * len(spans)
    for span in spans:
        if span is not None and span[1] >= 0:
            child[span[1]] += span[3] - span[2]
    entry = list(range(len(spans)))
    under_dust = [False] * len(spans)
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    probes: dict[str, list] = defaultdict(list)
    fig: dict[str, float] = defaultdict(float)
    top_ns = 0
    for i, span in enumerate(spans):
        if span is None:
            continue
        name, parent, start, end, probe = span
        layer = name.split(".")[0]
        if parent < 0:
            top_ns += end - start
        elif spans[parent][0].split(".")[0] == layer:
            entry[i] = entry[parent]
        under_dust[i] = layer == "dust" or (parent >= 0 and under_dust[parent])
        exclusive = end - start - child[i]
        self_ns[spans[entry[i]][0]] += exclusive
        calls[name] += 1
        if probe is not None:
            probes[name].append(probe)
        if layer == "rational":
            fig["rational.self_s"] += exclusive / 1e9
            if name.startswith(("rational.root_", "rational.pow_")):
                fig["rational.enclosures"] += 1
            if name in ("rational.parse_scalar", "rational.format_scalar"):
                fig["rational.scalar_io"] += 1
        if name == "geometry.dist_sq" and parent >= 0 and under_dust[parent]:
            fig["dust_dist_sq"] += 1
    for name, ns in self_ns.items():
        fig[f"self:{name}"] = ns / 1e9
    for metric, name in (_SHARE | _SECONDS).items():
        fig[metric] += self_ns[name] / 1e9
    fig["job_wall"] += wall_s
    fig["dust.cubes_built"] += sum(probes["dust.generate"])
    fig["dust.survivors"] += sum(probes["dust.survivor_refute"])
    fig["geometry.dist_sq.calls"] += calls["geometry.dist_sq"]
    fig["dist_sq_touching"] += sum(probes["geometry.dist_sq"])
    fig["geometry.covers_box.calls"] += calls["geometry.covers_box"]
    fig["covers_box_true"] += sum(probes["geometry.covers_box"])
    found = [p for p in probes["covers.greedy_strong_cover"] if p >= 0]
    fig["searches"] += calls["covers.greedy_strong_cover"]
    fig["found"] += len(found)
    fig["covers.greedy.pieces"] += sum(found)
    fig["covers.verify_cover.calls"] += calls["covers.verify_cover"]
    if calls["covers.greedy_strong_cover"]:
        fig["search_verifies"] += calls["covers.verify_cover"]
    fig["baire.cells_drawn"] += sum(p[0] for p in probes["baire.sample_compact"])
    fig["baire.cells_kept"] += sum(p[1] for p in probes["baire.sample_compact"])
    fig["serialize.load.bytes"] += sum(probes["serialize.load"])
    fig["serialize.save.bytes"] += sum(probes["serialize.save"])
    fig["cli.import_s"] += doc["import_ns"] / 1e9
    fig["cli.other_s"] += wall_s - doc["import_ns"] / 1e9 - top_ns / 1e9
    return fig


def top_self(fig: dict, count: int = 3) -> str:
    """The functions with the most credited time in one job, for the log."""
    ranked = sorted((k for k in fig if k.startswith("self:")), key=lambda k: -fig[k])[:count]
    return ", ".join(f"{k[5:]} {fig[k]:.3f} s" for k in ranked)


def combine(figures: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced round (without the overhead ratio)."""
    total: dict[str, float] = defaultdict(float)
    for fig in figures:
        for key, value in fig.items():
            total[key] += value
    out = {name: total[name] for name, _, _ in METRICS}
    for metric in _SHARE:
        out[metric] = _ratio(total[metric], total["job_wall"])
    out["dust.dist_sq_per_cube"] = _ratio(total["dust_dist_sq"], total["dust.cubes_built"])
    out["geometry.dist_sq.touch_frac"] = _ratio(total["dist_sq_touching"], total["geometry.dist_sq.calls"])
    out["geometry.covers_box.true_frac"] = _ratio(total["covers_box_true"], total["geometry.covers_box.calls"])
    out["covers.greedy.found_frac"] = _ratio(total["found"], total["searches"])
    out["covers.verify_per_search"] = _ratio(total["search_verifies"], total["found"])
    return out
