"""The three workloads: seeded job lists with known answers.

Each workload function writes its inputs into a work directory and returns
the job list.  Inputs come from ``inputs.py``; the only program calls here
build artifacts that only the program can produce (trees and certificates).
Sizes are frozen by name: a later change may add a job, never shrink one.

* ``dust``  - producer side of the dust construction: generation, survivor
  refutation, one measure bound.  Time goes to the Fraction re-checks.
* ``sets``  - sampling, greedy search, few-piece verification and Hausdorff
  brackets on digital sets.  No dust code runs here.
* ``check`` - checker side on documents built in set-up: certificate
  re-checks, gap cross-checks, many-piece and deep-split ``covers_box``,
  and the known-defect inputs of ROADMAP item 3.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from inputs import (
    SplitMix64,
    adversary_cover,
    baire_cells,
    centre_dist_sq,
    cube,
    digitalset_doc,
    dust_levels,
    full_prefix,
    fmt,
    gap_rows,
    iroot,
    level_side,
    sample_cells,
    survivor_disjoint,
    write_doc,
)
from jobs import Job, Outcome, Program, SetupError

EPS_VERIFY = Fraction(999, 1000)


def _load(work: Path, name: str) -> dict:
    return json.loads((work / name).read_text())


def _args(*items) -> tuple[str, ...]:
    return tuple(str(item) for item in items)


# -------------------------------------------------------------------- oracles


def tree_oracle(n: int, b: int, depth: int, out: str):
    def check(_: Outcome, work: Path) -> str | None:
        doc = _load(work, out)
        if (doc["n"], doc["b"], doc["depth"]) != (n, b, depth):
            return "tree spec differs from the command"
        grid = b ** (depth * depth)
        for k, level in enumerate(dust_levels(n, b, depth), start=1):
            want = [
                {"word": list(word), "lo": [fmt(Fraction(c, grid)) for c in corner], "side": fmt(level_side(b, k))}
                for word, corner in level
            ]
            if doc["levels"][k - 1] != want:
                return f"level {k} differs from the integer construction"
        return None

    return check


def survivor_oracle(n: int, b: int, depth: int, cover: dict, out: str):
    def check(_: Outcome, work: Path) -> str | None:
        cert = _load(work, out)
        want = min(len(cover["pieces"]), full_prefix(depth))
        if cert["depth"] != depth or cert["checked_prefix"] != want:
            return f"certificate claims depth {cert['depth']} prefix {cert['checked_prefix']}"
        return survivor_disjoint(n, b, depth, cert["survivor_word"], cover, want)

    return check


def gaps_oracle(n: int, b: int, depth: int, out: str):
    def check(_: Outcome, work: Path) -> str | None:
        doc = _load(work, out)
        rows = gap_rows(n, b, depth)
        for i, field in enumerate(("volume", "leftover", "sibling_gap", "level_gap")):
            if doc[field] != [fmt(row[i]) for row in rows]:
                return f"{field} differs from the closed forms"
        return None

    return check


def stdout_oracle(prefix: str):
    def check(outcome: Outcome, _: Path) -> str | None:
        got = outcome.stdout
        return None if got.startswith(prefix) else f"printed {got[:80]!r}"

    return check


def stderr_oracle(want: str):
    def check(outcome: Outcome, _: Path) -> str | None:
        got = outcome.stderr.strip()
        return None if got.startswith(want) else f"said {got[:80]!r}, expected {want!r}"

    return check


def report_oracle(out: str, want: dict):
    def check(_: Outcome, work: Path) -> str | None:
        doc = _load(work, out)
        wrong = {key: doc[key] for key, value in want.items() if doc[key] != value}
        return f"report has {wrong}" if wrong else None

    return check


def inside(cell, piece, side: Fraction) -> bool:
    return all(Fraction(lo) <= j * side and (j + 1) * side <= Fraction(hi) for j, (lo, hi) in zip(cell, piece))


def found_oracle(cells, side: Fraction, eps: Fraction, pieces: int, out: str):
    """Budget volume <= eps**k exactly, and every cell inside one piece."""

    def check(_: Outcome, work: Path) -> str | None:
        cover = _load(work, out)
        if Fraction(cover["eps"]) != eps or len(cover["pieces"]) != pieces:
            return f"cover has eps {cover['eps']} and {len(cover['pieces'])} pieces, expected {pieces}"
        for k, piece in enumerate(cover["pieces"], start=1):
            vol = Fraction(1)
            for lo, hi in piece:
                vol *= Fraction(hi) - Fraction(lo)
            if vol > eps**k:
                return f"piece {k} exceeds its budget"
        for cell in cells:
            if not any(inside(cell, piece, side) for piece in cover["pieces"]):
                return f"cell {cell} lies in no single piece"
        return None

    return check


def sample_oracle(seed: int, n: int, b: int, depth: int, density: Fraction, out: str):
    def check(_: Outcome, work: Path) -> str | None:
        doc = _load(work, out)
        if doc["cells"] != [list(c) for c in baire_cells(seed, n, b, depth, density)]:
            return "cells differ from the SplitMix64 draw"
        return None

    return check


def hausdorff_oracle(a_cells, b_cells, m: int, out: str):
    """lo**2 <= D**2 <= hi**2 for the brute-force centre-to-centre distance D."""

    def check(_: Outcome, work: Path) -> str | None:
        doc = _load(work, out)
        d2 = Fraction(max(centre_dist_sq(a_cells, b_cells), centre_dist_sq(b_cells, a_cells)), 9**m)
        lo, hi = Fraction(doc["lo"]), Fraction(doc["hi"])
        if doc["sample_depth"] != m or not lo * lo <= d2 <= hi * hi:
            return f"bracket [{doc['lo']}, {doc['hi']}] misses centre distance sqrt({d2})"
        return None

    return check


# ----------------------------------------------------------------------- dust


def refute_cover(work: Path, rng: SplitMix64, name: str, n: int, b: int, depth: int, style: str) -> dict:
    """Seeded adversary cover for one refutation, written to <name>.cover.json.

    It runs from the last examined bucket to up to three unexamined
    positions past it, so it crosses the bucket boundaries.
    """
    stream = rng.fork(name)
    cover = adversary_cover(stream, n, b, depth, full_prefix(depth) + stream.below(4), style)
    write_doc(work / f"{name}.cover.json", cover)
    return cover


def dust(work: Path, rng: SplitMix64, smoke: bool, program: Program) -> list[Job]:
    jobs = []
    for n, b, depth in [(1, 3, 4), (2, 3, 2), (3, 3, 1)] if smoke else [(1, 3, 8), (2, 3, 4), (3, 3, 3)]:
        out = f"gen_n{n}_d{depth}.json"
        jobs.append(
            Job(
                f"generate-n{n}-d{depth}",
                "generate",
                _args("dust-generate", "--n", n, "--b", b, "--depth", depth, "-o", out),
                check=tree_oracle(n, b, depth, out),
                outputs=(out,),
                seed_free=True,
            )
        )
    for n, b, depth in [(1, 3, 3), (2, 3, 2)] if smoke else [(1, 3, 6), (2, 3, 4), (3, 3, 2)]:
        tree = f"tree_n{n}_d{depth}.json"
        program.setup(_args("dust-generate", "--n", n, "--b", b, "--depth", depth, "-o", tree), work)
        for style in ("swallow", "random"):
            name = f"refute-n{n}-d{depth}-{style}"
            cover = refute_cover(work, rng, name, n, b, depth, style)
            out = f"{name}.cert.json"
            jobs.append(
                Job(
                    name,
                    "refute",
                    _args("dust-refute", "--tree", tree, "--cover", f"{name}.cover.json", "-o", out),
                    check=survivor_oracle(n, b, depth, cover, out),
                    outputs=(out,),
                )
            )
    stream = rng.fork("hmeasure")
    alpha, k = 1 + stream.below(2), 2 + stream.below(3)
    # n = 1: 2**k cubes of side 3**-(k*k), each of diameter**alpha = side**alpha
    jobs.append(
        Job(
            "hmeasure",
            "hmeasure",
            _args("dust-hmeasure", "--n", 1, "--b", 3, "--alpha", alpha, "--k", k),
            check=stdout_oracle(fmt(Fraction(2**k, 3 ** (alpha * k * k))) + "\n"),
        )
    )
    return jobs


# ----------------------------------------------------------------------- sets


def positions_above_cell(eps: Fraction, n: int, top: int) -> int:
    """Greedy positions k whose side budget eps**(k/n) still reaches a cell."""
    k = 0
    while eps ** (k + 1) * top**n >= 1:
        k += 1
    return k


def side_sum_refutes(eps: Fraction, n: int, extent: Fraction) -> bool:
    """Exact side-sum bound: sum_k eps**(k/n) < extent iff eps < (x/(1+x))**n."""
    return eps < (extent / (1 + extent)) ** n


def extent(cells, top: int) -> Fraction:
    return max(Fraction(len({c[axis] for c in cells}), top) for axis in range(len(cells[0])))


def infeasible_set(rng: SplitMix64, eps: Fraction, top: int, count: int):
    """A plane set whose projection the whole side budget cannot span."""
    columns = next(c for c in range(1, top + 1) if side_sum_refutes(eps, 2, Fraction(c, top)))
    picked = sample_cells(rng, 1, top, columns)
    start = [(x, rng.below(top)) for (x,) in picked]
    cells = sample_cells(rng, 2, top, count, start=start)
    if not side_sum_refutes(eps, 2, extent(cells, top)):
        raise SetupError("infeasible set lost its side-sum refutation")
    return cells


def stalled_set(rng: SplitMix64, eps: Fraction, top: int, extra: int):
    """A plane set too dense for any cover the greedy search may place.

    Position k may place a cube of side at most eps**(k/2), which holds at
    most L_k**2 whole cells with L_k = floor(eps**(k/2) * top); past the
    last position whose side reaches a cell nothing more can be placed.  A
    set with more cells than the sum of L_k**2 therefore defeats the
    search, and a full diagonal keeps the side-sum bound from refuting it,
    so the only truthful verdict is "stalled".
    """
    positions = positions_above_cell(eps, 2, top)
    capacity = sum(iroot(int(eps**k * top * top), 2) ** 2 for k in range(1, positions + 1))
    cells = sample_cells(rng, 2, top, capacity + 1 + extra, start=[(j, j) for j in range(top)])
    if side_sum_refutes(eps, 2, extent(cells, top)):
        raise SetupError("stalled set is refuted by the side-sum bound")
    return cells


def found_set(rng: SplitMix64, eps: Fraction, top: int, near: int, far: int):
    """A plane set the greedy search covers with exactly two pieces.

    Piece 1 starts at the origin cell (first in Morton order) with side at
    least r/top - 10**-12 for r = floor(sqrt(eps) * top), so it swallows
    every cell with coordinates below r - 1.  The far cells lie outside
    piece 1 but inside [1 - eps, 1]**2, which is exactly piece 2: its side
    eps**(2/2) is rational and its anchor clamps to 1 - eps.
    """
    r = iroot(int(eps * top * top), 2)
    low = -(-(1 - eps) * top // 1)
    near_cells = sample_cells(rng, 2, top, near, keep=lambda c: max(c) <= r - 2, start=[(0, 0)])
    far_cells = sample_cells(rng, 2, top, far, keep=lambda c: min(c) >= low and max(c) >= r + 1)
    return sorted(set(near_cells) | set(far_cells))


def sets(work: Path, rng: SplitMix64, smoke: bool, program: Program) -> list[Job]:
    jobs = []
    samples = [(2, 3, 2, "1/10"), (3, 3, 1, "1/2")] if smoke else [
        (2, 3, 4, "1/200"),
        (2, 3, 5, "1/10"),
        (2, 3, 5, "1/50"),
        (3, 3, 3, "1/20"),
    ]
    for n, b, depth, density in samples:
        name = f"sample-n{n}-d{depth}-{density.replace('/', 'in')}"
        seed = rng.fork(name).next() >> 32
        out = f"{name}.json"
        jobs.append(
            Job(
                name,
                "sample",
                _args("baire-sample", "--n", n, "--b", b, "--depth", depth, "--density", density, "--seed", seed, "-o", out),
                check=sample_oracle(seed, n, b, depth, Fraction(density), out),
                outputs=(out,),
            )
        )
    m = 2 if smoke else 3
    top = 3**m
    searches = [
        ("infeasible", Fraction(1, 8), m, infeasible_set(rng.fork("infeasible"), Fraction(1, 8), top, 12 if smoke else 120)),
        ("stalled", Fraction(1, 2), m, stalled_set(rng.fork("stalled"), Fraction(1, 2), top, 2 if smoke else 22)),
    ]
    for eps in (Fraction(3, 4), Fraction(9, 10)):
        cells = found_set(rng.fork(f"found-{eps}"), eps, 3 * top, *((20, 8) if smoke else (600, 200)))
        searches.append((f"found-{eps.numerator}in{eps.denominator}", eps, m + 1, cells))
    for label, eps, depth, cells in searches:
        name = f"search-{label}"
        write_doc(work / f"{name}.set.json", digitalset_doc(2, 3, depth, cells))
        argv = _args("cover-search", "--set", f"{name}.set.json", "--eps", fmt(eps))
        stop = positions_above_cell(eps, 2, 3**depth) + 1
        if label.startswith("found"):
            out = f"{name}.cover.json"
            argv += ("-o", out)
            check = found_oracle(cells, Fraction(1, 3**depth), eps, 2, out)
            jobs.append(Job(name, "search", argv, check=check, outputs=(out,)))
        else:
            verdict = "budget-infeasible" if label == "infeasible" else "stalled"
            check = stderr_oracle(f"{verdict} at position {stop} (")
            jobs.append(Job(name, "search", argv, expect=(1,), check=check))
    m = 2 if smoke else 4
    for i, (na, nb) in enumerate([(15, 20)] if smoke else [(800, 900), (900, 800)]):
        stream = rng.fork(f"hausdorff-{i}")
        a_cells = sample_cells(stream, 2, 3**m, na)
        b_cells = sample_cells(stream, 2, 3**m, nb)
        name = f"hausdorff-{i}"
        write_doc(work / f"{name}.a.json", digitalset_doc(2, 3, m, a_cells))
        write_doc(work / f"{name}.b.json", digitalset_doc(2, 3, m, b_cells))
        out = f"{name}.json"
        jobs.append(
            Job(
                name,
                "hausdorff",
                _args("hausdorff", "--a", f"{name}.a.json", "--b", f"{name}.b.json", "--depth", m, "-o", out),
                check=hausdorff_oracle(a_cells, b_cells, m, out),
                outputs=(out,),
            )
        )
    return jobs


# ---------------------------------------------------------------------- check


def thin_cover(rng: SplitMix64, pieces: int) -> tuple[dict, dict]:
    """One n = 1 cell split left to right into ``pieces`` seeded intervals."""
    cell = rng.below(9)
    unit = 9 * 4 * pieces
    inner = [x for (x,) in sample_cells(rng, 1, 4 * pieces, pieces - 1, keep=lambda c: c[0] > 0)]
    bounds = [cell * 4 * pieces] + [cell * 4 * pieces + x for x in inner] + [(cell + 1) * 4 * pieces]
    ivs = [[[fmt(Fraction(lo, unit)), fmt(Fraction(hi, unit))]] for lo, hi in zip(bounds, bounds[1:])]
    cover = {"schema": "coverseq/1", "n": 1, "eps": fmt(EPS_VERIFY), "strong": True, "pieces": ivs}
    return digitalset_doc(1, 3, 2, [(cell,)]), cover


def check(work: Path, rng: SplitMix64, smoke: bool, program: Program) -> list[Job]:
    jobs = []
    trees = [(1, 3, 4), (2, 3, 3)] if smoke else [(1, 3, 8), (2, 3, 4)]
    certs = []
    for n, b, depth in trees:
        tree = f"tree_n{n}_d{depth}.json"
        program.setup(_args("dust-generate", "--n", n, "--b", b, "--depth", depth, "-o", tree), work)
        for style in ("swallow", "random"):
            name = f"recheck-n{n}-d{depth}-{style}"
            cover = refute_cover(work, rng, name, n, b, depth, style)
            cert = f"{name}.cert.json"
            program.setup(_args("dust-refute", "--tree", tree, "--cover", f"{name}.cover.json", "-o", cert), work)
            problem = survivor_oracle(n, b, depth, cover, cert)(None, work)
            if problem:
                raise SetupError(f"set-up certificate {cert}: {problem}")
            argv = _args("dust-refute", "--tree", tree, "--cover", f"{name}.cover.json", "--check", cert)
            jobs.append(Job(name, "recheck", argv, check=stdout_oracle("certificate re-validated")))
            certs.append((tree, f"{name}.cover.json", cert, depth))
        out = f"gaps_n{n}_d{depth}.json"
        jobs.append(
            Job(
                f"gaps-n{n}-d{depth}",
                "gaps",
                _args("dust-gaps", "--n", n, "--b", b, "--depth", depth, "--tree", tree, "-o", out),
                check=gaps_oracle(n, b, depth, out),
                outputs=(out,),
                seed_free=True,
            )
        )

    m = 2 if smoke else 4
    for i in range(2):
        stream = rng.fork(f"verify-{i}")
        cells = sample_cells(stream, 2, 3**m, 30 if smoke else 600)
        order = sorted(cells, key=lambda _: stream.next())
        side = Fraction(1, 3**m)
        pieces = [cube([j * side for j in c], side) for c in order]
        write_doc(work / f"verify-{i}.set.json", digitalset_doc(2, 3, m, cells))
        # dropping the last cell's piece keeps the scan over every cell
        last = order.index(cells[-1])
        at = 1 + stream.below(len(pieces))
        variants = [
            ("ok", pieces, (0,), {"budget_ok": True, "coverage_ok": True}),
            ("dropped", pieces[:last] + pieces[last + 1 :], (1,), {"coverage_ok": False, "uncovered_witness": list(cells[-1])}),
            ("over-budget", pieces[: at - 1] + [cube([0, 0], Fraction(1))] + pieces[at:], (1,), {"budget_ok": False, "first_violation": [at, "budget"]}),
        ]
        for label, ps, expect, want in variants:
            name = f"verify-{i}-{label}"
            write_doc(work / f"{name}.cover.json", {"schema": "coverseq/1", "n": 2, "eps": fmt(EPS_VERIFY), "strong": True, "pieces": ps})
            out = f"{name}.report.json"
            argv = _args("cover-verify", "--set", f"verify-{i}.set.json", "--cover", f"{name}.cover.json", "-o", out)
            jobs.append(Job(name, "verify", argv, expect=expect, check=report_oracle(out, want), outputs=(out,)))

    ok = {"budget_ok": True, "coverage_ok": True}
    for count, defect in [(30, None), (40, "3c")] if smoke else [(900, None), (1200, "3c")]:
        name = f"defect-{defect}-thin-{count}" if defect else f"verify-thin-{count}"
        cell, cover = thin_cover(rng.fork(name), count)
        write_doc(work / f"{name}.set.json", cell)
        write_doc(work / f"{name}.cover.json", cover)
        out = f"{name}.report.json"
        argv = _args("cover-verify", "--set", f"{name}.set.json", "--cover", f"{name}.cover.json", "-o", out)
        jobs.append(
            Job(name, "verify", argv, check=report_oracle(out, ok), outputs=(out,), defect=defect, once=defect is not None)
        )

    # ROADMAP 3a: level_counts are never checked, so an impossible claim passes
    tree, cover, cert, depth = certs[0]
    doc = _load(work, cert)
    doc["level_counts"] = [99] * depth
    write_doc(work / "tampered.cert.json", doc)
    argv = _args("dust-refute", "--tree", tree, "--cover", cover, "--check", "tampered.cert.json")
    jobs.append(Job("defect-3a-level-counts", "recheck", argv, expect=(1, 2), defect="3a"))
    # ROADMAP 3b: a tree whose level-3 cubes sit at the origin is input error
    n, b, depth = trees[-1]
    doc = _load(work, f"tree_n{n}_d{depth}.json")
    for entry in doc["levels"][2]:
        entry["lo"] = ["0/1"] * n
    write_doc(work / "tampered.tree.json", doc)
    argv = _args("dust-gaps", "--n", n, "--b", b, "--depth", depth, "--tree", "tampered.tree.json")
    jobs.append(Job("defect-3b-moved-cubes", "gaps", argv, expect=(2,), defect="3b"))
    return jobs


WORKLOADS = {"dust": dust, "sets": sets, "check": check}
