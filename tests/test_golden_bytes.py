"""Pinned sha256 of every document schema the CLI emits, on small specs.

Each document is produced through ``microset.cli.main`` exactly as a user
would produce it; any change to a canonical byte changes its digest.  The
digests were recorded before the budget predicate and the rebuilding tree
loader were introduced, so they also pin that those changes kept every
output byte.  ``hbracket_n2_d3.json`` was recorded with the all-pairs
Hausdorff scan, before the sorted scan replaced it.  ``report_over_budget``,
``report_thin_900`` and ``ballcheck_stdout.txt`` were recorded with the
``Fraction`` box queries, before they moved onto one integer frame.
"""

import contextlib
import hashlib
import io
from fractions import Fraction

import pytest

from microset import serialize
from microset.cli import main
from microset.covers import BallSpec, CoverSeq
from microset.dust import DustSpec, adversary_swallow, refutation_budget_lower
from microset.geometry import Box, DigitalSet

F = Fraction

GOLDEN = {
    "tree_n2_d2.json": "7a97a0211661f5d2fea979b7f91b004f8bc768be152a1161cf9848448303b333",
    "tree_n1_d4.json": "8bdf6a311557693c3605f3c95a3d4bca0fb9b0f0dac4e6428f725295144ab0c8",
    "gaps_n2_d3.json": "dda1f3238a185a6f91d34892be222b7f4c3832ec43cb4fe924b238876a6f1bef",
    "survivor_n1_d4.json": "6f92280d0146825eef5609d4e598718afdcee419dff2a15b1123fda3a1cac170",
    "set_a.json": "90238d1c6c726c12f2cc3d581eb0cbba5a476080785a04348104446f2d6920a2",
    "set_b.json": "0ad157ad827e5baa51e6e74aca9113d8042e7949e34f232b0593d73f9a998583",
    "cover_a.json": "6098aaf0c8c8e6222a2371f138226e9a724a133af18ade788f36615437444a12",
    "cover_b.json": "39ae93209344877d92617eaea7c779f1493f10255ea03928a9437b482c8f5e17",
    "merged.json": "4b3cd8a4575810dc1509b29f8342c69d66f48aa392ff47e08edb89a84515a099",
    "report_ok.json": "191b78edc16916986439c09295caa8f76ce6956dc2a73b736a0f41e9435a4b87",
    "report_uncovered.json": "37962bc23ea95fda67a1fb0296a49a4780388e5830fbb9e5ebe6415e8acf427b",
    "hbracket.json": "1b16039913c5148d256c72cedf85249a98e530f700db07575722f83cf086805a",
    "hbracket_n2_d3.json": "780402f9b37f01020cf5760c81c94e517018fd967ad170da93863921b7bc8558",
    "report_over_budget.json": "ad19894ef2305c9ebfc9b0e18a5f835e2ba8877f09d530b88ac9d5eb3c5974cf",
    "report_thin_900.json": "191b78edc16916986439c09295caa8f76ce6956dc2a73b736a0f41e9435a4b87",
    "ballcheck_stdout.txt": "afe2654e90ccaf76c8fc57616230b9fa000a21828f7a9bfc159636c18b7ca6c3",
}


def _run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    assert _run("dust-generate", "--n", 2, "--b", 3, "--depth", 2, "-o", d / "tree_n2_d2.json") == 0
    assert _run("dust-generate", "--n", 1, "--b", 3, "--depth", 4, "-o", d / "tree_n1_d4.json") == 0
    assert _run("dust-gaps", "--n", 2, "--b", 3, "--depth", 3, "-o", d / "gaps_n2_d3.json") == 0
    spec = DustSpec(n=1, b=3, depth=4)
    cover = adversary_swallow(spec, refutation_budget_lower(spec), 8)
    serialize.save(cover, d / "adversary.json")
    assert _run(
        "dust-refute", "--tree", d / "tree_n1_d4.json", "--cover", d / "adversary.json",
        "-o", d / "survivor_n1_d4.json",
    ) == 0
    for label, seed in (("a", 4), ("b", 5)):
        assert _run(
            "baire-sample", "--n", 2, "--b", 3, "--depth", 2, "--density", "1/20",
            "--seed", seed, "-o", d / f"set_{label}.json",
        ) == 0
        assert _run(
            "cover-search", "--set", d / f"set_{label}.json", "--eps", "1/4",
            "-o", d / f"cover_{label}.json",
        ) == 0
    assert _run(
        "cover-merge", "--covers", d / "cover_a.json", d / "cover_b.json", "--eps", "1/2",
        "-o", d / "merged.json",
    ) == 0
    assert _run(
        "cover-verify", "--set", d / "set_a.json", "--cover", d / "cover_a.json",
        "-o", d / "report_ok.json",
    ) == 0
    assert _run(
        "cover-verify", "--set", d / "set_b.json", "--cover", d / "cover_a.json",
        "-o", d / "report_uncovered.json",
    ) == 1
    assert _run(
        "hausdorff", "--a", d / "set_a.json", "--b", d / "set_b.json", "--depth", 3,
        "-o", d / "hbracket.json",
    ) == 0
    # 198 and 180 cells bracketed at their own depth, with no refinement
    for seed in (6, 7):
        assert _run(
            "baire-sample", "--n", 2, "--b", 3, "--depth", 3, "--density", "1/4",
            "--seed", seed, "-o", d / f"dense_{seed}.json",
        ) == 0
    assert _run(
        "hausdorff", "--a", d / "dense_6.json", "--b", d / "dense_7.json", "--depth", 3,
        "-o", d / "hbracket_n2_d3.json",
    ) == 0
    # cover_a with its second piece swapped for the unit square
    cover = serialize.load(d / "cover_a.json", "coverseq/1")
    square = Box(((F(0), F(1)), (F(0), F(1))))
    pieces = cover.pieces[:1] + (square,) + cover.pieces[2:]
    serialize.save(CoverSeq(n=2, eps=cover.eps, strong=True, pieces=pieces), d / "over_budget.json")
    assert _run(
        "cover-verify", "--set", d / "set_a.json", "--cover", d / "over_budget.json",
        "-o", d / "report_over_budget.json",
    ) == 1
    # cell 4 of the 1/9 grid cut into 900 intervals of widths 4 +- 2 on the 1/32400 grid
    bounds = [4 * 3600] + [4 * 3600 + 4 * i + i * i % 3 for i in range(1, 900)] + [5 * 3600]
    thin = tuple(Box(((F(lo, 32400), F(hi, 32400)),)) for lo, hi in zip(bounds, bounds[1:]))
    serialize.save(DigitalSet(1, 3, 2, ((4,),)), d / "thin_cell.json")
    serialize.save(CoverSeq(n=1, eps=F(999, 1000), strong=True, pieces=thin), d / "thin_900.json")
    assert _run(
        "cover-verify", "--set", d / "thin_cell.json", "--cover", d / "thin_900.json",
        "-o", d / "report_thin_900.json",
    ) == 0
    # the six diagonal cells of the 1/27 grid of test_cli, each box padded by a quarter cell
    cells = tuple((2 * i + 1, 2 * i + 1) for i in range(6))
    pad = F(1, 108)
    ball = BallSpec(
        n=2, boxes=tuple(Box(tuple((F(j, 27) - pad, F(j + 1, 27) + pad) for j in c)) for c in cells)
    )
    serialize.save(DigitalSet(2, 3, 3, cells), d / "diagonal.json")
    serialize.save(ball, d / "diagonal_ball.json")
    centres = [arg for i in range(6) for arg in ("--witness", f"{4 * i + 3}/54,{4 * i + 3}/54")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert _run("ball-check", "--set", d / "diagonal.json", "--ball", d / "diagonal_ball.json", *centres) == 0
    (d / "ballcheck_stdout.txt").write_text(out.getvalue())
    return d


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_emitted_bytes_are_pinned(docs, name):
    blob = (docs / name).read_bytes()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN[name]
