import ast
import contextlib
import copy
import io
import json
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraction_oracles import cell_boxes
from microset import cli, covers, dust, serialize
from microset.ball import BallSpec
from microset.cells import Box, CoverSeq, DigitalSet
from microset.cli import _COMMANDS, main
from microset.covers import CoverReport
from microset.dust import (
    DustSpec,
    adversary_random,
    adversary_swallow,
    gap_table,
    generate,
    refutation_budget_lower,
    survivor_refute,
)
from microset.geometry import hausdorff_bracket
from microset.rational import format_scalar, parse_scalar

F = Fraction


def box1(lo, hi):
    return Box(((F(lo), F(hi)),))


def run(*argv):
    return main(list(argv))


def test_dust_generate_counts(tmp_path):
    out = tmp_path / "tree.json"
    assert run("dust-generate", "--n", "2", "--b", "3", "--depth", "2", "-o", str(out)) == 0
    data = json.loads(out.read_text())
    assert [len(level) for level in data["levels"]] == [4, 16]


def test_dust_generate_inadmissible_is_verified_negative(tmp_path):
    out = tmp_path / "tree.json"
    assert run("dust-generate", "--n", "2", "--b", "2", "--depth", "2", "-o", str(out)) == 1
    assert not out.exists()


def test_dust_gaps_writes_canonical_table(tmp_path):
    out = tmp_path / "gaps.json"
    assert run("dust-gaps", "--n", "1", "--b", "3", "--depth", "2", "-o", str(out)) == 0
    table = serialize.load(out)
    assert table.sibling_gap == (F(1, 3), F(25, 81))


def test_dust_hmeasure_prints_scalar(capsys):
    assert run("dust-hmeasure", "--n", "1", "--b", "3", "--alpha", "1", "--k", "3") == 0
    assert capsys.readouterr().out.strip() == "8/19683"
    # the level is the spec's depth, so DustSpec refuses --k 0 as a usage error
    assert run("dust-hmeasure", "--n", "1", "--b", "3", "--alpha", "1", "--k", "0") == 2
    assert "depth must be >= 1" in capsys.readouterr().err


def test_hmeasure_and_gaps_need_no_corner_list(tmp_path, capsys):
    # n = 40 would list 2**40 corners if the default order were explicit
    started = time.monotonic()
    assert run("dust-hmeasure", "--n", "40", "--b", "3", "--alpha", "1", "--k", "1") == 0
    assert time.monotonic() - started < 2
    # closed form 2**40 * sqrt(40) * (3**-40)**(1/40), root of 40 rounded up
    root = parse_scalar(capsys.readouterr().out.strip()) * 3 / 2**40
    assert 40 <= root * root < 40 + F(1, 10**9)
    out = tmp_path / "gaps.json"
    started = time.monotonic()
    assert run("dust-gaps", "--n", "40", "--b", "3", "--depth", "1", "-o", str(out)) == 0
    assert time.monotonic() - started < 2
    assert serialize.load(out).sibling_gap == (F(1, 3),)


def test_cover_verify_exit_codes(tmp_path, capsys, monkeypatch):
    e = DigitalSet(1, 3, 1, ((0,), (2,)))
    ok_cover = CoverSeq(
        n=1,
        eps=F(1, 2),
        strong=False,
        pieces=(box1(0, F(1, 2)), box1(F(2, 3), F(11, 12)), box1(F(7, 8), 1)),
    )
    bad_cover = CoverSeq(
        n=1, eps=F(1, 2), strong=False, pieces=(box1(0, F(1, 3)), box1(F(2, 3), 1))
    )
    e_path, good_path, bad_path = (
        tmp_path / "e.json",
        tmp_path / "good.json",
        tmp_path / "bad.json",
    )
    serialize.save(e, e_path)
    serialize.save(ok_cover, good_path)
    serialize.save(bad_cover, bad_path)
    assert run("cover-verify", "--set", str(e_path), "--cover", str(good_path)) == 0

    report_path = tmp_path / "report.json"
    code = run(
        "cover-verify",
        "--set",
        str(e_path),
        "--cover",
        str(bad_path),
        "-o",
        str(report_path),
    )
    assert code == 1
    assert "position 2" in capsys.readouterr().err
    report = serialize.load(report_path)
    assert report.first_violation == (2, "budget")

    # any other exception from a library call is a bug: exit 3, one stderr line, no traceback
    def broken(e, cover):
        raise KeyError("lost")

    monkeypatch.setattr(covers, "verify_cover", broken)
    assert run("cover-verify", "--set", str(e_path), "--cover", str(good_path)) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error, please report") and err.count("\n") == 1


def test_cover_search_round_trip(tmp_path):
    e = DigitalSet(1, 3, 2, ((0,), (4,)))
    e_path = tmp_path / "e.json"
    out = tmp_path / "cover.json"
    serialize.save(e, e_path)
    assert run("cover-search", "--set", str(e_path), "--eps", "1/2", "-o", str(out)) == 0
    cover = serialize.load(out)
    assert isinstance(cover, CoverSeq) and cover.strong


def test_cover_search_negative_and_usage(tmp_path, capsys):
    seg = DigitalSet(2, 3, 3, tuple((j, 0) for j in range(27)))
    e_path = tmp_path / "seg.json"
    serialize.save(seg, e_path)
    assert run("cover-search", "--set", str(e_path), "--eps", "1/100") == 1
    assert run("cover-search", "--set", str(e_path)) == 2
    assert run("cover-search", "--set", str(e_path), "--eps", "1/2", "--s", "2") == 2
    # the search has no piece cap, so a cap flag is not an argument
    capsys.readouterr()
    assert run("cover-search", "--set", str(e_path), "--eps", "1/2", "--max-pieces", "3") == 2
    assert "unrecognized arguments: --max-pieces 3" in capsys.readouterr().err


def test_cover_merge_cli(tmp_path):
    a = CoverSeq(n=1, eps=F(1, 4), strong=False, pieces=(box1(0, F(1, 4)),))
    b = CoverSeq(n=1, eps=F(1, 4), strong=False, pieces=(box1(F(3, 4), 1),))
    pa, pb, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "m.json"
    serialize.save(a, pa)
    serialize.save(b, pb)
    assert run("cover-merge", "--covers", str(pa), str(pb), "--eps", "1/2", "-o", str(out)) == 0
    merged = serialize.load(out)
    assert len(merged.pieces) == 2
    # weak inputs are a verified negative, not a crash
    weak = tmp_path / "weak.json"
    serialize.save(CoverSeq(n=1, eps=F(1, 2), strong=False, pieces=(box1(0, F(1, 2)),)), weak)
    assert run("cover-merge", "--covers", str(weak), str(pb), "--eps", "1/2", "-o", str(out)) == 1
    # covers of different dimensions are input error
    plane = tmp_path / "plane.json"
    serialize.save(CoverSeq(n=2, eps=F(1, 4), strong=False, pieces=()), plane)
    assert run("cover-merge", "--covers", str(pa), str(plane), "--eps", "1/2", "-o", str(out)) == 2
    # so are a strong and a non-strong cover: the mismatch says nothing about a budget
    strong = tmp_path / "strong.json"
    serialize.save(CoverSeq(n=1, eps=F(1, 4), strong=True, pieces=(box1(F(3, 4), 1),)), strong)
    assert run("cover-merge", "--covers", str(pa), str(strong), "--eps", "1/2", "-o", str(out)) == 2
    # so is an eps outside (0, 1), before any merge premise is looked at
    for eps in ("2", "0"):
        assert run("cover-merge", "--covers", str(pa), str(pb), "--eps", eps, "-o", str(out)) == 2


def test_ball_check_paths(tmp_path, capsys):
    k = DigitalSet(1, 3, 3, ((13,),))
    ball = BallSpec(n=1, boxes=(box1(F(2, 5), F(3, 5)),))
    kp, bp = tmp_path / "k.json", tmp_path / "ball.json"
    serialize.save(k, kp)
    serialize.save(ball, bp)
    assert run("ball-check", "--set", str(kp), "--ball", str(bp)) == 0
    assert run("ball-check", "--set", str(kp), "--ball", str(bp), "--witness", "1/2") == 0
    assert "11/135" in capsys.readouterr().out
    outside = DigitalSet(1, 3, 3, ((0,),))
    op = tmp_path / "o.json"
    serialize.save(outside, op)
    assert run("ball-check", "--set", str(op), "--ball", str(bp)) == 1
    # six diagonal cells of the 1/27 grid, each box padded by a quarter cell
    cells = tuple((2 * i + 1, 2 * i + 1) for i in range(6))
    pad = F(1, 108)
    diagonal = BallSpec(
        n=2, boxes=tuple(Box(tuple((F(j, 27) - pad, F(j + 1, 27) + pad) for j in c)) for c in cells)
    )
    serialize.save(DigitalSet(2, 3, 3, cells), kp)
    serialize.save(diagonal, bp)
    centres = [arg for i in range(6) for arg in ("--witness", f"{4 * i + 3}/54,{4 * i + 3}/54")]
    assert run("ball-check", "--set", str(kp), "--ball", str(bp), *centres) == 0
    assert "stability radius 1/108" in capsys.readouterr().out


def test_hausdorff_cli(tmp_path, capsys):
    a = DigitalSet(1, 3, 2, ((0,),))
    b = DigitalSet(1, 3, 2, ((8,),))
    pa, pb, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "h.json"
    serialize.save(a, pa)
    serialize.save(b, pb)
    assert run("hausdorff", "--a", str(pa), "--b", str(pb), "--depth", "6", "-o", str(out)) == 0
    bracket = serialize.load(out)
    assert bracket.lo <= F(8, 9) <= bracket.hi


def test_baire_sample_matches_library(tmp_path):
    out = tmp_path / "sample.json"
    assert run(
        "baire-sample",
        "--n", "2", "--b", "3", "--depth", "3",
        "--density", "1/10", "--seed", "42",
        "-o", str(out),
    ) == 0
    from microset.baire import SampleSpec, sample_compact

    expected = sample_compact(SampleSpec(seed=42, n=2, b=3, depth=3, density=F(1, 10)))
    assert serialize.load(out) == expected


def test_render_svg_byte_identical(tmp_path):
    tree_path = tmp_path / "tree.json"
    assert run("dust-generate", "--n", "2", "--b", "3", "--depth", "2", "-o", str(tree_path)) == 0
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert run("render-svg", "--tree", str(tree_path), "-o", str(a)) == 0
    assert run("render-svg", "--tree", str(tree_path), "-o", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().startswith(b"<svg ")


def test_render_svg_rejects_line_trees(tmp_path):
    tree_path = tmp_path / "tree1.json"
    assert run("dust-generate", "--n", "1", "--b", "3", "--depth", "2", "-o", str(tree_path)) == 0
    assert run("render-svg", "--tree", str(tree_path), "-o", str(tmp_path / "x.svg")) == 2
    # so are line covers
    cover_path = tmp_path / "cover1.json"
    serialize.save(CoverSeq(n=1, eps=F(1, 2), strong=False, pieces=(box1(0, F(1, 2)),)), cover_path)
    assert run("render-svg", "--cover", str(cover_path), "-o", str(tmp_path / "x.svg")) == 2
    # each is refused before a line is drawn, so no file is left
    assert not (tmp_path / "x.svg").exists()


def test_malformed_file_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("cover-verify", "--set", str(bad), "--cover", str(bad)) == 2
    wrong = tmp_path / "wrong.json"
    serialize.save(DigitalSet(1, 3, 1, ((0,),)), wrong)
    assert run("cover-verify", "--set", str(wrong), "--cover", str(wrong)) == 2
    missing = tmp_path / "missing.json"
    assert run("cover-verify", "--set", str(missing), "--cover", str(missing)) == 2


def test_unknown_subcommand_is_usage_error():
    assert run("no-such-command") == 2


def test_precision_flag_validation(tmp_path):
    e_path, a_path, b_path = tmp_path / "e.json", tmp_path / "a.json", tmp_path / "b.json"
    ball_path = tmp_path / "ball.json"
    serialize.save(DigitalSet(1, 3, 1, ((0,),)), e_path)
    serialize.save(DigitalSet(1, 3, 2, ((0,),)), a_path)
    serialize.save(DigitalSet(1, 3, 2, ((8,),)), b_path)
    serialize.save(BallSpec(n=1, boxes=(box1(F(-1, 2), F(1, 2)),)), ball_path)
    former_readers = [
        ["dust-hmeasure", "--n", "1", "--b", "3", "--alpha", "1/2", "--k", "2"],
        ["cover-search", "--set", str(e_path), "--eps", "1/2"],
        ["ball-check", "--set", str(e_path), "--ball", str(ball_path), "--witness", "1/6"],
        ["hausdorff", "--a", str(a_path), "--b", str(b_path), "--depth", "3"],
    ]
    for argv in former_readers:
        assert run(*argv) == 0, argv
        assert run(*argv, "--precision", "100") == 2, argv


def test_precision_flag_only_where_it_is_read(tmp_path, capsys):
    # no subcommand reads --precision, so none lists or accepts it
    for command in _COMMANDS:
        assert run(command, "--help") == 0
        assert "--precision" not in capsys.readouterr().out, command
    e_path, cover_path = tmp_path / "e.json", tmp_path / "cover.json"
    serialize.save(DigitalSet(1, 3, 1, ((0,),)), e_path)
    cover = CoverSeq(n=1, eps=F(1, 2), strong=False, pieces=(box1(0, F(1, 3)),))
    serialize.save(cover, cover_path)
    argv = ["cover-verify", "--set", str(e_path), "--cover", str(cover_path)]
    assert run(*argv) == 0
    assert run(*argv, "--precision", "5") == 2


def test_refute_cli_full_cycle(tmp_path, capsys):
    spec = DustSpec(n=1, b=3, depth=4)
    tree = generate(spec)
    eps = refutation_budget_lower(spec)
    cover = adversary_swallow(spec, eps, 8)
    tp, cp, certp = tmp_path / "tree.json", tmp_path / "cover.json", tmp_path / "cert.json"
    serialize.save(tree, tp)
    serialize.save(cover, cp)
    assert run("dust-refute", "--tree", str(tp), "--cover", str(cp), "-o", str(certp)) == 0
    assert run("dust-refute", "--tree", str(tp), "--cover", str(cp), "--check", str(certp)) == 0
    # over-budget premises are a verified negative
    fat = CoverSeq(n=1, eps=F(1, 2), strong=False, pieces=(box1(0, F(1, 2)),))
    fatp = tmp_path / "fat.json"
    serialize.save(fat, fatp)
    assert run("dust-refute", "--tree", str(tp), "--cover", str(fatp)) == 1
    # tampered certificate is rejected on --check
    cert = serialize.load(certp)
    from microset.dust import SurvivorCertificate

    forged = SurvivorCertificate(
        depth=cert.depth,
        checked_prefix=cert.checked_prefix,
        survivor_word=(1, 1, 1, 1),
        level_counts=cert.level_counts,
    )
    forgedp = tmp_path / "forged.json"
    serialize.save(forged, forgedp)
    assert run("dust-refute", "--tree", str(tp), "--cover", str(cp), "--check", str(forgedp)) == 1
    # so is a certificate whose survivor counts per level are made up
    doc = json.loads(certp.read_text())
    doc["level_counts"] = [99] * spec.depth
    forgedp.write_text(serialize.canonical_bytes(doc).decode())
    assert run("dust-refute", "--tree", str(tp), "--cover", str(cp), "--check", str(forgedp)) == 1
    # a cover of another dimension is input error, with and without --check
    plane = CoverSeq(n=2, eps=F(1, 2), strong=False, pieces=(Box(((0, 1), (0, 1))),))
    planep = tmp_path / "plane.json"
    serialize.save(plane, planep)
    assert run("dust-refute", "--tree", str(tp), "--cover", str(planep)) == 2
    assert run("dust-refute", "--tree", str(tp), "--cover", str(planep), "--check", str(certp)) == 2
    # a certificate made for a tree of another depth is rejected on --check
    shallow = tmp_path / "tree3.json"
    serialize.save(generate(DustSpec(n=1, b=3, depth=3)), shallow)
    capsys.readouterr()
    assert run("dust-refute", "--tree", str(shallow), "--cover", str(cp), "--check", str(certp)) == 1
    assert "certificate depth differs" in capsys.readouterr().err


def test_refute_check_refuses_an_output_path(tmp_path, capsys):
    # --check writes nothing, so -o with it is a usage error, refused before any file is read
    spec = DustSpec(n=1, b=3, depth=3)
    tp, cp, certp, outp = (tmp_path / name for name in ("tree.json", "cover.json", "cert.json", "out.json"))
    serialize.save(generate(spec), tp)
    serialize.save(adversary_swallow(spec, refutation_budget_lower(spec), 4), cp)
    assert run("dust-refute", "--tree", str(tp), "--cover", str(cp), "-o", str(certp)) == 0
    missing = tmp_path / "missing.json"
    for tree in (tp, missing):
        capsys.readouterr()
        argv = ["--tree", str(tree), "--cover", str(cp), "--check", str(certp), "-o", str(outp)]
        assert run("dust-refute", *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --check") and err.count("\n") == 1
        assert not outp.exists()


def _adversary(tmp_path, n, count, *extra, b=3, depth=3):
    """Run dust-adversary; its exit code and output path."""
    out = tmp_path / f"cover_{n}_{count}.json"
    argv = ["--n", str(n), "--b", str(b), "--depth", str(depth), "--count", str(count)]
    return run("dust-adversary", *argv, *extra, "-o", str(out)), out


def test_dust_study_runs_as_a_pipeline(tmp_path, capsys):
    # the line study: a tree, a swallow and a random adversary, each refuted and re-checked
    tp = tmp_path / "tree.json"
    assert run("dust-generate", "--n", "1", "--b", "3", "--depth", "3", "-o", str(tp)) == 0
    assert len(json.loads(tp.read_text())["levels"][-1]) == 8  # leaves
    for kind, count, extra in (("swallow", 1, ()), ("random", 2, ("--seed", "2027"))):
        capsys.readouterr()
        code, cp = _adversary(tmp_path, 1, count, *extra)
        assert (code, capsys.readouterr().out) == (0, f"{kind} cover with {count} pieces -> {cp}\n")
        certp = tmp_path / f"{kind}_cert.json"
        assert run("dust-refute", "--tree", str(tp), "--cover", str(cp), "-o", str(certp)) == 0
        assert re.fullmatch(rf"survivor \[[\d, ]+\] disjoint from the first {count} pieces\n",
                            capsys.readouterr().out)
        assert run("dust-refute", "--tree", str(tp), "--cover", str(cp), "--check", str(certp)) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cover_1_1.json", "cover_1_2.json", "random_cert.json", "swallow_cert.json", "tree.json"
    ]


def test_dust_and_adversary_render_one_rect_per_cube(tmp_path, capsys):
    tp, svg, cover_svg = tmp_path / "tree.json", tmp_path / "dust.svg", tmp_path / "dust_cover.svg"
    assert run("dust-generate", "--n", "2", "--b", "3", "--depth", "2", "-o", str(tp)) == 0
    code, cp = _adversary(tmp_path, 2, 3, "--seed", "7", depth=2)
    assert code == 0
    capsys.readouterr()
    assert run("render-svg", "--tree", str(tp), "-o", str(svg)) == 0
    assert run("render-svg", "--cover", str(cp), "-o", str(cover_svg)) == 0
    assert capsys.readouterr().out.splitlines() == [f"wrote {svg}", f"wrote {cover_svg}"]
    assert svg.read_text().count("<rect") == 1 + 4 + 16
    assert cover_svg.read_text().count("<rect") == 1 + 3


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dust_adversary_writes_the_library_cover(tmp_path, n):
    spec = DustSpec(n=n, b=3, depth=3)
    eps = refutation_budget_lower(spec)
    for extra, cover in (
        ((), adversary_swallow(spec, eps, 5)),  # with no seed, the swallowing adversary
        (("--seed", "11"), adversary_random(spec, eps, 5, 11)),
        (("--eps", "1/5"), adversary_swallow(spec, F(1, 5), 5)),
    ):
        expected = tmp_path / "expected.json"
        serialize.save(cover, expected)
        code, out = _adversary(tmp_path, n, 5, *extra)
        assert code == 0 and out.read_bytes() == expected.read_bytes(), extra


@pytest.mark.parametrize(
    "count, extra",
    [
        (0, ()),
        (-1, ("--seed", "1")),
        (2, ("--eps", "1e-1000000")),  # refused as the command line reads it
        (2, ("--eps", "2")),  # out of (0, 1)
        (2, ("--seed", "1", "--eps", "0")),
        (200_000, ("--eps", "3/2")),  # refused before any of the pieces' budgets is formed
    ],
    ids=["count-0", "count-negative", "eps-exponent", "eps-2", "eps-0", "eps-3/2-many-pieces"],
)
def test_dust_adversary_refuses_bad_flags(tmp_path, capsys, count, extra):
    code, out = _adversary(tmp_path, 2, count, *extra)
    err = capsys.readouterr().err
    assert code == 2 and not out.exists()
    assert err.startswith("error: ") and "Traceback" not in err


def test_dust_adversary_inadmissible_spec_is_verified_negative(tmp_path, capsys):
    code, out = _adversary(tmp_path, 2, 2, b=2)
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err.startswith("inadmissible: ")


def test_dust_adversary_checks_its_budget_before_writing(tmp_path, monkeypatch, capsys):
    from microset import dust

    fat = CoverSeq(n=1, eps=F(1, 2), strong=True, pieces=(box1(0, 1),))
    monkeypatch.setattr(dust, "adversary_swallow", lambda spec, eps, count: fat)
    code, out = _adversary(tmp_path, 1, 1)
    assert code == 3 and not out.exists()
    assert "broke its own budget" in capsys.readouterr().err


def test_tampered_tree_is_malformed_input(tmp_path):
    # a tree file is rebuilt from its spec on load; any other content is input error
    spec = DustSpec(n=1, b=3, depth=4)
    tree = generate(spec)
    tp, cp = tmp_path / "tree.json", tmp_path / "cover.json"
    serialize.save(tree, tp)
    serialize.save(adversary_swallow(spec, refutation_budget_lower(spec), 8), cp)
    doc = json.loads(tp.read_text())
    for entry in doc["levels"][2]:
        entry["lo"] = ["0/1"]
    moved = tmp_path / "moved.json"
    moved.write_text(serialize.canonical_bytes(doc).decode())
    assert run("dust-gaps", "--n", "1", "--b", "3", "--depth", "4", "--tree", str(moved)) == 2
    assert run("dust-refute", "--tree", str(moved), "--cover", str(cp)) == 2
    # a forged depth is refused before anything is built
    doc = json.loads(tp.read_text())
    doc["depth"] = 40
    deep = tmp_path / "deep.json"
    deep.write_text(serialize.canonical_bytes(doc).decode())
    assert run("dust-refute", "--tree", str(deep), "--cover", str(cp)) == 2
    # and so is a forged dimension, before any list of 2**n corners is made
    for order in ([0, 1], []):
        doc = {**json.loads(tp.read_text()), "n": 40, "corner_order": order}
        deep.write_text(serialize.canonical_bytes(doc).decode())
        started = time.monotonic()
        assert run("dust-refute", "--tree", str(deep), "--cover", str(cp)) == 2
        assert time.monotonic() - started < 0.5


def _corner_dust_doc(n: int, b: int, depth: int, order=None) -> dict:
    """The dusttree/1 document of the corner construction, written for any spec.

    ``order`` maps letter t to the corner whose bits are those of order[t - 1];
    the construction's own labelling is the identity.
    """
    order = list(range(2**n)) if order is None else order
    levels, current = [], [((), (0,) * n)]
    for k in range(1, depth + 1):
        f, side = b ** (2 * k - 1), F(1, b ** (k * k))
        current = [
            (word + (t,), tuple(p * f + (order[t - 1] >> (n - 1 - axis) & 1) * (f - 1)
                                for axis, p in enumerate(cell)))
            for word, cell in current
            for t in range(1, 2**n + 1)
        ]
        levels.append([
            {"word": list(word), "lo": [format_scalar(j * side) for j in cell],
             "side": format_scalar(side)}
            for word, cell in current
        ])
    return {"schema": "dusttree/1", "n": n, "b": b, "depth": depth,
            "corner_order": order, "levels": levels}


def test_corner_order_is_retired(tmp_path, capsys):
    assert run("dust-generate", "--n", "1", "--b", "3", "--depth", "2",
               "--corner-order", "1,0", "-o", str(tmp_path / "t.json")) == 2
    assert not (tmp_path / "t.json").exists()
    # a tree file written under another labelling no longer loads
    cover = tmp_path / "cover.json"
    serialize.save(CoverSeq(n=1, eps=F(1, 81), strong=False, pieces=()), cover)
    for n, order in ((1, [1, 0]), (2, [1, 0, 2, 3]), (2, [3, 2, 1, 0])):
        tp = tmp_path / f"tree{n}.json"
        tp.write_text(serialize.canonical_bytes(_corner_dust_doc(n, 3, 2, order)).decode())
        capsys.readouterr()
        if n == 1:
            assert run("dust-refute", "--tree", str(tp), "--cover", str(cover)) == 2
            assert "differs from the tree its spec defines" in capsys.readouterr().err
        assert run("render-svg", "--tree", str(tp), "-o", str(tmp_path / "x.svg")) == 2
        assert "differs from the tree its spec defines" in capsys.readouterr().err
    assert not (tmp_path / "x.svg").exists()


def test_inadmissible_tree_file_is_malformed_input(tmp_path):
    # the hand-written document is the one generate writes on an admissible spec
    tree = generate(DustSpec(n=2, b=3, depth=2))
    assert _corner_dust_doc(2, 3, 2) == json.loads(serialize.canonical_bytes(serialize.to_json(tree)))
    cover = tmp_path / "cover.json"
    serialize.save(CoverSeq(n=2, eps=F(1, 81), strong=False, pieces=()), cover)
    # b = 2 gives delta_1 = 0: no dust-generate writes these files, whose siblings touch
    for n, depth in ((1, 1), (2, 2)):
        tp = tmp_path / f"tree{n}.json"
        tp.write_text(serialize.canonical_bytes(_corner_dust_doc(n, 2, depth)).decode())
        with pytest.raises(ValueError, match="inadmissible"):
            serialize.load(tp)
        assert run("dust-gaps", "--n", str(n), "--b", "3", "--depth", str(depth),
                   "--tree", str(tp)) == 2
    plane = str(tmp_path / "tree2.json")
    assert run("dust-refute", "--tree", plane, "--cover", str(cover)) == 2
    assert run("render-svg", "--tree", plane, "-o", str(tmp_path / "x.svg")) == 2
    line_cover = tmp_path / "line_cover.json"
    serialize.save(CoverSeq(n=1, eps=F(1, 81), strong=False, pieces=()), line_cover)
    assert run("dust-refute", "--tree", str(tmp_path / "tree1.json"),
               "--cover", str(line_cover)) == 2


def test_check_is_as_strict_as_the_refuter(tmp_path, capsys):
    spec = DustSpec(n=1, b=3, depth=4)
    tree = generate(spec)
    cover = adversary_swallow(spec, refutation_budget_lower(spec), 8)
    tp, cp, certp = tmp_path / "tree.json", tmp_path / "cover.json", tmp_path / "cert.json"
    serialize.save(tree, tp)
    serialize.save(cover, cp)
    assert run("dust-refute", "--tree", str(tp), "--cover", str(cp), "-o", str(certp)) == 0
    # the same pieces under a far tighter eps break the budget the refuter demands
    tight = tmp_path / "tight.json"
    serialize.save(CoverSeq(n=1, eps=F(1, 10**9), strong=True, pieces=cover.pieces), tight)
    capsys.readouterr()
    assert run("dust-refute", "--tree", str(tp), "--cover", str(tight)) == 1
    assert "eps budget" in capsys.readouterr().err
    assert run("dust-refute", "--tree", str(tp), "--cover", str(tight), "--check", str(certp)) == 1
    assert capsys.readouterr().err.startswith("certificate rejected: cover does not satisfy")


def test_level_without_survivor_is_verified_negative(tmp_path, capsys):
    # together the two pieces would touch all four level-2 cubes, but each is exactly
    # level_gap(2) = 25/81 long, so neither lies strictly under the gap budget
    tree = generate(DustSpec(n=1, b=3, depth=2))
    pieces = (box1(F(1, 81), F(26, 81)), box1(F(55, 81), F(80, 81)))
    cover = CoverSeq(n=1, eps=F(5, 9), strong=True, pieces=pieces)
    with pytest.raises(ValueError, match="^piece 1 is not below the level-2 gap budget$"):
        survivor_refute(tree.spec, cover)
    tp, cp = tmp_path / "tree.json", tmp_path / "cover.json"
    serialize.save(tree, tp)
    serialize.save(cover, cp)
    assert run("dust-refute", "--tree", str(tp), "--cover", str(cp)) == 1
    err = capsys.readouterr().err.strip()
    assert err == "refutation premises not met: piece 1 is not below the level-2 gap budget"


def test_descent_without_survivor_is_an_internal_bug(tmp_path, monkeypatch, capsys):
    # a cover that meets the premises always leaves a survivor, so losing every one is a bug
    tree = generate(DustSpec(n=1, b=3, depth=2))
    cover = adversary_swallow(tree.spec, refutation_budget_lower(tree.spec), 2)
    tp, cp = tmp_path / "tree.json", tmp_path / "cover.json"
    serialize.save(tree, tp)
    serialize.save(cover, cp)
    monkeypatch.setattr(dust, "_survivor_descent", lambda spec, frame, pieces: ((2, 0), None))
    assert run("dust-refute", "--tree", str(tp), "--cover", str(cp)) == 3
    assert "no survivor on a cover that meets the refutation premises" in capsys.readouterr().err


def _contract_files(tmp_path) -> dict:
    """Paths of small documents for the exit-code contract, by name."""
    spec = DustSpec(n=1, b=3, depth=2)
    docs = {
        "tree": generate(spec),
        "cover": adversary_swallow(spec, refutation_budget_lower(spec), 2),
        # cell 13 holds the witness 1/2 of the one box, cell 0 lies outside it
        "ball": BallSpec(n=1, boxes=(box1(F(2, 5), F(3, 5)),)),
        "outside": DigitalSet(1, 3, 3, ((0,),)),
        "straddling": DigitalSet(1, 3, 3, ((0,), (13,))),
        # piece 1 of the weak cover breaks the strengthened budget (1/2)**2 of a two-cover merge
        "weak": CoverSeq(n=1, eps=F(1, 2), strong=False, pieces=(box1(0, F(1, 2)),)),
        "strong": CoverSeq(n=1, eps=F(1, 4), strong=True, pieces=(box1(F(3, 4), 1),)),
    }
    paths = {name: tmp_path / f"{name}.json" for name in docs}
    for name, doc in docs.items():
        serialize.save(doc, paths[name])
    return paths


def _boom(*args):
    raise ValueError("boom")


@pytest.mark.parametrize("argv, patched, code, err", ids=[
    "bad-witness", "witness-off-the-set", "non-member", "refuter-error", "merge-error", "mixed-kinds",
], argvalues=[
    # witnesses are read before the set, so a bad one is input error whatever the verdict
    ("ball-check --set {outside} --ball {ball} --witness abc", None, 2, "error: not a rational scalar: 'abc'"),
    ("ball-check --set {outside} --ball {ball} --witness 1/2", None, 2, "error: witness must lie in the set"),
    ("ball-check --set {straddling} --ball {ball} --witness 1/2", None, 1, "not a member of the open-box union"),
    # only a Negative is exit 1: any other ValueError out of the library is exit 2
    ("dust-refute --tree {tree} --cover {cover}", (dust, "survivor_refute"), 2, "error: boom"),
    ("cover-merge --covers {cover} {cover} --eps 1/2 -o {out}", (covers, "merge_covers"), 2, "error: boom"),
    # the kinds are checked before any budget, so mixed input is never read as a broken budget
    ("cover-merge --covers {weak} {strong} --eps 1/2 -o {out}", None, 2,
     "error: cannot merge strong with non-strong covers"),
])
def test_exit_1_is_exactly_a_negative(tmp_path, monkeypatch, capsys, argv, patched, code, err):
    paths = _contract_files(tmp_path)
    if patched is not None:
        monkeypatch.setattr(*patched, _boom)
    assert run(*argv.format(**paths, out=tmp_path / "out.json").split()) == code
    assert capsys.readouterr().err == err + "\n"
    assert not (tmp_path / "out.json").exists()


def test_no_handler_catches_value_error():
    # main alone maps exceptions to exit codes; a handler may catch only Negative, to prefix it
    tree = ast.parse(Path(cli.__file__).read_text())
    caught = [
        (function.name, node.lineno)
        for function in tree.body
        if isinstance(function, ast.FunctionDef) and function.name.startswith("_cmd_")
        for node in ast.walk(function)
        if isinstance(node, ast.ExceptHandler) and node.type is not None
        and "ValueError" in {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
    ]
    assert caught == []


def test_console_script_in_subprocess(tmp_path):
    out = tmp_path / "tree.json"
    proc = subprocess.run(
        [sys.executable, "-m", "microset", "dust-generate",
         "--n", "1", "--b", "3", "--depth", "1", "-o", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert out.exists()


def test_emitted_documents_reparse_and_revalidate(tmp_path):
    # round-trip byte stability through the CLI for each emitted format
    tree_path = tmp_path / "tree.json"
    gaps_path = tmp_path / "gaps.json"
    run("dust-generate", "--n", "2", "--b", "3", "--depth", "2", "-o", str(tree_path))
    run("dust-gaps", "--n", "2", "--b", "3", "--depth", "2", "-o", str(gaps_path))
    for path in (tree_path, gaps_path):
        blob = path.read_bytes()
        obj = serialize.from_json(json.loads(blob))
        assert serialize.canonical_bytes(serialize.to_json(obj)) == blob


def test_dust_gaps_tree_from_another_spec_is_input_error(tmp_path):
    tp = tmp_path / "tree.json"
    serialize.save(generate(DustSpec(n=1, b=3, depth=3)), tp)
    assert run("dust-gaps", "--n", "1", "--b", "3", "--depth", "3", "--tree", str(tp)) == 0
    for n, b, depth in (("1", "5", "3"), ("1", "3", "2"), ("2", "3", "3"), ("1", "3", "4")):
        assert run("dust-gaps", "--n", n, "--b", b, "--depth", depth, "--tree", str(tp)) == 2


def _valid_documents() -> dict:
    tree = generate(DustSpec(n=1, b=3, depth=2))
    a, b = DigitalSet(1, 3, 1, ((0,),)), DigitalSet(1, 3, 1, ((2,),))
    docs = [
        a,
        CoverSeq(n=1, eps=F(1, 2), strong=False, pieces=(box1(0, F(1, 2)),)),
        CoverReport((1, "budget"), (0,)),
        BallSpec(n=1, boxes=(box1(F(1, 4), F(3, 4)),)),
        tree,
        gap_table(tree.spec),
        survivor_refute(tree.spec, CoverSeq(n=1, eps=F(1, 81), strong=False, pieces=())),
        hausdorff_bracket(a, b, 2),
    ]
    # as a file holds them: to_json hands a set's cell tuples over as stored
    return {doc["schema"]: json.loads(serialize.canonical_bytes(doc).decode())
            for doc in map(serialize.to_json, docs)}


def test_malformed_fields_load_or_raise_value_error():
    docs = _valid_documents()
    assert set(docs) == set(serialize._SCHEMAS)
    for doc in docs.values():
        for path in _paths(doc):
            for value in (5, "x", None, [], *_near_misses(_get(doc, path))):
                forged = copy.deepcopy(doc)
                _replace(forged, path, value)
                try:
                    loaded = serialize.from_json(forged)
                except ValueError:
                    continue
                assert _saves_back(loaded, forged), (path, value)  # so nothing was coerced
    # only a JSON object of a known schema decodes, and only a record encodes
    for bad, message in (([], "JSON object"), ({}, "unknown schema"), ({"schema": "cover/9"}, "unknown schema")):
        with pytest.raises(ValueError, match=message):
            serialize.from_json(bad)
    with pytest.raises(ValueError, match="no serializer"):
        serialize.to_json(object())


def test_every_loader_refuses_a_field_its_schema_does_not_define(tmp_path, capsys):
    docs = _valid_documents()
    for schema, doc in docs.items():
        reloaded = serialize.to_json(serialize.from_json(doc))
        assert serialize.canonical_bytes(reloaded) == serialize.canonical_bytes(doc), schema
        with pytest.raises(ValueError, match=r"unknown fields \['note'\]"):
            serialize.from_json({**doc, "note": "trust me"})
    # an annotated certificate or set is malformed input, not a verdict
    tree = generate(DustSpec(n=1, b=3, depth=2))
    cover = CoverSeq(n=1, eps=F(1, 81), strong=False, pieces=())
    e = DigitalSet(1, 3, 1, ((0,),))
    paths = {name: tmp_path / f"{name}.json" for name in ("tree", "cover", "cert", "set", "full")}
    serialize.save(tree, paths["tree"])
    serialize.save(cover, paths["cover"])
    serialize.save(CoverSeq(n=1, eps=F(1, 2), strong=True, pieces=tuple(cell_boxes(e))), paths["full"])
    cert = serialize.to_json(survivor_refute(tree.spec, cover))
    paths["cert"].write_text(serialize.canonical_bytes({**cert, "note": "trust me"}).decode())
    paths["set"].write_text(serialize.canonical_bytes({**serialize.to_json(e), "note": 1}).decode())
    capsys.readouterr()
    assert run("dust-refute", "--tree", str(paths["tree"]), "--cover", str(paths["cover"]),
               "--check", str(paths["cert"])) == 2
    assert run("cover-verify", "--set", str(paths["set"]), "--cover", str(paths["full"])) == 2
    assert "unknown fields ['note']" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value, message",
    [("n", 0, "dimension must be >= 1"), ("b", 1, "base must be >= 2")],
    ids=["dimension-0", "base-1"],
)
def test_digital_set_refuses_a_dimension_or_base_below_its_floor(tmp_path, capsys, field, value, message):
    fields = {"n": 1, "b": 3, "m": 1, "cells": ((0,),), field: value}
    with pytest.raises(ValueError, match=message):
        DigitalSet(**fields)
    setp, coverp = tmp_path / "set.json", tmp_path / "cover.json"
    setp.write_text(serialize.canonical_bytes({**_valid_documents()["digitalset/1"], field: value}).decode())
    serialize.save(CoverSeq(n=1, eps=F(1, 2), strong=False, pieces=(box1(0, 1),)), coverp)
    capsys.readouterr()
    assert run("cover-verify", "--set", str(setp), "--cover", str(coverp)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_output_documents_that_contradict_themselves_raise():
    docs = _valid_documents()
    table = docs["gaptable/1"]  # depth 2
    forged = [
        {"schema": "coverreport/1", "budget_ok": True, "coverage_ok": True,
         "first_violation": [3, "nonsense"], "uncovered_witness": [0, 5]},
        {**docs["coverreport/1"], "budget_ok": True},
        {**docs["coverreport/1"], "coverage_ok": True},
        {**docs["coverreport/1"], "first_violation": None},
        {**docs["coverreport/1"], "first_violation": [1, "coverage"]},
        {**table, "volume": table["volume"][:1], "leftover": [],
         "sibling_gap": table["sibling_gap"] + table["sibling_gap"][:1],
         "level_gap": table["level_gap"][:1]},
        {**table, "volume": table["volume"][:1]},
        {**table, "depth": 3},
        # a level gap above the running minimum of the sibling gaps
        {**table, "level_gap": table["sibling_gap"][:1] * 2},
        {**docs["hbracket/1"], "sample_depth": -4},
    ]
    for doc in forged:
        with pytest.raises(ValueError):
            serialize.from_json(doc)


def test_malformed_documents_exit_2_without_traceback(tmp_path):
    docs = _valid_documents()
    paths = {}
    for schema, changes in (
        ("digitalset/1", {}),
        ("coverseq/1", {"pieces": 5}),
        ("dusttree/1", {}),
        ("survivor/1", {"survivor_word": 5}),
    ):
        paths[schema] = tmp_path / f"{schema.split('/')[0]}.json"
        paths[schema].write_text(serialize.canonical_bytes({**docs[schema], **changes}).decode())
    cases = [
        ["cover-verify", "--set", paths["digitalset/1"], "--cover", paths["coverseq/1"]],
        ["dust-refute", "--tree", paths["dusttree/1"], "--cover", paths["coverseq/1"]],
    ]
    cover = tmp_path / "cover.json"
    serialize.save(CoverSeq(n=1, eps=F(1, 81), strong=False, pieces=()), cover)
    cases.append(
        ["dust-refute", "--tree", paths["dusttree/1"], "--cover", cover,
         "--check", paths["survivor/1"]]
    )
    for argv in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "microset", *map(str, argv)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr


def test_document_of_another_schema_is_refused_before_decoding(tmp_path, monkeypatch, capsys):
    sp, tp = tmp_path / "set.json", tmp_path / "tree.json"
    serialize.save(DigitalSet(2, 3, 1, ((0, 0),)), sp)
    serialize.save(generate(DustSpec(n=2, b=3, depth=2)), tp)
    decoded = []
    monkeypatch.setattr(serialize, "dusttree_from_json", decoded.append)
    capsys.readouterr()
    assert run("cover-verify", "--set", str(sp), "--cover", str(tp)) == 2
    assert decoded == []
    assert capsys.readouterr().err == f"error: {tp}: expected a coverseq/1 document\n"


def test_fields_of_the_wrong_json_type_are_refused(tmp_path, capsys):
    # a loader coerces nothing: each forgery loaded as a nearby value before
    e = DigitalSet(1, 3, 1, ((0,), (2,)))
    cover = CoverSeq(n=1, eps=F(1, 2), strong=False,
                     pieces=(box1(0, F(1, 2)), box1(F(2, 3), F(11, 12)), box1(F(7, 8), 1)))
    set_doc, cover_doc = serialize.to_json(e), serialize.to_json(cover)
    sp, cp = tmp_path / "set.json", tmp_path / "cover.json"
    serialize.save(e, sp)
    serialize.save(cover, cp)
    assert run("cover-verify", "--set", str(sp), "--cover", str(cp)) == 0
    bad_sets = [{**set_doc, "cells": [[0], [1.9]]}, {**set_doc, "m": True}, {**set_doc, "b": "3"}]
    bad_covers = [
        {**cover_doc, "strong": "false"},
        {**cover_doc, "strong": 0},
        {**cover_doc, "n": 1.7},
        {**cover_doc, "n": 1.0},
        {**cover_doc, "eps": 0.5},
        {**cover_doc, "pieces": [[["0/1", 0.5]], *cover_doc["pieces"][1:]]},
        {**cover_doc, "pieces": [[[0, "1/2"]], *cover_doc["pieces"][1:]]},
    ]
    for doc in bad_sets + bad_covers:
        with pytest.raises(ValueError):
            serialize.from_json(doc)
    for doc in bad_sets:
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        assert run("cover-verify", "--set", str(tmp_path / "bad.json"), "--cover", str(cp)) == 2
    for doc in bad_covers:
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("cover-verify", "--set", str(sp), "--cover", str(tmp_path / "bad.json")) == 2
        assert "cover verified" not in capsys.readouterr().out
    # every other integer field is read as strictly
    docs = _valid_documents()
    tree = docs["dusttree/1"]
    forged = [
        {**docs["survivor/1"], "survivor_word": [1.0, 1]},
        {**docs["survivor/1"], "depth": 2.0},
        {**docs["survivor/1"], "level_counts": [True, 2]},
        {**docs["coverreport/1"], "uncovered_witness": [0.0]},
        {**docs["coverreport/1"], "first_violation": ["1", "budget"]},
        {**docs["ballspec/1"], "n": True},
        {**docs["gaptable/1"], "depth": 2.0},
        {**docs["hbracket/1"], "sample_depth": "2"},
        {**tree, "n": 1.0},
        {**tree, "b": 3.0},
        {**tree, "corner_order": [False, True]},
        {**tree, "levels": [tree["levels"][0], [{**tree["levels"][1][0], "word": [1.0, 1]},
                                                 *tree["levels"][1][1:]]]},
    ]
    for doc in forged:
        with pytest.raises(ValueError):
            serialize.from_json(doc)
    tp = tmp_path / "tree.json"
    tp.write_text(json.dumps(forged[-1]))
    assert run("dust-refute", "--tree", str(tp), "--cover", str(cp)) == 2


def test_a_tree_file_is_compared_value_for_value(tmp_path):
    tree = generate(DustSpec(n=2, b=3, depth=2))
    tp, indented = tmp_path / "tree.json", tmp_path / "indented.json"
    serialize.save(tree, tp)
    doc = json.loads(tp.read_text())
    indented.write_text(json.dumps(doc, indent=4))
    assert indented.read_bytes() != tp.read_bytes()
    assert serialize.load(indented, "dusttree/1") == tree
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert run("render-svg", "--tree", str(tp), "-o", str(a)) == 0
    assert run("render-svg", "--tree", str(indented), "-o", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    # 1.0 and true equal the letter 1 as values, but are not ints
    for letter in (1.0, True):
        first = {**doc["levels"][1][0], "word": [letter, 1]}
        forged = {**doc, "levels": [doc["levels"][0], [first, *doc["levels"][1][1:]]]}
        assert forged == doc
        indented.write_text(json.dumps(forged, indent=4))
        with pytest.raises(ValueError, match="differs"):
            serialize.load(indented, "dusttree/1")
        assert run("render-svg", "--tree", str(indented), "-o", str(b)) == 2


def test_each_tree_forgery_is_refused_with_its_message(tmp_path, capsys):
    # the last level's 256 entries span several blocks, and each forged entry sits in the last one
    tp, svg_path = tmp_path / "tree.json", tmp_path / "x.svg"
    serialize.save(generate(DustSpec(n=2, b=3, depth=4)), tp)
    doc = json.loads(tp.read_text())
    *upper, last = doc["levels"]
    assert last[-4]["word"] == [4, 4, 4, 1]
    differs = "dusttree/1 document differs from the tree its spec defines"
    counts = "dusttree/1 levels do not have the spec's cube counts"
    forgeries = [
        ({**doc, "levels": [*upper, [*last[:-1], {**last[-1], "side": "1/3"}]]}, differs),
        *(({**doc, "levels": [*upper, [*last[:-4], {**last[-4], "word": [4, 4, 4, letter]}, *last[-3:]]]}, differs)
          for letter in (1.0, True)),
        ({**doc, "corner_order": [1, 0, 2, 3]}, differs),
        ({**doc, "levels": [*upper, last[:-1]]}, counts),
        ({**doc, "n": 3}, counts),
    ]
    for forged, message in forgeries:
        tp.write_text(json.dumps(forged))
        capsys.readouterr()
        assert run("render-svg", "--tree", str(tp), "-o", str(svg_path)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not svg_path.exists()


def test_document_rationals_must_be_canonical(tmp_path, capsys):
    # each spelling loaded as a nearby value before and re-dumped to other bytes
    e = DigitalSet(1, 3, 1, ((0,),))
    cover = CoverSeq(n=1, eps=F(1, 2), strong=False, pieces=(box1(0, F(1, 2)),))
    doc = serialize.to_json(cover)
    sp, bad = tmp_path / "set.json", tmp_path / "bad.json"
    serialize.save(e, sp)
    # "1e-1000000000" would expand a power of ten with a billion digits if parsed first
    spellings = [" 0.5 ", "0.5", "1e-1", "2/4", "+1/2", "1_0/3_0", "1e-1000000000", "-0/1", "1/0", "01/2"]
    forged = [{**doc, "eps": text} for text in spellings]
    forged += [{**doc, "pieces": [[["0/1", text]]]} for text in spellings]
    forged.append({**doc, "pieces": [[["0.0", "1/2"]]]})
    for forgery in forged:
        with pytest.raises(ValueError):
            serialize.from_json(forgery)
        bad.write_text(json.dumps(forgery))
        capsys.readouterr()
        assert run("cover-verify", "--set", str(sp), "--cover", str(bad)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
    # command line flags keep the lenient reader
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert run("cover-search", "--set", str(sp), "--eps", "0.5", "-o", str(out_a)) == 0
    assert run("cover-search", "--set", str(sp), "--eps", "1/2", "-o", str(out_b)) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_rational_slots_refuse_other_json_types_before_the_memo(tmp_path, capsys):
    # the decoder's memo hashes what it is given, so a list that reached it
    # would raise TypeError; each value is refused first, with its message
    e = DigitalSet(1, 3, 1, ((0,),))
    cover = CoverSeq(n=1, eps=F(1, 2), strong=False, pieces=(box1(0, F(1, 2)),))
    doc = serialize.to_json(cover)
    sp, bad = tmp_path / "set.json", tmp_path / "bad.json"
    serialize.save(e, sp)
    forged = []
    for value in (["1/2"], 1, True, 0.5, None):
        forged += [({**doc, "eps": value}, value), ({**doc, "pieces": [[["0/1", value]]]}, value)]
    # a refused spelling is refused again at each repeat, whatever the memo holds
    forged.append(({**doc, "pieces": [[["0/1", "2/4"]]] * 1000}, "2/4"))
    forged.append(({**doc, "pieces": [[["0/1", "1/2"]]] * 999 + [[["0/1", "2/4"]]]}, "2/4"))
    for forgery, value in forged:
        message = f"expected a rational written as num/den in lowest terms, got {value!r}"
        with pytest.raises(ValueError) as refused:
            serialize.from_json(forgery)
        assert str(refused.value) == message
        bad.write_text(json.dumps(forgery))
        capsys.readouterr()
        assert run("cover-verify", "--set", str(sp), "--cover", str(bad)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_survivor_counts_the_record_refuses_are_malformed_input(tmp_path, capsys):
    # short counts or a level without survivor: SurvivorCertificate refuses them, so the
    # file is malformed (exit 2); counts that are merely false stay a verified negative (1)
    spec = DustSpec(n=1, b=3, depth=4)
    cover = adversary_swallow(spec, refutation_budget_lower(spec), 8)
    tp, cp, certp = tmp_path / "tree.json", tmp_path / "cover.json", tmp_path / "cert.json"
    serialize.save(generate(spec), tp)
    serialize.save(cover, cp)
    cert = serialize.to_json(survivor_refute(spec, cover))
    counts = cert["level_counts"]
    for forged, code in ((counts[:-1], 2), ([0, *counts[1:]], 2), ([99] * spec.depth, 1)):
        certp.write_text(serialize.canonical_bytes({**cert, "level_counts": forged}).decode())
        capsys.readouterr()
        assert run("dust-refute", "--tree", str(tp), "--cover", str(cp), "--check", str(certp)) == code
        assert capsys.readouterr().err.startswith("error: " if code == 2 else "certificate rejected")


def test_exponent_notation_on_the_command_line_is_refused_at_once(tmp_path):
    # Fraction("1e-10000000") alone runs for seconds; every rational flag refuses it as a usage error
    k, ball = tmp_path / "k.json", tmp_path / "ball.json"
    serialize.save(DigitalSet(1, 3, 3, ((13,),)), k)
    serialize.save(BallSpec(n=1, boxes=(box1(F(2, 5), F(3, 5)),)), ball)
    huge = "1e-10000000"
    for argv in (
        ["dust-hmeasure", "--n", "1", "--b", "3", "--alpha", huge, "--k", "1"],
        ["cover-search", "--set", k, "--eps", huge],
        ["baire-sample", "--n", "1", "--b", "3", "--depth", "1", "--density", huge,
         "--seed", "1", "-o", tmp_path / "s.json"],
        ["ball-check", "--set", k, "--ball", ball, "--witness", huge],
    ):
        proc = subprocess.run([sys.executable, "-m", "microset", *map(str, argv)],
                              capture_output=True, text=True, timeout=20)
        assert proc.returncode == 2, proc.stderr
        assert "not a rational scalar" in proc.stderr and "Traceback" not in proc.stderr


# The two tests below walk serialize._SCHEMAS, so a new schema is fuzzed once
# _valid_documents() holds a document of it.
_EXTREMES = (2**64, 2**64 - 1, 2**63, -(2**64), -1, 0)
_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4) | st.sampled_from(_EXTREMES),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _near_misses(value) -> list:
    """Values of another JSON type, or another spelling, that a lax reader would take for ``value``."""
    if type(value) is bool:
        return [int(value), str(value).lower()]
    if type(value) is int:
        return [value != 0, float(value), str(value)]
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+/[1-9][0-9]*", value):
        x = Fraction(value)
        return [float(x), str(float(x)), f"{2 * x.numerator}/{2 * x.denominator}", f" {value}"]
    if isinstance(value, list):
        return [{str(i): item for i, item in enumerate(value)}, {}, json.dumps(value), None]
    return [None, [value]]


def _seed_documents() -> list[dict]:
    docs = _valid_documents()
    assert set(docs) == set(serialize._SCHEMAS)
    return [*docs.values(), _corner_dust_doc(2, 2, 2)]  # the inadmissible tree


def _paths(value, path=()):
    """Paths to every value inside a JSON document, the schema name excepted."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        if path or key != "schema":
            yield (*path, key)
            yield from _paths(item, (*path, key))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replace(doc, path, value):
    _get(doc, path[:-1])[path[-1]] = value


def _saves_back(loaded, doc) -> bool:
    """Whether saving the loaded object writes the document, byte for byte."""
    return serialize.canonical_bytes(serialize.to_json(loaded)) == serialize.canonical_bytes(doc)


@pytest.fixture(scope="module")
def readers(tmp_path_factory) -> tuple[Path, dict]:
    """A document path, and for each schema a subcommand reads an argv that reads it from there."""
    tmp = tmp_path_factory.mktemp("readers")
    docs = _valid_documents()
    paths = {name: str(tmp / f"{name}.json") for name in ("doc", "set", "tree", "cover")}
    Path(paths["set"]).write_text(serialize.canonical_bytes(docs["digitalset/1"]).decode())
    Path(paths["tree"]).write_text(serialize.canonical_bytes(docs["dusttree/1"]).decode())
    serialize.save(CoverSeq(n=1, eps=F(1, 81), strong=False, pieces=()), paths["cover"])
    return Path(paths["doc"]), {
        "digitalset/1": ["cover-verify", "--set", paths["doc"], "--cover", paths["cover"]],
        "coverseq/1": ["cover-verify", "--set", paths["set"], "--cover", paths["doc"]],
        "ballspec/1": ["ball-check", "--set", paths["set"], "--ball", paths["doc"]],
        "dusttree/1": ["dust-refute", "--tree", paths["doc"], "--cover", paths["cover"]],
        "survivor/1": ["dust-refute", "--tree", paths["tree"], "--cover", paths["cover"],
                       "--check", paths["doc"]],
    }


@settings(max_examples=300)
@given(data=st.data())
def test_mutated_documents_of_every_schema_load_or_exit_2(data, readers):
    # field deletions, additions, values of another type anywhere, and integer extremes
    seed = data.draw(st.sampled_from(_seed_documents()))
    doc = copy.deepcopy(seed)
    for _ in range(data.draw(st.integers(1, 3))):
        fields = sorted(set(doc) - {"schema"})
        kind = data.draw(st.sampled_from(("delete", "add", "swap", "extreme")))
        ints = [path for path in _paths(doc) if type(_get(doc, path)) is int]
        if kind == "delete" and fields:
            del doc[data.draw(st.sampled_from(fields))]
        elif kind == "add":
            key = data.draw(st.text(min_size=1, max_size=6).filter(lambda key: key not in doc))
            doc[key] = data.draw(_ANY_JSON)
        elif kind == "swap" and fields:
            path = data.draw(st.sampled_from(list(_paths(doc))))
            _replace(doc, path, data.draw(st.sampled_from(_near_misses(_get(doc, path))) | _ANY_JSON))
        elif ints:
            _replace(doc, data.draw(st.sampled_from(ints)), data.draw(st.sampled_from(_EXTREMES)))
    try:
        loaded = serialize.from_json(doc)
    except ValueError:
        pass
    else:
        assert _saves_back(loaded, doc)  # so nothing was coerced
        return
    path, argv = readers[0], readers[1].get(seed["schema"])
    if argv is None:
        return  # a schema the command line writes and never reads
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 2, err.getvalue()
    assert err.getvalue().startswith("error: ") and "Traceback" not in err.getvalue()


@settings(max_examples=200)
@given(data=st.data())
def test_every_schema_loads_then_saves_byte_identically(data):
    # each seed, and each seed with one to three values changed within their JSON type
    seed = data.draw(st.sampled_from(list(_valid_documents().values())))
    doc = copy.deepcopy(seed)
    leaves = [path for path in _paths(doc) if not isinstance(_get(doc, path), (list, dict))]
    for path in data.draw(st.lists(st.sampled_from(leaves), max_size=3)):
        value = _get(doc, path)
        if type(value) is bool:
            value = data.draw(st.booleans())
        elif type(value) is int:
            value = data.draw(st.integers(-2, 12) | st.sampled_from(_EXTREMES))
        elif isinstance(value, str) and "/" in value:
            value = format_scalar(F(data.draw(st.integers(-3, 20)), data.draw(st.integers(1, 12))))
        _replace(doc, path, value)
    try:
        loaded = serialize.from_json(doc)
    except ValueError:
        assert doc != seed
        return
    assert _saves_back(loaded, doc)
    assert serialize.from_json(json.loads(serialize.canonical_bytes(serialize.to_json(loaded)))) == loaded


_CELL_ORDERS = {"cells-increasing": [[0], [2]], "cells-out-of-order": [[2], [0], [0]]}


@pytest.mark.parametrize("case", [*serialize._SCHEMAS, *_CELL_ORDERS])
def test_every_document_that_loads_saves_back_to_its_canonical_bytes(tmp_path, capsys, case):
    docs = _valid_documents()
    doc = docs[case] if case in docs else {**docs["digitalset/1"], "cells": _CELL_ORDERS[case]}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    try:
        loaded = serialize.load(path)
    except ValueError:
        # a set whose cells come out of order is malformed, not re-sorted
        assert doc["cells"] == [[2], [0], [0]]
        coverp = tmp_path / "cover.json"
        serialize.save(CoverSeq(n=1, eps=F(1, 2), strong=False, pieces=(box1(0, 1),)), coverp)
        assert run("cover-verify", "--set", str(path), "--cover", str(coverp)) == 2
        assert capsys.readouterr().err == "error: digitalset/1 cells must be listed in strictly increasing order\n"
        return
    assert _saves_back(loaded, doc)


def test_deeply_nested_file_is_malformed_input(tmp_path, capsys):
    # the decoder recurses once per nested list; 5,000 of them are input error, not an internal one
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 5000)
    assert run("ball-check", "--set", str(nested), "--ball", str(nested)) == 2
    assert run("dust-refute", "--tree", str(nested), "--cover", str(nested)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith(f"error: {nested}: not valid JSON") for line in err)


def test_exact_outputs_longer_than_the_int_digit_limit(tmp_path, capsys):
    # 3**-10000 has 4,772 digits, past the 4,300 that CPython converts by default
    short, long = tmp_path / "short.json", tmp_path / "long.json"
    assert run("dust-gaps", "--n", "1", "--b", "3", "--depth", "100") == 0
    assert run("dust-hmeasure", "--n", "1", "--b", "3", "--alpha", "1", "--k", "100") == 0
    assert run("dust-adversary", "--n", "1", "--b", "3", "--depth", "100", "--count", "3", "-o", str(short)) == 0
    assert run("dust-adversary", "--n", "1", "--b", "3", "--depth", "40", "--count", "2400", "-o", str(long)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 103 and len(lines[-3]) > 4300
    assert serialize.load(short) == adversary_swallow(DustSpec(1, 3, 100), F(1, 81), 3)
    # the cover reads back in a fresh process too: its first piece misses most of the cell
    setp = tmp_path / "set.json"
    serialize.save(DigitalSet(1, 3, 1, ((0,),)), setp)
    proc = subprocess.run([sys.executable, "-m", "microset", "cover-verify", "--set", str(setp), "--cover", str(short)],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (1, "uncovered cell [0]\n")


# each runs in a fresh process that never calls cli.main, from a plain library import
_SERIALIZE_ALONE = {
    "load": "table = serialize.load(sys.argv[1])\n"
            "assert table == gap_table(DustSpec(n=1, b=3, depth=100))\n"
            "assert bytes(serialize.save(table, sys.argv[2])) == Path(sys.argv[1]).read_bytes()\n",
    "save": "serialize.save(gap_table(DustSpec(n=1, b=3, depth=100)), sys.argv[2])\n"
            "assert Path(sys.argv[2]).read_bytes() == Path(sys.argv[1]).read_bytes()\n"
            "assert serialize.load(sys.argv[2]) == gap_table(DustSpec(n=1, b=3, depth=100))\n",
}


@pytest.mark.parametrize("first", sorted(_SERIALIZE_ALONE))
def test_long_documents_the_cli_writes_round_trip_through_serialize_alone(tmp_path, first):
    # the gap table at depth 100 holds a 4,772-digit denominator, past CPython's default of 4,300
    written, again = tmp_path / "big.json", tmp_path / "again.json"
    argv = ["dust-gaps", "--n", "1", "--b", "3", "--depth", "100", "-o", str(written)]
    assert subprocess.run([sys.executable, "-m", "microset", *argv], capture_output=True).returncode == 0
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "from microset import serialize\n"
        "from microset.dust import DustSpec, gap_table\n"
    ) + _SERIALIZE_ALONE[first]
    proc = subprocess.run([sys.executable, "-c", code, str(written), str(again)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert again.read_bytes() == written.read_bytes()
