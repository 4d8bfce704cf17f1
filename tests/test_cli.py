import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from microset import serialize
from microset.cli import _HANDLERS, main
from microset.covers import BallSpec, CoverReport, CoverSeq
from microset.dust import (
    DustSpec,
    RefuterFailure,
    adversary_swallow,
    gap_table,
    generate,
    refutation_budget_lower,
    survivor_refute,
)
from microset.geometry import Box, DigitalSet, hausdorff_bracket
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


def test_cover_verify_exit_codes(tmp_path, capsys):
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


def test_cover_search_round_trip(tmp_path):
    e = DigitalSet(1, 3, 2, ((0,), (4,)))
    e_path = tmp_path / "e.json"
    out = tmp_path / "cover.json"
    serialize.save(e, e_path)
    assert run("cover-search", "--set", str(e_path), "--eps", "1/2", "-o", str(out)) == 0
    cover = serialize.load(out)
    assert isinstance(cover, CoverSeq) and cover.strong


def test_cover_search_negative_and_usage(tmp_path):
    seg = DigitalSet(2, 3, 3, tuple((j, 0) for j in range(27)))
    e_path = tmp_path / "seg.json"
    serialize.save(seg, e_path)
    assert run("cover-search", "--set", str(e_path), "--eps", "1/100") == 1
    assert run("cover-search", "--set", str(e_path)) == 2
    assert run("cover-search", "--set", str(e_path), "--eps", "1/2", "--s", "2") == 2


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
    for command in _HANDLERS:
        assert run(command, "--help") == 0
        assert "--precision" not in capsys.readouterr().out, command
    e_path, cover_path = tmp_path / "e.json", tmp_path / "cover.json"
    serialize.save(DigitalSet(1, 3, 1, ((0,),)), e_path)
    cover = CoverSeq(n=1, eps=F(1, 2), strong=False, pieces=(box1(0, F(1, 3)),))
    serialize.save(cover, cover_path)
    argv = ["cover-verify", "--set", str(e_path), "--cover", str(cover_path)]
    assert run(*argv) == 0
    assert run(*argv, "--precision", "5") == 2


def test_refute_cli_full_cycle(tmp_path):
    spec = DustSpec(n=1, b=3, depth=4)
    tree = generate(spec)
    eps = refutation_budget_lower(spec)
    cover = adversary_swallow(tree, eps, 8)
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
    forgedp.write_text(serialize.dumps(doc))
    assert run("dust-refute", "--tree", str(tp), "--cover", str(cp), "--check", str(forgedp)) == 1
    # a cover of another dimension is input error, with and without --check
    plane = CoverSeq(n=2, eps=F(1, 2), strong=False, pieces=(Box(((0, 1), (0, 1))),))
    planep = tmp_path / "plane.json"
    serialize.save(plane, planep)
    assert run("dust-refute", "--tree", str(tp), "--cover", str(planep)) == 2
    assert run("dust-refute", "--tree", str(tp), "--cover", str(planep), "--check", str(certp)) == 2


def test_tampered_tree_is_malformed_input(tmp_path):
    # a tree file is rebuilt from its spec on load; any other content is input error
    spec = DustSpec(n=1, b=3, depth=4)
    tree = generate(spec)
    tp, cp = tmp_path / "tree.json", tmp_path / "cover.json"
    serialize.save(tree, tp)
    serialize.save(adversary_swallow(tree, refutation_budget_lower(spec), 8), cp)
    doc = json.loads(tp.read_text())
    for entry in doc["levels"][2]:
        entry["lo"] = ["0/1"]
    moved = tmp_path / "moved.json"
    moved.write_text(serialize.dumps(doc))
    assert run("dust-gaps", "--n", "1", "--b", "3", "--depth", "4", "--tree", str(moved)) == 2
    assert run("dust-refute", "--tree", str(moved), "--cover", str(cp)) == 2
    # a forged depth is refused before anything is built
    doc = json.loads(tp.read_text())
    doc["depth"] = 40
    deep = tmp_path / "deep.json"
    deep.write_text(serialize.dumps(doc))
    assert run("dust-refute", "--tree", str(deep), "--cover", str(cp)) == 2
    # and so is a forged dimension, before any list of 2**n corners is made
    for order in ([0, 1], []):
        doc = {**json.loads(tp.read_text()), "n": 40, "corner_order": order}
        deep.write_text(serialize.dumps(doc))
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
        tp.write_text(serialize.dumps(_corner_dust_doc(n, 3, 2, order)))
        capsys.readouterr()
        if n == 1:
            assert run("dust-refute", "--tree", str(tp), "--cover", str(cover)) == 2
            assert "differs from the tree its spec defines" in capsys.readouterr().err
        assert run("render-svg", "--tree", str(tp), "-o", str(tmp_path / "x.svg")) == 2
        assert "differs from the tree its spec defines" in capsys.readouterr().err
    assert not (tmp_path / "x.svg").exists()


def test_inadmissible_tree_file_is_malformed_input(tmp_path):
    # the hand-written document is the one generate writes on an admissible spec
    assert _corner_dust_doc(2, 3, 2) == serialize.to_json(generate(DustSpec(n=2, b=3, depth=2)))
    cover = tmp_path / "cover.json"
    serialize.save(CoverSeq(n=2, eps=F(1, 81), strong=False, pieces=()), cover)
    # b = 2 gives delta_1 = 0: no dust-generate writes these files, whose siblings touch
    for n, depth in ((1, 1), (2, 2)):
        tp = tmp_path / f"tree{n}.json"
        tp.write_text(serialize.dumps(_corner_dust_doc(n, 2, depth)))
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
    cover = adversary_swallow(tree, refutation_budget_lower(spec), 8)
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
    # both pieces meet every premise, yet together they touch all four level-2 cubes
    tree = generate(DustSpec(n=1, b=3, depth=2))
    pieces = (box1(F(1, 81), F(26, 81)), box1(F(55, 81), F(80, 81)))
    cover = CoverSeq(n=1, eps=F(5, 9), strong=True, pieces=pieces)
    assert survivor_refute(tree, cover) == RefuterFailure(level=2, checked_prefix=2)
    tp, cp = tmp_path / "tree.json", tmp_path / "cover.json"
    serialize.save(tree, tp)
    serialize.save(cover, cp)
    assert run("dust-refute", "--tree", str(tp), "--cover", str(cp)) == 1
    err = capsys.readouterr().err.strip()
    assert err == "refuter failure: no survivor at level 2 (checked prefix 2)"


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
        survivor_refute(tree, CoverSeq(n=1, eps=F(1, 81), strong=False, pieces=())),
        hausdorff_bracket(a, b, 2),
    ]
    return {doc["schema"]: doc for doc in map(serialize.to_json, docs)}


def test_malformed_fields_load_or_raise_value_error():
    docs = _valid_documents()
    assert set(docs) == set(serialize._FROM_JSON)
    for doc in docs.values():
        for field in doc:
            for value in (5, "x", None, []):
                try:
                    serialize.from_json({**doc, field: value})
                except ValueError:
                    pass


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
        paths[schema].write_text(serialize.dumps({**docs[schema], **changes}))
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
