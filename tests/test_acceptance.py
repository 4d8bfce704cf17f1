"""End-to-end checks of the library's headline guarantees.

Each test prints one PASS line so a full -rA run reads as a checklist;
any assertion failure flips the corresponding line to FAILED.
"""

import itertools
import subprocess
import sys
import time
from fractions import Fraction

from fraction_oracles import bucket, cell_boxes, dist_sq, hit_rows, level_boxes, sides, vertices, volume
from microset import covers, dust, serialize
from microset.baire import SplitMix64
from microset.ball import BallSpec, ball_membership, ball_stability_radius
from microset.cells import Box, CoverSeq, DigitalSet, Point
from microset.covers import GreedyFailure, greedy_strong_cover, merge_covers, verify_cover
from microset.dust import (
    DustSpec,
    SurvivorCertificate,
    adversary_random,
    adversary_swallow,
    gap_table,
    generate,
    hausdorff_measure_upper,
    refutation_budget_lower,
    revalidate_survivor,
    survivor_refute,
)
from microset.geometry import hausdorff_bracket
from microset.rational import root_upper

F = Fraction

_REFERENCE_SPECS = (
    DustSpec(n=1, b=3, depth=4),
    DustSpec(n=2, b=3, depth=3),
    DustSpec(n=3, b=3, depth=2),
)


def test_a01_construction_is_exact_for_three_reference_trees():
    started = time.monotonic()
    for spec in _REFERENCE_SPECS:
        tree = generate(spec)
        parents = {(): Box.cube(tuple(F(0) for _ in range(spec.n)), F(1))}
        widths = [F(1)] + [F(1, 3 ** (k * k)) for k in range(1, spec.depth + 1)]
        gaps = [widths[k - 1] - 2 * widths[k] for k in range(1, spec.depth + 1)]
        for k in range(1, spec.depth + 1):
            level = level_boxes(tree, k)
            assert len(level) == 2 ** (spec.n * k)
            for word, cube in level:
                assert sides(cube) == (widths[k],) * spec.n
                assert volume(cube) == F(1, 3 ** (spec.n * k * k))
                parent = parents[word[:-1]]
                assert len(set(vertices(cube)) & set(vertices(parent))) == 1
            sibling_min = min(
                dist_sq(ca, cb)
                for (wa, ca), (wb, cb) in itertools.combinations(level, 2)
                if wa[:-1] == wb[:-1]
            )
            overall_min = min(
                dist_sq(ca, cb)
                for (_, ca), (_, cb) in itertools.combinations(level, 2)
            )
            assert sibling_min == gaps[k - 1] ** 2
            assert overall_min >= min(gaps[:k]) ** 2
            parents = dict(level)
        assert gap_table(spec).sibling_gap == tuple(gaps)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print(f"[A01] PASS construction exact for the n=1,2,3 reference trees ({elapsed:.2f}s)")


def test_a02_gap_table_matches_first_principles_formulas():
    for n in (1, 2, 3):
        table = gap_table(DustSpec(n=n, b=3, depth=6))
        for k in range(1, 7):
            side_prev = F(1, 3 ** ((k - 1) * (k - 1)))
            side_here = F(1, 3 ** (k * k))
            assert table.volume[k - 1] == side_here**n
            assert table.leftover[k - 1] == side_prev**n - 2**n * side_here**n
            assert table.sibling_gap[k - 1] == side_prev - 2 * side_here
            assert table.level_gap[k - 1] == min(table.sibling_gap[:k])
    print("[A02] PASS gap tables agree with the closed-form side differences up to level 6")


def test_a03_measure_bounds_vanish_quickly_for_every_alpha():
    started = time.monotonic()
    threshold = F(1, 10**9)
    for n in (1, 2, 3):
        for alpha in (F(1, 10), F(1, 2), F(1), F(2)):
            vals = []
            for k in range(1, 61):
                vals.append(hausdorff_measure_upper(DustSpec(n=n, b=3, depth=k), alpha))
                if vals[-1] < threshold:
                    break
            assert vals[-1] < threshold, (n, alpha)
            peak = max(range(len(vals)), key=lambda i: vals[i])
            assert all(vals[i] > vals[i + 1] for i in range(peak, len(vals) - 1))
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(
        "[A03] PASS measure bounds peak once then fall below 1e-9 within 60 levels"
        f" for alpha in {{1/10, 1/2, 1, 2}} ({elapsed:.3f}s)"
    )


def test_a04_buckets_partition_positions_with_small_sizes():
    buckets = [bucket(k) for k in range(1, 201)]
    flattened = [h for positions in buckets for h in positions]
    assert len(flattened) >= 10000
    assert flattened == list(range(1, len(flattened) + 1))
    assert len(bucket(4)) == 3
    for k in range(5, 201):
        assert len(bucket(k)) <= k - 2
    # at depth d the refuter examines exactly the positions of buckets 1..d
    for depth in range(1, 201):
        assert dust._examined_prefix(depth, 10**9) == sum(map(len, buckets[:depth]))
    print(
        "[A04] PASS buckets tile positions 1..10000 with |bucket k| <= k-2"
        " from k=5 on and |bucket 4| = 3"
    )


def test_a05_hit_recursion_never_exceeds_capacity():
    for n in (1, 2, 3):
        rows = hit_rows(n, 60, 4)
        assert len(rows) == 60
        assert all(ok for (_, _, _, ok) in rows)
    print("[A05] PASS worst-case hit recursion stays within capacity for n=1,2,3 through level 60")


def test_a06_refuter_defeats_seeded_adversaries_with_checkable_certificates(tmp_path):
    started = time.monotonic()
    refuted = 0
    for spec in (DustSpec(n=1, b=3, depth=4), DustSpec(n=2, b=3, depth=3)):
        tree = generate(spec)
        eps = refutation_budget_lower(spec)
        leaf_lookup = dict(level_boxes(tree, spec.depth))
        covers = []
        for i in range(10):
            if i % 2 == 0:
                covers.append(adversary_swallow(spec, eps, i + 1))
            else:
                covers.append(adversary_random(spec, eps, i + 1, seed=9000 + 37 * i))
        tree_path = tmp_path / f"tree{spec.n}.json"
        serialize.save(tree, tree_path)
        for i, cover in enumerate(covers):
            outcome = survivor_refute(spec, cover)
            assert isinstance(outcome, SurvivorCertificate)
            revalidate_survivor(spec, cover, outcome)
            survivor = leaf_lookup[outcome.survivor_word]
            for h in range(outcome.checked_prefix):
                assert dist_sq(survivor, cover.pieces[h]) > 0
            cover_path = tmp_path / f"cover{spec.n}_{i}.json"
            cert_path = tmp_path / f"cert{spec.n}_{i}.json"
            serialize.save(cover, cover_path)
            cert_bytes = serialize.save(outcome, cert_path)
            check = subprocess.run(
                [sys.executable, "-m", "microset", "dust-refute",
                 "--tree", str(tree_path), "--cover", str(cover_path),
                 "--check", str(cert_path)],
                capture_output=True,
                text=True,
            )
            assert check.returncode == 0, check.stderr
            if i == 0:
                emitted = tmp_path / f"cert{spec.n}_fresh.json"
                fresh = subprocess.run(
                    [sys.executable, "-m", "microset", "dust-refute",
                     "--tree", str(tree_path), "--cover", str(cover_path),
                     "-o", str(emitted)],
                    capture_output=True,
                    text=True,
                )
                assert fresh.returncode == 0, fresh.stderr
                assert emitted.read_bytes() == cert_bytes
            refuted += 1
    elapsed = time.monotonic() - started
    assert refuted == 20
    assert elapsed < 30.0
    print(
        "[A06] PASS 20 seeded adversarial covers refuted; certificates exactly disjoint"
        f" and re-validated byte-for-byte in fresh processes ({elapsed:.1f}s)"
    )


def _first_unrasterized_cell(e: DigitalSet, pieces_int, grid: int):
    # pure integer oracle: every depth+3 subcell must sit inside some piece
    f = grid // e.b**e.m
    for cell in e.cells:
        base = tuple(j * f for j in cell)
        for off in itertools.product(range(f), repeat=e.n):
            g = tuple(v + o for v, o in zip(base, off))
            if not any(
                all(plo <= gi and gi + 1 <= phi for gi, (plo, phi) in zip(g, piece))
                for piece in pieces_int
            ):
                return cell
    return None


def test_a07_cover_verifier_agrees_with_integer_rasterization():
    rng = SplitMix64(20260818)
    eps_menu = (F(1, 3), F(1, 2), F(2, 3))
    for trial in range(200):
        n = 1 + rng.next() % 2
        depth = 1 + rng.next() % 3
        side_cells = 3**depth
        grid = 3 ** (depth + 3)
        count = 1 + rng.next() % 4
        cells = tuple(
            tuple(rng.next() % side_cells for _ in range(n)) for _ in range(count)
        )
        e = DigitalSet(n, 3, depth, cells)
        pieces_int = []
        if rng.next() % 3 == 0:
            f = grid // side_cells
            pieces_int = [
                tuple((j * f, (j + 1) * f) for j in cell) for cell in e.cells
            ][:3]
        for _ in range(rng.next() % 3):
            axes = []
            for _ in range(n):
                lo = rng.next() % grid
                hi = lo + 1 + rng.next() % (grid - lo)
                axes.append((lo, hi))
            pieces_int.append(tuple(axes))
        if not pieces_int:
            corner = tuple(rng.next() % grid for _ in range(n))
            pieces_int.append(
                tuple((v, min(grid, v + 1 + rng.next() % 40)) for v in corner)
            )
        eps = eps_menu[rng.next() % 3]
        cover = CoverSeq(
            n=n,
            eps=eps,
            strong=False,
            pieces=tuple(
                Box(tuple((F(lo, grid), F(hi, grid)) for lo, hi in piece))
                for piece in pieces_int
            ),
        )
        report = verify_cover(e, cover)
        oracle_violation = None
        for k, piece in enumerate(pieces_int, start=1):
            vol_scaled = 1
            for lo, hi in piece:
                vol_scaled *= hi - lo
            if vol_scaled * eps.denominator**k > eps.numerator**k * grid**n:
                oracle_violation = (k, "budget")
                break
        oracle_witness = _first_unrasterized_cell(e, pieces_int, grid)
        assert report.first_violation == oracle_violation
        assert report.uncovered_witness == oracle_witness
        assert report.budget_ok == (oracle_violation is None)
        assert report.coverage_ok == (oracle_witness is None)
        if report.budget_ok:
            total = sum((volume(p) for p in cover.pieces), F(0))
            assert total <= eps / (1 - eps)
    print("[A07] PASS exact cover verdicts match the +3-depth integer rasterization oracle on 200 instances")


def test_a08_merged_covers_reverify_and_obey_the_budget_series():
    single = CoverSeq(
        n=1, eps=F(1, 4), strong=True, pieces=(Box.cube((F(0),), F(1, 4)),)
    )
    # sum_k diam(piece_k) <= sum_k (1/4)**k over any strong 1/4-cover of a line set
    assert covers._series_upper(single.eps, single.n) == F(1, 3)
    rng = SplitMix64(77001)
    for trial in range(200):
        n = 1 + trial % 2
        sets = []
        for _ in range(2):
            count = 1 + rng.next() % 4
            cells = tuple(
                tuple(rng.next() % 9 for _ in range(n)) for _ in range(count)
            )
            sets.append(DigitalSet(n, 3, 2, cells))
        ea, eb = sets
        ca = CoverSeq(n=n, eps=F(3, 5), strong=True, pieces=tuple(cell_boxes(ea)))
        cb = CoverSeq(n=n, eps=F(3, 5), strong=True, pieces=tuple(cell_boxes(eb)))
        assert verify_cover(ea, ca).ok and verify_cover(eb, cb).ok
        merged = merge_covers([ca, cb], F(4, 5))
        union = DigitalSet(n, 3, 2, ea.cells + eb.cells)
        assert verify_cover(union, merged).ok
        for cover in (ca, cb, merged):
            total = sum((volume(p) for p in cover.pieces), F(0))
            assert total <= cover.eps / (1 - cover.eps)
    print(
        "[A08] PASS 200 randomized merges re-verify against the union; every verified"
        " cover's volume sum stays inside eps/(1-eps); single-cube bound is exactly 1/3"
    )


def test_a09_thin_segment_separates_weak_from_strong_budgets():
    segment = DigitalSet(2, 3, 6, tuple((j, 0) for j in range(729)))
    slab = Box(((F(0), F(1)), (F(0), F(1, 729))))
    weak = CoverSeq(n=2, eps=F(1, 10), strong=False, pieces=(slab,))
    assert verify_cover(segment, weak).ok
    outcome = greedy_strong_cover(segment, F(1, 100))
    assert isinstance(outcome, GreedyFailure)
    assert outcome.reason == "budget-infeasible"
    total = covers._series_upper(F(1, 100), 2)
    assert total == F(1, 9)
    assert total < 1  # the segment projects onto the whole unit interval
    print(
        "[A09] PASS thin segment: weak rectangle cover verifies at eps=1/10 while"
        " strong covers at eps=1/100 are refuted (side sum exactly 1/9 < 1)"
    )


def test_a10_stability_radius_survives_grid_quantized_perturbations():
    checks = 0
    for instance in range(50):
        # one stream per instance: the index mixed into the seed, then one draw skipped
        rng = SplitMix64(424242 ^ (instance * 0xA3EC647659359ACD))
        rng.next()
        n = 1 + instance % 2
        depth = 3 if n == 2 else 3 + instance % 2
        top = 3**depth
        margin = 4
        span = top - 2 * margin
        count = 1 + rng.next() % 3
        cells = tuple(
            tuple(margin + rng.next() % span for _ in range(n)) for _ in range(count)
        )
        k_set = DigitalSet(n, 3, depth, cells)
        inflate = 3 + rng.next() % 3
        los = [min(c[axis] for c in k_set.cells) for axis in range(n)]
        his = [max(c[axis] for c in k_set.cells) + 1 for axis in range(n)]
        ball = BallSpec(
            n=n,
            boxes=(
                Box(
                    tuple(
                        (F(lo - inflate, top), F(hi + inflate, top))
                        for lo, hi in zip(los, his)
                    )
                ),
            ),
        )
        assert ball_membership(k_set, ball)
        first = k_set.cells[0]
        witness = Point(tuple(F(2 * j + 1, 2 * top) for j in first))
        radius = ball_stability_radius(k_set, ball, [witness])
        assert radius > 0
        num, den = radius.numerator, radius.denominator
        produced = 0
        attempts = 0
        while produced < 1000:
            attempts += 1
            assert attempts < 60000
            offs = tuple(rng.next() % 7 - 3 for _ in range(n))
            norm_sq = sum(o * o for o in offs)
            # keep only vectors of length strictly under half the radius
            if 4 * norm_sq * den * den >= num * num * top * top:
                continue
            shifted = tuple(
                tuple(j + o for j, o in zip(cell, offs)) for cell in k_set.cells
            )
            moved = DigitalSet(n, 3, depth, shifted)
            assert ball_membership(moved, ball)
            produced += 1
            checks += 1
    assert checks == 50 * 1000
    print(
        "[A10] PASS 50 seeded balls kept membership under 1000 exact grid"
        " translations each, all shorter than half the certified radius"
    )


def test_a11_distance_brackets_are_tight_and_pin_hand_values():
    same = DigitalSet(1, 3, 2, ((0,), (5,)))
    assert hausdorff_bracket(same, same, 3).lo == 0
    hand = hausdorff_bracket(
        DigitalSet(1, 3, 2, ((0,),)), DigitalSet(1, 3, 2, ((8,),)), 2
    )
    assert hand.lo <= F(8, 9) <= hand.hi
    rng = SplitMix64(313131)
    for instance in range(30):
        n = 1 + instance % 2
        depth = 1 + rng.next() % 2
        sample_depth = depth + rng.next() % 3
        top = 3**depth
        pair = []
        for _ in range(2):
            count = 1 + rng.next() % 5
            pair.append(
                DigitalSet(
                    n,
                    3,
                    depth,
                    tuple(
                        tuple(rng.next() % top for _ in range(n))
                        for _ in range(count)
                    ),
                )
            )
        bracket = hausdorff_bracket(pair[0], pair[1], sample_depth)
        assert 0 <= bracket.lo <= bracket.hi
        cap = root_upper(F(n), 2, 10**12) * F(1, 3**sample_depth)
        assert bracket.hi - bracket.lo <= cap
        assert bracket.width_cap <= cap
    print(
        "[A11] PASS brackets: identity pins 0, the hand pair encloses 8/9, and 30"
        " seeded pairs stay within the half-cell width cap"
    )
