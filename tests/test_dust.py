import itertools
import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraction_oracles import (
    bucket,
    cell_window,
    dist_sq,
    hit_rows,
    intersect_count,
    leaf_cell,
    level_boxes,
    level_digital,
    premise_budget,
    sides,
    vertices,
    volume,
)
from microset import dust, serialize
from microset.baire import SplitMix64
from microset.ball import BallSpec, ball_stability_radius
from microset.cells import Box, CoverSeq, DigitalSet, Point, _frame, _in_window, _on_frame
from microset.covers import merge_covers, verify_cover
from microset.dust import (
    DustSpec,
    DustTree,
    SurvivorCertificate,
    _check_survivor,
    _check_tree,
    _examined_prefix,
    _leaf_cells,
    _refutation_premises,
    _survivor_descent,
    adversary_random,
    adversary_swallow,
    gap_table,
    generate,
    hausdorff_measure_upper,
    refutation_budget_lower,
    revalidate_survivor,
    survivor_refute,
    validate,
)
from microset.geometry import hausdorff_bracket
from microset.rational import DEFAULT_PRECISION, Negative, root_lower, root_upper

F = Fraction


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        DustSpec(n=0, b=3, depth=1)
    with pytest.raises(ValueError):
        DustSpec(n=1, b=1, depth=1)
    with pytest.raises(ValueError):
        DustSpec(n=1, b=3, depth=0)
    # the spec is n, b and depth alone: the labelling of the corners is fixed
    assert DustSpec._fields == ("n", "b", "depth")
    with pytest.raises(TypeError):
        DustSpec(n=1, b=3, depth=1, corner_order=(1, 0))


def test_validate_admissible_specs():
    assert validate(DustSpec(n=1, b=3, depth=4)) is None
    assert validate(DustSpec(n=2, b=3, depth=3)) is None


def test_validate_rejects_base_two_in_plane():
    # c = 4 < 2**2 + 1: the level-1 leftover degenerates to zero
    problem = validate(DustSpec(n=2, b=2, depth=2))
    assert problem is not None
    assert "delta_1" in problem and "0" in problem


def _validate_oracle(spec):
    # validate as first written: Fraction leftovers per level, then the piece-count bound
    for k in range(1, spec.depth + 1):
        delta = F(1, spec.c ** ((k - 1) ** 2)) - 2**spec.n * F(1, spec.c ** (k * k))
        if delta <= 0:
            return f"delta_{k} = {delta} is not positive"
    if spec.c < 2**spec.n + 1:
        return f"c = {spec.c} is below 2**n + 1 = {2**spec.n + 1}"
    return None


def _gap_columns_oracle(spec):
    # gap_table as first written: sides as exact n-th roots of the volumes
    vols, leftovers, gaps = [], [], []
    for k in range(1, spec.depth + 1):
        v_prev, v_here = F(1, spec.c ** ((k - 1) ** 2)), F(1, spec.c ** (k * k))
        side_prev, side_here = root_lower(v_prev, spec.n), root_lower(v_here, spec.n)
        assert side_prev**spec.n == v_prev and side_here**spec.n == v_here
        vols.append(v_here)
        leftovers.append(v_prev - 2**spec.n * v_here)
        gaps.append(side_prev - 2 * side_here)
    return tuple(vols), tuple(leftovers), tuple(gaps)


def test_validate_and_gap_table_match_the_volume_route():
    # the grid's integer reading agrees with the Fraction leftovers and the root route
    rejected = 0
    for n, b, depth in itertools.product((1, 2, 3), range(2, 7), range(1, 5)):
        spec = DustSpec(n=n, b=b, depth=depth)
        assert spec.scale(depth) == b ** (depth * depth)
        assert spec.factor(depth) == b ** (2 * depth - 1)
        problem = validate(spec)
        assert problem == _validate_oracle(spec)
        if problem is not None:
            rejected += 1
            continue
        table = gap_table(spec)
        assert (table.volume, table.leftover, table.sibling_gap) == _gap_columns_oracle(spec)
    assert rejected == 12  # b = 2 in every n and depth


def test_validate_leftover_values():
    spec = DustSpec(n=2, b=3, depth=2)
    table = gap_table(spec)
    assert table.leftover[0] == F(5, 9)
    assert table.leftover[1] == F(725, 6561)


def test_generate_line_level_one():
    tree = generate(DustSpec(n=1, b=3, depth=1))
    boxes = [cube.intervals for _, cube in level_boxes(tree, 1)]
    assert boxes == [((F(0), F(1, 3)),), ((F(2, 3), F(1)),)]


def test_generate_plane_level_one_distances():
    tree = generate(DustSpec(n=2, b=3, depth=1))
    cubes = [box for _, box in level_boxes(tree, 1)]
    dists = {
        dist_sq(a, b) for a, b in itertools.combinations(cubes, 2)
    }
    assert dists == {F(1, 9), F(2, 9)}


def test_generate_plane_level_two_structure():
    tree = generate(DustSpec(n=2, b=3, depth=2))
    level = level_boxes(tree, 2)
    assert len(level) == 16
    assert all(sides(cube) == (F(1, 81),) * 2 for _, cube in level)
    assert all(volume(cube) == F(1, 6561) for _, cube in level)
    parents = dict(level_boxes(tree, 1))
    for word, cube in level:
        shared = set(vertices(cube)) & set(vertices(parents[word[:-1]]))
        assert len(shared) == 1


def test_generate_rejects_inadmissible():
    with pytest.raises(ValueError):
        generate(DustSpec(n=2, b=2, depth=1))


@pytest.mark.parametrize(
    "operation",
    [generate, gap_table, refutation_budget_lower,
     lambda spec: adversary_swallow(spec, F(1, 2), 2), lambda spec: adversary_random(spec, F(1, 2), 2, 7)],
    ids=["generate", "gap_table", "refutation_budget_lower", "adversary_swallow", "adversary_random"],
)
def test_an_inadmissible_spec_is_one_verdict_everywhere(operation):
    # b = 2 gives delta_1 = 0: every dust operation on it gives the verdict the command line exits 1 with
    with pytest.raises(Negative, match="^inadmissible: delta_1 = 0 is not positive$"):
        operation(DustSpec(1, 2, 3))


@pytest.mark.parametrize("adversary", [adversary_swallow, lambda *args: adversary_random(*args, 7)],
                         ids=["swallow", "random"])
def test_adversaries_refuse_a_bad_eps_before_forming_a_side(adversary):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="eps must lie strictly between 0 and 1"):
        adversary(DustSpec(2, 3, 3), F(3, 2), 200_000)
    assert time.perf_counter() - start < 1


def test_the_long_swallow_cover_is_built_and_budgeted_piece_by_piece():
    # 2,400 pieces at depth 40, n=1, whose last bound denominator has 15,216 bits.  The cube check and the
    # budget read each piece on its own frame: 0.002 and 0.005 s (library timing, 2-vCPU Xeon, Python 3.11.7),
    # against 0.78 and 0.08 s with every piece put on one common frame
    spec = DustSpec(1, 3, 40)
    cover = adversary_swallow(spec, refutation_budget_lower(spec), 2400)
    assert len(cover.pieces) == 2400 and _frame(cover.pieces[-1:]).bit_length() == 15216
    start = time.perf_counter()
    again = CoverSeq(cover.n, cover.eps, cover.strong, cover.pieces)
    assert time.perf_counter() - start < 0.2
    start = time.perf_counter()
    assert again.first_budget_violation() is None
    assert time.perf_counter() - start < 0.05


def test_default_corner_order_stays_implicit():
    # no list of 2**n corners for a spec that never builds a tree
    spec = DustSpec(n=40, b=3, depth=1)
    assert validate(spec) is None and gap_table(spec).sibling_gap == (F(1, 3),)
    # the tree document still lists the identity order, for byte compatibility
    doc = serialize.to_json(generate(DustSpec(n=2, b=3, depth=1)))
    assert doc["corner_order"] == [0, 1, 2, 3]


def test_letters_take_corners_in_binary_order():
    # letter t takes the corner whose bits are those of t - 1, axis 0 most significant
    line = generate(DustSpec(n=1, b=3, depth=1))
    assert [box.intervals for _, box in level_boxes(line, 1)] == [((F(0), F(1, 3)),), ((F(2, 3), F(1)),)]
    plane = generate(DustSpec(n=2, b=3, depth=2))
    assert [cell for _, cell in plane.levels[0]] == [(0, 0), (0, 2), (2, 0), (2, 2)]
    # at level 2 a parent at p holds its children at 27p or 27p + 26 per axis
    assert dict(plane.levels[1])[(2, 3)] == (26, 54)
    # a document written under another order is refused: it differs from the rebuilt tree
    doc = json.loads(serialize.canonical_bytes(serialize.to_json(line)))
    doc["corner_order"] = [1, 0]
    doc["levels"][0].reverse()
    for entry, word in zip(doc["levels"][0], ([1], [2])):
        entry["word"] = word
    assert doc["levels"][0][0]["lo"] == ["2/3"]
    with pytest.raises(ValueError, match="differs from the tree its spec defines"):
        serialize.from_json(doc)


def test_gap_table_line_values():
    spec = DustSpec(n=1, b=3, depth=4)
    table = gap_table(spec)
    assert table.sibling_gap[0] == F(1, 3)
    assert table.sibling_gap[1] == F(1, 3) - F(2, 81) == F(25, 81)
    assert table.level_gap[0] == table.sibling_gap[0]
    assert table.level_gap[1] == F(25, 81)
    assert all(g > 0 for g in table.level_gap)


def test_gap_table_matches_side_recurrence():
    # independent route: d_k = side_{k-1} - 2 side_k straight from tree sides
    for spec in (DustSpec(1, 3, 4), DustSpec(2, 3, 3), DustSpec(3, 3, 2)):
        tree = generate(spec)
        table = gap_table(spec)
        prev = F(1)
        for k in range(1, spec.depth + 1):
            side = sides(level_boxes(tree, k)[0][1])[0]
            assert table.sibling_gap[k - 1] == prev - 2 * side
            prev = side


def test_level_union_nesting_bracket():
    spec = DustSpec(n=2, b=3, depth=2)
    tree = generate(spec)
    coarse = level_digital(tree, 1)
    fine = level_digital(tree, 2)
    br = hausdorff_bracket(coarse, fine, 4)
    assert br.hi <= root_upper(F(2), 2) * F(1, 3)


def test_hmeasure_line_values():
    assert hausdorff_measure_upper(DustSpec(n=1, b=3, depth=1), F(1)) == F(2, 3)
    assert hausdorff_measure_upper(DustSpec(n=1, b=3, depth=2), F(1)) == F(4, 81)
    assert hausdorff_measure_upper(DustSpec(n=1, b=3, depth=3), F(1)) == F(8, 19683)


def test_hmeasure_is_within_relative_slack_of_the_true_bound():
    # T = 2**(n k) n**(alpha/2) b**-(k*k*alpha) is irrational in general, so
    # both sides are compared as exact 2q-th powers for alpha = a/q
    slack = 1 + F(3, DEFAULT_PRECISION)
    alphas = (F(1, 10), F(1, 3), F(1, 2), F(2, 3), F(1), F(3, 2), F(2))
    for n, b, alpha, k in itertools.product((1, 2, 3), (3, 4, 5), alphas, range(1, 9)):
        a, q = alpha.numerator, alpha.denominator
        bound = hausdorff_measure_upper(DustSpec(n, b, k), alpha)
        true_2q = F(2 ** (2 * q * n * k) * n**a, b ** (2 * k * k * a))
        assert true_2q <= bound ** (2 * q) <= true_2q * slack ** (2 * q), (n, b, alpha, k)


def test_hmeasure_plane_value():
    spec = DustSpec(n=2, b=3, depth=1)
    assert hausdorff_measure_upper(spec, F(2)) == F(8, 9)


def test_hmeasure_rejects_bad_alpha():
    with pytest.raises(ValueError):
        hausdorff_measure_upper(DustSpec(1, 3, 1), F(0))


def test_epsilon_threshold_line_exact():
    assert refutation_budget_lower(DustSpec(n=1, b=3, depth=4)) == F(1, 81)


def test_critical_budget_is_c_to_the_minus_four():
    for n, b in itertools.product((1, 2, 3), (3, 4, 5, 7)):
        assert refutation_budget_lower(DustSpec(n, b, 2)) == F(1, b ** (4 * n))
        if n == 1:
            # the closed form (root_n(2**n + 1) - 2)**(4n) / c**4 it replaces
            assert refutation_budget_lower(DustSpec(n, b, 2)) == (root_lower(F(3), 1) - 2) ** 4 / b**4
    with pytest.raises(ValueError, match="inadmissible"):
        refutation_budget_lower(DustSpec(2, 2, 2))


def _cubes_of_sides(n, depth, eps, side):
    """A cover at eps whose examined piece h is the cube of side side(h) at the origin."""
    count = _examined_prefix(depth, 10**9)
    pieces = tuple(Box.cube((F(0),) * n, side(h)) for h in range(1, count + 1))
    return CoverSeq(n=n, eps=eps, strong=True, pieces=pieces)


_PREMISE_DEPTHS = {3: 30, 4: 12, 5: 12, 7: 12}


def test_budget_exact_cubes_at_c_to_the_minus_four_meet_every_gap_premise():
    for b, depth in _PREMISE_DEPTHS.items():
        for d in range(2, depth + 1):
            e_d, h = premise_budget(b, d)
            assert e_d > F(1, b ** (4 * h))  # E(d) = e_d**(n/h) exceeds c**-4 for every n
        for n in (1, 2, 3):
            spec = DustSpec(n, b, depth)
            cover = _cubes_of_sides(n, depth, refutation_budget_lower(spec), lambda h: F(1, b ** (4 * h)))
            _refutation_premises(spec, cover)


def test_budget_exact_cubes_just_above_the_premise_budget_fail_the_gap_premise():
    # eps**(1/n) just below and just above E(depth)**(1/n) = e_d**(1/h_min)
    for b, depth in _PREMISE_DEPTHS.items():
        e_d, h_min = premise_budget(b, depth)
        below, above = root_lower(e_d, h_min), root_upper(e_d, h_min)
        assert below**h_min < e_d < above**h_min
        for n in (1, 2, 3):
            spec = DustSpec(n, b, depth)
            _refutation_premises(spec, _cubes_of_sides(n, depth, below**n, lambda h: below**h))
            with pytest.raises(ValueError, match="is not below the level-"):
                _refutation_premises(spec, _cubes_of_sides(n, depth, above**n, lambda h: above**h))


def test_default_budget_swallow_sides_are_powers_of_b_and_refute_at_depth_twelve():
    spec = DustSpec(n=3, b=3, depth=12)
    eps, count = refutation_budget_lower(spec), _examined_prefix(12, 10**9) + 2
    swallow = adversary_swallow(spec, eps, count)
    leaf_side = spec.level_side(12)
    assert [sides(piece) for piece in swallow.pieces] == [
        (min(F(1, 3 ** (4 * h)), leaf_side),) * 3 for h in range(1, count + 1)
    ]
    for cover in (swallow, adversary_random(spec, eps, count, 7)):
        cert = survivor_refute(spec, cover)
        assert isinstance(cert, SurvivorCertificate)
        revalidate_survivor(spec, cover, cert)


def test_epsilon_threshold_positive_for_dimensions():
    for n in (1, 2, 3, 4):
        assert refutation_budget_lower(DustSpec(n=n, b=3, depth=2)) > 0


def test_bucket_examples():
    assert bucket(1) == ()
    assert bucket(2) == (1, 2)
    assert bucket(3) == (3,)
    assert bucket(4) == (4, 5, 6)
    assert bucket(6) == (9, 10, 11, 12)
    # the refuter reads each bucket off its first position
    for k in range(1, 11):
        assert bucket(k) == tuple(range(dust._bucket_start(k), dust._bucket_start(k + 1)))


def test_bucket_partition_and_size_bounds():
    sizes = {k: len(bucket(k)) for k in range(1, 201)}
    assert sum(sizes.values()) >= 10_000
    assert sizes[4] == 3
    for k in range(5, 201):
        assert sizes[k] <= k - 2
    for k in range(4, 200):
        assert sizes[k + 1] <= k - 1


def test_intersect_count_examples():
    spec = DustSpec(n=2, b=3, depth=2)
    tree = generate(spec)
    unit = Box(((F(0), F(1)), (F(0), F(1))))
    assert intersect_count(tree, 1, unit) == 4
    assert intersect_count(tree, 2, unit) == 16
    strip = Box(((F(0), F(1)), (F(0), F(1, 100))))
    assert intersect_count(tree, 1, strip) == 2
    lone = level_boxes(tree, 1)[0][1]
    assert intersect_count(tree, 1, lone) == 1
    with pytest.raises(ValueError):
        intersect_count(tree, 1, Box(((F(0), F(1)),)))


def _random_budget_box(rng: SplitMix64, n: int, cap: F) -> Box:
    """Random box with volume at most cap; thin shapes included."""
    den = 3**5
    sides = []
    for _ in range(n):
        if rng.next() % 4 == 0:
            sides.append(F(1))
        else:
            sides.append(F(rng.next() % den + 1, den))
    vol = F(1)
    for s in sides:
        vol *= s
    if vol > cap:
        shrink = root_lower(cap / vol, n)
        sides = [s * shrink for s in sides]
    ivs = []
    for s in sides:
        lo = F(rng.next() % den, den) * (1 - s)
        ivs.append((lo, lo + s))
    return Box(tuple(ivs))


def test_intersection_bound_empirically():
    # a box with volume <= level_gap**n should touch few cubes; this step
    # is load-bearing for the survivor argument, so probe it at random
    rng = SplitMix64(2024)
    cases = [
        (DustSpec(1, 3, 4), range(1, 5)),
        (DustSpec(2, 3, 3), range(1, 4)),
        (DustSpec(3, 3, 2), range(1, 3)),
    ]
    for spec, ks in cases:
        tree = generate(spec)
        table = gap_table(spec)
        for k in ks:
            cap = table.level_gap[k - 1] ** spec.n
            for _ in range(12):
                box = _random_budget_box(rng, spec.n, cap)
                assert volume(box) <= cap
                count = intersect_count(tree, k, box)
                assert count <= 2 ** ((spec.n - 1) * k)


def test_hit_capacity_plane_level_one():
    (k, hits, cap, ok), = hit_rows(2, 1, 4)
    assert (k, cap, ok) == (1, 2, True)


def test_hit_recursion_no_violation_up_to_sixty():
    for n in (1, 2, 3):
        for k, hits, cap, ok in hit_rows(n, 60, 4):
            assert ok and hits <= cap


def test_hit_recursion_seed_three_fails_in_line():
    # seeding at level 3 overshoots in dimension one: bucket 4 has three
    # positions where the step from level 3 absorbs only two, so the count
    # first exceeds capacity at level 4 (13 > 12); a level-4 seed avoids this
    rows = hit_rows(1, 6, 3)
    assert next(k for k, _, _, ok in rows if not ok) == 4
    assert rows[3][:3] == (4, 13, 12)


def _empty_cover(n: int) -> CoverSeq:
    return CoverSeq(n=n, eps=F(1, 81), strong=False, pieces=())


def test_survivor_empty_cover():
    cert = survivor_refute(DustSpec(n=1, b=3, depth=3), _empty_cover(1))
    assert isinstance(cert, SurvivorCertificate)
    assert cert.checked_prefix == 0
    assert cert.level_counts == (2, 4, 8)
    assert cert.survivor_word == (1, 1, 1)


def _swallow_instance(n: int, depth: int, count: int):
    spec = DustSpec(n=n, b=3, depth=depth)
    tree = generate(spec)
    eps = refutation_budget_lower(spec)
    cover = adversary_swallow(spec, eps, count)
    return tree, cover


def test_survivor_certificate_line():
    tree, cover = _swallow_instance(1, 4, 8)
    assert verify_cover(level_digital(tree, tree.spec.depth), cover).budget_ok
    cert = survivor_refute(tree.spec, cover)
    assert isinstance(cert, SurvivorCertificate)
    assert cert.checked_prefix == 6
    lookup = dict(level_boxes(tree, 4))
    cube = lookup[cert.survivor_word]
    for h in range(1, cert.checked_prefix + 1):
        assert dist_sq(cube, cover.pieces[h - 1]) > 0


def test_survivor_certificate_plane():
    tree, cover = _swallow_instance(2, 3, 6)
    cert = survivor_refute(tree.spec, cover)
    assert isinstance(cert, SurvivorCertificate)
    assert cert.checked_prefix == 3
    # with every piece within the gap budget, at least k * 2**((n-1)k)
    # cubes must survive each level
    for k, count in enumerate(cert.level_counts, start=1):
        assert count >= k * 2 ** ((tree.spec.n - 1) * k)


def test_survivor_counts_consistency_with_intersections():
    tree, cover = _swallow_instance(1, 4, 8)
    cert = survivor_refute(tree.spec, cover)
    prev = 1
    for k in range(1, tree.spec.depth + 1):
        active = cover.pieces[: min(len(cover.pieces), ((k + 1) ** 2 - 1) // 4)]
        killed_cap = sum(intersect_count(tree, k, piece) for piece in active)
        assert cert.level_counts[k - 1] >= 2**tree.spec.n * prev - killed_cap
        prev = cert.level_counts[k - 1]


def test_survivor_random_adversaries_line_and_plane():
    for n, depth, count, seed in ((1, 4, 8, 11), (2, 3, 6, 12)):
        spec = DustSpec(n=n, b=3, depth=depth)
        tree = generate(spec)
        eps = refutation_budget_lower(spec)
        cover = adversary_random(spec, eps, count, seed)
        cert = survivor_refute(spec, cover)
        assert isinstance(cert, SurvivorCertificate)
        lookup = dict(level_boxes(tree, depth))
        cube = lookup[cert.survivor_word]
        for piece in cover.pieces[: cert.checked_prefix]:
            assert dist_sq(cube, piece) > 0


def test_survivor_rejects_over_budget_cover():
    spec = DustSpec(n=1, b=3, depth=3)
    big = CoverSeq(
        n=1, eps=F(1, 2), strong=False, pieces=(Box(((F(0), F(1, 2)),)),)
    )
    with pytest.raises(ValueError):
        survivor_refute(spec, big)


def test_survivor_rejects_gap_budget_violation():
    # piece fits its eps budget but exceeds the level-gap budget for its
    # bucket, so the refutation premise fails loudly
    spec = DustSpec(n=1, b=3, depth=3)
    cover = CoverSeq(
        n=1, eps=F(2, 5), strong=False, pieces=(Box(((F(0), F(2, 5)),)),)
    )
    with pytest.raises(ValueError, match="^piece 1 is not below the level-2 gap budget$"):
        survivor_refute(spec, cover)


def test_gap_budget_premise_is_exact_on_the_frame():
    # level_gap(2) = 1/3 - 2/81 = 25/81; the second piece's bounds put the frame at 162,
    # where the gap is 50 units and a piece of bucket 2 must measure below 50**2
    spec = DustSpec(n=2, b=3, depth=2)
    gap = gap_table(spec).level_gap[1]
    assert gap == F(25, 81)
    small = Box.cube((F(1, 2), F(1, 2)), F(1, 162))
    exact = CoverSeq(n=2, eps=F(1, 2), strong=False, pieces=(Box.cube((F(0), F(0)), gap), small))
    assert _frame(exact.pieces, spec.scale(2)) == 162 and volume(exact.pieces[0]) == gap**2
    with pytest.raises(ValueError, match="^piece 1 is not below the level-2 gap budget$"):
        survivor_refute(spec, exact)
    # one frame unit narrower on one axis
    narrower = Box(((F(0), gap - F(1, 162)), (F(0), gap)))
    cover = CoverSeq(n=2, eps=F(1, 2), strong=False, pieces=(narrower, small))
    frame, pieces = _refutation_premises(spec, cover)
    assert frame == 162 and pieces[0] == ((0, 49), (0, 50))
    assert isinstance(survivor_refute(spec, cover), SurvivorCertificate)
    # one frame unit wider on one axis
    wider = Box(((F(0), gap + F(1, 162)), (F(0), gap)))
    cover = CoverSeq(n=2, eps=F(1, 2), strong=False, pieces=(wider, small))
    with pytest.raises(ValueError, match="^piece 1 is not below the level-2 gap budget$"):
        survivor_refute(spec, cover)
    # every position h of every non-empty bucket j <= depth <= 4, after h - 1 leaf-side cubes:
    # a cube of volume D_j**n is refused and one frame unit less on axis 0 passes
    cases = 0
    for n, b, depth in itertools.product(range(1, 4), range(3, 8), range(1, 5)):
        spec = DustSpec(n=n, b=b, depth=depth)
        leaf, table = Box.cube((F(0),) * n, spec.level_side(depth)), gap_table(spec)
        for j in range(2, depth + 1):
            gap = table.level_gap[j - 1]
            for h in range(dust._bucket_start(j), dust._bucket_start(j + 1)):
                exact = Box.cube((F(0),) * n, gap)
                frame = _frame((leaf, exact), spec.scale(depth))
                assert volume(exact) == gap**n
                cover = CoverSeq(n=n, eps=F(99, 100), strong=False, pieces=(leaf,) * (h - 1) + (exact,))
                with pytest.raises(Negative, match=f"^piece {h} is not below the level-{j} gap budget$"):
                    survivor_refute(spec, cover)
                narrower = Box(((F(0), gap - F(1, frame)),) + ((F(0), gap),) * (n - 1))
                cover = CoverSeq(n=n, eps=F(99, 100), strong=False, pieces=(leaf,) * (h - 1) + (narrower,))
                assert _refutation_premises(spec, cover)[0] == frame
                assert isinstance(survivor_refute(spec, cover), SurvivorCertificate)
                cases += 1
    assert cases == 3 * 5 * (2 + 3 + 6)


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=3, max_value=7),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=50),
)
def test_integer_gap_budget_is_the_level_gap_budget(n, b, depth, units):
    # every spec with b >= 3 is admissible: its sibling gaps decrease, so the
    # running minimum D_j is d_j, and d_j on a multiple of the leaf grid is an int
    spec = DustSpec(n=n, b=b, depth=depth)
    table = gap_table(spec)
    assert table.level_gap == table.sibling_gap
    frame = units * spec.scale(depth)
    for j in range(1, depth + 1):
        budget = (frame // spec.scale(j - 1) - 2 * (frame // spec.scale(j))) ** n
        assert budget == int(table.level_gap[j - 1] * frame) ** n
    if depth >= 2:
        # piece 1 is in bucket 2: a cube of side D_2 breaks its budget, one leaf unit less does not
        def cube(side):
            return CoverSeq(n=n, eps=F(1, 2), strong=True, pieces=(Box.cube((0,) * n, side),))

        _refutation_premises(spec, cube(table.level_gap[1] - spec.level_side(depth)))
        with pytest.raises(Negative, match="^piece 1 is not below the level-2 gap budget$"):
            _refutation_premises(spec, cube(table.level_gap[1]))


def test_every_verified_negative_is_a_negative():
    # the nine library sites that decide a false claim on well-formed input raise Negative,
    # a ValueError, so callers that catch ValueError keep working
    assert issubclass(Negative, ValueError)
    tree, cover = _swallow_instance(1, 4, 8)
    spec, cert = tree.spec, survivor_refute(tree.spec, cover)
    tight = CoverSeq(n=1, eps=F(1, 10**9), strong=True, pieces=cover.pieces)
    over_gap = CoverSeq(n=1, eps=F(2, 5), strong=False, pieces=(Box(((F(0), F(2, 5)),)),))
    forged = [
        (SurvivorCertificate(3, cert.checked_prefix, cert.survivor_word[:3], cert.level_counts[:3]),
         "depth differs"),
        (SurvivorCertificate(4, cert.checked_prefix - 1, cert.survivor_word, cert.level_counts), "different prefix"),
        (SurvivorCertificate(4, cert.checked_prefix, (1, 1, 1, 9), cert.level_counts), "does not name a cube"),
        (SurvivorCertificate(4, cert.checked_prefix, (1, 1, 1, 1), cert.level_counts), "touches examined piece 1$"),
        (SurvivorCertificate(4, cert.checked_prefix, cert.survivor_word, (99,) * 4), "level counts differ"),
    ]
    weak = CoverSeq(n=1, eps=F(1, 2), strong=False, pieces=(Box(((F(0), F(1, 2)),)),))
    ball = BallSpec(n=1, boxes=(Box(((F(2, 5), F(3, 5)),)),))
    straddling = DigitalSet(1, 3, 3, ((0,), (13,)))
    calls = [
        (lambda: survivor_refute(spec, tight), "eps budget"),
        (lambda: survivor_refute(DustSpec(n=1, b=3, depth=3), over_gap), "gap budget"),
        *((lambda forgery=forgery: revalidate_survivor(spec, cover, forgery), why) for forgery, why in forged),
        (lambda: merge_covers([weak, weak], F(1, 2)), "exceeds the strengthened budget"),
        (lambda: ball_stability_radius(straddling, ball, [Point((F(1, 2),))]), "^not a member of the open-box union$"),
    ]
    assert len(calls) == 9
    for call, message in calls:
        with pytest.raises(Negative, match=message):
            call()


def test_revalidate_rejects_tampered_certificates():
    tree, cover = _swallow_instance(1, 4, 8)
    cert = survivor_refute(tree.spec, cover)
    swapped = SurvivorCertificate(
        depth=cert.depth,
        checked_prefix=cert.checked_prefix,
        survivor_word=(1, 1, 1, 1),
        level_counts=cert.level_counts,
    )
    with pytest.raises(ValueError):
        revalidate_survivor(tree.spec, cover, swapped)
    short = SurvivorCertificate(
        depth=cert.depth,
        checked_prefix=cert.checked_prefix - 1,
        survivor_word=cert.survivor_word,
        level_counts=cert.level_counts,
    )
    with pytest.raises(ValueError):
        revalidate_survivor(tree.spec, cover, short)
    # a cover of another dimension is refused, not truncated to the tree's axes
    wide = tuple(Box(piece.intervals + ((F(0), F(1)),)) for piece in cover.pieces)
    plane = CoverSeq(n=2, eps=cover.eps, strong=False, pieces=wide)
    with pytest.raises(ValueError, match="dimension"):
        revalidate_survivor(tree.spec, plane, cert)
    # level counts are recomputed by the survivor walk, not trusted
    last = cert.level_counts[-1]
    for counts in ((99,) * cert.depth, cert.level_counts[:-1] + (last - 1,)):
        forged = SurvivorCertificate(cert.depth, cert.checked_prefix, cert.survivor_word, counts)
        with pytest.raises(ValueError, match="level counts"):
            revalidate_survivor(tree.spec, cover, forged)
    # any surviving word is accepted, not only the least one the refuter emits
    plane_tree, plane_cover = _swallow_instance(2, 3, 6)
    least = survivor_refute(plane_tree.spec, plane_cover)
    assert least.survivor_word == (1, 2, 1)
    greatest = SurvivorCertificate(least.depth, least.checked_prefix, (4, 4, 4), least.level_counts)
    revalidate_survivor(plane_tree.spec, plane_cover, greatest)


def _swallow_from_cubes(tree, eps, count):
    # the adversary as first written, over the box view of every leaf
    spec = tree.spec
    leaves = [box for _, box in level_boxes(tree, spec.depth)]
    root_lo = root_lower(eps, spec.n, DEFAULT_PRECISION)
    pieces = []
    for h in range(1, count + 1):
        budget_side = max(root_lower(eps**h, spec.n, DEFAULT_PRECISION), root_lo**h)
        target = leaves[(h - 1) % len(leaves)]
        side = min(budget_side, sides(target)[0])
        pieces.append(Box.cube(tuple(lo for lo, _ in target.intervals), side))
    return CoverSeq(n=spec.n, eps=eps, strong=True, pieces=tuple(pieces))


def _random_from_cubes(tree, eps, count, seed):
    spec = tree.spec
    rng = SplitMix64(seed)
    leaves = [box for _, box in level_boxes(tree, spec.depth)]
    root_lo = root_lower(eps, spec.n, DEFAULT_PRECISION)
    pieces = []
    for h in range(1, count + 1):
        budget_side = max(root_lower(eps**h, spec.n, DEFAULT_PRECISION), root_lo**h)
        target = leaves[rng.next() % len(leaves)]
        side = min(budget_side, sides(target)[0]) * F(rng.next() % 512 + 512, 1024)
        corner = []
        for lo, hi in target.intervals:
            wiggle = (hi - lo - side) * F(rng.next() % 1024, 1024)
            corner.append(min(lo + wiggle, 1 - side))
        pieces.append(Box.cube(tuple(corner), side))
    return CoverSeq(n=spec.n, eps=eps, strong=True, pieces=tuple(pieces))


def test_adversaries_respect_budgets():
    spec = DustSpec(n=2, b=3, depth=3)
    eps = refutation_budget_lower(spec)
    for cover in (
        adversary_swallow(spec, eps, 6),
        adversary_random(spec, eps, 6, seed=5),
    ):
        assert cover.strong
        for k, piece in enumerate(cover.pieces, start=1):
            assert volume(piece) <= eps**k
    # built from the integer leaf cells, the covers equal the box-view ones;
    # 20 swallow pieces wrap around the 16 leaves of n=1 depth=4
    for n, depth in ((1, 4), (2, 3), (3, 2)):
        tree = generate(DustSpec(n=n, b=3, depth=depth))
        eps = refutation_budget_lower(tree.spec)
        assert adversary_swallow(tree.spec, eps, 20) == _swallow_from_cubes(tree, eps, 20)
        for seed in (0, 5, 12):
            assert adversary_random(tree.spec, eps, 10, seed) == _random_from_cubes(
                tree, eps, 10, seed
            )


def test_tree_serialization_is_byte_stable():
    spec = DustSpec(n=2, b=3, depth=2)
    blob_a = serialize.canonical_bytes(serialize.to_json(generate(spec)))
    blob_b = serialize.canonical_bytes(serialize.to_json(generate(spec)))
    assert blob_a == blob_b
    back = serialize.from_json(json.loads(blob_a))
    assert serialize.canonical_bytes(serialize.to_json(back)) == blob_a


@settings(max_examples=12)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=3, max_value=5))
def test_tree_construction_invariants_property(n, b):
    depth = 2 if n < 3 else 1
    spec = DustSpec(n=n, b=b, depth=depth)
    tree = generate(spec)
    for k in range(1, depth + 1):
        level = level_boxes(tree, k)
        assert len(level) == 2 ** (n * k)
        assert all(sides(cube) == (F(1, b ** (k * k)),) * n for _, cube in level)


def _replace_entry(tree, k, i, word=None, cell=None):
    level = list(tree.levels[k - 1])
    old_word, old_cell = level[i]
    level[i] = (old_word if word is None else word, old_cell if cell is None else cell)
    levels = tree.levels[: k - 1] + (tuple(level),) + tree.levels[k:]
    return DustTree(spec=tree.spec, levels=levels)


def test_check_tree_catches_corrupted_trees():
    tree = generate(DustSpec(n=2, b=3, depth=2))
    (w0, c0), (w1, c1) = tree.levels[1][:2]
    # level-1 parent (0, 0) spans level-2 indices 0..26 on each axis
    assert tree.levels[0][0] == ((1,), (0, 0))
    assert w0[:-1] == w1[:-1] == (1,) and {c0, c1} <= {(0, 0), (0, 26), (26, 0), (26, 26)}
    corrupted = [
        # inside its parent but not in a corner, then just outside its parent
        ("not flush in a corner", _replace_entry(tree, 2, 0, cell=(13, 0))),
        ("not flush in a corner", _replace_entry(tree, 2, 0, cell=(27, 0))),
        ("touching siblings", _replace_entry(tree, 2, 1, cell=c0)),
        ("not distinct", _replace_entry(tree, 2, 1, word=w0)),
        # a letter outside 1..2**n names no corner, though its word is new
        ("not distinct children", _replace_entry(tree, 2, 0, word=(1, 5))),
        ("not distinct children", _replace_entry(tree, 2, 0, word=(1, 0))),
        # every level is checked, so a level too few or too many is caught
        ("depth is wrong", DustTree(spec=tree.spec, levels=tree.levels[:1])),
        ("depth is wrong", DustTree(spec=tree.spec, levels=tree.levels + tree.levels[1:])),
        ("level 2 cube count is wrong", DustTree(spec=tree.spec, levels=(tree.levels[0], tree.levels[1][1:]))),
    ]
    _check_tree(tree)
    for message, bad in corrupted:
        with pytest.raises(AssertionError, match=message):
            _check_tree(bad)


def test_check_tree_sibling_gaps_equal_the_brute_force_minimum():
    # what _check_tree proves: siblings are exactly the table's sibling gap apart
    for spec in (DustSpec(1, 3, 4), DustSpec(2, 3, 3), DustSpec(3, 3, 2), DustSpec(2, 4, 2)):
        tree = generate(spec)
        _check_tree(tree)
        brute = tuple(
            min(
                dist_sq(ca, cb)
                for (wa, ca), (wb, cb) in itertools.combinations(level_boxes(tree, k), 2)
                if wa[:-1] == wb[:-1]
            )
            for k in range(1, spec.depth + 1)
        )
        assert brute == tuple(d * d for d in gap_table(spec).sibling_gap)


def _on_its_frame(spec, cover):
    """The examined pieces on their frame as ``_refutation_premises`` maps them, no premise checked."""
    examined = cover.pieces[: _examined_prefix(spec.depth, len(cover.pieces))]
    frame = _frame(examined, spec.scale(spec.depth))
    return frame, [_on_frame(piece, frame) for piece in examined]


def test_survivor_descent_counts_no_survivor_below_an_empty_level():
    # the whole cube, far over every gap budget, is examined from level 2 on
    spec = DustSpec(n=1, b=3, depth=3)
    cover = CoverSeq(n=1, eps=F(1, 2), strong=False, pieces=(Box(((F(0), F(1)),)),))
    assert _survivor_descent(spec, *_on_its_frame(spec, cover)) == ((2, 0, 0), None)


def _walk_oracle(tree, cover):
    """The survivor walk as it was on Fraction cubes: dist_sq against every active piece."""
    walk, survivors = [], {()}
    for k in range(1, tree.spec.depth + 1):
        active = cover.pieces[: _examined_prefix(k, len(cover.pieces))]
        alive = [
            word
            for word, cube in level_boxes(tree, k)
            if word[:-1] in survivors and all(dist_sq(cube, piece) > 0 for piece in active)
        ]
        walk.append(alive)
        survivors = set(alive)
    return walk


@st.composite
def _tree_and_cover(draw):
    """A small tree and either a budget-tight adversary at, below or far above the
    critical budget, or a non-strong cover whose endpoints sit on or near its cells."""
    n = draw(st.integers(min_value=1, max_value=3))
    depth = draw(st.integers(min_value=1, max_value={1: 4, 2: 3, 3: 2}[n]))
    tree = generate(DustSpec(n=n, b=draw(st.sampled_from((3, 4))), depth=depth))
    if draw(st.booleans()):
        scale = draw(st.sampled_from((F(1, 2), F(1), F(10**6))))
        eps, count = min(refutation_budget_lower(tree.spec) * scale, F(1, 2)), _examined_prefix(depth, 10**9) + 2
        seed = draw(st.none() | st.integers(min_value=0, max_value=2**64 - 1))
        if seed is None:
            return tree, adversary_swallow(tree.spec, eps, count)
        return tree, adversary_random(tree.spec, eps, count, seed)

    def endpoint():
        k = draw(st.integers(min_value=1, max_value=depth))
        scale = tree.spec.b ** (k * k)
        if draw(st.booleans()):
            # a face of a dust cell, a half cell away, or one cell away
            _, cell = draw(st.sampled_from(tree.levels[k - 1]))
            j = draw(st.sampled_from(cell)) + draw(st.sampled_from((0, 1)))
            return F(2 * j + draw(st.integers(min_value=-2, max_value=2)), 2 * scale)
        # any point on the level grid or half-way between, up to half a unit outside [0, 1]
        return F(draw(st.integers(min_value=-scale, max_value=3 * scale)), 2 * scale)

    pieces = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        ivs = []
        for _ in range(n):
            lo = endpoint()
            hi = lo if draw(st.integers(min_value=0, max_value=3)) == 0 else endpoint()
            ivs.append((min(lo, hi), max(lo, hi)))
        pieces.append(Box(tuple(ivs)))
    return tree, CoverSeq(n=n, eps=F(1, 2), strong=False, pieces=tuple(pieces))


@given(_tree_and_cover())
def test_integer_touching_matches_the_fraction_oracle(case):
    tree, cover = case
    depth = tree.spec.depth
    frame, pieces = _on_its_frame(tree.spec, cover)
    walk = _walk_oracle(tree, cover)
    assert _survivor_descent(tree.spec, frame, pieces) == (tuple(map(len, walk)), min(walk[-1], default=None))
    # the refuter's touching window holds exactly the cells at distance 0
    for k in range(1, depth + 1):
        windows = [cell_window(piece, tree.spec.scale(k), 1) for piece in cover.pieces]
        for (_, cube), (_, cell) in zip(level_boxes(tree, k), tree.levels[k - 1]):
            for piece, window in zip(cover.pieces, windows):
                assert _in_window(cell, window) == (dist_sq(cube, piece) == 0)
    # _check_survivor names the first examined piece that touches the named leaf
    prefix = _examined_prefix(depth, len(cover.pieces))
    for word, cube in level_boxes(tree, depth):
        cert = SurvivorCertificate(depth, prefix, word, (1,) * depth)
        touching = [h for h in range(1, prefix + 1) if dist_sq(cube, cover.pieces[h - 1]) == 0]
        if touching:
            with pytest.raises(ValueError, match=f"touches examined piece {touching[0]}$"):
                _check_survivor(tree.spec, frame, pieces, cert)
        else:
            _check_survivor(tree.spec, frame, pieces, cert)


def test_descent_refutes_2_to_the_36_leaves_placing_few_children(monkeypatch):
    # n=3, depth 12: survivors no examined piece touches are counted, never placed
    spec = DustSpec(n=3, b=3, depth=12)
    eps, count = refutation_budget_lower(spec) / 2, _examined_prefix(12, 10**9) + 2
    covers = (adversary_swallow(spec, eps, count), adversary_random(spec, eps, count, 12))
    placed, children = [], dust._children

    def counted(*args):
        family = children(*args)
        placed.append(len(family))
        if sum(placed) > 10_000:
            raise AssertionError("the descent placed more than 10,000 children")
        return family

    monkeypatch.setattr(dust, "_children", counted)
    for cover in covers:
        cert = survivor_refute(spec, cover)
        assert isinstance(cert, SurvivorCertificate) and cert.level_counts[-1] > 2**35
        revalidate_survivor(spec, cover, cert)


def test_integer_dust_scales_to_depth_seven(tmp_path):
    # the whole cycle at 16,384 and 4,096 leaves, bounded as A01 bounds its own work
    started = time.monotonic()
    for n, depth in ((2, 7), (3, 4)):
        spec = DustSpec(n=n, b=3, depth=depth)
        tree = generate(spec)
        count = _examined_prefix(depth, 10**9) + 2
        cover = adversary_swallow(spec, refutation_budget_lower(spec), count)
        cert = survivor_refute(spec, cover)
        assert isinstance(cert, SurvivorCertificate)
        revalidate_survivor(spec, cover, cert)
        path = tmp_path / f"tree-{n}.json"
        blob = serialize.save(tree, path)
        assert serialize.canonical_bytes(serialize.to_json(serialize.load(path))) == blob
    assert time.monotonic() - started < 10.0


_SMALL_DEPTHS = {1: 6, 2: 4, 3: 3}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cell_of_a_word_matches_the_built_tree(data):
    # every depth is admissible at b >= 3; the trees stay at most 512 leaves
    n = data.draw(st.integers(min_value=1, max_value=3))
    b = data.draw(st.integers(min_value=3, max_value=5))
    depth = data.draw(st.integers(min_value=1, max_value=_SMALL_DEPTHS[n]))
    spec = DustSpec(n=n, b=b, depth=depth)
    assert validate(spec) is None
    tree = generate(spec)
    leaves = 2 ** (n * depth)
    i = data.draw(st.integers(min_value=0, max_value=leaves - 1))
    word, cell = tree.levels[depth - 1][i]
    # leaf i's letters are its base-2**n digits plus 1, read modulo the leaf count
    assert sum((t - 1) << n * (depth - k) for k, t in enumerate(word, start=1)) == i
    place = _leaf_cells(spec)
    assert place(i) == place(i + leaves * data.draw(st.integers(0, 9))) == leaf_cell(spec, i) == cell
    # the length-k prefix is node i >> n*(depth - k) of level k, a leaf of the depth-k spec
    for k in range(1, depth + 1):
        assert _leaf_cells(DustSpec(n, b, k))(i >> n * (depth - k)) == dict(tree.levels[k - 1])[word[:k]]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_checker_accepts_exactly_the_words_whose_cube_touches_no_examined_piece(data):
    # every leaf word of a small tree, against swallow and seeded random covers at the critical budget
    n = data.draw(st.integers(min_value=1, max_value=3))
    b = data.draw(st.integers(min_value=3, max_value=5))
    depth = data.draw(st.integers(min_value=1, max_value=_SMALL_DEPTHS[n]))
    spec = DustSpec(n=n, b=b, depth=depth)
    eps, count = refutation_budget_lower(spec), data.draw(st.integers(1, _examined_prefix(depth, 10**9) + 2))
    seed = data.draw(st.none() | st.integers(0, 2**64 - 1))
    cover = adversary_swallow(spec, eps, count) if seed is None else adversary_random(spec, eps, count, seed)
    least = survivor_refute(spec, cover)
    examined = cover.pieces[: least.checked_prefix]
    for word, cube in level_boxes(generate(spec), depth):
        cert = SurvivorCertificate(depth, least.checked_prefix, word, least.level_counts)
        touched = [h for h, piece in enumerate(examined, start=1) if dist_sq(cube, piece) == 0]
        if touched:
            with pytest.raises(Negative, match=f"^survivor touches examined piece {touched[0]}$"):
                revalidate_survivor(spec, cover, cert)
        else:
            revalidate_survivor(spec, cover, cert)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.integers(3, 7), st.integers(1, 6), st.integers(0, 2**64 - 1))
def test_leaf_steps_place_each_leaf_as_the_letter_walk_does(n, b, depth, i):
    # the adversaries' leaf cells, read from 64-bit draws, against one level's factor at a time
    spec = DustSpec(n=n, b=b, depth=depth)
    assert _leaf_cells(spec)(i) == leaf_cell(spec, i)


def test_refuter_and_adversaries_read_only_the_spec():
    # computed from the spec alone, the survivors name leaves of the built tree
    for n, depth in ((1, 4), (2, 3), (3, 2)):
        spec = DustSpec(n=n, b=3, depth=depth)
        leaves = dict(level_boxes(generate(spec), depth))
        eps = refutation_budget_lower(spec)
        count = _examined_prefix(depth, 10**9) + 2
        covers = [adversary_swallow(spec, eps, count)]
        covers += [adversary_random(spec, eps, count, seed) for seed in (0, 5, 12)]
        for cover in covers:
            cert = survivor_refute(spec, cover)
            assert isinstance(cert, SurvivorCertificate)
            revalidate_survivor(spec, cover, cert)
            survivor = leaves[cert.survivor_word]
            assert all(dist_sq(survivor, piece) > 0 for piece in cover.pieces[: cert.checked_prefix])
    # pieces as long as the level-2 gap, and words that name no cube, fail alike
    spec = DustSpec(n=1, b=3, depth=2)
    pieces = (Box(((F(1, 81), F(26, 81)),)), Box(((F(55, 81), F(80, 81)),)))
    cover = CoverSeq(n=1, eps=F(5, 9), strong=True, pieces=pieces)
    with pytest.raises(ValueError, match="gap budget"):
        survivor_refute(spec, cover)
    empty = CoverSeq(n=1, eps=F(5, 9), strong=True, pieces=())
    for word in ((1,), (1, 1, 1), (0, 1), (1, 3), (2, -1)):
        cert = SurvivorCertificate(depth=2, checked_prefix=0, survivor_word=word, level_counts=(2, 4))
        with pytest.raises(ValueError, match="does not name a cube"):
            revalidate_survivor(spec, empty, cert)


def test_dust_algorithms_run_on_a_spec_never_built(monkeypatch):
    def no_tree(spec):
        raise AssertionError(f"a tree was built for {spec}")

    monkeypatch.setattr(dust, "generate", no_tree)
    for n, depth in ((1, 5), (2, 4), (3, 3)):
        spec = DustSpec(n=n, b=3, depth=depth)
        eps = refutation_budget_lower(spec)
        count = _examined_prefix(depth, 10**9) + 2
        for cover in (adversary_swallow(spec, eps, count), adversary_random(spec, eps, count, 7)):
            cert = survivor_refute(spec, cover)
            assert isinstance(cert, SurvivorCertificate) and cert.depth == depth
            revalidate_survivor(spec, cover, cert)
