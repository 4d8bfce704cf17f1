"""Property coverage for the survivor refuter beyond the worked examples."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fraction_oracles import dist_sq, level_digital
from microset.covers import verify_cover
from microset.dust import (
    DustSpec,
    SurvivorCertificate,
    adversary_random,
    adversary_swallow,
    generate,
    refutation_budget_lower,
    revalidate_survivor,
    survivor_refute,
)

F = Fraction

_LINE = generate(DustSpec(n=1, b=3, depth=4))
_PLANE = generate(DustSpec(n=2, b=3, depth=3))
_LINE_EPS = refutation_budget_lower(_LINE.spec)
_PLANE_EPS = refutation_budget_lower(_PLANE.spec)


def _check_certificate(tree, cover, cert):
    assert isinstance(cert, SurvivorCertificate)
    revalidate_survivor(tree.spec, cover, cert)
    lookup = dict(tree.level(tree.spec.depth))
    cube = lookup[cert.survivor_word]
    for piece in cover.pieces[: cert.checked_prefix]:
        assert dist_sq(cube, piece) > 0
    assert all(count >= 1 for count in cert.level_counts)
    # nested ancestry: prefixes of the survivor word name live cubes
    for k in range(1, tree.spec.depth):
        assert cert.survivor_word[:k] in dict(tree.level(k))


@settings(max_examples=20)
@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=10))
def test_random_adversaries_never_defeat_the_line_refuter(seed, count):
    cover = adversary_random(_LINE.spec, _LINE_EPS, count, seed)
    assert verify_cover(level_digital(_LINE, 4), cover).budget_ok
    cert = survivor_refute(_LINE.spec, cover)
    _check_certificate(_LINE, cover, cert)


@settings(max_examples=10)
@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=6))
def test_random_adversaries_never_defeat_the_plane_refuter(seed, count):
    cover = adversary_random(_PLANE.spec, _PLANE_EPS, count, seed)
    cert = survivor_refute(_PLANE.spec, cover)
    _check_certificate(_PLANE, cover, cert)


@settings(max_examples=10)
@given(st.integers(min_value=1, max_value=12))
def test_swallow_adversary_any_length_line(count):
    cover = adversary_swallow(_LINE.spec, _LINE_EPS, count)
    cert = survivor_refute(_LINE.spec, cover)
    _check_certificate(_LINE, cover, cert)


@settings(max_examples=8)
@given(st.fractions(min_value=F(1, 10**6), max_value=F(1, 81)))
def test_any_budget_below_threshold_refutes_line_swallows(eps):
    cover = adversary_swallow(_LINE.spec, eps, 6)
    cert = survivor_refute(_LINE.spec, cover)
    _check_certificate(_LINE, cover, cert)
