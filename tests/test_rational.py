import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from microset import baire, cells, covers, dust
from microset.cells import DigitalSet
from microset.rational import (
    format_scalar,
    int_nth_root,
    parse_scalar,
    root_lower,
    root_upper,
)

positive_fractions = st.fractions(min_value=Fraction(1, 10**6), max_value=10**6)


def test_format_parse_round_trip():
    x = Fraction(-25, 81)
    assert format_scalar(x) == "-25/81"
    assert parse_scalar("-25/81") == x
    assert format_scalar(Fraction(3)) == "3/1"


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_scalar("not-a-number")


def test_parse_refuses_exponent_notation():
    assert [parse_scalar(text) for text in ("0.5", "1/4", "3", " -2/6 ")] == [
        Fraction(1, 2), Fraction(1, 4), Fraction(3), Fraction(-1, 3)]
    for text in ("1e-10000000", "1E5", "2.5e-1", "1/1e9"):
        with pytest.raises(ValueError):
            parse_scalar(text)


def test_int_nth_root_small_cases():
    assert int_nth_root(0, 3) == (0, True)
    assert int_nth_root(1, 7) == (1, True)
    assert int_nth_root(8, 3) == (2, True)
    assert int_nth_root(9, 3) == (2, False)
    assert int_nth_root(2**60, 5) == (2**12, True)


@given(st.integers(min_value=0, max_value=10**40), st.integers(min_value=1, max_value=7))
def test_int_nth_root_floor_property(a, r):
    x, exact = int_nth_root(a, r)
    assert x**r <= a < (x + 1) ** r
    assert exact == (x**r == a)


def _bisected_root(a: int, r: int) -> tuple[int, bool]:
    """Floor of the r-th root of a >= 0 by plain bisection, and whether it is exact."""
    lo, hi = 0, 1
    while hi**r <= a:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**r <= a else (lo, mid)
    return lo, lo**r == a


@given(
    st.one_of(
        st.integers(min_value=0, max_value=2**4000),
        st.tuples(st.integers(0, 2**80), st.integers(1, 40), st.integers(-1, 1)),
    ),
    st.integers(min_value=1, max_value=300),
)
def test_int_nth_root_matches_bisection(a, r):
    if isinstance(a, tuple):  # next to a perfect power
        base, power, step = a
        a, r = max(base**power + step, 0), power
    assert int_nth_root(a, r) == _bisected_root(a, r)


def test_large_root_index_is_fast():
    # the side part of this bound is a 5000th root of a 207,000-bit integer; Newton started
    # at twice the root would take thousands of steps, each lowering it by only about 1/5000
    proc = subprocess.run(
        [sys.executable, "-m", "microset", "dust-hmeasure", "--n", "1", "--b", "3", "--alpha", "1/5000", "--k", "1"],
        capture_output=True, text=True, timeout=5,
    )
    assert (proc.returncode, proc.stdout) == (0, "2999340905039/1500000000000\n")


@given(positive_fractions, st.integers(min_value=2, max_value=5))
def test_root_enclosure_brackets(x, r):
    lo = root_lower(x, r)
    hi = root_upper(x, r)
    assert 0 <= lo <= hi
    assert lo**r <= x <= hi**r
    assert hi - lo <= Fraction(2, 10**12)


def test_exact_roots_ignore_precision_grid():
    # perfect powers come back exact even at precision too coarse to grid them
    assert root_lower(Fraction(25, 81), 2, prec=10) == Fraction(5, 9)
    assert root_upper(Fraction(25, 81), 2, prec=10) == Fraction(5, 9)
    assert root_lower(Fraction(8, 27), 3, prec=10) == Fraction(2, 3)
    assert root_lower(Fraction(4), 2) == 2
    assert root_upper(Fraction(4), 2) == 2


def test_irrational_root_strictly_brackets():
    lo = root_lower(Fraction(2), 2)
    hi = root_upper(Fraction(2), 2)
    assert lo < hi
    assert lo**2 < 2 < hi**2


@given(positive_fractions, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4))
def test_pow_enclosure_brackets(x, num, den):
    # x**(num/den) is enclosed as the den-th root of the exact power x**num
    lo = root_lower(x**num, den)
    hi = root_upper(x**num, den)
    assert lo <= hi
    # x**(num/den) lies between: compare den-th powers of the enclosure
    assert lo**den <= x**num
    assert x**num <= hi**den


def test_pow_integer_exponents_exact():
    assert root_lower(Fraction(2, 3) ** 3, 1) == Fraction(8, 27)
    assert root_upper(Fraction(2, 3) ** 3, 1) == Fraction(8, 27)
    assert root_lower(Fraction(2, 3) ** -2, 1) == Fraction(9, 4)
    assert root_upper(Fraction(2, 3) ** 6, 3, prec=10) == Fraction(4, 9)


def test_pow_exact_fractional_case():
    # (1/16)**(1/2) hits the exact-root path
    assert root_lower(Fraction(1, 16), 2) == Fraction(1, 4)
    assert root_upper(Fraction(1, 16), 2) == Fraction(1, 4)


def _parent_pow(x, p, q, prec, upper):
    """x**(p/q) as the removed ``pow_lower``/``pow_upper`` computed it, from ``int_nth_root`` alone.

    An exponent that q divides was taken exactly; otherwise x**p got its q-th
    root, exact when both of its terms are q-th powers, else floor or floor
    plus one of x**(p/q) * prec, over prec.
    """
    if p % q == 0:
        return x ** (p // q)
    y = x**p
    (rp, ok_p), (rq, ok_q) = int_nth_root(y.numerator, q), int_nth_root(y.denominator, q)
    if ok_p and ok_q:
        return Fraction(rp, rq)
    a, _ = int_nth_root(y.numerator * prec**q // y.denominator, q)
    return Fraction(a + upper, prec)


@given(
    positive_fractions | st.builds(pow, positive_fractions, st.integers(1, 4)),
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([1, 10, 10**12, 7**20]),
)
def test_root_of_exact_power_is_the_power_enclosure(x, p, q, prec):
    # the removed shortcut for q | p returned what the exact-root path finds
    assert root_lower(x**p, q, prec) == _parent_pow(x, p, q, prec, upper=False)
    assert root_upper(x**p, q, prec) == _parent_pow(x, p, q, prec, upper=True)


def test_root_rejects_bad_arguments():
    with pytest.raises(ValueError):
        root_lower(Fraction(-1), 2)
    with pytest.raises(ValueError):
        int_nth_root(4, 0)
    with pytest.raises(ValueError, match="negative integer"):
        int_nth_root(-1, 3)
    with pytest.raises(ValueError, match="prec"):
        root_lower(Fraction(2), 2, 0)
    with pytest.raises(ValueError, match="negative scalar"):
        root_upper(Fraction(-1, 2), 2)
    assert root_upper(Fraction(0), 2) == 0


_ONE_CELL = DigitalSet(1, 3, 1, ((0,),))
_SCALAR_INTAKES = {
    "CoverSeq": lambda x: cells.CoverSeq(n=1, eps=x, strong=False, pieces=()),
    "first_budget_violation": lambda x: cells.CoverSeq(1, Fraction(1, 2), False, ()).first_budget_violation(x),
    "greedy_strong_cover": lambda x: covers.greedy_strong_cover(_ONE_CELL, x),
    "merge_covers": lambda x: covers.merge_covers([cells.CoverSeq(1, Fraction(1, 2), False, ())], x),
    "hausdorff_measure_upper": lambda x: dust.hausdorff_measure_upper(dust.DustSpec(1, 3, 2), x),
    "adversary_swallow": lambda x: dust.adversary_swallow(dust.DustSpec(1, 3, 2), x, 2),
    "adversary_random": lambda x: dust.adversary_random(dust.DustSpec(1, 3, 2), x, 2, 7),
    "SampleSpec": lambda x: baire.SampleSpec(seed=1, n=1, b=3, depth=1, density=x),
    "skeleton_depth": lambda x: baire.skeleton_depth(_ONE_CELL, x),
    "format_scalar": format_scalar,
}


@pytest.mark.parametrize("intake", sorted(_SCALAR_INTAKES))
def test_every_scalar_intake_refuses_a_float(intake):
    # 0.1 is 3602879701896397/36028797018963968, not the tenth it spells; the exact tenth is taken
    with pytest.raises(TypeError, match="floats are not accepted"):
        _SCALAR_INTAKES[intake](0.1)
    _SCALAR_INTAKES[intake](Fraction(1, 10))
