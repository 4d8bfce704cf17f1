"""Exact rational scalars and directed-rounding root enclosures.

Every quantity in this package is exact: a ``fractions.Fraction``, or an
int where box queries, the survivor descent and Hausdorff brackets decide
on one integer grid.  The only irrational values that ever arise are roots
(Euclidean norms, side budgets ``eps**(k/n)``), and those are always
returned as certified rational enclosures: ``root_lower`` never exceeds
the true root, ``root_upper`` never falls below it.  No floats participate
in any verdict: ``_frac``, the intake of every scalar, refuses a float.

Enclosures are reported on the grid ``1/prec``.  The grid is no caller
option: operations outside this module start at ``DEFAULT_PRECISION``
(10**12) and refine it only where their quantity needs a finer one (a
series ratio that must clear a bound, a bracket's width cap, a measure
bound's relative slack, a positive radius).  When the requested root is
itself rational the exact value is returned regardless of ``prec``.  A
power x**(p/q) is enclosed as the root of an exact power, ``root_lower(x**p, q)``.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, log2

DEFAULT_PRECISION = 10**12


class Negative(ValueError):
    """The inputs are well formed and the claim they make is false."""


def _frac(value) -> Fraction:
    """An exact scalar as a Fraction; a float is refused, never converted."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floats are not accepted; use Fraction")
    return Fraction(value)


def format_scalar(x: Fraction) -> str:
    """Canonical "num/den" form, denominator always present."""
    x = _frac(x)
    return f"{x.numerator}/{x.denominator}"


def parse_scalar(text: str) -> Fraction:
    """An integer, a decimal or "num/den", read in time linear in the text.

    Exponent notation is refused: ``Fraction`` would expand "1e-1000000000" into a billion digits.
    """
    if not isinstance(text, str) or "e" in text or "E" in text:
        raise ValueError(f"not a rational scalar: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational scalar: {text!r}") from exc


def int_nth_root(a: int, r: int) -> tuple[int, bool]:
    """Floor of the r-th root of a >= 0 and whether it is exact."""
    if a < 0:
        raise ValueError("root of negative integer")
    if r < 1:
        raise ValueError("root index must be >= 1")
    if r == 1 or a in (0, 1):
        return a, True
    if r == 2:
        s = isqrt(a)
        return s, s * s == a
    # integer Newton from a float estimate good to about 30 bits: from far above the
    # root each step lowers x by only about x/r, this close each doubles the correct bits;
    # the float only picks the start, and the exact steps decide the result
    e = log2(a) / r
    k = max(int(e) - 50, 0)
    x = (int(2.0 ** (e - k)) + 1) << k
    x = ((r - 1) * x + a // x ** (r - 1)) // r  # by AM-GM, at or above the floor root
    while True:
        y = ((r - 1) * x + a // x ** (r - 1)) // r
        if y >= x:
            break
        x = y
    return x, x**r == a


def _exact_root(x: Fraction, r: int) -> Fraction | None:
    rp, ok_p = int_nth_root(x.numerator, r)
    if not ok_p:
        return None
    rq, ok_q = int_nth_root(x.denominator, r)
    if not ok_q:
        return None
    return Fraction(rp, rq)


def _root(x: Fraction, r: int, prec: int, upper: bool) -> Fraction:
    """x**(1/r) rounded on the 1/prec grid, down or up; exact when the root is rational."""
    if x < 0:
        raise ValueError("root of negative scalar")
    if prec < 1:
        raise ValueError("prec must be >= 1")
    exact = _exact_root(x, r)
    if exact is not None:
        return exact
    a, _ = int_nth_root(x.numerator * prec**r // x.denominator, r)
    # a = floor(true * prec) and the root is irrational here, so a + 1 is strict
    return Fraction(a + 1 if upper else a, prec)


def root_lower(x: Fraction, r: int, prec: int = DEFAULT_PRECISION) -> Fraction:
    """Rational lower bound of x**(1/r); exact when the root is rational."""
    return _root(x, r, prec, upper=False)


def root_upper(x: Fraction, r: int, prec: int = DEFAULT_PRECISION) -> Fraction:
    """Rational upper bound of x**(1/r); exact when the root is rational."""
    return _root(x, r, prec, upper=True)
