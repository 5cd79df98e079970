"""The power-series evaluator and the enclosures of e^q, ln and the geometric
tails, compiled only by the commands that sum a series (see ``__init__``).

Every series sum ``sum c x^n`` in the library goes through one evaluator,
:func:`power_series`: exact integer Horner (``_horner``) for rational
``x``, and at each endpoint of an interval ``x >= 0`` dyadic powers by
``intervals._pow``, the square-and-multiply of CReal powers, over ``_mul``
(``power_series_moment`` adds sum n c x^n from the same powers); the
series of e^q and atanh stream their weights into ``_horner``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate
from operator import floordiv
from typing import Iterable, Union

from .errors import DivergentTail
from .intervals import (DEFAULT_PRECISION_BITS, GUARD, CReal, Rat, _coerce, _dyadic, _frac,
                        _pow, _round)


# ---------------------------------------------------------------------------
# power series
# ---------------------------------------------------------------------------


def _horner(terms: Iterable[tuple[int, int]], p: int, q: int) -> tuple[int, int]:
    # (S, q^D) with S = sum c p^n q^(D-n) in integers: sum c (p/q)^n = S / q^D
    acc, p_pow, last = 0, 1, 0
    for n, c in terms:
        if n > last:
            p_pow *= p ** (n - last)
            acc *= q ** (n - last)
            last = n
        acc += c * p_pow
    return acc, q ** last


def _sums(terms: list[tuple[int, int]], x: CReal) -> tuple[CReal, CReal]:
    # sum c x^n and sum n c x^n over an interval x >= 0, as power_series states,
    # from one sweep of x's powers per endpoint, each term on the grid of its sum alone
    t = len(terms).bit_length()
    W, g = x.precision_bits + GUARD + 2 * t, x.precision_bits + GUARD + t
    ends = []
    for up in (False, True):  # x.lo rounded down, then x.hi rounded up
        X, p_pow, sums, last = _dyadic(_round(x.hi if up else x.lo, W, up)), (1, 0), [0, 0], 0
        for n, c in terms:
            p_pow, last = _pow(p_pow, X, n - last, W, up), n  # x^n = x^last x^(n - last)
            m, e = c * p_pow[0], p_pow[1] + g
            for i, v in enumerate((m, n * m)):
                sums[i] += v << e if e >= 0 else -(-v >> -e) if up else v >> -e
        ends.append([Fraction(v, 1 << g) for v in sums])
    return tuple(CReal(lo, hi, x.precision_bits) for lo, hi in zip(*ends))


def _checked(terms: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    checked: list[tuple[int, int]] = []
    last = 0
    for n, c in terms:
        if n < last or c < 0:
            raise ValueError("terms need ascending n >= 0 and c >= 0")
        last = n
        if c:
            checked.append((n, c))
    return checked


def power_series(terms: Iterable[tuple[int, int]],
                 x: Union[CReal, Rat]) -> Union[CReal, Fraction]:
    """Sum of c x^n over (n, c) pairs, n ascending, integer c >= 0.

    A rational (or exact) x gives the exact sum.  A CReal x with x.lo >= 0
    gives an enclosure of [P(x.lo), P(x.hi)], which encloses P over x
    because nonnegative coefficients make P monotone on [0, inf).  Each
    endpoint is rounded onto W = b + GUARD + 2t significant bits (b =
    x.precision_bits, t = the bit length of the number of nonzero terms),
    x^n is stepped from the previous term's power by square-and-multiply
    (``intervals._pow``) at W bits, and each term c x^n is put on the
    grid 2^-(b + GUARD + t), all rounded down at lo and up at hi.

    Error bound: x^n, n factors x each rounded by less than 2^-W of itself
    and n - 1 products each by less than 2^-(W+1) of theirs, is off by less
    than 3n 2^-W x^n.  So an endpoint's sum is off by less than the sum of
    3n c 2^-W x^n, plus one step of the grid per term.
    """
    checked = _checked(terms)
    if not isinstance(x, CReal):
        x = _frac(x)
        return Fraction(*_horner(checked, x.numerator, x.denominator))
    if x.lo < 0:
        raise ValueError("power_series needs a nonnegative enclosure")
    if x.is_exact:
        lo = Fraction(*_horner(checked, x.lo.numerator, x.lo.denominator))
        return CReal(lo, lo, x.precision_bits)
    return _sums(checked, x)[0]


def power_series_moment(terms: Iterable[tuple[int, int]], x: CReal) -> tuple[CReal, CReal]:
    """``power_series`` of the terms (n, c) and of the terms (n, n c), bit
    for bit, from one sweep of the powers of an interval x."""
    checked = _checked(terms)
    if x.is_exact or x.lo < 0:  # two exact sums, or power_series's refusal
        return power_series(checked, x), power_series([(n, n * c) for n, c in checked], x)
    return _sums(checked, x)


# ---------------------------------------------------------------------------
# transcendental enclosures
# ---------------------------------------------------------------------------


def exp_fraction(q: Rat, precision_bits: int = DEFAULT_PRECISION_BITS) -> CReal:
    """Certified enclosure of e^q for rational q.

    Argument halving brings the series argument t below 1/2, so the Taylor
    remainder after the k-th term is below twice the next term.  k is the
    first k >= 1 at which that bound is at most 2^-work_bits; the sum of
    t^n/n! up to it is ``_horner`` of the weights k!/n!, over k!.
    """
    q = _frac(q)
    if q < 0:
        return exp_fraction(-q, precision_bits).inv()
    t, halvings = q, 0
    while t > Fraction(1, 2):
        t, halvings = t / 2, halvings + 1
    work_bits = precision_bits + 2 * halvings + 32
    # the next term t^(k+1)/(k+1)! is num/den, with t = p/d
    p, d = t.numerator, t.denominator
    k, num, den = 1, p * p, 2 * d * d
    while num << (work_bits + 1) > den:
        k, num, den = k + 1, num * p, den * d * (k + 2)
    f = math.factorial(k)
    weights = accumulate(range(1, k + 1), floordiv, initial=f)  # k!/n!, n = 0..k
    partial = Fraction(*_horner(enumerate(weights), p, d)) / f
    enc = CReal(partial, partial + 2 * Fraction(num, den), precision_bits)
    return enc ** (1 << halvings) if halvings else enc  # enc ** 1 would round enc


def _atanh_enclosure(t: Fraction, bits: int) -> CReal:
    """Enclosure of atanh(t) for 0 <= t < 1: the odd-power series up to the
    first j >= 1 whose remainder bound t^(2j+1) / ((2j+1)(1 - t^2)) is at
    most 2^-bits, ``_horner`` with the weights e/(2i+1), i < j, streamed,
    over e, the lcm of the odd numbers below 2j."""
    p, q = t.numerator, t.denominator
    # the bound is num / ((2j+1) den)
    j, num, den = 1, p ** 3, q * (q * q - p * p)
    while num << bits > (2 * j + 1) * den:
        j, num, den = j + 1, num * p * p, den * q * q
    e = reduce(math.lcm, range(1, 2 * j, 2))
    partial = Fraction(*_horner(((n, e // n) for n in range(1, 2 * j, 2)), p, q)) / e
    return CReal(partial, partial + Fraction(num, (2 * j + 1) * den), bits)


@lru_cache(maxsize=None)
def ln2_enclosure(precision_bits: int = DEFAULT_PRECISION_BITS) -> CReal:
    # ln 2 = 2 atanh(1/3)
    return 2 * _atanh_enclosure(Fraction(1, 3), precision_bits + 8)


def log_fraction(x: Rat, precision_bits: int = DEFAULT_PRECISION_BITS) -> CReal:
    """Certified enclosure of ln(x) for rational x > 0."""
    x = _frac(x)
    if x <= 0:
        raise ValueError("log requires a positive argument")
    # x / 2^exponent lies in (1/2, 2), and in [1, 2) after one correction
    exponent = x.numerator.bit_length() - x.denominator.bit_length()
    m = x / Fraction(2) ** exponent
    if m < 1:
        m, exponent = 2 * m, exponent - 1
    if m == 1:
        result = CReal.exact(0, precision_bits)
    else:
        t = (m - 1) / (m + 1)  # in (0, 1/3) for m in (1, 2)
        result = 2 * _atanh_enclosure(t, precision_bits + 16)
    if exponent:
        result = result + exponent * ln2_enclosure(precision_bits + 16)
    return result


def log_interval(x: CReal, precision_bits: int = DEFAULT_PRECISION_BITS) -> CReal:
    """Enclosure of ln over an interval with positive lower endpoint."""
    if x.lo <= 0:
        raise ValueError("log requires a certifiably positive enclosure")
    return CReal(log_fraction(x.lo, precision_bits).lo,
                 log_fraction(x.hi, precision_bits).hi,
                 precision_bits)


# ---------------------------------------------------------------------------
# weighted geometric tails
# ---------------------------------------------------------------------------

_TAIL_WEIGHTS = ("1", "n", "n2")


def geometric_tail(ratio: Union[CReal, Rat], first_exponent: int, weight: str = "1") -> CReal:
    """Certified enclosure of sum_{n >= s} w(n) * ratio^n, w in {1, n, n^2}.

    Closed forms (s = first_exponent, r = ratio):
        1  : r^s / (1 - r)
        n  : r^s (s - (s-1) r) / (1 - r)^2
        n^2: r^s (s^2 - (2s^2 - 2s - 1) r + (s-1)^2 r^2) / (1 - r)^3
    """
    if weight not in _TAIL_WEIGHTS:
        raise ValueError(f"weight must be one of {_TAIL_WEIGHTS}")
    if first_exponent < 0:
        raise ValueError("first_exponent must be nonnegative")
    r = _coerce(ratio, DEFAULT_PRECISION_BITS)
    if r.lo < 0 or not r.certainly_lt(1):
        raise DivergentTail(f"ratio enclosure [{r.lo}, {r.hi}] is not certifiably in [0, 1)")
    s = first_exponent
    head = r ** s
    one_minus = 1 - r
    if weight == "1":
        return head / one_minus
    if weight == "n":
        return head * (s - (s - 1) * r) / (one_minus * one_minus)
    quad = s * s - (2 * s * s - 2 * s - 1) * r + (s - 1) * (s - 1) * (r * r)
    return head * quad / (one_minus ** 3)
