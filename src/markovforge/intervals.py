"""Certified interval arithmetic with rational endpoints (ball arithmetic).

Every quantity is an enclosure ``[lo, hi]`` with ``fractions.Fraction``
endpoints, and ordering decisions are decidable whenever the interval is
tight enough.  Exact operands (``lo == hi``) give the exact rational
result.  Any other result is rounded outward onto a dyadic grid of
``precision_bits + GUARD`` significant bits, relative to its own exponent
(midpoint-radius "ball" arithmetic, as in Johansson's Arb): each rounding
moves an endpoint by less than ``2^-(precision_bits + GUARD)`` of its
magnitude, so the cost of an operation follows the precision, not the
history of the operands.  The result carries the larger of the operands'
``precision_bits``, and a rational growth base is put on the same grid:
exact on it (integers, 5/2), a ball like e^q off it.  Running products (the
construction's square floors and greedy digits) and powers (:func:`_pow`, for
integer powers here and in every series sum) carry each dyadic endpoint as an
integer pair (m, e) = m 2^e multiplied by :func:`_mul`, which rounds by a shift.

The series evaluator and the enclosures of e^q and ln are in ``series``.

No binary float enters this module's arithmetic: only :func:`_ln_big`,
the log of a count for the uncertified estimates, returns one, and
:func:`real_text` formats an endpoint through one for display.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Callable, Optional, Union

from . import series
from ._frozen import Frozen
from .errors import FloorUndecidable, NotGreaterThanOne, PrecisionExhausted

Rat = Union[int, Fraction]

DEFAULT_PRECISION_BITS = 256
MAX_PRECISION_BITS = 4096
# significant bits kept beyond an enclosure's precision_bits when rounding
GUARD = 64


def _frac(v: Rat) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected int or Fraction, got {type(v).__name__}")


def _round(v: Fraction, bits: int, up: bool) -> Fraction:
    """v rounded down (or up) to ``bits`` significant bits: it moves by less
    than 2^-bits |v|, and not at all if it is already on that grid."""
    n, d = v.numerator, v.denominator
    # with e = bits(n) - bits(d), |v| > 2^(e-1): the step 2^-s = 2^(e-1-bits) fits
    s = bits + 1 - (abs(n).bit_length() - d.bit_length())
    if not d & (d - 1) and d.bit_length() <= s + 1:
        return v
    num, den = (n << s, d) if s >= 0 else (n, d << -s)
    m = -(-num // den) if up else num // den
    return Fraction(m, 1 << s) if s >= 0 else Fraction(m << -s)


def _dyadic(v: Fraction) -> tuple[int, int]:
    # the pair (m, e) of a dyadic v = m 2^e, on which the running products
    # reproduce CReal._ball: exact operands give the exact product (_mul
    # with bits None), any other is rounded outward as _round rounds it
    d = v.denominator
    if d & (d - 1):
        raise ValueError(f"{v} is not dyadic")
    return v.numerator, 1 - d.bit_length()


def _fraction(m: int, e: int) -> Fraction:
    return Fraction(m, 1 << -e) if e < 0 else Fraction(m << e)


def _mul(a: tuple, b: tuple, bits: Optional[int], up: bool) -> tuple[int, int]:
    # the product of endpoints a, b >= 0, exact if bits is None, else rounded
    # down (or up) onto the grid 2^(floor(log2 ab) - 1 - bits): m keeps at
    # most bits + 2 bits
    m, e = a[0] * b[0], a[1] + b[1]
    sh = m.bit_length() - bits - 2 if bits else 0
    if sh <= 0:
        return m, e
    return (-(-m >> sh) if up else m >> sh), e + sh


def _pow(acc: tuple, base: tuple, n: int, bits: Optional[int], up: bool) -> tuple[int, int]:
    # acc base^n for dyadic pairs >= 0 by square-and-multiply, each product
    # by _mul at bits: the one such loop, under CReal powers and series sums
    while n:
        if n & 1:
            acc = _mul(acc, base, bits, up)
        n >>= 1
        if n:
            base = _mul(base, base, bits, up)
    return acc


class CReal(Frozen):
    """A real number known only through a certified enclosure ``[lo, hi]``.

    ``precision_bits`` records the precision the value was produced at and
    sets how finely inexact results computed from it are rounded; the
    endpoints alone carry the certificate.
    """

    _fields = ("lo", "hi", "precision_bits")

    def __init__(self, lo: Rat, hi: Rat, precision_bits: int = DEFAULT_PRECISION_BITS) -> None:
        lo, hi = _frac(lo), _frac(hi)
        if lo > hi:
            raise ValueError(f"inverted enclosure [{lo}, {hi}]")
        if precision_bits <= 0:
            raise ValueError("precision_bits must be positive")
        self._init(lo, hi, precision_bits)

    @staticmethod
    def exact(v: Rat, precision_bits: int = DEFAULT_PRECISION_BITS) -> "CReal":
        f = _frac(v)
        return CReal(f, f, precision_bits)

    # -- queries ---------------------------------------------------------

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def contains(self, v: Rat) -> bool:
        f = _frac(v)
        return self.lo <= f <= self.hi

    def certainly_lt(self, other: Union["CReal", Rat]) -> bool:
        o = _coerce(other, self.precision_bits)
        return self.hi < o.lo

    def certainly_gt(self, other: Union["CReal", Rat]) -> bool:
        o = _coerce(other, self.precision_bits)
        return self.lo > o.hi

    # -- arithmetic ------------------------------------------------------

    def _ball(self, other: "CReal", lo: Fraction, hi: Fraction) -> "CReal":
        # [lo, hi] from self and other: exact if both were, else rounded out
        bits = max(self.precision_bits, other.precision_bits)
        if self.is_exact and other.is_exact:
            return CReal(lo, hi, bits)
        return CReal(_round(lo, bits + GUARD, False), _round(hi, bits + GUARD, True), bits)

    def __add__(self, other: Union["CReal", Rat]) -> "CReal":
        o = _coerce(other, self.precision_bits)
        return self._ball(o, self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self) -> "CReal":
        return CReal(-self.hi, -self.lo, self.precision_bits)

    def __sub__(self, other: Union["CReal", Rat]) -> "CReal":
        return self + (-_coerce(other, self.precision_bits))

    def __rsub__(self, other: Rat) -> "CReal":
        return _coerce(other, self.precision_bits) + (-self)

    def __mul__(self, other: Union["CReal", Rat]) -> "CReal":
        o = _coerce(other, self.precision_bits)
        if self.lo >= 0 and o.lo >= 0:
            return self._ball(o, self.lo * o.lo, self.hi * o.hi)
        products = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return self._ball(o, min(products), max(products))

    __rmul__ = __mul__

    def inv(self) -> "CReal":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("enclosure contains 0")
        return self._ball(self, 1 / self.hi, 1 / self.lo)

    def __truediv__(self, other: Union["CReal", Rat]) -> "CReal":
        return self * _coerce(other, self.precision_bits).inv()

    def __rtruediv__(self, other: Rat) -> "CReal":
        return _coerce(other, self.precision_bits) * self.inv()

    def __pow__(self, n: int) -> "CReal":
        if not isinstance(n, int):
            raise TypeError("only integer powers are supported")
        if n < 0:
            return (self ** (-n)).inv()
        if n == 0:
            return CReal.exact(1, self.precision_bits)
        if self.lo >= 0 and not self.is_exact:
            # square-and-multiply, each product rounded outward as __mul__
            # rounds it; the first step's CReal products put the factors on
            # the dyadic grid, and _pow runs the rest on pairs
            result = self * 1 if n & 1 else CReal.exact(1, self.precision_bits)
            n >>= 1
            if not n:
                return result
            base, work = self * self, self.precision_bits + GUARD
            lo, hi = (_fraction(*_pow(_dyadic(r), _dyadic(b), n, work, up))
                      for r, b, up in ((result.lo, base.lo, False), (result.hi, base.hi, True)))
            return CReal(lo, hi, self.precision_bits)
        # exact or partly negative bases: exact endpoint powers
        lo_n, hi_n = self.lo ** n, self.hi ** n
        if self.lo >= 0:
            lo, hi = lo_n, hi_n
        elif self.hi <= 0:
            lo, hi = (lo_n, hi_n) if n % 2 else (hi_n, lo_n)
        elif n % 2:
            lo, hi = lo_n, hi_n
        else:
            lo, hi = Fraction(0), max(lo_n, hi_n)
        return self._ball(self, lo, hi)

    def rounded(self, bits: int) -> "CReal":
        """At precision ``bits``, endpoints rounded outward to ``bits + GUARD``
        significant bits: unchanged if already on that grid."""
        b = bits + GUARD
        return CReal(_round(self.lo, b, False), _round(self.hi, b, True), bits)

    def round_outward(self, bits: int) -> "CReal":
        """Push endpoints to the dyadic grid of step 2^-bits (soundly outward)."""
        scale = 1 << bits
        lo = Fraction(math.floor(self.lo * scale), scale)
        hi = Fraction(math.ceil(self.hi * scale), scale)
        return CReal(lo, hi, self.precision_bits)


def _coerce(v: Union[CReal, Rat], precision_bits: int) -> CReal:
    if isinstance(v, CReal):
        return v
    return CReal.exact(v, precision_bits)


def __getattr__(name: str):  # names moved to series resolve here too
    if name in ("exp_fraction", "log_fraction", "log_interval", "geometric_tail"):
        return getattr(series, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# certified floor
# ---------------------------------------------------------------------------

def certified_floor(x: CReal) -> int:
    """Floor of the real enclosed by ``x``, or FloorUndecidable.

    The result m certifies m <= x < m+1.  An exact endpoint pair (width
    zero) is always decidable; an enclosure that straddles an integer is
    not, and raising precision is left to the caller.
    """
    fl = math.floor(x.lo)
    # an hi endpoint sitting exactly on an integer stays undecided (the true
    # value may equal it or lie below), which floor(hi) > floor(lo) captures
    if fl == math.floor(x.hi) or x.is_exact:
        return fl
    raise FloorUndecidable(
        f"enclosure [{real_text(x.lo, '')}, {real_text(x.hi, '')}] straddles an "
        f"integer at {x.precision_bits} bits")


def real_text(x: Fraction, spec: str) -> str:
    """``format(float(x), spec)``, or where the float would lose bits (0 < |x| <
    2^-1022) or overflow, the Fraction x / 10^e, e = floor(log10 |x|), formatted
    by ``spec`` read as fixed point, then "e<exponent>" (``_scientific``)."""
    if not x or Fraction(1, 1 << 1022) <= abs(x) <= sys.float_info.max:
        return format(float(x), spec)
    return _scientific(x, lambda m: f"{float(m):{spec.replace('e', 'f')}}")


# ---------------------------------------------------------------------------
# growth base descriptors
# ---------------------------------------------------------------------------

_BETA_KINDS = ("rational", "exp_rational", "decimal")


def literal_fraction(text: str) -> Fraction:
    """``Fraction(text)``, refusing (OverflowError) a decimal exponent beyond
    +-``spectrum.MAX_SERIES_BITS``, whose power of ten ("1e999999999")
    Fraction would build first; every base or entropy so written is refused
    later in any case."""
    from .spectrum import MAX_SERIES_BITS  # spectrum imports this module
    _, e, exponent = text.lower().rpartition("e")
    if e and abs(int(exponent)) > MAX_SERIES_BITS:
        raise OverflowError(f"exponent of {text!r} is beyond +-{MAX_SERIES_BITS}")
    return Fraction(text)


class BetaValue(Frozen):
    """A growth base beta > 1 given exactly.

    ``kind`` is one of "rational" / "decimal" (value is beta itself, a
    decimal literal being read as an exact rational) or "exp_rational"
    (value is the exponent q, beta = e^q).
    """

    _fields = ("kind", "value", "text")

    def __init__(self, kind: str, value: Rat, text: str) -> None:
        if kind not in _BETA_KINDS:
            raise ValueError(f"unknown beta kind {kind!r}")
        self._init(kind, _frac(value), text)

    @staticmethod
    def parse(text: str) -> "BetaValue":
        t = text.strip()
        if t.startswith("e^"):
            return BetaValue("exp_rational", literal_fraction(t[2:]), t)
        kind = "decimal" if "." in t else "rational"
        return BetaValue(kind, literal_fraction(t), t)

    @staticmethod
    def from_rational(v: Rat) -> "BetaValue":
        f = _frac(v)
        return BetaValue("rational", f, str(f))

    @staticmethod
    def exp_of_rational(q: Rat) -> "BetaValue":
        f = _frac(q)
        return BetaValue("exp_rational", f, f"e^{f}")

    @property
    def is_integer(self) -> bool:
        return self.kind != "exp_rational" and self.value.denominator == 1

    def require_above_one(self) -> None:
        """NotGreaterThanOne unless beta > 1, decided exactly: q > 0 for e^q."""
        if self.value <= (0 if self.kind == "exp_rational" else 1):
            raise NotGreaterThanOne(f"beta = {self.text} is not > 1")

    def eval(self, precision_bits: int = DEFAULT_PRECISION_BITS) -> CReal:
        """Enclosure of beta, certified > 1: e^q by ``series.exp_fraction``, a
        rational rounded outward to ``precision_bits + GUARD`` bits (exact
        iff on that grid).  PrecisionExhausted if the enclosure does not
        separate from 1, which only a beta within 2^-precision_bits of 1
        can cause."""
        self.require_above_one()
        enc = (series.exp_fraction(self.value, precision_bits) if self.kind == "exp_rational"
               else CReal.exact(self.value).rounded(precision_bits))
        if enc.lo <= 1:
            raise PrecisionExhausted(
                f"enclosure of {self.text} does not separate from 1 at {precision_bits} bits")
        return enc


# ---------------------------------------------------------------------------
# decimal display of enclosures
# ---------------------------------------------------------------------------

DECIMAL_DIGITS = 40
_DECIMAL_LIMIT = 10 ** 4300  # the least integer int -> str refuses


def _format_scaled(n: int, digits: int) -> str:
    sign = "-" if n < 0 else ""
    s = str(abs(n)).rjust(digits + 1, "0")
    return f"{sign}{s[:-digits]}.{s[-digits:]}"


def _decimal_text(v: Fraction, digits: int, up: bool) -> str:
    """v rounded down (or up) to ``digits`` decimals or, where v 10^digits
    passes 10^4300 - 1 and str() would refuse it, a mantissa in [1, 10)
    rounded so, times 10^e (``_scientific``)."""
    rounded, scaled = math.ceil if up else math.floor, v * 10 ** digits
    if abs(scaled) > _DECIMAL_LIMIT - 1:
        return _scientific(v, lambda m: _format_scaled(rounded(m * 10 ** digits), digits))
    return _format_scaled(rounded(scaled), digits)


def _scientific(x: Fraction, mantissa: Callable[[Fraction], str]) -> str:
    """``mantissa(x / 10^e)`` then "e<exponent>", e = floor(log10 |x|), or
    e + 1 where that mantissa rounds to 10: the next one then rounds to 1."""
    a = abs(x)
    # e with 10^e <= a < 10^(e+1): from the bit lengths, then corrected exactly
    e = int((a.numerator.bit_length() - a.denominator.bit_length()) * math.log10(2))
    while Fraction(10) ** e > a:
        e -= 1
    while Fraction(10) ** (e + 1) <= a:
        e += 1
    while abs(Fraction(text := mantissa(x / Fraction(10) ** e))) >= 10:
        e += 1
    return f"{text}e{e:+d}"


def decimal_bounds(x: CReal, digits: int = DECIMAL_DIGITS) -> tuple[str, str]:
    """Outward-rounded decimal strings for the endpoints (sound, idempotent)."""
    return _decimal_text(x.lo, digits, False), _decimal_text(x.hi, digits, True)


def _ln_big(v: int) -> float:
    """Natural log of a positive big integer without float overflow."""
    if v <= 0:
        raise ValueError("positive integer required")
    shift = max(0, v.bit_length() - 53)
    return math.log(v >> shift) + shift * math.log(2)
