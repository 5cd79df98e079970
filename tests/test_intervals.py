"""Interval arithmetic unit tests.

Expected digit strings were produced with mpmath at 60 significant digits
and frozen here; the library itself never touches floats, so agreement is
a genuine cross-check.
"""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from markovforge import (BetaValue, CReal, certified_floor, exp_fraction,
                         geometric_tail, log_fraction, power_series)
from markovforge.errors import (DivergentTail, FloorUndecidable, NotGreaterThanOne,
                                PrecisionExhausted)
from markovforge.intervals import GUARD, decimal_bounds, real_text
from markovforge.series import _atanh_enclosure, ln2_enclosure, log_interval

mpmath.mp.dps = 60


def contains_mp(x, mp_value, tol=Fraction(1, 10 ** 45)):
    # mpmath carries ~60 digits; compare up to that resolution
    v = Fraction(mpmath.nstr(mp_value, 50, strip_zeros=False))
    return x.lo - tol <= v <= x.hi + tol and x.width < tol


fractions_st = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=10 ** 6)


def test_exact_point():
    x = CReal.exact(Fraction(3, 7))
    assert x.lo == x.hi == Fraction(3, 7)
    assert x.width == 0


def test_arithmetic_is_exact_on_rationals():
    a = CReal.exact(Fraction(1, 3))
    b = CReal.exact(Fraction(5, 7))
    assert (a + b).lo == Fraction(22, 21)
    assert (a * b).hi == Fraction(5, 21)
    assert (a - b).lo == Fraction(-8, 21)
    assert (b / a).lo == Fraction(15, 7)
    assert (1 / a).lo == (1 / a).hi == 3


def test_pow_negative_interval():
    x = CReal(Fraction(-2), Fraction(3))
    sq = x ** 2
    assert sq.lo == 0 and sq.hi == 9
    cube = x ** 3
    assert cube.lo == -8 and cube.hi == 27
    # a negative power inverts, which an enclosure of 0 cannot
    assert (CReal(Fraction(2), Fraction(4)) ** -2).hi == Fraction(1, 4)
    for zero_inside in (lambda: x.inv(), lambda: x ** -1, lambda: 1 / x):
        with pytest.raises(ZeroDivisionError, match="contains 0"):
            zero_inside()
    with pytest.raises(TypeError, match="integer powers"):
        x ** Fraction(1, 2)


def test_certified_comparisons():
    a = CReal(Fraction(1), Fraction(2))
    b = CReal(Fraction(3), Fraction(4))
    assert a.certainly_lt(3)
    assert b.certainly_gt(2)
    assert not a.certainly_gt(Fraction(3, 2))
    assert a.contains(Fraction(3, 2))
    assert not a.contains(Fraction(5, 2))


def test_round_outward_encloses():
    x = CReal(Fraction(1, 3), Fraction(2, 3))
    r = x.round_outward(16)
    assert r.lo <= x.lo and r.hi >= x.hi
    assert r.lo.denominator & (r.lo.denominator - 1) == 0  # dyadic


def test_exp_known_values():
    e1 = exp_fraction(1, 256)
    assert contains_mp(e1, mpmath.e)
    assert e1.width < Fraction(1, 10 ** 70)
    e07 = exp_fraction(Fraction(7, 10), 256)
    assert contains_mp(e07, mpmath.exp(mpmath.mpf(7) / 10))
    em = exp_fraction(Fraction(-3, 2), 256)
    assert contains_mp(em, mpmath.exp(mpmath.mpf(-3) / 2))


def test_log_known_values():
    l2 = ln2_enclosure(256)
    assert contains_mp(l2, mpmath.log(2))
    l3 = log_fraction(3, 256)
    assert contains_mp(l3, mpmath.log(3))
    lhalf = log_fraction(Fraction(1, 2), 256)
    assert contains_mp(lhalf, -mpmath.log(2))
    for nonpositive in (0, Fraction(-1, 2)):
        with pytest.raises(ValueError, match="positive"):
            log_fraction(nonpositive)


def test_log_interval_monotone():
    x = CReal(Fraction(2), Fraction(3))
    lg = log_interval(x, 128)
    ln2 = Fraction(mpmath.nstr(mpmath.log(2), 40))
    ln3 = Fraction(mpmath.nstr(mpmath.log(3), 40))
    eps = Fraction(1, 10 ** 30)
    assert lg.lo <= ln2 + eps and lg.hi >= ln3 - eps
    assert lg.hi - lg.lo < ln3 - ln2 + Fraction(1, 10 ** 20)
    with pytest.raises(ValueError, match="positive"):
        log_interval(CReal(Fraction(0), Fraction(1)))


def test_certified_floor_exact():
    assert certified_floor(CReal.exact(Fraction(7, 2))) == 3
    assert certified_floor(CReal.exact(-3)) == -3
    assert certified_floor(CReal(Fraction(2), Fraction(5, 2))) == 2


def test_certified_floor_undecidable():
    # an enclosure that straddles an integer
    wide = CReal(Fraction(9, 10), Fraction(11, 10))
    with pytest.raises(FloorUndecidable):
        certified_floor(wide)


def test_certified_floor_names_an_enclosure_past_the_float_range():
    # a straddling floor above 2^1024 raises FloorUndecidable, which restarts
    # a build, not the OverflowError of float(); in range the text is float's
    with pytest.raises(FloorUndecidable, match=r"^enclosure \[0\.9, 1\.1\] straddles an "
                                               r"integer at 256 bits$"):
        certified_floor(CReal(Fraction(9, 10), Fraction(11, 10)))
    for sign in (1, -1):
        huge = CReal(sign * 2 ** 1100 - Fraction(1, 2), sign * 2 ** 1100 + Fraction(1, 2), 512)
        with pytest.raises(FloorUndecidable) as e:
            certified_floor(huge)
        end = f"{'-' if sign < 0 else ''}1.3582985290493859e+331"
        assert str(e.value) == f"enclosure [{end}, {end}] straddles an integer at 512 bits"


@given(st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100),
                    max_denominator=1000),
       st.integers(min_value=0, max_value=20),
       st.sampled_from(["1", "n", "n2"]))
@settings(max_examples=60, deadline=None)
def test_geometric_tail_dominates_partial_sums(r, s, weight):
    tail = geometric_tail(r, s, weight)
    partial = Fraction(0)
    for n in range(s, s + 40):
        w = {"1": 1, "n": n, "n2": n * n}[weight]
        partial += w * r ** n
    assert tail.hi >= partial
    # and it cannot exceed the partial sum plus the remaining tail
    assert tail.lo <= partial + geometric_tail(r, s + 40, weight).hi
    with pytest.raises(ValueError, match="weight"):
        geometric_tail(r, s, "n3")
    with pytest.raises(ValueError, match="nonnegative"):
        geometric_tail(r, -1 - s, weight)
    for ratio in (-r, 1 + r, CReal(r, Fraction(1))):
        with pytest.raises(DivergentTail):
            geometric_tail(ratio, s, weight)


@given(fractions_st, fractions_st)
@settings(max_examples=80, deadline=None)
def test_interval_ops_contain_rational_truth(p, q):
    a = CReal.exact(p).round_outward(24)
    b = CReal.exact(q).round_outward(24)
    assert (a + b).contains(p + q)
    assert (a - b).contains(p - q)
    assert (a * b).contains(p * q)
    if not (b.lo <= 0 <= b.hi):
        assert (a / b).contains(p / q)


@st.composite
def creals(draw):
    bits = draw(st.integers(min_value=1, max_value=80))
    a = draw(fractions_st)
    if draw(st.booleans()):
        return CReal.exact(a, bits)
    b = draw(fractions_st)
    return CReal(min(a, b), max(a, b), bits)


def assert_ball(got, lo, hi, bits, exact, roundings=1):
    """got encloses [lo, hi] with the larger tag; exact operands give exactly
    [lo, hi], any other endpoint moves out by at most (1 + 2^-(bits+GUARD))^k
    - 1 of its magnitude after k roundings (2^-(bits+GUARD) for one op)."""
    assert got.precision_bits == bits
    if exact:
        assert (got.lo, got.hi) == (lo, hi)
        return
    tol = (1 + Fraction(1, 1 << (bits + GUARD))) ** roundings - 1
    assert lo - tol * abs(lo) <= got.lo <= lo
    assert hi <= got.hi <= hi + tol * abs(hi)


@given(creals(), creals(), st.integers(min_value=0, max_value=9))
@settings(max_examples=150, deadline=None)
def test_ball_ops_enclose_the_exact_result(x, y, n):
    bits = max(x.precision_bits, y.precision_bits)
    exact = x.is_exact and y.is_exact
    assert_ball(x + y, x.lo + y.lo, x.hi + y.hi, bits, exact)
    assert_ball(x - y, x.lo - y.hi, x.hi - y.lo, bits, exact)
    products = [p * q for p in (x.lo, x.hi) for q in (y.lo, y.hi)]
    assert_ball(x * y, min(products), max(products), bits, exact)
    if not y.lo <= 0 <= y.hi:
        assert_ball(y.inv(), 1 / y.hi, 1 / y.lo, y.precision_bits, y.is_exact)
    powers = (x.lo ** n, x.hi ** n)
    if x.lo >= 0 or n % 2 or n == 0:
        lo, hi = powers
    elif x.hi <= 0:
        lo, hi = powers[::-1]
    else:
        lo, hi = Fraction(0), max(powers)
    # square-and-multiply rounds n times on a nonnegative base
    assert_ball(x ** n, lo, hi, x.precision_bits, x.is_exact or n == 0,
                n if x.lo >= 0 else 1)


def reference_pow(x, n):
    # square-and-multiply by CReal products, as __pow__ took an inexact base
    # >= 0 before it ran on dyadic pairs
    result, base = CReal.exact(1, x.precision_bits), x
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


@given(creals(), st.integers(min_value=1, max_value=3000), st.booleans())
@settings(max_examples=100, deadline=None)
def test_pow_gives_the_creal_loops_endpoints(x, n, on_grid):
    # an inexact base >= 0, off the dyadic grid or, as every base a build
    # raises to a power, on it
    x = CReal(abs(x.lo) if x.lo > 0 else Fraction(0), abs(x.lo) + x.width + Fraction(1, 7),
              x.precision_bits)
    if on_grid:
        x = x.round_outward(x.precision_bits + 8)
    assert x ** n == reference_pow(x, n)


@given(fractions_st, st.integers(min_value=0, max_value=6))
@settings(max_examples=60, deadline=None)
def test_pow_contains_truth(p, n):
    x = CReal.exact(p).round_outward(24)
    assert (x ** n).contains(p ** n)


def test_beta_value_forms():
    assert BetaValue.parse("2").is_integer
    assert BetaValue.parse("5/2").value == Fraction(5, 2)
    assert BetaValue.parse("2.5").value == Fraction(5, 2)
    b = BetaValue.parse("e^7/10")
    x = b.eval(256)
    assert contains_mp(x, mpmath.exp(mpmath.mpf(7) / 10))


@pytest.mark.parametrize("text, exact", [
    ("2", True), ("3", True), ("5/2", True), ("3/2", True),
    ("7/3", False), ("1.05", False), ("1000/999", False)])
def test_rational_beta_is_exact_iff_on_the_grid(text, exact):
    # eval rounds a rational outward to P + GUARD significant bits
    beta, P = BetaValue.parse(text), 256
    x = beta.eval(P)
    assert x.is_exact is exact
    assert x.precision_bits == P
    tol = beta.value / 2 ** (P + GUARD)
    assert 0 <= beta.value - x.lo < tol
    assert 0 <= x.hi - beta.value < tol


def test_beta_must_exceed_one():
    with pytest.raises(NotGreaterThanOne):
        BetaValue.parse("1").eval(64)
    with pytest.raises(NotGreaterThanOne):
        BetaValue.parse("1/2").eval(64)
    with pytest.raises(NotGreaterThanOne):
        BetaValue.parse("e^0").eval(64)
    # beta = 1 + 2^-400 exceeds 1, but not certifiably at 256 bits
    near_one = BetaValue.from_rational(1 + Fraction(1, 2 ** 400))
    with pytest.raises(PrecisionExhausted):
        near_one.eval(256)
    assert near_one.eval(512).lo > 1


def test_decimal_bounds_outward_and_idempotent():
    x = exp_fraction(Fraction(7, 10), 256)
    lo, hi = decimal_bounds(x)
    back = CReal(Fraction(lo), Fraction(hi))
    assert back.lo <= x.lo and back.hi >= x.hi
    assert decimal_bounds(back) == (lo, hi)


def test_decimal_bounds_past_the_digit_limit_use_an_exponent():
    # str() refuses an int of more than 4,300 digits, which an endpoint
    # scaled by 10^40 reaches from 10^4260 on
    limit = Fraction(10 ** 4300, 10 ** 40)
    lo, hi = decimal_bounds(CReal.exact(limit - Fraction(1, 10 ** 40)))
    assert "e" not in lo + hi and Fraction(lo) == Fraction(hi) == limit - Fraction(1, 10 ** 40)
    assert decimal_bounds(CReal.exact(limit)) == ("1." + "0" * 40 + "e+4260",) * 2
    for v in (Fraction(10 ** 5000, 3), Fraction(-2 ** 20000, 7), Fraction(16 ** 5000 - 1, 2)):
        lo, hi = decimal_bounds(CReal.exact(v))
        assert Fraction(lo) <= v <= Fraction(hi)
        assert Fraction(hi) - Fraction(lo) <= abs(v) / 10 ** 39
        for text in (lo, hi):
            mantissa, exponent = text.split("e+")
            assert 1 <= abs(Fraction(mantissa)) < 10 and int(exponent) > 4000


def test_real_text_below_the_float_range_keeps_its_exponent():
    # verify prints a unit-sum width of 2^-17,000 this way, where float() gives 0
    tiny = Fraction(1, 1 << 17000)
    assert real_text(tiny, ".3e") == "3.091e-5118"
    assert real_text(tiny, ".6g") == "3.09082e-5118"
    assert real_text(-3 * tiny, ".3e") == "-9.272e-5118"
    # a subnormal keeps its digits, a normal float and 0 print as before
    assert real_text(Fraction(-3, 1 << 1030), "") == "-2.6075084279381264e-310"
    assert real_text(Fraction(1, 1 << 1022), ".3e") == "2.225e-308"
    assert real_text(Fraction(0), ".3e") == "0.000e+00"


@pytest.mark.parametrize("e", [-5989, -921, -443, -400, 309, 512])
def test_real_text_prints_the_exponent_of_a_power_of_ten(e):
    # float logs put 10^-443, 10^512 and the others but -400 and 309 one
    # exponent low, which printed 10^-443 as "10.000e-444"
    ten = Fraction(10) ** e
    assert real_text(ten, ".3e") == f"1.000e{e:+d}"
    assert real_text(-ten, ".6g") == f"-1e{e:+d}"
    assert real_text(ten * Fraction(999, 1000), ".3e") == f"9.990e{e - 1:+d}"


def test_a_mantissa_that_rounds_to_ten_carries_into_the_exponent():
    # each of these just below a power of ten printed its mantissa as 10
    assert real_text(Fraction(1, 10 ** 443) * (1 - Fraction(1, 1 << 60)), ".3e") == "1.000e-443"
    assert real_text(Fraction(10 ** 600) * (1 - Fraction(1, 1 << 80)), ".6g") == "1e+600"
    assert real_text(-Fraction(10 ** 600) * (1 - Fraction(1, 1 << 80)), ".6g") == "-1e+600"
    lo, hi = decimal_bounds(CReal.exact(Fraction(10 ** 5000) * (1 - Fraction(1, 1 << 300))))
    assert hi == "1." + "0" * 40 + "e+5000"
    assert lo == "9." + "9" * 40 + "e+4999"  # rounded down, it does not carry


@given(fractions_st)
@settings(max_examples=60, deadline=None)
def test_decimal_round_trip_encloses(p):
    x = CReal.exact(p)
    lo, hi = decimal_bounds(x)
    assert CReal(Fraction(lo), Fraction(hi)).contains(p)


# sparse (n, c >= 0) lists, ascending n, as the construction and the
# classifier produce them
terms_st = st.dictionaries(st.integers(min_value=0, max_value=60),
                           st.integers(min_value=0, max_value=10 ** 30),
                           max_size=12).map(lambda d: sorted(d.items()))
nonneg_st = st.fractions(min_value=Fraction(0), max_value=Fraction(3),
                         max_denominator=10 ** 9)


@given(terms_st, nonneg_st)
@settings(max_examples=80, deadline=None)
def test_power_series_matches_naive_sum_at_rational(terms, x):
    got = power_series(terms, x)
    assert isinstance(got, Fraction)
    assert got == sum((c * x ** n for n, c in terms), Fraction(0))


@given(terms_st, nonneg_st, nonneg_st, st.integers(min_value=1, max_value=96))
# x = 304/195 rounded up onto W bits is off by nearly 2^-W x: the slack
# must allow for the rounding of x itself, not only for the grid of the sum
@example([(1, 16)], Fraction(0), Fraction(304, 195), 1)
@settings(max_examples=80, deadline=None)
def test_power_series_matches_naive_sum_at_endpoints(terms, a, b, bits):
    x = CReal(min(a, b), max(a, b), bits)
    got = power_series(terms, x)
    assert got.precision_bits == bits
    exact_lo = sum((c * x.lo ** n for n, c in terms), Fraction(0))
    exact_hi = sum((c * x.hi ** n for n, c in terms), Fraction(0))
    assert got.lo <= exact_lo and exact_hi <= got.hi
    if x.is_exact:
        assert got.lo == exact_lo == got.hi
        return
    # power_series's bound: each x^n is off by less than 3n 2^-W x^n, and
    # each term adds less than a step of the grid 2^-(bits + GUARD + t)
    count = sum(1 for _, c in terms if c)
    t = count.bit_length()
    W = bits + GUARD + 2 * t

    def slack(end):
        powers = sum((3 * n * c * end ** n for n, c in terms), Fraction(0))
        return powers / (1 << W) + Fraction(count, 1 << (bits + GUARD + t))

    assert exact_lo - got.lo <= slack(x.lo) and got.hi - exact_hi <= slack(x.hi)


def test_power_series_edge_cases():
    assert power_series([], Fraction(1, 3)) == 0
    empty = power_series([], CReal(Fraction(1, 3), Fraction(1, 2)))
    assert empty.lo == empty.hi == 0
    assert power_series([(0, 5), (2, 0), (3, 1)], 0) == 5
    with pytest.raises(ValueError):
        power_series([(1, 1)], CReal(Fraction(-1, 10), Fraction(1, 10)))
    with pytest.raises(ValueError):
        power_series([(2, 1), (1, 1)], Fraction(1, 2))
    with pytest.raises(ValueError):
        power_series([(1, -1)], Fraction(1, 2))


# The reference: the Fraction loops that exp_fraction and _atanh_enclosure
# summed, and log_fraction's halving and doubling of x, before each went
# through power_series and the bit lengths.
def reference_exp(q, bits):
    if q < 0:
        return reference_exp(-q, bits).inv()
    t, halvings = q, 0
    while t > Fraction(1, 2):
        t /= 2
        halvings += 1
    target = Fraction(1, 1 << (bits + 2 * halvings + 32))
    partial = term = Fraction(1)
    k = 0
    while True:
        k += 1
        term *= t / k
        partial += term
        nxt = term * t / (k + 1)
        if 2 * nxt <= target:
            break
    enc = CReal(partial, partial + 2 * nxt, bits)
    for _ in range(halvings):
        enc = enc * enc
    return enc


def reference_atanh(t, bits):
    target, t2 = Fraction(1, 1 << bits), t * t
    partial, power, j = Fraction(0), t, 0
    while True:
        partial += power / (2 * j + 1)
        power *= t2
        j += 1
        bound = power / ((2 * j + 1) * (1 - t2))
        if bound <= target:
            return CReal(partial, partial + bound, bits)


def reference_log(x, bits):
    exponent, m = 0, x
    while m >= 2:
        m /= 2
        exponent += 1
    while m < 1:
        m *= 2
        exponent -= 1
    result = (CReal.exact(0, bits) if m == 1
              else 2 * reference_atanh((m - 1) / (m + 1), bits + 16))
    if exponent:  # ln 2 = 2 atanh(1/3), at bits + 16 + 8
        result = result + exponent * (2 * reference_atanh(Fraction(1, 3), bits + 24))
    return result


@given(fractions_st, st.sampled_from([64, 256, 1024]))
@settings(max_examples=60, deadline=None)
def test_series_give_the_endpoints_of_the_fraction_loops(q, bits):
    assert exp_fraction(q, bits) == reference_exp(q, bits)
    if q:
        assert log_fraction(abs(q), bits) == reference_log(abs(q), bits)
        assert log_fraction(1 / abs(q), bits) == reference_log(1 / abs(q), bits)
    t = abs(q) / 150  # in [0, 1/3], where log and ln 2 call atanh
    assert _atanh_enclosure(t, bits) == reference_atanh(t, bits)


@pytest.mark.parametrize("bits", [64, 256, 1024])
def test_series_give_the_fraction_loops_endpoints_at_the_edges(bits):
    for q in (0, Fraction(1, 2), Fraction(-1, 2), 3, Fraction(1, 5), 50, -50):
        assert exp_fraction(q, bits) == reference_exp(Fraction(q), bits)
    for x in (1, 2, Fraction(1, 2), Fraction(3, 2), Fraction(1000, 999), 2 ** 100 + 1):
        assert log_fraction(x, bits) == reference_log(Fraction(x), bits)
    for t in (0, Fraction(1, 3), Fraction(1, 10 ** 20)):
        assert _atanh_enclosure(Fraction(t), bits) == reference_atanh(Fraction(t), bits)
