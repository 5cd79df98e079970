"""Loop-spectrum construction tests.

The integer-base cases run entirely in rational arithmetic, so every
expected value below is an exact integer computed by hand:
base 2 gives c = 1 and a(m^2) = 2^(m^2 - m); base 3 gives c = 4 and
a(m^2) = 4 * 3^(m^2 - m); base 8 gives c = 49.
"""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from markovforge import (BetaValue, CReal, build_spectrum, delete_loop,
                         geometric_tail, power_series, spectrum_checks, spectrum_io,
                         unit_sum_enclosure, unit_sum_target, user_spectrum,
                         weighted_sum_enclosure)
from markovforge.errors import (FloorUndecidable, NoDeletableLoop, NotGreaterThanOne,
                                PrecisionExhausted, TailUnavailable)
from markovforge.construction import (_build_plan, _clamp_unit, _floor, _floor_sweep,
                                      _greedy_digits, _square_floors)
from markovforge.intervals import certified_floor
from markovforge.spectrum import MAX_SQUARE_FLOORS

from conftest import built


def test_base2_exact_counts(spec2):
    s = spec2
    assert s.meta.c.lo == s.meta.c.hi == 1
    assert s.meta.delta.lo == s.meta.delta.hi == 0
    assert s.meta.k == 0
    assert s.meta.L.lo == Fraction(1, 2) and s.meta.L.hi == Fraction(1, 2)
    for m in range(1, 9):
        assert s.count(m * m) == 2 ** (m * m - m)
    for n in range(2, 17):
        if n not in (4, 9, 16):
            assert s.count(n) == 0


def test_base3_exact_counts(spec3):
    assert spec3.count(1) == 1
    assert spec3.count(4) == 36
    assert spec3.count(9) == 2916
    assert spec3.count(16) == 4 * 3 ** 12
    assert spec3.meta.delta.lo == 0 and spec3.meta.delta.hi == 0


def test_base8_exact_counts(spec8):
    assert spec8.count(4) == 49 * 8 ** 2
    assert spec8.count(9) == 49 * 8 ** 6
    assert spec8.count(16) == 49 * 8 ** 12


def test_unit_sum_encloses_one(all_spectra):
    for text, s in all_spectra.items():
        total = unit_sum_enclosure(s)
        assert total.contains(1), text
        assert total.width < Fraction(1, 10 ** 30), text


def test_construction_checks_pass(all_spectra):
    for text, s in all_spectra.items():
        failed = [c for c in spectrum_checks(s) if not c.passed]
        assert not failed, (text, failed)


def test_digit_trace_shape(spec_e07):
    # a(n) - b(n) are the digits d'(n) = (0, d(2) + k, d(3), ...): nonnegative,
    # 0 at n = 1, and they expand the deficit up to the truncation at N_max
    meta = spec_e07.meta
    d_prime = [an - meta.square_floors.get(n, 0) for n, an in enumerate(spec_e07.a, 1)]
    assert d_prime[0] == 0
    assert all(v >= 0 for v in d_prime)
    expansion = power_series(enumerate(d_prime, 1), meta.L)
    assert expansion.hi <= meta.delta.hi
    assert meta.delta.lo <= expansion.lo + meta.L.hi ** spec_e07.N_max


def test_e07_leading_counts(spec_e07):
    # floor(c * beta^(m^2-m)) for beta = e^0.7 plus greedy digit corrections
    assert spec_e07.count(1) == 1
    assert spec_e07.count(4) == 4
    assert spec_e07.count(9) == 68
    assert spec_e07.meta.k == 0


def test_delete_loop_default_is_smallest(all_spectra):
    for text, s in all_spectra.items():
        d = delete_loop(s)
        assert d.meta.deleted_loop == 4, text
        assert d.count(4) == s.count(4) - 1
        assert d.count(9) == s.count(9)


def test_delete_loop_explicit_length(spec2):
    d = delete_loop(spec2, 9)
    assert d.meta.deleted_loop == 9
    assert d.count(9) == spec2.count(9) - 1


def test_delete_loop_refuses_twice(spec2):
    d = delete_loop(spec2)
    with pytest.raises(NoDeletableLoop):
        delete_loop(d)


def test_delete_loop_needs_a_loop(spec2):
    with pytest.raises(NoDeletableLoop):
        delete_loop(user_spectrum([1]))
    with pytest.raises(NoDeletableLoop, match="length >= 2"):
        delete_loop(spec2, 1)


def test_unit_sum_target_after_deletion(spec2):
    d = delete_loop(spec2)
    target = unit_sum_target(d)
    assert target.lo == target.hi == 1 - Fraction(1, 16)
    assert unit_sum_enclosure(d).contains(Fraction(15, 16))


def test_weighted_sum_base2(spec2):
    # sum of n a(n) 2^-n = 1/2 + sum_{m >= 2} m^2 2^-m = 6 exactly; past
    # N_max = 64 the floors are summed, and the digits, by parts, add
    # 65 T(64) + [0, 2^-64], T(64) read from the derived tail
    mu = weighted_sum_enclosure(spec2)
    assert mu.contains(6)
    assert mu.width < Fraction(1, 2 ** 63)


# every base and N_max of the benchmark workloads (ln2 lifted by 3 is 8@64)
WORKLOAD_BASES = [("e^1/5", 64), ("e^7/10", 64), ("e^7/10", 128), ("e^3", 64),
                  ("1.05", 64), ("1.05", 128), ("5/2", 64), ("5/2", 128), ("3", 64),
                  ("3", 128), ("8", 64), ("8", 128), ("2", 64), ("2", 128),
                  ("3/2", 64), ("e^5/2", 64)]


def _comparison_series_mean(s):
    # the enclosure before the floor series was summed: the stored head, and
    # past N_max the comparison series M sum n L^n + c sum_{m^2 > N_max} m^2 L^m
    meta, L = s.meta, s.meta.L
    head = power_series(((n, n * an) for n, an in enumerate(s.a, 1)), L)
    tail = (meta.M_bound * geometric_tail(L, s.N_max + 1, "n")
            + meta.c * geometric_tail(L, math.isqrt(s.N_max) + 1, "n2"))
    return head.lo, (head + tail).hi


@pytest.mark.parametrize("text, n_max", WORKLOAD_BASES)
def test_weighted_sum_lies_inside_the_comparison_series(text, n_max):
    s = built(text, n_max)
    # 1.05 at N_max 64 has no loop of length 2..64 to delete
    for spectrum in [s, delete_loop(s)] if len(s.support()) > 1 else [s]:
        mu = weighted_sum_enclosure(spectrum)
        lo, hi = _comparison_series_mean(spectrum)
        assert lo <= mu.lo <= mu.hi <= hi, text


@st.composite
def mean_return_files(draw):
    """A built spectrum of a base near 1 (1 + 1/k off the dyadic grid, e^q
    for small q) or far from it, with a loop deleted or not, as it loads back."""
    kind = draw(st.sampled_from(["near_one", "exp_near_one", "far"]))
    if kind == "near_one":
        k = draw(st.integers(2, 20000))
        assume(k & (k - 1))
        beta = BetaValue.from_rational(1 + Fraction(1, k))
    elif kind == "exp_near_one":
        beta = BetaValue.exp_of_rational(Fraction(1, draw(st.integers(10, 2000))))
    else:
        beta = BetaValue.parse(draw(st.sampled_from(["2", "3", "5/2", "7/3", "e^3", "e^7/10"])))
    s = build_spectrum(beta, draw(st.integers(4, 256)))
    deletable = [n for n in range(2, s.N_max + 1) if s.count(n)]
    if deletable and draw(st.booleans()):
        s = delete_loop(s, draw(st.sampled_from(deletable)))
    return s, spectrum_io.from_bytes(spectrum_io.to_bytes(spectrum_io.SpectrumFile(s))).spectrum


@given(mean_return_files())
@settings(max_examples=50, deadline=None)
def test_mean_return_lies_inside_the_digit_bound_of_ceil_beta(files):
    # the reference is the enclosure before the digits were summed by parts:
    # the head, the floors past N_max, and each greedy digit past N_max below
    # ceil(beta), [0, (ceil(beta) - 1) sum_{n > N_max} n L^n]
    s, back = files
    mu = weighted_sum_enclosure(back)
    assert mu == weighted_sum_enclosure(s)
    meta = back.meta
    tracked, far = meta.floor_sweep[3]
    digits = (math.ceil(meta.B.hi) - 1) * geometric_tail(meta.L, back.N_max + 1, "n")
    reference = (back.heads[1] + tracked + far
                 + CReal(Fraction(0), digits.hi, meta.precision_bits))
    assert reference.lo <= mu.lo <= mu.hi <= reference.hi
    # summation by parts leaves no more than L^(N_max+1) / (1 - L) open past
    # the derived tail's width, where the reference leaves about N_max times that
    rest = meta.L ** (back.N_max + 1) / (1 - meta.L)
    assert mu.width <= rest.hi + (back.N_max + 2) * (meta.tail_at_L.width + Fraction(1, 2 ** 200))


def _mp_greedy(x, beta, num_digits):
    """Independent greedy expansion in exact rationals: floats, even at 80
    digits, get an expansion that ends, such as 4/243 = 0.00011 in base 3,
    wrong from its last nonzero digit on."""
    digits = []
    r = x
    for _ in range(num_digits):
        y = beta * r
        d = math.floor(y)
        digits.append(d)
        r = y - d
    return digits


@given(st.fractions(min_value=Fraction(1, 97), max_value=Fraction(96, 97),
                    max_denominator=997),
       st.sampled_from([Fraction(5, 2), Fraction(7, 3), Fraction(3)]))
@settings(max_examples=40, deadline=None)
def test_beta_expansion_matches_mpmath(x, beta):
    num = 24
    got, _ = _greedy_digits(CReal.exact(x), CReal.exact(beta), num)
    assert got == _mp_greedy(x, beta, num)


def test_beta_expansion_digit_range():
    digits, _ = _greedy_digits(CReal.exact(Fraction(17, 31)), CReal.exact(Fraction(5, 2)), 30)
    assert all(0 <= d <= 2 for d in digits)


def test_expansion_partial_sums_stay_below_x():
    x = Fraction(17, 31)
    beta = Fraction(5, 2)
    digits, _ = _greedy_digits(CReal.exact(x), CReal.exact(beta), 30)
    partial = Fraction(0)
    for i, d in enumerate(digits, start=1):
        partial += Fraction(d) / beta ** i
        assert partial <= x
    assert x - partial < Fraction(1, beta ** 28)


# The reference: the two construction loops as CReal products on Fraction
# endpoints, before they ran on dyadic integer pairs.
def reference_square_floors(Bt, m_max):
    Bt2 = Bt * Bt
    scaled, pow2m = (Bt - 1) ** 2 * Bt2, Bt2 * Bt2
    floors = {1: 1}
    for m in range(2, m_max + 1):
        floors[m * m] = certified_floor(scaled)
        scaled, pow2m = scaled * pow2m, pow2m * Bt2
    return floors


def reference_greedy_digits(x, B, num_digits):
    r = x
    digits = []
    for _ in range(num_digits):
        y = B * r
        d = certified_floor(y)
        digits.append(d)
        r = _clamp_unit(y - d)
    return digits, r


def _outcome(loop, *args):
    """What ``loop`` gives: its floors, its digits and remainder endpoints
    as Fractions, or the message of its FloorUndecidable."""
    try:
        result = loop(*args)
    except FloorUndecidable as e:
        return str(e)
    if isinstance(result, dict):
        return result
    digits, r = result
    return digits, r.lo, r.hi, r.precision_bits


BASES = st.one_of(
    st.integers(2, 1000).map(lambda d: f"{d + 1}/{d}"),
    st.fractions(Fraction(1), Fraction(4), max_denominator=50).filter(lambda v: v > 1)
    .map(str),
    st.integers(1001, 4000).map(lambda n: f"{n // 1000}.{n % 1000:03d}"),
    st.fractions(Fraction(1, 20), Fraction(4), max_denominator=20).map(lambda q: f"e^{q}"))


@given(BASES, st.integers(4, 256), st.sampled_from([256, 512]))
@settings(max_examples=50, deadline=None)
def test_dyadic_loops_give_the_creal_loops_results(text, n_max, bits):
    beta = BetaValue.parse(text)
    plan = _build_plan(beta, n_max, bits)
    _, n_ext, Bt, B, L = plan
    floors = _outcome(reference_square_floors, Bt, n_ext)
    assert _outcome(_square_floors, Bt, n_ext) == floors
    if isinstance(floors, str):
        return
    # the digits of the build's x0, as _build_once takes it
    delta, delta_grid, _, _ = _floor_sweep(beta, n_max, bits, plan, floors)
    k = certified_floor(B * B * delta_grid)
    x0 = _clamp_unit(delta - k * (L * L))
    assert (_outcome(_greedy_digits, x0, B, n_max)
            == _outcome(reference_greedy_digits, x0, B, n_max))


def test_dyadic_loops_straddle_as_certified_floor_does():
    # B r = 2 [1/2 - 2^-300, 1/2 + 2^-300] straddles 1
    eps = Fraction(1, 2 ** 300)
    x, B = CReal(Fraction(1, 2) - eps, Fraction(1, 2) + eps), CReal.exact(2)
    message = _outcome(reference_greedy_digits, x, B, 3)
    assert message.startswith("enclosure [1.0, 1.0] straddles an integer")
    assert _outcome(_greedy_digits, x, B, 3) == message
    # past the float range, where float() would overflow
    huge = ((2 ** 1101 - 1, -1), (2 ** 1101 + 1, -1))
    with pytest.raises(FloorUndecidable, match=r"\[1\.3582985290493859e\+331, "):
        _floor(*huge, 256)


def test_build_rejects_small_base():
    with pytest.raises(NotGreaterThanOne):
        build_spectrum(BetaValue.parse("1"))
    with pytest.raises(ValueError, match="N_max must be >= 4"):
        build_spectrum(BetaValue.parse("2"), N_max=3)


def test_build_refuses_too_many_square_floors_at_4096_bits():
    # about sqrt(precision / log2 beta) floors: 1.0001 builds at 256 bits, not
    # at 4096, where it is refused before any floor is formed
    start = time.perf_counter()
    with pytest.raises(PrecisionExhausted, match=f"more than {MAX_SQUARE_FLOORS} square floors"):
        build_spectrum(BetaValue.parse("1.0001"), precision_bits=4096)
    assert time.perf_counter() - start < 5


def test_user_spectrum_wraps_counts():
    s = user_spectrum([1, 4, 0, 2])
    assert s.a == (1, 4, 0, 2)
    assert s.support() == [1, 2, 4]
    assert s.meta is None
    assert s.finite_support
    # every certified sum and check needs the metadata of a built spectrum
    for needs_meta in (unit_sum_enclosure, unit_sum_target, weighted_sum_enclosure,
                       spectrum_checks):
        with pytest.raises(TailUnavailable):
            needs_meta(s)


@given(st.integers(min_value=2, max_value=9), st.integers(min_value=2, max_value=5))
@settings(max_examples=20, deadline=None)
def test_rational_bases_build_and_check(p, q):
    if Fraction(p, q) <= 1:
        return
    s = build_spectrum(BetaValue.parse(f"{p}/{q}"), N_max=25)
    assert s.count(1) == 1
    # b(m^2) = floor((p/q - 1)^2 (p/q)^e), e = m^2 - m, in integers
    for m in range(2, 6):
        e = m * m - m
        assert s.meta.square_floors[m * m] == (p - q) ** 2 * p ** e // q ** (e + 2)
    assert unit_sum_enclosure(s).contains(1)
    failed = [c for c in spectrum_checks(s) if not c.passed]
    assert not failed, failed
