"""Classification trichotomy tests.

The finite spectrum a = (1, 4) has F(x) = x + 4x^2, so the return radius
is the positive root of 4x^2 + x - 1, x = (sqrt(17) - 1) / 8.  mpmath
supplies that root and the matching entropy to 60 digits.
"""

import math
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovforge.classifier import Radius
from markovforge.errors import PrecisionExhausted
from markovforge import (Verdict, classify, delete_loop, entropy_enclosure,
                         entropy_of_lift, power_series, radius_L, renewal_limit,
                         table_from_spectrum, user_spectrum)

from conftest import built

mpmath.mp.dps = 60


def near(x, mp_value, tol=Fraction(1, 10 ** 40)):
    v = Fraction(mpmath.nstr(mp_value, 50, strip_zeros=False))
    return x.lo - tol <= v <= x.hi + tol


def test_base2_positive_recurrent(spec2):
    rep = classify(spec2)
    assert rep.verdict is Verdict.POSITIVE_RECURRENT
    assert rep.has_mme is True
    assert rep.R.certified
    assert rep.R.value.lo == rep.R.value.hi == Fraction(1, 2)
    assert rep.L.value.lo == Fraction(1, 2)
    assert rep.F_at_L.contains(1)
    assert rep.mean_return_bound.contains(6)
    assert near(rep.entropy, mpmath.log(2))


def test_transient_variant_base2(spec2):
    rep = classify(delete_loop(spec2))
    assert rep.verdict is Verdict.TRANSIENT
    assert rep.has_mme is False
    assert rep.F_at_L.certainly_lt(1)
    assert rep.F_at_L.contains(Fraction(15, 16))
    assert rep.R.value.lo == Fraction(1, 2)  # transient keeps R = L
    assert near(rep.entropy, mpmath.log(2))


def test_e07_entropy_is_exact(spec_e07):
    rep = classify(spec_e07)
    assert rep.verdict is Verdict.POSITIVE_RECURRENT
    assert rep.entropy.lo == rep.entropy.hi == Fraction(7, 10)
    assert near(rep.R.value, mpmath.exp(mpmath.mpf(-7) / 10))


def test_finite_heavy_spectrum():
    s = user_spectrum([1, 4])
    rep = classify(s)
    assert rep.verdict is Verdict.POSITIVE_RECURRENT
    assert rep.L.infinite
    root = (mpmath.sqrt(17) - 1) / 8
    assert near(rep.R.value, root)
    assert near(rep.entropy, -mpmath.log(root))
    assert rep.has_mme is True


def test_single_self_loop():
    rep = classify(user_spectrum([1]))
    assert rep.verdict is Verdict.POSITIVE_RECURRENT
    assert rep.R.value.contains(1)
    assert rep.entropy.contains(0)
    # zero entropy: existence of a maximal measure is not certified
    assert rep.has_mme is None


def test_truncation_estimate_not_certified(spec2):
    trunc = user_spectrum(list(spec2.a), finite_support=False)
    r = radius_L(trunc)
    assert not r.certified
    assert abs(float(r.value.lo) - 0.5) < 0.1


def test_truncation_estimate_survives_huge_counts():
    # counts above ~1e308 overflowed the float estimate of L
    s = user_spectrum([0, 1] + [10 ** 400] * 3, finite_support=False)
    rep = classify(s)
    assert rep.verdict is Verdict.INDETERMINATE
    assert not rep.L.certified
    # L ~ 10^(-400/3): the largest n-th root of a(n) is at n = 3
    assert abs(float(rep.L.value.lo) / 10 ** -133 - 10 ** (-1 / 3)) < 1e-9


def test_truncation_with_no_positive_count_has_no_radius():
    # nothing is known past the truncation: no value, neither infinite nor
    # certified, where a finite polynomial would have an infinite radius
    s = user_spectrum([0, 0, 0], finite_support=False)
    assert radius_L(s) == Radius(None, False, False)
    rep = classify(s)
    assert rep.verdict is Verdict.INDETERMINATE
    assert rep.to_dict()["L"] == {"infinite": False, "certified": False, "interval": None}
    assert radius_L(user_spectrum([0, 0, 0])) == Radius.unbounded()


def test_radius_helpers(spec2):
    assert radius_L(spec2).value.lo == Fraction(1, 2)
    assert classify(spec2).R.value.hi == Fraction(1, 2)
    assert classify(user_spectrum([1])).R.value.contains(1)


def test_bisection_compares_dyadic_midpoints_in_integers():
    # a(2) = a(2000) = 1: reducing F(mid) to lowest terms at every step took
    # 5 s, almost all of it in gcd
    a = [0] * 2000
    a[1] = a[-1] = 1
    start = time.perf_counter()
    rep = classify(user_spectrum(a))
    assert time.perf_counter() - start < 2.5
    root, terms = rep.R.value, [(2, 1), (2000, 1)]
    assert power_series(terms, root.lo) < 1 < power_series(terms, root.hi)
    assert root.width == Fraction(1, 2 ** 128)


def test_a_root_below_the_first_cell_is_bisected_until_it_is_positive():
    # F(x) = 2^257 x^2 has the root 2^-128.5, inside [0, 2^-128] after 128
    # steps, whose log is -infinity; R >= 1 / (2^257 + 1) bounds the steps
    # to a positive lower end, and 127 more make the bracket relatively tight
    rep = classify(user_spectrum([0, 2 ** 257]))
    root = rep.R.value
    assert Fraction(1, 2 ** 129) < root.lo < root.hi < Fraction(1, 2 ** 128)
    assert root.width <= root.lo / 2 ** 127
    assert power_series([(2, 2 ** 257)], root.lo) < 1 < power_series([(2, 2 ** 257)], root.hi)
    assert near(rep.entropy, mpmath.mpf(257) / 2 * mpmath.log(2))
    assert rep.verdict is Verdict.POSITIVE_RECURRENT and rep.has_mme is True


def test_a_root_below_2_to_the_minus_4096_exhausts_the_precision():
    with pytest.raises(PrecisionExhausted, match="on to 2\\^-9003 at degree 2 "):
        classify(user_spectrum([0, 3 * 2 ** 9000]))


def test_a_root_near_2_to_the_minus_2000_is_bisected_on_at_degree_2():
    # F(x) = 3 2^4000 x^2: 2128 steps, each an exact sum of about 8250
    # bits, within MAX_SERIES_BITS; the refusal past it is tested through the CLI
    root = classify(user_spectrum([0, 3 * 2 ** 4000])).R.value
    assert Fraction(1, 2 ** 2001) < root.lo < root.hi < Fraction(1, 2 ** 2000)
    assert root.width <= root.lo / 2 ** 127


@given(st.lists(st.integers(0, 2 ** 600), min_size=1, max_size=8).filter(any))
@settings(max_examples=60, deadline=None)
def test_a_finite_root_is_bracketed_to_a_relative_width_of_2_to_the_minus_127(a):
    # however small the root, as wide in entropy as at the root 1/2
    root = classify(user_spectrum(a)).R.value
    assert root.width <= root.lo / 2 ** 127
    terms = list(enumerate(a, 1))
    assert root.is_exact or power_series(terms, root.lo) < 1 < power_series(terms, root.hi)


def test_entropy_of_lift(spec2):
    h = entropy_enclosure(spec2)
    h3 = entropy_of_lift(spec2, 3)
    assert (h3 * 3).contains(h.lo) or abs((h3 * 3).lo - h.lo) < Fraction(1, 10 ** 40)
    assert near(h3, mpmath.log(2) / 3)


def test_renewal_limit_base2(spec2):
    # positive recurrent with mean return 6, so p(n) 2^-n tends to 1/6
    lam = renewal_limit(spec2, classify(spec2))
    assert lam.contains(Fraction(1, 6))
    assert lam.width < Fraction(1, 2 ** 50)


def test_renewal_limit_meets_the_path_counts():
    # p(512) L^512 from a 512-term build of the same base
    for text in ("2", "e^7/10"):
        s = built(text)
        lam = renewal_limit(s, classify(s))
        deep = built(text, 512)
        p = table_from_spectrum(deep, 512).p[512]
        x, tol = p * deep.meta.L.lo ** 512, Fraction(1, 10 ** 6)
        assert lam.lo - tol < x < lam.hi + tol, text
        assert lam.width < Fraction(1, 10 ** 12), text


def test_renewal_limit_of_transient_and_finite_spectra(spec2):
    transient = delete_loop(spec2)
    lam = renewal_limit(transient, classify(transient))
    assert lam.lo == lam.hi == 0
    # F(x) = x and F(x) = x^2: one return, of period 1 and 2
    for a in ([1], [0, 1]):
        s = user_spectrum(a)
        lam = renewal_limit(s, classify(s))
        assert lam.lo == lam.hi == 1, a
    # F(x) = x^2 + 2 x^4: R^2 = 1/2, mean 2 R^2 + 8 R^4 = 3, period 2
    s = user_spectrum([0, 1, 0, 2])
    lam = renewal_limit(s, classify(s))
    assert lam.contains(Fraction(2, 3)) and lam.width < Fraction(1, 10 ** 30)
    # a truncation of something unknown has no limit to certify
    s = user_spectrum([1, 4], finite_support=False)
    assert renewal_limit(s, classify(s)) is None


def test_report_serializes(spec2):
    d = classify(spec2).to_dict()
    assert d["verdict"] == "PositiveRecurrent"
    assert d["has_mme"] is True
    assert isinstance(d["entropy"], list) and len(d["entropy"]) == 2
    assert d["R"]["certified"] is True


def test_constructed_verdict_needs_the_square_floors(spec2):
    # one loop fewer than the square floor b(4) = 4, recomputed from beta
    a = list(spec2.a)
    a[3] = spec2.meta.square_floors[4] - 1
    rep = classify(spec2.replace(a=tuple(a)))
    assert rep.verdict is Verdict.INDETERMINATE
    assert rep.has_mme is None
    assert "a(4) lies below its square floor b(4)" in rep.notes[0]


def test_extra_loop_is_not_recurrent(spec_e07):
    # a(2) + 1 pushes F(L) above 1: the identity no longer holds, and a
    # root of the finite polynomial alone would ignore the tail
    a = list(spec_e07.a)
    a[1] += 1
    rep = classify(spec_e07.replace(a=tuple(a)))
    assert rep.verdict is Verdict.INDETERMINATE
    assert rep.F_at_L.certainly_gt(1)
    assert "unit-sum enclosure misses its target" in rep.notes[0]
