"""Transient / null recurrent / positive recurrent classification.

The decision runs on the generating function F(x) = sum f(n) x^n of the
first-return counts, evaluated at the radius L of its own series:

  * F(L) < 1                      -> transient (and then R = L),
  * F(L) = 1 with finite mean
    return sum n f(n) L^n         -> positive recurrent with R = L,
  * F(L) > 1                      -> positive recurrent with R < L,
  * F(L) = 1 with divergent mean  -> null recurrent, never certified here.

A constructed spectrum has F(L) = 1, or 1 - L^n0 after deleting a loop of
length n0, by the construction identity (see construction.identity_failure;
indeterminate when that does not hold).  A finite-support spectrum is a
polynomial, F(L) = +infinity, and R comes from certified bisection.

R is the radius of convergence of sum p(n) z^n; the entropy of the loop
system is -log R.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Optional

from ._frozen import Frozen
from .errors import PrecisionExhausted
from .construction import identity_failure, weighted_sum_enclosure
from .intervals import DEFAULT_PRECISION_BITS, MAX_PRECISION_BITS, CReal, _ln_big, decimal_bounds
from .series import _horner, log_fraction, log_interval, power_series
from .spectrum import MAX_SERIES_BITS, LoopSpectrum


class Verdict(str, Enum):
    TRANSIENT = "Transient"
    NULL_RECURRENT = "NullRecurrent"
    POSITIVE_RECURRENT = "PositiveRecurrent"
    INDETERMINATE = "Indeterminate"


class Radius(Frozen):
    """A radius of convergence: an enclosure, an infinity sentinel, or an
    uncertified estimate."""

    _fields = ("value", "infinite", "certified")

    def __init__(self, value: Optional[CReal], infinite: bool = False,
                 certified: bool = True) -> None:
        self._init(value, infinite, certified)

    @staticmethod
    def unbounded() -> "Radius":
        return Radius(None, True, True)


class ClassificationReport(Frozen):
    """Verdict and certificates of a loop spectrum.  ``L``, ``R``, ``F_at_L``
    and ``mean_return_bound`` (sum n a(n) R^n) are the unlifted system's: a
    file's period lift changes none of them."""

    _fields = ("verdict", "L", "R", "F_at_L", "mean_return_bound", "entropy",
               "has_mme", "notes")

    def __init__(self, verdict: Verdict, L: Radius, R: Radius, F_at_L: Optional[CReal],
                 mean_return_bound: Optional[CReal], entropy: Optional[CReal],
                 has_mme: Optional[bool], notes: tuple[str, ...] = ()) -> None:
        self._init(verdict, L, R, F_at_L, mean_return_bound, entropy, has_mme, notes)

    def to_dict(self) -> dict:
        def interval(x: Optional[CReal]):
            return list(decimal_bounds(x)) if x is not None else None

        def radius_dict(r: Radius) -> dict:
            return {"infinite": r.infinite, "certified": r.certified,
                    "interval": interval(r.value)}

        return {
            "verdict": self.verdict.value,
            "L": radius_dict(self.L),
            "R": radius_dict(self.R),
            "F_at_L": interval(self.F_at_L),
            "mean_return_bound": interval(self.mean_return_bound),
            "entropy": interval(self.entropy),
            "has_mme": self.has_mme,
            "lambda_window": None,  # filled in by `classify --lambda-window`
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# radii
# ---------------------------------------------------------------------------


def radius_L(s: LoopSpectrum) -> Radius:
    """Radius of convergence of sum a(n) z^n.

    Constructed spectra have the closed form L = 1/beta, certified.  A
    finite-support spectrum is a polynomial (infinite radius).  Otherwise a
    Cauchy-Hadamard estimate over the available terms is returned, flagged
    non-certified, or no value at all where no count is positive: nothing
    is known past the truncation.
    """
    if s.meta is not None:
        return Radius(s.meta.L)
    if s.finite_support:
        return Radius.unbounded()
    # in log space: a count above ~1e308 does not fit a float
    ln_root = max((_ln_big(v) / n for n, v in enumerate(s.a, start=1) if v > 0),
                  default=None)
    if ln_root is None:
        return Radius(None, False, False)
    # e^-ln_root = 2^-k e^-(ln_root - k ln 2) stays positive however small
    k = int(ln_root / math.log(2))
    est = Fraction(math.exp(k * math.log(2) - ln_root)).limit_denominator(10 ** 18) / 2 ** k
    return Radius(CReal.exact(est), certified=False)


def _bisect_root(s: LoopSpectrum) -> CReal:
    """Certified root of F(x) = 1 for a finite-support spectrum, bisected to
    a bracket [a, a + 1] / 2^j with a >= 2^127: a relative width of at most
    2^-127, in DEFAULT_PRECISION_BITS / 2 steps for a root >= 1/2.  The root
    is at least 1/(A + 1) > 2^-bitlen(A), A the largest count, so a turns
    positive by step bitlen(A) + 1.  Step j sums F exactly on numbers of about
    j deg(F) bits, so PrecisionExhausted where a is still 0 at step 128 and
    going on would pass MAX_PRECISION_BITS steps or MAX_SERIES_BITS bits."""
    terms = [(n, c) for n, c in enumerate(s.a, 1) if c]
    # some count is >= 1, so F(1) >= 1
    if power_series(terms, 1) == 1:
        return CReal.exact(1)
    # the root lies in [a, a + 1] / 2^j; F at the dyadic midpoint m / 2^j is
    # the integer ratio num / den, compared with 1 without reducing it
    a = j = 0
    while a < 1 << DEFAULT_PRECISION_BITS // 2 - 1:
        if j == DEFAULT_PRECISION_BITS // 2 and a == 0:
            need, degree = max(c for _, c in terms).bit_length() + 1, terms[-1][0]
            if need > MAX_PRECISION_BITS or need * degree > MAX_SERIES_BITS:
                raise PrecisionExhausted(f"the root of F(x) = 1 lies below 2^-{j}, and "
                                         f"bisecting on to 2^-{need} at degree {degree} "
                                         f"passes the precision limits")
        j, m = j + 1, 2 * a + 1
        num, den = _horner(terms, m, 1 << j)
        if num == den:
            return CReal.exact(Fraction(m, 1 << j))
        a = m if num < den else 2 * a
    return CReal(Fraction(a, 1 << j), Fraction(a + 1, 1 << j))


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


def entropy_enclosure(s: LoopSpectrum) -> Optional[CReal]:
    """Certified enclosure of -log R (natural log units).

    For constructed spectra R = 1/beta whether or not a loop was deleted, so
    the entropy is log beta: exact when beta = e^q, a certified log enclosure
    for rational beta.
    """
    if s.meta is not None:
        beta = s.meta.beta
        if beta.kind == "exp_rational":
            return CReal.exact(beta.value)
        return log_fraction(beta.value)
    return classify(s).entropy


def entropy_of_lift(s: LoopSpectrum, period_lift: int) -> Optional[CReal]:
    """Entropy of the period-p lifted graph: h / p."""
    base = entropy_enclosure(s)
    if base is None or period_lift == 1:
        return base
    return base / period_lift


# ---------------------------------------------------------------------------
# the trichotomy
# ---------------------------------------------------------------------------


def classify(s: LoopSpectrum) -> ClassificationReport:
    """Verdict, radii and entropy, computed at ``DEFAULT_PRECISION_BITS``."""
    if s.meta is not None:
        return _classify_constructed(s)
    if s.finite_support:
        return _classify_finite(s)
    return ClassificationReport(
        Verdict.INDETERMINATE, radius_L(s), Radius(None, False, False),
        None, None, None, None,
        notes=("truncated user spectrum without tail bounds: only the "
               "Cauchy-Hadamard estimate of L is available",))


def _classify_constructed(s: LoopSpectrum) -> ClassificationReport:
    L = radius_L(s)
    F_at_L = s.unit_sum
    mean = weighted_sum_enclosure(s)
    entropy = entropy_enclosure(s)
    failure = identity_failure(s)
    n0 = s.meta.deleted_loop
    if failure is not None:
        verdict, R, has_mme = Verdict.INDETERMINATE, Radius(None, False, False), None
        notes = [f"construction identity not certified: {failure}"]
    elif n0 is not None:
        verdict, R, has_mme = Verdict.TRANSIENT, L, False
        notes = [f"F(L) = 1 - L^{n0} < 1 by the construction identity; "
                 "R = L for transient loop systems"]
    else:
        verdict, R, has_mme = Verdict.POSITIVE_RECURRENT, L, True
        notes = ["F(L) = 1 by the construction identity; mean return is "
                 "certifiably finite"]
    return ClassificationReport(verdict, L, R, F_at_L, mean, entropy, has_mme,
                                notes=tuple(notes))


def _classify_finite(s: LoopSpectrum) -> ClassificationReport:
    notes: list[str] = []
    if all(v == 0 for v in s.a):
        return ClassificationReport(
            Verdict.INDETERMINATE, Radius.unbounded(), Radius.unbounded(),
            CReal.exact(0), None, None, None,
            notes=("empty spectrum: no loops at all",))
    L = radius_L(s)
    # F is a polynomial with a positive coefficient, so F -> +infinity at L
    root = _bisect_root(s)
    R = Radius(root)
    mean = power_series(((n, n * an) for n, an in enumerate(s.a, 1)), root)
    if root.is_exact and root.lo == 1:
        entropy = CReal.exact(0)
        notes.append("F(1) = 1 exactly: R = 1, entropy 0")
    else:
        entropy = -log_interval(root)
        notes.append("polynomial F: F(L) = +infinity > 1, so R < L")
    has_mme: Optional[bool] = True
    if entropy.lo <= 0:
        has_mme = None
        notes.append("entropy not certified positive; maximal-entropy measure "
                     "verdict withheld")
    return ClassificationReport(Verdict.POSITIVE_RECURRENT, L, R,
                                None, mean, entropy, has_mme,
                                notes=tuple(notes))


# ---------------------------------------------------------------------------
# the renewal limit
# ---------------------------------------------------------------------------


def renewal_limit(s: LoopSpectrum, report: ClassificationReport) -> Optional[CReal]:
    """Enclosure of lambda = lim p(n) R^n over the multiples of d, the gcd of
    the loop lengths (d = 1 when a(1) = 1), or None for an indeterminate
    report.  By the renewal theorem (Erdos, Feller and Pollard 1949) lambda =
    d / mu for F(R) = 1 with a finite mean return mu, else 0.  A period lift
    by p maps p(n) R^n to p(n p) (R^(1/p))^(n p), the same limit."""
    if report.verdict is Verdict.INDETERMINATE:
        return None
    if report.verdict is not Verdict.POSITIVE_RECURRENT:
        return CReal.exact(0)
    d = 1 if s.meta is not None else math.gcd(*s.support())
    return d / report.mean_return_bound
