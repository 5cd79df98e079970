"""Transient / null recurrent / positive recurrent classification.

The decision runs on the generating function F(x) = sum f(n) x^n of the
first-return counts, evaluated at the radius L of its own series:

  * certified F(L) < 1            -> transient (and then R = L),
  * F(L) = 1 with finite mean
    return sum n f(n) L^n         -> positive recurrent with R = L,
  * certified F(L) > 1            -> positive recurrent with R < L, found
                                     by certified bisection of F(x) = 1,
  * F(L) = 1 with divergent mean  -> null recurrent; only an exact analytic
                                     model can certify divergence, so this
                                     verdict is never produced numerically.

R is the radius of convergence of sum p(n) z^n; the entropy of the loop
system is -log R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .errors import NoGrowthModel, RootNotBracketed, TailUnavailable
from .intervals import (DEFAULT_PRECISION_BITS, CReal, decimal_bounds,
                        log_fraction, log_interval, power_series)
from .oracle import PathCountTable, _ln_big
from .spectrum import (LoopSpectrum, unit_sum_enclosure, weighted_sum_enclosure)


class Verdict(str, Enum):
    TRANSIENT = "Transient"
    NULL_RECURRENT = "NullRecurrent"
    POSITIVE_RECURRENT = "PositiveRecurrent"
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class Radius:
    """A radius of convergence: an enclosure, an infinity sentinel, or an
    uncertified estimate."""

    value: Optional[CReal]
    infinite: bool = False
    certified: bool = True

    @staticmethod
    def of(value: CReal, certified: bool = True) -> "Radius":
        return Radius(value, False, certified)

    @staticmethod
    def unbounded() -> "Radius":
        return Radius(None, True, True)


@dataclass(frozen=True)
class ClassificationReport:
    verdict: Verdict
    L: Radius
    R: Radius
    F_at_L: Optional[CReal]
    mean_return_bound: Optional[CReal]
    entropy: Optional[CReal]
    has_mme: Optional[bool]
    lambda_window: Optional[tuple[tuple[int, float], ...]] = None
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        def radius_dict(r: Radius) -> dict:
            return {
                "infinite": r.infinite,
                "certified": r.certified,
                "interval": list(decimal_bounds(r.value)) if r.value is not None else None,
            }

        def interval(x: Optional[CReal]):
            return list(decimal_bounds(x)) if x is not None else None

        return {
            "verdict": self.verdict.value,
            "L": radius_dict(self.L),
            "R": radius_dict(self.R),
            "F_at_L": interval(self.F_at_L),
            "mean_return_bound": interval(self.mean_return_bound),
            "entropy": interval(self.entropy),
            "has_mme": self.has_mme,
            "lambda_window": ([[n, v] for n, v in self.lambda_window]
                              if self.lambda_window is not None else None),
            "notes": list(self.notes),
        }


# ---------------------------------------------------------------------------
# radii and series evaluation
# ---------------------------------------------------------------------------


def radius_L(s: LoopSpectrum, require_certified: bool = False) -> Radius:
    """Radius of convergence of sum a(n) z^n.

    Constructed spectra have the closed form L = 1/beta, certified.  A
    finite-support spectrum is a polynomial (infinite radius).  Otherwise a
    Cauchy-Hadamard estimate over the available terms is returned, flagged
    non-certified.
    """
    if s.meta is not None:
        return Radius.of(s.meta.L)
    if s.finite_support:
        return Radius.unbounded()
    if require_certified:
        raise NoGrowthModel("user spectrum without a declared growth model")
    # in log space: a count above ~1e308 does not fit a float
    ln_root = max((_ln_big(v) / n for n, v in enumerate(s.a, start=1) if v > 0),
                  default=None)
    if ln_root is None:
        return Radius.unbounded()
    # e^-ln_root = 2^-k e^-(ln_root - k ln 2) stays positive however small
    k = int(ln_root / math.log(2))
    est = Fraction(math.exp(k * math.log(2) - ln_root)).limit_denominator(10 ** 18) / 2 ** k
    return Radius(CReal.exact(est), certified=False)


def F_eval(s: LoopSpectrum, x: CReal) -> CReal:
    """Certified enclosure of F(x) = sum_{n>=1} a(n) x^n.

    For constructed spectra the tail is available at x = L exactly (the
    stored enclosure) and, for certified x <= L, via geometric scaling of
    that enclosure.  Finite-support spectra are evaluated exactly.
    """
    if x.lo < 0:
        raise ValueError("x must be nonnegative")
    if s.finite_support:
        return power_series(enumerate(s.a, 1), x)
    if s.meta is None:
        raise TailUnavailable("user spectrum truncation has no tail bound")
    L = s.meta.L
    if x.lo == L.lo and x.hi == L.hi:
        return unit_sum_enclosure(s)
    if x.hi <= L.lo:
        ratio = x.hi / L.lo  # <= 1
        scaled_hi = s.meta.tail_at_L.hi * ratio ** (s.N_max + 1)
        return (power_series(enumerate(s.a, 1), x)
                + CReal(Fraction(0), scaled_hi, x.precision_bits))
    raise TailUnavailable("no certified tail bound beyond the radius L")


def _bisect_root(s: LoopSpectrum, precision_bits: int) -> CReal:
    """Certified root of F(x) = 1 for a finite-support spectrum."""
    terms = list(enumerate(s.a, 1))
    at_one = power_series(terms, 1)
    if at_one < 1:
        raise RootNotBracketed("F(1) < 1 for a nonzero integer spectrum is impossible "
                               "unless all counts vanish")
    if at_one == 1:
        return CReal.exact(1, precision_bits)
    lo, hi = Fraction(0), Fraction(1)
    for _ in range(precision_bits // 2):
        mid = (lo + hi) / 2
        v = power_series(terms, mid)
        if v == 1:
            return CReal.exact(mid, precision_bits)
        if v < 1:
            lo = mid
        else:
            hi = mid
    return CReal(lo, hi, precision_bits)


def radius_R(s: LoopSpectrum, precision_bits: int = DEFAULT_PRECISION_BITS) -> Radius:
    """Radius of convergence of sum p(n) z^n."""
    return classify(s, precision_bits).R


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


def entropy_enclosure(s: LoopSpectrum,
                      precision_bits: int = DEFAULT_PRECISION_BITS) -> Optional[CReal]:
    """Certified enclosure of -log R (natural log units).

    For constructed spectra R = 1/beta whether or not a loop was deleted, so
    the entropy is log beta: exact when beta = e^q, a certified log enclosure
    for rational beta.
    """
    if s.meta is not None:
        beta = s.meta.beta
        if beta.kind == "exp_rational":
            return CReal.exact(beta.value, precision_bits)
        return log_fraction(beta.value, precision_bits)
    r = classify(s, precision_bits).R
    if r.infinite:
        return None
    if r.value.is_exact and r.value.lo == 1:
        return CReal.exact(0, precision_bits)
    return -log_interval(r.value, precision_bits)


def entropy_of_lift(s: LoopSpectrum, period_lift: int,
                    precision_bits: int = DEFAULT_PRECISION_BITS) -> Optional[CReal]:
    """Entropy of the period-p lifted graph: h / p."""
    base = entropy_enclosure(s, precision_bits)
    if base is None or period_lift == 1:
        return base
    return base / period_lift


# ---------------------------------------------------------------------------
# the trichotomy
# ---------------------------------------------------------------------------


def classify(s: LoopSpectrum,
             precision_bits: int = DEFAULT_PRECISION_BITS) -> ClassificationReport:
    if s.meta is not None:
        return _classify_constructed(s, precision_bits)
    if s.finite_support:
        return _classify_finite(s, precision_bits)
    L = radius_L(s)
    return ClassificationReport(
        verdict=Verdict.INDETERMINATE,
        L=L, R=Radius(None, False, False),
        F_at_L=None, mean_return_bound=None, entropy=None, has_mme=None,
        notes=("truncated user spectrum without tail bounds: only the "
               "Cauchy-Hadamard estimate of L is available",))


def _classify_constructed(s: LoopSpectrum, precision_bits: int) -> ClassificationReport:
    meta = s.meta
    L = Radius.of(meta.L)
    F_at_L = unit_sum_enclosure(s)
    mean = weighted_sum_enclosure(s)
    entropy = entropy_enclosure(s, precision_bits)
    notes: list[str] = []
    if F_at_L.certainly_lt(1):
        verdict = Verdict.TRANSIENT
        R = L  # transient implies R = L
        has_mme = False
        notes.append("F(L) certified < 1; R = L for transient loop systems")
    elif F_at_L.contains(1):
        verdict = Verdict.POSITIVE_RECURRENT
        R = L
        has_mme = True
        notes.append("series sums to 1 at L by construction; mean return is "
                     "certifiably finite")
    elif F_at_L.certainly_gt(1):
        # cannot happen for these constructions, handled for completeness
        root = _bisect_root(s, precision_bits)
        verdict = Verdict.POSITIVE_RECURRENT
        R = Radius.of(root)
        has_mme = True
        notes.append("F(L) certified > 1; R < L via certified bisection")
    else:
        verdict = Verdict.INDETERMINATE
        R = Radius(None, False, False)
        has_mme = None
        notes.append("F(L) enclosure neither separates from 1 nor encloses it")
    if verdict is Verdict.POSITIVE_RECURRENT and entropy is not None and entropy.lo <= 0:
        has_mme = None
        notes.append("entropy not certified positive; existence of a maximal-"
                     "entropy measure is outside the theorem's hypotheses")
    return ClassificationReport(verdict, L, R, F_at_L, mean, entropy, has_mme,
                                notes=tuple(notes))


def _classify_finite(s: LoopSpectrum, precision_bits: int) -> ClassificationReport:
    notes: list[str] = []
    if all(v == 0 for v in s.a):
        return ClassificationReport(
            Verdict.INDETERMINATE, Radius.unbounded(), Radius.unbounded(),
            CReal.exact(0), None, None, None,
            notes=("empty spectrum: no loops at all",))
    L = Radius.unbounded()
    # F is a polynomial with a positive coefficient, so F -> +infinity at L
    root = _bisect_root(s, precision_bits)
    R = Radius.of(root)
    mean = power_series(((n, n * an) for n, an in enumerate(s.a, 1)), root)
    entropy = entropy_for_root(root, precision_bits)
    if root.is_exact and root.lo == 1:
        notes.append("F(1) = 1 exactly: R = 1, entropy 0")
    else:
        notes.append("polynomial F: F(L) = +infinity > 1, so R < L")
    has_mme: Optional[bool] = True
    if entropy is None or entropy.lo <= 0:
        has_mme = None
        notes.append("entropy not certified positive; maximal-entropy measure "
                     "verdict withheld")
    return ClassificationReport(Verdict.POSITIVE_RECURRENT, L, R,
                                None, mean, entropy, has_mme,
                                notes=tuple(notes))


def entropy_for_root(root: CReal, precision_bits: int) -> Optional[CReal]:
    if root.is_exact and root.lo == 1:
        return CReal.exact(0, precision_bits)
    return -log_interval(root, precision_bits)


# ---------------------------------------------------------------------------
# lambda estimates (non-certified by nature)
# ---------------------------------------------------------------------------


def lambda_estimate(counts: PathCountTable, R: CReal,
                    window: int = 16, period: int = 1) -> tuple[tuple[int, float], ...]:
    """Trailing window of p(n) R^n values, the candidate limit lambda.

    A numeric trend only: positive recurrent systems stabilize at a positive
    value, transient ones decay to 0.  No closed form is available.
    """
    mid = R.mid
    usable = [n for n in range(1, len(counts.p)) if n % period == 0 and counts.p[n] > 0]
    tail = usable[-window:] if len(usable) >= window else usable
    return tuple((n, float(counts.p[n] * mid ** n)) for n in tail)
