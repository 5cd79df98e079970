"""The construction of a loop spectrum and the certified sums and checks
that read one back, compiled only by ``build``, ``classify`` and ``verify``
(see ``__init__``).

The construction: put b(m^2) = floor(c beta^(m^2-m)) on squares, measure the
deficit delta = 1 - sum b(n) beta^-n in [0, 1), split off k = floor(beta^2 delta)
into the n = 2 slot and spread the remainder delta - k/beta^2 < 1/beta by its
greedy base-beta expansion.  Everything is interval-certified; the whole build
restarts at doubled precision whenever a floor is undecidable.  The two loops,
square floors and greedy digits, carry each endpoint as an integer pair
(m, e) = m 2^e, multiplied by intervals._mul and floored by a shift, and
reproduce the ball rounding of CReal on it bit for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .errors import FloorUndecidable, PrecisionExhausted, TailUnavailable
from .intervals import (DEFAULT_PRECISION_BITS, GUARD, MAX_PRECISION_BITS, BetaValue, CReal,
                        _dyadic, _fraction, _mul, certified_floor, real_text)
from .series import geometric_tail, power_series, power_series_moment
from .spectrum import (DEFAULT_N_MAX, MAX_SERIES_BITS, MAX_SQUARE_FLOORS, CheckResult,
                       LoopSpectrum, SpectrumMeta, int_text)


# ---------------------------------------------------------------------------
# the construction's loops on dyadic pairs: greedy base-beta expansion here,
# square floors below
# ---------------------------------------------------------------------------


def _clamp_unit(r: CReal) -> CReal:
    # the true remainder lies in [0, 1); clamping interval slack is sound
    return CReal(max(r.lo, Fraction(0)), min(r.hi, Fraction(1)), r.precision_bits)


def _sub(a: tuple, d: int) -> tuple[int, int]:
    # a - d for an endpoint a >= d, exact
    m, e = a
    return (m - (d << -e), e) if e < 0 else ((m << e) - d, 0)


def _floor(lo: tuple, hi: tuple, precision_bits: int) -> int:
    """floor of the enclosure [lo, hi], or the FloorUndecidable that
    certified_floor raises for it."""
    (m, e), (mh, eh) = lo, hi
    fl = m >> -e if e < 0 else m << e
    if fl != (mh >> -eh if eh < 0 else mh << eh):
        return certified_floor(CReal(_fraction(*lo), _fraction(*hi), precision_bits))
    return fl


def _greedy_digits(x: CReal, B: CReal, num_digits: int) -> tuple[list[int], CReal]:
    """Greedy digits of x in [0, 1] in base B > 0 plus the certified final
    remainder: d = floor(B r), then r = B r - d, each step as CReal computes
    it.  Unless both are exact, x and B must be dyadic, as a build's are."""
    bits = max(x.precision_bits, B.precision_bits)
    digits: list[int] = []
    if x.is_exact and B.is_exact:
        # exact products, as CReal keeps them: r = p/q, never reduced, B = a/b
        (p, q), (a, b) = x.lo.as_integer_ratio(), B.lo.as_integer_ratio()
        for _ in range(num_digits):
            p, q = p * a, q * b
            digits.append(p // q)
            p -= digits[-1] * q
        return digits, CReal.exact(Fraction(p, q), bits)
    work = bits + GUARD
    Bl, Bh, lo, hi = map(_dyadic, (B.lo, B.hi, x.lo, x.hi))
    for _ in range(num_digits):
        lo, hi = _mul(Bl, lo, work, False), _mul(Bh, hi, work, True)
        d = _floor(lo, hi, bits)
        digits.append(d)
        # B r - d lies in [0, 1], where _clamp_unit keeps it, and on the grid
        # CReal would round it to: its m is no longer than that of B r, which
        # _mul left with at most work + 2 bits, or a power of two
        lo, hi = _sub(lo, d), _sub(hi, d)
    return digits, CReal(_fraction(*lo), _fraction(*hi), bits)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _log2_bounds(beta: BetaValue) -> tuple[float, float]:
    """(lower, upper) float bounds on log2 beta > 1, read from the descriptor:
    q log2 e for e^q, else the exact rational.

    A rational below 2 goes through log1p, so that a log2 beta near 0 keeps
    a small relative error and its pad can be relative too.
    """
    n, d = beta.value.numerator, beta.value.denominator
    if beta.kind == "exp_rational":
        v = n / d / math.log(2)
    elif n < 2 * d:
        v = math.log1p((n - d) / d) / math.log(2)
    else:
        v = math.log2(n) - math.log2(d)
    pad = 1e-9 * (v if v < 1 else v + 1)
    return v - pad, v + pad


def _build_plan(beta: BetaValue, N_max: int, bits: int) -> tuple:
    """(series_bits, n_ext, Bt, B, L) of a build: the precision of its series
    arithmetic, how many square floors it tracks, the one enclosure of beta
    they all come from, and beta and L = 1/beta taken from it on the series
    grid.  Refuses, before beta is evaluated, a beta <= 1 with
    NotGreaterThanOne and, with PrecisionExhausted, a build that needs too
    many bits or floors."""
    beta.require_above_one()
    # Refused from log2(beta) alone: beta^N_max takes N_max log2(beta) bits,
    # and the build's time grows with them; and the untracked floor tail
    # (beyond n_ext^2) must be small on the scale of the series arithmetic,
    # n_ext^2 log2(beta) >= series_bits - 32.  The tests are products, as a
    # quotient overflows for a subnormal log2, and the first is exact, as
    # N_max may exceed the float range.  A huge q of e^q would too, so
    # N_max q > MAX_SERIES_BITS, which implies the first, goes before it.
    too_long = PrecisionExhausted(f"beta = {beta.text} at N_max = {N_max} needs more "
                                  f"than {MAX_SERIES_BITS} bits for beta^N_max")
    if beta.kind == "exp_rational" and N_max * beta.value > MAX_SERIES_BITS:
        raise too_long
    lg_lo, lg_hi = _log2_bounds(beta)
    if N_max * Fraction(lg_hi) > MAX_SERIES_BITS:
        raise too_long
    series_bits = bits + 64 + math.ceil(N_max * lg_hi)
    if (lg_lo * MAX_SQUARE_FLOORS ** 2 < series_bits - 32
            or math.isqrt(N_max) > MAX_SQUARE_FLOORS):
        raise PrecisionExhausted(
            f"beta = {beta.text} at N_max = {N_max} needs more than {MAX_SQUARE_FLOORS} "
            f"square floors at {bits} bits")
    n_ext = max(math.isqrt(N_max),
                math.ceil(math.sqrt((series_bits - 32) / lg_lo)))
    # The largest power has about (n_ext^2-n_ext) log2(beta) bits before the
    # point, so Bt carries that many extra bits (every scaled value is then
    # known to about 2^-bits), and at least series_bits, as B is read from it.
    Bt = beta.eval(max(series_bits, bits + math.ceil((n_ext * n_ext - n_ext) * lg_hi)))
    B = Bt.rounded(series_bits)
    return (series_bits, n_ext, Bt, B,
            B.inv() if B.is_exact else B.inv().round_outward(series_bits))


def _square_floors(Bt: CReal, m_max: int) -> dict[int, int]:
    """{m^2: floor((Bt-1)^2 Bt^(m^2-m))} for m = 1..m_max by a running product,
    Bt^((m+1)^2-(m+1)) = Bt^(m^2-m) Bt^(2m); FloorUndecidable on a near-integer.
    The first products are CReals, rounded onto the dyadic grid unless Bt is
    exact, as beta.eval gives it only on that grid."""
    Bt2 = Bt * Bt
    scaled, pow2m = (Bt - 1) ** 2 * Bt2, Bt2 * Bt2
    bits = scaled.precision_bits
    work = None if Bt.is_exact else bits + GUARD
    sl, sh, pl, ph, ql, qh = map(_dyadic, (scaled.lo, scaled.hi, pow2m.lo, pow2m.hi,
                                           Bt2.lo, Bt2.hi))
    floors = {1: 1}
    for m in range(2, m_max + 1):
        floors[m * m] = _floor(sl, sh, bits)
        sl, sh = _mul(sl, pl, work, False), _mul(sh, ph, work, True)
        pl, ph = _mul(pl, ql, work, False), _mul(ph, qh, work, True)
    return floors


def _floor_sweep(beta: BetaValue, N_max: int, bits: int, plan: tuple,
                 floors: dict[int, int]) -> tuple:
    """(delta, delta_grid, tail, n_tail) of a build with this plan and its
    square floors b(m^2), m <= n_ext: the deficit delta = 1 - sum b(n) L^n
    clamped at 0 and rounded outward onto the series grid, and the pairs
    (tracked, far) of sum w(n) b(n) L^n over the floors past N_max, w(n) = 1
    and n, the tracked ones from one sweep.  A far floor, m > n_ext, lies in
    (c beta^(m^2-m) - 1, c beta^(m^2-m)], so their sum lies in [c G - S, c G]:
    G = sum_{m > n_ext} w(m^2) L^m, and the slack S <= sum_{n >= (n_ext+1)^2}
    w(n) L^n is 0 for integer beta, whose floors are lossless."""
    series_bits, n_ext, _, B, L = plan
    head = power_series(((n, b) for n, b in floors.items() if n <= N_max), L)
    tracked = power_series_moment(((n, b) for n, b in floors.items() if n > N_max), L)
    c, far = (B - 1) ** 2, []
    for weight, square_weight in (("1", "1"), ("n", "n2")):
        geo = c * geometric_tail(L, n_ext + 1, square_weight)
        slack = 0 if beta.is_integer else geometric_tail(L, (n_ext + 1) ** 2, weight).hi
        far.append(CReal(max(Fraction(0), geo.lo - slack), geo.hi, bits))

    delta = 1 - (head + tracked[0] + far[0])
    delta = CReal(max(delta.lo, Fraction(0)), max(delta.hi, Fraction(0)), bits)
    return delta, delta.round_outward(series_bits), (tracked[0], far[0]), (tracked[1], far[1])


def _greedy_tail(N_max: int, bits: int, plan: tuple, sweep: tuple) -> tuple:
    """(k, digits, tail_at_L) of a build with this plan and floor sweep: k =
    floor(beta^2 delta), the greedy base-beta digits of the rest of the
    deficit at n = 1..N_max, k added at n = 2, and sum_{n > N_max} a(n) L^n,
    the floors' part plus the final remainder times L^N_max, rounded outward
    onto the series grid.  PrecisionExhausted or FloorUndecidable where the
    precision does not decide them."""
    series_bits, _, _, B, L = plan
    delta, delta_grid, (tracked, far), _ = sweep
    if not delta.certainly_lt(1):
        raise PrecisionExhausted(
            f"deficit enclosure [{delta.lo}, {delta.hi}] does not separate from 1")
    k = certified_floor(B * B * delta_grid)  # as verify decides it again
    x0 = _clamp_unit(delta - k * (L * L))  # the digits expand the unrounded deficit
    digits, remainder = _greedy_digits(x0, B, N_max)
    if digits[0] != 0:
        raise RuntimeError("first expansion digit is nonzero; this indicates a "
                           "precision bug, the remainder is below 1/beta by design")
    digits[1] += k  # the k units live in the n = 2 slot
    tail = tracked + far + remainder * L ** N_max
    return k, digits, CReal(tail.lo, tail.hi, bits).round_outward(series_bits)


def _build_once(beta: BetaValue, N_max: int, bits: int) -> LoopSpectrum:
    plan = _build_plan(beta, N_max, bits)
    floors = _square_floors(plan[2], plan[1])
    sweep = _floor_sweep(beta, N_max, bits, plan, floors)
    k, digits, tail = _greedy_tail(N_max, bits, plan, sweep)
    meta = SpectrumMeta(beta, bits, N_max, k)
    # the meta keeps this derivation
    meta.__dict__.update(_plan=plan, square_floors=floors, floor_sweep=sweep, tail_at_L=tail)
    a = tuple(floors.get(n, 0) + d for n, d in enumerate(digits, 1))
    return LoopSpectrum(a, N_max, meta=meta)


def build_spectrum(beta: BetaValue, N_max: int = DEFAULT_N_MAX,
                   precision_bits: int = DEFAULT_PRECISION_BITS) -> LoopSpectrum:
    """Construct the loop spectrum of the given base, truncated at N_max.

    Deterministic for fixed (beta descriptor, N_max, precision_bits).  This
    is the one place precision is raised: an undecidable floor restarts the
    whole build at doubled precision, up to MAX_PRECISION_BITS, where the
    FloorUndecidable propagates.
    """
    if N_max < 4:
        raise ValueError("N_max must be >= 4")
    bits = precision_bits
    while True:
        try:
            return _build_once(beta, N_max, bits)
        except FloorUndecidable:
            if bits >= MAX_PRECISION_BITS:
                raise
            bits = min(bits * 2, MAX_PRECISION_BITS)


# ---------------------------------------------------------------------------
# certified sums, tails and property checks
# ---------------------------------------------------------------------------


def unit_sum_enclosure(s: LoopSpectrum) -> Optional[CReal]:
    """Certified enclosure of sum_{n>=1} a(n) L^n (``s.heads[0]`` plus the
    derived ``tail_at_L``), or None where that tail is undecidable.

    For an intact constructed spectrum this encloses 1; after deleting a loop
    of length n0 it encloses 1 - L^n0.
    """
    if s.meta is None:
        raise TailUnavailable("spectrum has no analytic metadata")
    tail = s.meta.tail_at_L
    return None if tail is None else s.heads[0] + tail


def unit_sum_target(s: LoopSpectrum) -> CReal:
    """What the full series sums to: 1, or 1 - L^n0 for a deleted-loop variant."""
    if s.meta is None:
        raise TailUnavailable("spectrum has no analytic metadata")
    if s.meta.deleted_loop is None:
        return CReal.exact(1, s.meta.precision_bits)
    return 1 - s.meta.L ** s.meta.deleted_loop


def counts_failure(s: LoopSpectrum) -> Optional[str]:
    """Why some count is not its square floor b(n), recomputed from beta, plus
    a greedy digit, or None if each is: a(n) + [n = n0] - b(n) >= 0, and = 0
    at n = 1, n0 the length of a deleted loop."""
    floors, n0 = s.meta.square_floors, s.meta.deleted_loop
    if n0 is not None and not 2 <= n0 <= s.N_max:
        return f"deleted loop length {n0} outside 2..{s.N_max}"
    if floors is None:
        return f"a square floor is undecidable at {s.meta.precision_bits} bits"
    if s.a[0] != 1:
        return f"a(1) = {int_text(s.a[0])}, not 1"
    n = next((n for n, b in floors.items()
              if n <= s.N_max and s.a[n - 1] + (n == n0) < b), None)
    if n is not None:
        return f"a({n}) lies below its square floor b({n})"
    return None


def identity_failure(s: LoopSpectrum) -> Optional[str]:
    """Why the construction identity does not certify s, or None if it does:
    sum a(n) L^n = 1 (1 - L^n0 after deleting a loop of length n0) holds when
    :func:`counts_failure` finds nothing and ``s.unit_sum`` meets that target."""
    failure = counts_failure(s)
    if failure is None:
        target, enc = unit_sum_target(s), s.unit_sum
        if enc is None:
            return f"the tail past N_max is undecidable at {s.meta.precision_bits} bits"
        if enc.certainly_lt(target) or enc.certainly_gt(target):
            return "the unit-sum enclosure misses its target"
    return failure


def weighted_sum_enclosure(s: LoopSpectrum) -> Optional[CReal]:
    """Certified enclosure of the mean return sum n a(n) L^n, or None if a
    square floor or greedy digit is undecidable at the file's precision: the
    second head (``LoopSpectrum.heads``), the floors past N_max
    (``_floor_sweep``), and the greedy digits d(n) past N_max by parts.
    T(m) = sum_{n > m} d(n) L^n, a greedy remainder, is below L^m, so
    sum_{n > N} n d(n) L^n = (N+1) T(N) + sum_{m > N} T(m) lies in
    (N+1) T(N) + [0, L^(N+1) / (1 - L)]; T(N) is the derived tail less the
    floors', met with [0, L^N], which it meets as both enclose the true T(N)."""
    if s.meta is None:
        raise TailUnavailable("spectrum has no analytic metadata")
    meta, N = s.meta, s.N_max
    if meta.tail_at_L is None:
        return None
    _, _, (tracked, far), (n_tracked, n_far) = meta.floor_sweep
    cap, bits = meta.L ** N, meta.precision_bits
    T = meta.tail_at_L - (tracked + far)
    rest = cap * meta.L / (1 - meta.L)
    return (s.heads[1] + n_tracked + n_far
            + (N + 1) * CReal(max(T.lo, Fraction(0)), min(T.hi, cap.hi), bits)
            + CReal(Fraction(0), rest.hi, bits))


def spectrum_checks(s: LoopSpectrum) -> list[CheckResult]:
    """Machine-check the defining properties of a constructed spectrum.

    For a deleted-loop variant the checks are applied to the parent counts
    (the deleted entry gets its unit back) and the unit-sum target becomes
    1 - L^n0.
    """
    if s.meta is None:
        raise TailUnavailable("spectrum has no analytic metadata")
    meta = s.meta
    results: list[CheckResult] = []

    def parent_count(n: int) -> int:
        return s.count(n) + (meta.deleted_loop == n)

    results.append(CheckResult("a(1) = 1", parent_count(1) == 1,
                               f"a(1) = {int_text(parent_count(1))}"))

    enc, target = s.unit_sum, unit_sum_target(s)
    overlap = enc is not None and enc.lo <= target.hi and target.lo <= enc.hi
    results.append(CheckResult(
        "unit sum encloses target",
        overlap and enc.width <= Fraction(1, 10 ** 30),
        f"width = {real_text(enc.width, '.3e')}, target in enclosure: {overlap}" if enc is not None
        else f"the tail past N_max is undecidable at {meta.precision_bits} bits"))

    # k = floor(beta^2 delta) is certified when k <= B^2 delta < k + 1
    delta = meta.delta
    scaled = meta.B * meta.B * delta if delta is not None else None
    results.append(CheckResult(
        "deficit in [0, 1) and k = floor(beta^2 delta)",
        scaled is not None and delta.lo >= 0 and delta.certainly_lt(1)
        and meta.k <= scaled.lo and scaled.certainly_lt(meta.k + 1),
        f"delta in [{real_text(delta.lo, '.3e')}, {real_text(delta.hi, '.3e')}], k = {meta.k}"
        if delta is not None else f"a square floor is undecidable at {meta.precision_bits} bits"))

    # the counts' half of the identity; the unit sum is checked above
    failure = counts_failure(s)
    results.append(CheckResult(
        "square floors recomputed from beta", failure is None,
        failure or f"a(n) >= b(n) at every n = m^2 <= {s.N_max}, "
                   f"at {meta.precision_bits} bits"))

    # with a(m^2) >= b(m^2) > c beta^(m^2-m) - 1 this gives both square bounds
    floors = meta.square_floors or {}
    bad = [n for n in range(2, s.N_max + 1)
           if not Fraction(parent_count(n) - floors.get(n, 0)) <= meta.M_bound.lo]
    results.append(CheckResult(
        "counts above the square floors bounded by M",
        not bad,
        f"violations at {bad}" if bad else f"M in [{real_text(meta.M_bound.lo, '.6g')}, "
                                           f"{real_text(meta.M_bound.hi, '.6g')}]"))
    return results
