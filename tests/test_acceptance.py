"""Acceptance suite.

Each test prints one [PASS]/[FAIL] line for its criterion.  Run with
pytest -v (or -s to see the lines while everything passes).

Two deliberate readings, both recorded in the project notes: the lower
square-count bound is checked in floor-adjusted form a(n^2) + 1 >
c beta^(n^2-n), since the construction floors that quantity and the raw
inequality can fail by less than 1; and the transient decay in criterion 8
is checked at block granularity because the exact counts pick up a bump at
every new square loop length.
"""

import json
import math
import time
from fractions import Fraction

import mpmath

from markovforge import (BetaValue, Verdict, build_spectrum, classify,
                         count_first_returns, count_paths, delete_loop,
                         growth_rate, lift_period, realize,
                         renewal_convolve, table_from_spectrum,
                         unit_sum_enclosure, user_spectrum)
from markovforge import spectrum_io
from markovforge.oracle import BudgetExceeded, enumerate_paths

from conftest import BETA_TEXTS, built, exported, period

mpmath.mp.dps = 60

TOL20 = Fraction(1, 10 ** 20)
TOL30 = Fraction(1, 10 ** 30)


def _criterion(num, desc, failures, detail=""):
    status = "FAIL" if failures else "PASS"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {desc}{suffix}")
    assert not failures, f"criterion {num}: {failures}"


def _mp_fraction(mp_value):
    return Fraction(mpmath.nstr(mp_value, 50, strip_zeros=False))


def _true_beta(text):
    if text == "e^7/10":
        return _mp_fraction(mpmath.exp(mpmath.mpf(7) / 10)), Fraction(1, 10 ** 45)
    return Fraction(text), Fraction(0)


def test_criterion_1_construction_suite():
    failures = []
    t0 = time.monotonic()
    spectra = {text: build_spectrum(BetaValue.parse(text), 64)
               for text in BETA_TEXTS}
    elapsed = time.monotonic() - t0
    for text, s in spectra.items():
        if s.count(1) != 1:
            failures.append((text, "a(1)"))
        total = unit_sum_enclosure(s)
        if not (total.contains(1) and total.width < TOL30):
            failures.append((text, "unit sum", float(total.width)))
        B = s.meta.beta.eval(512)
        c = (B - 1) ** 2
        M = s.meta.M_bound
        for n in range(2, 9):
            a = s.count(n * n)
            scale = c * B ** (n * n - n)
            if not Fraction(a + 1) > scale.hi:
                failures.append((text, "square lower", n))
            if not Fraction(a) <= (scale + M).hi:
                failures.append((text, "square upper", n))
        for n in range(2, 65):
            r = math.isqrt(n)
            if r * r != n and not Fraction(s.count(n)) <= M.hi:
                failures.append((text, "off-square", n))
    if elapsed >= 10:
        failures.append(("runtime", elapsed))
    _criterion(1, "construction suite for the four test bases", failures,
               f"built in {elapsed:.2f}s")


def test_criterion_2_base2_exactness(spec2):
    failures = []
    meta = spec2.meta
    if not (meta.c.lo == meta.c.hi == 1):
        failures.append("c")
    if not (meta.delta.lo == meta.delta.hi == 0):
        failures.append("delta")
    if meta.k != 0:
        failures.append("k")
    if spec2.count(4) != 4 or spec2.count(9) != 64 or spec2.count(16) != 4096:
        failures.append("square counts")
    for n in range(2, 17):
        if n not in (4, 9, 16) and spec2.count(n) != 0:
            failures.append(("nonzero", n))
    _criterion(2, "base 2 runs on the exact rational path", failures)


def test_criterion_3_positive_recurrent_side(all_spectra):
    failures = []
    for text, s in all_spectra.items():
        rep = classify(s)
        if rep.verdict is not Verdict.POSITIVE_RECURRENT:
            failures.append((text, rep.verdict))
            continue
        if rep.has_mme is not True:
            failures.append((text, "has_mme"))
        beta_true, slack = _true_beta(text)
        r_true = 1 / beta_true
        R = rep.R.value
        if not (R.lo - slack <= r_true <= R.hi + slack):
            failures.append((text, "R"))
        h_true = (Fraction(7, 10) if text == "e^7/10"
                  else _mp_fraction(mpmath.log(int(text))))
        h = rep.entropy
        if not (h.lo - TOL20 <= h_true <= h.hi + TOL20 and h.width < TOL20):
            failures.append((text, "entropy"))
    _criterion(3, "built graphs classify as positive recurrent", failures)


def test_criterion_4_transient_side(all_spectra):
    failures = []
    for text, s in all_spectra.items():
        d = delete_loop(s)
        rep = classify(d)
        if rep.verdict is not Verdict.TRANSIENT or rep.has_mme is not False:
            failures.append((text, rep.verdict))
            continue
        if not rep.F_at_L.certainly_lt(1):
            failures.append((text, "F(L) < 1"))
        L = rep.L.value
        target = 1 - L ** d.meta.deleted_loop
        diff = rep.F_at_L - target
        if not (abs(diff.lo) < TOL20 and abs(diff.hi) < TOL20):
            failures.append((text, "F(L) value"))
        if not (rep.R.value.lo == L.lo and rep.R.value.hi == L.hi):
            failures.append((text, "R = L"))
        h0, h1 = classify(s).entropy, rep.entropy
        if not (abs(h1.lo - h0.lo) < TOL20 and abs(h1.hi - h0.hi) < TOL20):
            failures.append((text, "entropy drift"))
    _criterion(4, "one deleted loop flips the class to transient", failures)


def test_criterion_5_periods():
    failures = []
    t0 = time.monotonic()
    ln2 = math.log(2)
    for p in (1, 2, 3, 5):
        s = built(str(2 ** p))
        table = table_from_spectrum(s, 64 * p, p)
        support = [n for n in range(1, len(table.p)) if table.p[n] > 0]
        if math.gcd(*support) != p:
            failures.append((p, "count gcd"))
        # the period only sees which loop lengths occur, so cap the loop
        # multiplicities to keep the base 32 graph small
        capped = user_spectrum([min(v, 1) for v in s.a[:9]])
        if period(lift_period(realize(capped), p)) != p:
            failures.append((p, "structural period"))
        est = growth_rate(table.p, window=4)
        if est.samples[-1][0] != 64 * p:
            failures.append((p, "depth"))
        if abs(est.value - ln2) >= 0.05:
            failures.append((p, "growth", est.value))
    elapsed = time.monotonic() - t0
    if elapsed >= 30:
        failures.append(("runtime", elapsed))
    _criterion(5, "period lifts carry entropy ln 2 at periods 1,2,3,5",
               failures, f"{elapsed:.2f}s")


def test_criterion_6_oracle_equivalence(all_spectra):
    failures = []
    for text, s in all_spectra.items():
        # base 8 already has 12.8 million loops of length 9, so its explicit
        # graph is truncated where the vertex count stays manageable; the
        # three counting methods are still compared entry-exact to n = 12
        depth = 12
        while depth > 1 and sum(s.count(n) * n for n in range(1, depth + 1)) > 2 * 10 ** 6:
            depth -= 1
        g = realize(s, depth)
        f = count_first_returns(g, g.root, 12)
        p = count_paths(g, g.root, g.root, 12)
        if tuple(f[:depth]) != s.a[:depth] or any(f[depth:]):
            failures.append((text, "first returns"))
        if renewal_convolve(f, 12) != p:
            failures.append((text, "renewal"))
        walked = 0
        for n in range(1, 13):
            try:
                if enumerate_paths(g, g.root, g.root, n, 10 ** 6) != p[n]:
                    failures.append((text, "enumeration", n))
                    break
                walked = n
            except BudgetExceeded:
                break
        # literal enumeration is checked as deep as the step budget
        # reaches; the base 8 flower branches 3137 ways at the root, so its
        # DFS blows past the budget at length 5
        if walked < 4:
            failures.append((text, "enumeration depth", walked))
    _criterion(6, "enumeration, DP and renewal counts agree entry-exact",
               failures)


def test_criterion_7_entropy_convergence(spec2):
    failures = []
    table = table_from_spectrum(spec2, 64)
    ln2 = math.log(2)
    dev = {n: abs(math.log(table.p[n]) / n - ln2) for n in (8, 16, 32, 64)}
    if dev[64] >= 0.05:
        failures.append(("final deviation", dev[64]))
    if not dev[8] >= dev[16] >= dev[32] >= dev[64]:
        failures.append(("not monotone", dev))
    _criterion(7, "growth estimates converge to ln 2 along dyadic depths",
               failures, f"dev(64) = {dev[64]:.4f}")


def test_criterion_8_scaled_count_trend(spec2):
    failures = []
    half = Fraction(1, 2)
    table = table_from_spectrum(spec2, 64)
    u = {n: table.p[n] * half ** n for n in range(32, 65)}
    band = max(u.values()) / min(u.values())
    if min(u.values()) <= 0 or band > 2:
        failures.append(("recurrent band", float(band)))
    d = delete_loop(spec2)
    dt = table_from_spectrum(d, 64)
    v = {n: dt.p[n] * half ** n for n in range(32, 65)}
    # the exact sequence bumps at each new square loop length (36, 49, 64),
    # so decay is asserted per block of eight and against a lag of 16
    blocks = [max(v[n] for n in range(lo, min(lo + 8, 65)))
              for lo in range(32, 64, 8)]
    if not all(blocks[i] > blocks[i + 1] for i in range(len(blocks) - 1)):
        failures.append(("block maxima", [float(b) for b in blocks]))
    if not all(v[n] < v[n - 16] for n in range(48, 65)):
        failures.append("lag 16")
    if not v[64] < v[32]:
        failures.append("endpoints")
    _criterion(8, "p(n) 2^-n stays banded when recurrent, decays when "
                  "transient", failures, f"band factor {float(band):.3f}")


def test_criterion_9_round_trip_determinism(tmp_path):
    failures = []
    s1 = build_spectrum(BetaValue.parse("e^7/10"), 36)
    s2 = build_spectrum(BetaValue.parse("e^7/10"), 36)
    b1 = spectrum_io.to_bytes(spectrum_io.SpectrumFile(s1))
    b2 = spectrum_io.to_bytes(spectrum_io.SpectrumFile(s2))
    if b1 != b2:
        failures.append("repeat build bytes")
    path = tmp_path / "s.json"
    path.write_bytes(b1)
    if spectrum_io.to_bytes(spectrum_io.load(path)) != b1:
        failures.append("spectrum file round trip")
    g = lift_period(realize(s1, 16), 2)
    back = json.loads(exported(g))
    if (tuple(back["vertices"]), tuple(map(tuple, back["arrows"]))) != (g.vertices, g.arrows):
        failures.append("graph round trip")
    _criterion(9, "serialization round-trips bit-exactly and runs are "
                  "deterministic", failures)
