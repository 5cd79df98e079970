#!/usr/bin/env python3
"""The paper's theorem, one certified row per entropy h and period p: G =
build_spectrum(e^(h p)) at the default N_max, lifted by p, is positive
recurrent and G' = delete_loop(G) transient, both of entropy h and period p.

    PYTHONPATH=src python scripts/theorem_table.py [h ...] [--periods p ...]

h defaults to 1 1/10 1/100 1/1000 1/10000, p to 1 3.  A row is PASS when G
classifies PositiveRecurrent and G' Transient (F(L) = 1 - L^n0, n0 the
deleted loop), both entropy_of_lift enclosures hold h, both periods p gcd(a's
support) are p and no run_suite check fails; OPEN when G passes and G' has
no loop in 2..N_max to delete (ROADMAP item 1); else FAIL.  Exit 1 on a
FAIL, else 4 on an OPEN row, else 0.
"""

import argparse
import math
import sys
from fractions import Fraction

from markovforge import (BetaValue, Verdict, build_spectrum, classify, delete_loop,
                         entropy_of_lift)
from markovforge.errors import CertifiedNumericsError, NoDeletableLoop
from markovforge.intervals import decimal_bounds
from markovforge.verification import run_suite

ENTROPIES = [Fraction(1, 10 ** k) for k in range(5)]
COLUMNS = "{:<6} {:<8} {:>2} {:>6}  {:<20} {:<5} {:<17} {:<9} {}"


def flavour(s, h, p, verdict):
    """Whether s certifies `verdict`, entropy h and period p with every check
    passing; its verdict; the entropy_of_lift enclosure; whether that holds h;
    the period p gcd(support of a); the names of the failed checks."""
    got, entropy, period = classify(s).verdict, entropy_of_lift(s, p), p * math.gcd(*s.support())
    holds_h = entropy is not None and entropy.contains(h)
    failed = [r.name for r in run_suite(s, p) if not r.passed]
    ok = got is verdict and holds_h and period == p and not failed
    return ok, got, entropy, holds_h, period, failed


def row(h, p):
    """The cells of (h, p), its status first; the period and enclosure shown
    are G's, the same as G' has."""
    g = build_spectrum(BetaValue.exp_of_rational(h * p))
    ok, verdict, entropy, holds_h, period, failed = flavour(g, h, p, Verdict.POSITIVE_RECURRENT)
    try:
        g_prime = delete_loop(g)
    except NoDeletableLoop as e:
        status, transient = "OPEN" if ok else "FAIL", f"open: {e}"
    else:
        ok_t, verdict_t, _, holds_t, _, failed_t = flavour(g_prime, h, p, Verdict.TRANSIENT)
        status = "PASS" if ok and ok_t else "FAIL"
        holds_h, failed = holds_h and holds_t, failed + failed_t
        transient = f"{verdict_t.value} n0={g_prime.meta.deleted_loop}"
    enclosure = "[{}, {}]".format(*decimal_bounds(entropy, 6)) if entropy is not None else "none"
    return (status, period, enclosure, "yes" if holds_h else "no", verdict.value,
            f"fail: {'; '.join(failed)}" if failed else "all pass", transient)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("entropies", nargs="*", type=Fraction, default=ENTROPIES)
    ap.add_argument("--periods", nargs="*", type=int, default=[1, 3])
    args = ap.parse_args()
    print(COLUMNS.format(*"status h p period entropy holds G checks G'".split()))
    statuses = set()
    for h in args.entropies:
        for p in args.periods:
            try:
                status, *cells = row(h, p)
            except CertifiedNumericsError as e:
                status, cells = "FAIL", [""] * 5 + [f"error: {e}"]
            statuses.add(status)
            print(COLUMNS.format(status, str(h), p, *cells))
    sys.exit(1 if "FAIL" in statuses else 4 if "OPEN" in statuses else 0)


if __name__ == "__main__":
    main()
