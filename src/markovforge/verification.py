"""End-to-end checks of one spectrum: its construction properties, the oracles
and period of the one graph it realizes, and its classification certificates."""

from __future__ import annotations

from math import gcd

from .classifier import Verdict, classify
from .construction import spectrum_checks
from .errors import Unrealizable
from .graph import fits, is_strongly_connected, realize
from .oracle import (ENUMERATION_BUDGET, BudgetExceeded, count_first_returns,
                     count_paths, renewal_convolve, walk_path_counts)
from .spectrum import CheckResult, LoopSpectrum

DEFAULT_ORACLE_DEPTH = 12


def run_suite(s: LoopSpectrum, period_lift: int = 1,
              oracle_depth: int = DEFAULT_ORACLE_DEPTH) -> list[CheckResult]:
    results: list[CheckResult] = []

    # construction properties (constructed spectra only)
    if s.meta is not None:
        results.extend(spectrum_checks(s))

    results.extend(_oracle_checks(s, period_lift, oracle_depth))

    ok, detail = _certificate_consistent(s, classify(s))
    results.append(CheckResult("classification certificates consistent", ok, detail))
    return results


def _oracle_checks(s: LoopSpectrum, period_lift: int,
                   oracle_depth: int) -> list[CheckResult]:
    if s.count(1) > 1:
        return [CheckResult("realization strongly connected", False,
                            "a(1) > 1 needs parallel arrows: no graph realized")]
    results: list[CheckResult] = []
    # oracle equivalence on the truncated realization; shrink the depth until the
    # lifted graph fits (large bases reach millions of loops by length 9)
    depth = min(oracle_depth, s.N_max)
    while not fits(s, depth, period_lift):
        if depth == 1:
            raise Unrealizable(f"lifted by {period_lift}, no depth fits the vertex budget")
        depth -= 1
    g = realize(s, depth)
    detail = f"{g.size} vertices"
    if g.size == 1:
        # the checks below then compare a(1) only: say so
        longer = [n for n in s.support() if n > 1]
        detail += (f" (only the root: first loop past length 1 at n = {longer[0]}, "
                   f"past depth {depth})" if longer else
                   f" (only the root: no loop past length 1 up to n = {s.N_max})")
    results.append(CheckResult("realization strongly connected",
                               is_strongly_connected(g), detail))
    f_dp = count_first_returns(g, g.root, depth)
    p_dp = count_paths(g, g.root, g.root, depth)
    results.append(CheckResult(
        "first returns match spectrum",
        tuple(f_dp) == s.a[:depth],
        f"depth {depth}"))
    results.append(CheckResult(
        "renewal convolution matches path counts",
        renewal_convolve(f_dp, depth) == p_dp,
        f"depth {depth}"))

    # the literal walk against the DP up to a mismatch, its budget or the depth
    levels = walk_path_counts(g, g.root, g.root, ENUMERATION_BUDGET)
    n, match = 0, True
    try:
        for n, (paths, walked) in enumerate(zip(p_dp, levels)):
            if paths != walked:
                match = False
                break
    except BudgetExceeded:
        pass
    results.append(CheckResult(
        "literal enumeration matches DP", match,
        f"mismatch at n = {n}" if not match else
        f"walked all paths up to length {n}" if n else "skipped (budget)"))

    # period: the graph's, from its first returns and path counts, vs the spectrum's
    realized = [n * period_lift for n in s.support() if n <= depth]
    if realized:
        expected = gcd(*realized)
        structural = period_lift * gcd(*(n for n, v in enumerate(f_dp, 1) if v))
        from_counts = period_lift * gcd(*(n for n, v in enumerate(p_dp) if n and v))
        results.append(CheckResult(
            "period (structural vs oracle)",
            structural == expected and from_counts == expected,
            f"structural = {structural}, from counts = {from_counts}, "
            f"expected = {expected}"))

    return results


def _certificate_consistent(s: LoopSpectrum, report) -> tuple[bool, str]:
    v = report.verdict
    if v is Verdict.INDETERMINATE:
        return True, "indeterminate verdicts carry no certificate"
    if v is Verdict.NULL_RECURRENT:
        return False, "null recurrent verdicts require an exact analytic model"
    transient = v is Verdict.TRANSIENT
    # a constructed verdict is the construction identity's, with R = L;
    # classify certifies that identity before it gives any other verdict
    ok = (transient == (s.meta.deleted_loop is not None)
          and report.R == report.L) if s.meta else not transient
    if transient:
        return ok and report.has_mme is False, "transient: F(L) < 1 certified and R = L"
    return (ok and report.mean_return_bound is not None,
            "positive recurrent: F-sum reaches 1 with finite mean return")
