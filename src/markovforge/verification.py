"""End-to-end invariant suite: construction properties, oracle equivalence,
period, and classification-certificate consistency for one spectrum."""

from __future__ import annotations

from math import gcd

from .classifier import Verdict, classify
from .construction import spectrum_checks
from .errors import Unrealizable
from .graph import fits, is_strongly_connected, realize
from .oracle import (ENUMERATION_BUDGET, BudgetExceeded, count_first_returns,
                     count_paths, renewal_convolve, table_from_spectrum,
                     walk_path_counts)
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

    enum_ok = True
    enum_detail = "skipped (budget)"
    checked_to = 0
    levels = walk_path_counts(g, g.root, g.root, ENUMERATION_BUDGET)
    next(levels)  # n = 0
    try:
        for n in range(1, depth + 1):
            if next(levels) != p_dp[n]:
                enum_ok = False
                enum_detail = f"mismatch at n = {n}"
                break
            checked_to = n
    except BudgetExceeded:
        pass
    if enum_ok and checked_to:
        enum_detail = f"walked all paths up to length {checked_to}"
    results.append(CheckResult("literal enumeration matches DP", enum_ok, enum_detail))

    # period: the graph's, from its first returns, against the spectrum's
    realized = [n * period_lift for n in s.support() if n <= depth]
    if realized:
        expected = gcd(*realized)
        structural = period_lift * gcd(*(n for n, v in enumerate(f_dp, 1) if v))
        table = table_from_spectrum(s, depth * period_lift, period_lift)
        from_counts = [n for n, v in enumerate(table.p) if n > 0 and v > 0]
        oracle_gcd = gcd(*from_counts) if from_counts else None
        results.append(CheckResult(
            "period (structural vs oracle)",
            structural == expected and oracle_gcd == expected,
            f"structural = {structural}, from counts = {oracle_gcd}, "
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
