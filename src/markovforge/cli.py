"""Command-line front end.

Exit codes: 0 success, 1 unreadable or malformed file, 2 invalid base
(beta <= 1) or bad usage, 3 precision exhausted (also beta too close to 1),
4 no deletable loop, 5 verification failures, 6 graph too large to realize.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import Optional

from . import spectrum_io
from .classifier import classify, entropy_of_lift, lambda_estimate
from .errors import (FloorUndecidable, InsufficientData, NoDeletableLoop,
                     NotGreaterThanOne, PrecisionExhausted, SpectrumFileError)
from .graph import export, lift_period, realize, vertex_count
from .intervals import DEFAULT_PRECISION_BITS, BetaValue, decimal_bounds
from .oracle import growth_rate, table_from_spectrum
from .spectrum import DEFAULT_N_MAX, build_spectrum, delete_loop
from .verification import DEFAULT_ORACLE_DEPTH, REALIZE_VERTEX_BUDGET, run_suite

EXIT_OK = 0
EXIT_BAD_BETA = 2
EXIT_PRECISION = 3
EXIT_NO_LOOP = 4
EXIT_VERIFY = 5
EXIT_TOO_LARGE = 6

ENTROPY_TOKENS = {"ln2": 2, "ln3": 3}


def _int_from(least: int):
    """argparse type: an integer >= ``least``, else a usage error (exit 2)."""
    def parse(text: str) -> int:
        try:
            if int(text) >= least:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {text!r}")
    return parse


def _loop_length(text: str) -> Optional[int]:
    return None if text == "auto" else _int_from(2)(text)


def _beta_from_entropy(entropy: str, p: int) -> BetaValue:
    """beta = e^(h p); the tokens ln2/ln3 yield the exact rational base k^p."""
    if entropy in ENTROPY_TOKENS:
        return BetaValue.from_rational(ENTROPY_TOKENS[entropy] ** p)
    h = Fraction(entropy)
    if h <= 0:
        raise NotGreaterThanOne(f"entropy {entropy} is not positive")
    return BetaValue.exp_of_rational(h * p)


def _emit(data: bytes, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.buffer.write(data)
    else:
        with open(out, "wb") as fh:
            fh.write(data)


def _save(sf: spectrum_io.SpectrumFile, out: str) -> None:
    if out == "-":
        _emit(spectrum_io.to_bytes(sf), out)
    else:
        spectrum_io.save(sf, out)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_build(args) -> int:
    if args.beta is not None:
        beta = BetaValue.parse(args.beta)
        p = 1
    else:
        p = args.period
        beta = _beta_from_entropy(args.entropy, p)
    s = build_spectrum(beta, N_max=args.max_n, precision_bits=args.precision)
    _save(spectrum_io.SpectrumFile(s, period_lift=p, entropy_target=args.entropy),
          args.out)
    return EXIT_OK


def cmd_transient_variant(args) -> int:
    sf = spectrum_io.load(args.file)
    variant = delete_loop(sf.spectrum, args.n0)
    _save(spectrum_io.SpectrumFile(variant, sf.period_lift, sf.entropy_target),
          args.out)
    return EXIT_OK


def cmd_classify(args) -> int:
    sf = spectrum_io.load(args.file)
    report = classify(sf.spectrum, precision_bits=args.precision)
    payload = report.to_dict()
    payload["period_lift"] = sf.period_lift
    lifted = entropy_of_lift(sf.spectrum, sf.period_lift, args.precision)
    payload["lifted_entropy"] = (list(decimal_bounds(lifted))
                                 if lifted is not None else None)
    if args.bits:
        # report entropy in bits: divide the natural-log enclosure by ln 2
        from .intervals import ln2_enclosure
        if lifted is not None:
            payload["lifted_entropy_bits"] = list(
                decimal_bounds(lifted / ln2_enclosure(args.precision)))
    if args.lambda_window:
        depth = max(64, 2 * sf.spectrum.N_max) * sf.period_lift
        table = table_from_spectrum(sf.spectrum, depth, sf.period_lift)
        if report.R.value is not None:
            payload["lambda_window"] = [
                [n, v] for n, v in lambda_estimate(table, report.R.value,
                                                   period=sf.period_lift)]
    import json
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_entropy(args) -> int:
    sf = spectrum_io.load(args.file)
    depth = args.max_n * sf.period_lift
    table = table_from_spectrum(sf.spectrum, depth, sf.period_lift)
    csv = table.to_csv(period=sf.period_lift)
    _emit(csv.encode("utf-8"), args.csv)
    try:
        est = growth_rate(table.p, window=8, period=sf.period_lift)
        print(f"growth estimate at n = {est.samples[-1][0]}: {est.value:.6f}",
              file=sys.stderr)
    except InsufficientData:
        pass
    return EXIT_OK


def cmd_lift(args) -> int:
    sf = spectrum_io.load(args.file)
    if sf.period_lift != 1:
        print("error: spectrum file already carries a period lift", file=sys.stderr)
        return EXIT_BAD_BETA
    _save(spectrum_io.SpectrumFile(sf.spectrum, args.period, sf.entropy_target),
          args.out)
    return EXIT_OK


def cmd_export(args) -> int:
    sf = spectrum_io.load(args.file)
    n = min(args.max_n, sf.spectrum.N_max)
    size = vertex_count(sf.spectrum, n) * sf.period_lift
    if size > REALIZE_VERTEX_BUDGET:
        print(f"error: the graph up to length {n} has {size} vertices, more than "
              f"{REALIZE_VERTEX_BUDGET}; lower --max-n", file=sys.stderr)
        return EXIT_TOO_LARGE
    g = realize(sf.spectrum, n)
    if sf.period_lift > 1:
        g = lift_period(g, sf.period_lift)
    _emit(export(g, args.format), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    sf = spectrum_io.load(args.file)
    results = run_suite(sf.spectrum, period_lift=sf.period_lift,
                        oracle_depth=args.oracle_depth)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: {r.detail}")
    if failed:
        print(f"{len(failed)} invariant(s) failed", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # a string default goes through the option's type check, like a typed value
    precision = os.environ.get("MARKOVFORGE_PRECISION", str(DEFAULT_PRECISION_BITS))
    parser = argparse.ArgumentParser(
        prog="markovforge",
        description="Construct, classify and verify countable loop graphs of "
                    "prescribed entropy and period.")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a spectrum file")
    src = b.add_mutually_exclusive_group(required=True)
    src.add_argument("--beta", help="growth base: rational, decimal, or e^q")
    src.add_argument("--entropy", help="target entropy: decimal, ln2, or ln3")
    b.add_argument("--period", type=_int_from(1), default=1,
                   help="period lift p (with --entropy: base becomes e^(h p))")
    b.add_argument("--max-n", type=_int_from(4), default=DEFAULT_N_MAX)
    b.add_argument("--precision", type=_int_from(1), default=precision)
    b.add_argument("--out", required=True, help="output path, or - for stdout")
    b.set_defaults(fn=cmd_build)

    t = sub.add_parser("transient-variant", help="delete one loop")
    t.add_argument("file")
    t.add_argument("--n0", type=_loop_length, default="auto")
    t.add_argument("--out", required=True, help="output path, or - for stdout")
    t.set_defaults(fn=cmd_transient_variant)

    c = sub.add_parser("classify", help="print the classification report")
    c.add_argument("file")
    c.add_argument("--precision", type=_int_from(1), default=precision)
    c.add_argument("--bits", action="store_true",
                   help="also report entropy in bits")
    c.add_argument("--lambda-window", action="store_true",
                   help="include the p(n) R^n trailing window")
    c.set_defaults(fn=cmd_classify)

    e = sub.add_parser("entropy", help="emit growth-rate CSV")
    e.add_argument("file")
    e.add_argument("--max-n", type=_int_from(1), default=DEFAULT_N_MAX)
    e.add_argument("--csv", default=None, help="output path (default stdout)")
    e.set_defaults(fn=cmd_entropy)

    lf = sub.add_parser("lift", help="record a period lift in the file")
    lf.add_argument("file")
    lf.add_argument("--period", type=_int_from(1), required=True)
    lf.add_argument("--out", required=True, help="output path, or - for stdout")
    lf.set_defaults(fn=cmd_lift)

    x = sub.add_parser("export", help="export the realized graph")
    x.add_argument("file")
    x.add_argument("--format", choices=("dot", "json"), required=True)
    x.add_argument("--max-n", type=_int_from(1), default=DEFAULT_N_MAX)
    x.add_argument("--out", default=None)
    x.set_defaults(fn=cmd_export)

    v = sub.add_parser("verify", help="run the invariant suite")
    v.add_argument("file")
    v.add_argument("--oracle-depth", type=_int_from(1), default=DEFAULT_ORACLE_DEPTH)
    v.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (SpectrumFileError, OSError) as e:
        error, code = e, 1
    except NotGreaterThanOne as e:
        error, code = e, EXIT_BAD_BETA
    except (PrecisionExhausted, FloorUndecidable) as e:
        error, code = e, EXIT_PRECISION
    except NoDeletableLoop as e:
        error, code = e, EXIT_NO_LOOP
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
