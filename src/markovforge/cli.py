"""Command-line front end.

Exit codes: 0 success, 1 unreadable or malformed file, 2 invalid base
(beta <= 1) or bad usage, 3 precision exhausted (also beta too close to 1, or
a build of more than spectrum.MAX_SQUARE_FLOORS square floors or of more than
spectrum.MAX_SERIES_BITS bits for beta^N_max), 4 no deletable loop, 5
verification failures (a(1) > 1 among them), 6 graph too large to realize
(or a(1) > 1, in export).  A stdout closed early by its reader changes no
code: a command that succeeds exits 0, and a failing ``verify`` still exits 5.

``main`` returns the exit code, for callers in the same process.  The
``markovforge`` script and ``python -m markovforge.cli`` enter through
``run``, which flushes stdout and stderr after ``main`` and leaves through
``os._exit``: the interpreter's teardown, which frees every object and
module one by one, is skipped (about 10 ms a command).  Every file a command
writes is closed before ``main`` returns.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import BinaryIO, Callable, Optional, TypeVar

# series, construction, classifier, graph, oracle and verification run on
# first use (see __init__), so each command compiles only those it calls
from . import classifier, construction, graph, oracle, series, spectrum_io, verification
from .errors import (FloorUndecidable, NoDeletableLoop, NotGreaterThanOne,
                     PrecisionExhausted, SpectrumFileError, Unrealizable)
from .intervals import BetaValue, decimal_bounds
from .spectrum import DEFAULT_N_MAX, delete_loop

EXIT_OK = 0
EXIT_BAD_BETA = 2
EXIT_PRECISION = 3
EXIT_NO_LOOP = 4
EXIT_VERIFY = 5
EXIT_TOO_LARGE = 6

T = TypeVar("T")

ENTROPY_TOKENS = {"ln2": 2, "ln3": 3}


def _parsed(parse, what: str):
    """argparse type: ``parse(text)``; a text it rejects is a usage error (exit 2)."""
    def check(text: str):
        try:
            return parse(text)
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}") from None
    return check


def _int_from(least: int):
    def parse(text: str) -> int:
        if int(text) < least:
            raise ValueError
        return int(text)
    return _parsed(parse, f"an integer >= {least}")


def _entropy(text: str) -> str:
    """A token of ENTROPY_TOKENS or a number, kept as written."""
    if text not in ENTROPY_TOKENS:
        Fraction(text)
    return text


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


def _emit(write: Callable[[BinaryIO], T], out: Optional[str]) -> T:
    """``write(fh)`` to stdout for ``out`` None or ``-``, else to the file
    ``out``, opened only here: a command that fails before creates none."""
    if out is None or out == "-":
        return write(sys.stdout.buffer)
    with open(out, "wb") as fh:
        return write(fh)


def _save(sf: spectrum_io.SpectrumFile, out: str) -> None:
    if out == "-":
        sys.stdout.buffer.write(spectrum_io.to_bytes(sf))
    else:
        spectrum_io.save(sf, out)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_build(args) -> int:
    beta = args.beta or _beta_from_entropy(args.entropy, args.period)
    s = construction.build_spectrum(beta, N_max=args.max_n)
    _save(spectrum_io.SpectrumFile(s, period_lift=args.period), args.out)
    return EXIT_OK


def cmd_transient_variant(args) -> int:
    sf = spectrum_io.load(args.file)
    _save(sf.replace(spectrum=delete_loop(sf.spectrum, args.n0)), args.out)
    return EXIT_OK


def cmd_classify(args) -> int:
    sf = spectrum_io.load(args.file)
    report = classifier.classify(sf.spectrum)
    payload = report.to_dict()
    payload["period_lift"] = sf.period_lift
    # entropy_of_lift would classify a user spectrum a second time
    lifted = report.entropy
    if lifted is not None and sf.period_lift != 1:
        lifted = lifted / sf.period_lift
    payload["lifted_entropy"] = (list(decimal_bounds(lifted))
                                 if lifted is not None else None)
    if args.bits and lifted is not None:
        # report entropy in bits: divide the natural-log enclosure by ln 2
        payload["lifted_entropy_bits"] = list(decimal_bounds(lifted / series.ln2_enclosure()))
    if args.lambda_window:
        # a period lift leaves the limit alone
        limit = classifier.renewal_limit(sf.spectrum, report)
        payload["lambda_window"] = list(decimal_bounds(limit)) if limit is not None else None
    import json
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_entropy(args) -> int:
    sf = spectrum_io.load(args.file)
    est = _emit(lambda fh: oracle.write_csv(sf.spectrum, args.max_n, fh, sf.period_lift),
                args.csv)
    if est is not None:
        print(f"growth estimate at n = {est.samples[-1][0]}: {est.value:.6f}",
              file=sys.stderr)
    return EXIT_OK


def cmd_lift(args) -> int:
    sf = spectrum_io.load(args.file)
    if sf.period_lift != 1:
        print("error: spectrum file already carries a period lift", file=sys.stderr)
        return EXIT_BAD_BETA
    _save(sf.replace(period_lift=args.period), args.out)
    return EXIT_OK


def cmd_export(args) -> int:
    sf = spectrum_io.load(args.file)
    g = graph.realize(sf.spectrum, min(args.max_n, sf.spectrum.N_max), sf.period_lift)
    _emit(lambda fh: graph.export(g, args.format, fh), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    sf = spectrum_io.load(args.file)
    results = verification.run_suite(sf.spectrum, period_lift=sf.period_lift)
    failed = [r for r in results if not r.passed]
    try:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"[{status}] {r.name}: {r.detail}")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early; the verdict below does not depend on it
        _quiet_stdout()
    if failed:
        print(f"{len(failed)} invariant(s) failed", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markovforge",
        description="Construct, classify and verify countable loop graphs of "
                    "prescribed entropy and period.")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a spectrum file")
    src = b.add_mutually_exclusive_group(required=True)
    src.add_argument("--beta", type=_parsed(BetaValue.parse, "a number or e^q"),
                     help="growth base: rational, decimal, or e^q")
    src.add_argument("--entropy", type=_parsed(_entropy, "a number, ln2 or ln3"),
                     help="target entropy: decimal, ln2, or ln3")
    b.add_argument("--period", type=_int_from(1), default=1,
                   help="period lift p (with --entropy the base becomes e^(h p); "
                        "with --beta it stays beta, as after `lift --period p`)")
    b.add_argument("--max-n", type=_int_from(4), default=DEFAULT_N_MAX)
    b.add_argument("--out", required=True, help="output path, or - for stdout")
    b.set_defaults(fn=cmd_build)

    t = sub.add_parser("transient-variant", help="delete one loop")
    t.add_argument("file")
    t.add_argument("--n0", type=_loop_length, default="auto")
    t.add_argument("--out", required=True, help="output path, or - for stdout")
    t.set_defaults(fn=cmd_transient_variant)

    c = sub.add_parser("classify", help="print the classification report")
    c.add_argument("file")
    c.add_argument("--bits", action="store_true",
                   help="also report entropy in bits")
    c.add_argument("--lambda-window", action="store_true",
                   help="include the certified renewal limit lim p(n) R^n")
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
    v.set_defaults(fn=cmd_verify)
    return parser


def _quiet_stdout() -> None:
    """Send what stdout still holds to /dev/null, so that no later flush,
    the interpreter's own final one included, meets the closed pipe."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left early
        _quiet_stdout()
        return EXIT_OK
    except (SpectrumFileError, OSError) as e:
        error, code = e, 1
    except NotGreaterThanOne as e:
        error, code = e, EXIT_BAD_BETA
    except (PrecisionExhausted, FloorUndecidable) as e:
        error, code = e, EXIT_PRECISION
    except NoDeletableLoop as e:
        error, code = e, EXIT_NO_LOOP
    except Unrealizable as e:
        error, code = e, EXIT_TOO_LARGE
    print(f"error: {error}", file=sys.stderr)
    return code


def run() -> None:
    """``main()``, then stdout and stderr flushed and ``os._exit`` with its
    code.  Usage errors, ``--help`` and uncaught exceptions leave ``main``
    through ``SystemExit`` or a traceback, as from ``main`` itself."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except BrokenPipeError:
            pass  # the reader left early; the code stays the command's
    os._exit(code)


if __name__ == "__main__":
    run()
