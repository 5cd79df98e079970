"""Command-line front end.

Exit codes: 0 success, 1 unreadable or malformed file, 2 invalid base
(beta <= 1) or bad usage, 3 precision exhausted (also beta too close to 1, or
a build of more than spectrum.MAX_SQUARE_FLOORS square floors or of more than
spectrum.MAX_SERIES_BITS bits for beta^N_max), 4 no deletable loop, 5
verification failures (a(1) > 1 among them), 6 graph too large to realize
(or a(1) > 1, in export).  A stdout closed early by its reader changes no
code: a command that succeeds exits 0, and a failing ``verify`` still exits 5.

``parse_args`` reads the command, FILE and options from ``COMMANDS``, names
matched exactly, ``--opt=value`` and a repeated option (the last wins)
accepted, with no argparse, gettext or locale to import (about 4 ms).
``main`` returns the exit code, 2 after a usage error and 0 after ``--help``,
for callers in the same process.  The ``markovforge`` script and ``python -m
markovforge.cli`` enter through ``run``, which flushes stdout and stderr
after ``main`` and leaves through ``os._exit``: the interpreter's teardown,
which frees every object and module one by one, is skipped (about 10 ms a
command).  Every file a command writes is closed before ``main`` returns.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import BinaryIO, Callable, Optional, TypeVar

# series, construction, classifier, graph, oracle and verification run on
# first use (see __init__), so each command compiles only those it calls
from . import classifier, construction, graph, oracle, series, spectrum_io, verification
from .errors import (FloorUndecidable, NoDeletableLoop, NotGreaterThanOne,
                     PrecisionExhausted, SpectrumFileError, Unrealizable)
from .intervals import BetaValue, decimal_bounds, literal_fraction
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
    """An option's validator: ``parse(text)``; a text it rejects is a usage
    error (exit 2), said in ``literal_fraction``'s words for an exponent."""
    def check(text: str):
        try:
            return parse(text)
        except OverflowError as e:
            raise ValueError(e) from None
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"expected {what}, got {text!r}") from None
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
        literal_fraction(text)
    return text


def _loop_length(text: str) -> Optional[int]:
    return None if text == "auto" else _int_from(2)(text)


def _beta_from_entropy(entropy: str, p: int) -> BetaValue:
    """beta = e^(h p); the tokens ln2/ln3 yield the exact rational base k^p."""
    if entropy in ENTROPY_TOKENS:
        return BetaValue.from_rational(ENTROPY_TOKENS[entropy] ** p)
    h = literal_fraction(entropy)
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
# command table
# ---------------------------------------------------------------------------


def cmd_help(args) -> int:
    print(_usage(args.commands))
    return EXIT_OK


def _choice(*names: str):  # index raises ValueError for any other text
    return _parsed(lambda text: names[names.index(text)], "one of " + ", ".join(names))


# command: (handler, takes FILE, {option: (validator, default)}, what it does).
# An option without a validator is a flag; a default of ... marks an option
# that must be given.
COMMANDS = {
    "build": (cmd_build, False, {
        "--beta": (_parsed(BetaValue.parse, "a number or e^q"), None),
        "--entropy": (_parsed(_entropy, "a number, ln2 or ln3"), None),
        "--period": (_int_from(1), 1), "--max-n": (_int_from(4), DEFAULT_N_MAX),
        "--out": (str, ...)}, "build from one of --beta and --entropy h (e^(h p))"),
    "transient-variant": (cmd_transient_variant, True, {
        "--n0": (_loop_length, None), "--out": (str, ...)}, "delete one loop (--n0 auto or >= 2)"),
    "classify": (cmd_classify, True, {
        "--bits": (None, False), "--lambda-window": (None, False)}, "print the report"),
    "entropy": (cmd_entropy, True, {
        "--max-n": (_int_from(1), DEFAULT_N_MAX), "--csv": (str, None)}, "emit growth-rate CSV"),
    "lift": (cmd_lift, True, {
        "--period": (_int_from(1), ...), "--out": (str, ...)}, "record a period lift in the file"),
    "export": (cmd_export, True, {
        "--format": (_choice("dot", "json"), ...), "--max-n": (_int_from(1), DEFAULT_N_MAX),
        "--out": (str, None)}, "export the realized graph"),
    "verify": (cmd_verify, True, {}, "run the invariant suite"),
}


def _usage(commands) -> str:
    """The synopsis of ``commands``, one line of options and one of help each."""
    lines = ["usage: markovforge COMMAND [FILE] [OPTIONS]   (--out -: standard output)"]
    for name in commands:
        _, takes_file, options, about = COMMANDS[name]
        words = [name] + ["FILE"] * takes_file
        for option, (parse, default) in options.items():
            word = option if parse is None else f"{option} {option[2:].upper().replace('-', '_')}"
            words.append(word if default is ... else f"[{word}]")
        lines += ["  " + " ".join(words), "      " + about]
    return "\n".join(lines)


def parse_args(argv: list) -> SimpleNamespace:
    """``argv`` as the ``args`` of its command's handler (``fn``, ``file``,
    one attribute per option); ValueError says what is wrong with it."""
    if argv[:1] in (["-h"], ["--help"]):
        return SimpleNamespace(fn=cmd_help, commands=COMMANDS)
    if not argv or argv[0] not in COMMANDS:
        raise ValueError(f"unknown command {argv[0]!r}" if argv else "no command given")
    fn, takes_file, options, _ = COMMANDS[argv[0]]
    values = {option: default for option, (_, default) in options.items()}
    file, words = None, iter(argv[1:])
    for word in words:
        option, eq, text = word.partition("=")
        if word in ("-h", "--help"):
            return SimpleNamespace(fn=cmd_help, commands=argv[:1])
        if word[:1] != "-" or word == "-":
            if not takes_file or file is not None:
                raise ValueError(f"unexpected argument {word!r}")
            file = word
        elif option not in options:
            raise ValueError(f"unknown option {option!r}")
        elif options[option][0] is None:
            if eq:
                raise ValueError(f"{option} takes no value")
            values[option] = True
        else:
            if not eq:
                # a negative number such as --entropy -0.5 is a value, as - is
                text = next(words, None)
                if text is None or text[:1] == "-" and text[1:2] not in "0123456789.":
                    raise ValueError(f"{option} expects a value")
            try:
                values[option] = options[option][0](text)
            except ValueError as e:
                raise ValueError(f"{option}: {e}") from None
    missing = ["FILE"] * (takes_file and file is None) + [
        option for option, value in values.items() if value is ...]
    if missing:
        raise ValueError("missing " + " ".join(missing))
    if argv[0] == "build" and (values["--beta"] is None) == (values["--entropy"] is None):
        raise ValueError("give exactly one of --beta and --entropy")
    return SimpleNamespace(fn=fn, file=file, **{
        option[2:].replace("-", "_"): value for option, value in values.items()})


def _quiet_stdout() -> None:
    """Send what stdout still holds to /dev/null, so that no later flush,
    the interpreter's own final one included, meets the closed pipe."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parse_args(argv)
    except ValueError as e:
        print(_usage(argv[:1] if argv and argv[0] in COMMANDS else COMMANDS),
              f"error: {e}", sep="\n", file=sys.stderr)
        return EXIT_BAD_BETA
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
    code; an uncaught exception leaves ``main`` with its traceback."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except BrokenPipeError:
            pass  # the reader left early; the code stays the command's
    os._exit(code)


if __name__ == "__main__":
    run()
