"""Run one markovforge CLI command with a span recorded around every call
into each layer's public functions.

    python3 traced_cli.py SPANS_OUT -- ARGV...

Puts ``src`` of the checkout on the path, imports ``markovforge.cli``, wraps
the functions in ``TARGETS`` under every name a module looks them up by
(modules import with ``from … import``, so the defining module alone is not
enough), then calls ``markovforge.cli.main(ARGV)``.  Spans stay in memory and
are written to SPANS_OUT as one JSON object when the command exits; the exit
code is the command's own.  Nothing under ``src`` is changed.

If a target cannot be found, the command is not run: the reason goes to
standard error, no spans are written and the exit code is EXIT_NO_TARGET.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

EXIT_NO_TARGET = 70     # no markovforge command exits with this code

# (module, attribute, span name).  Several functions may share a span name;
# a call made while a span of the same name is open is not recorded again.
TARGETS = (
    ("markovforge.intervals", "BetaValue.eval", "intervals.beta_eval"),
    ("markovforge.intervals", "exp_fraction", "intervals.exp"),
    ("markovforge.intervals", "log_fraction", "intervals.log"),
    ("markovforge.intervals", "log_interval", "intervals.log"),
    ("markovforge.intervals", "certified_floor", "intervals.floor"),
    ("markovforge.intervals", "geometric_tail", "intervals.tail"),
    ("markovforge.spectrum", "build_spectrum", "spectrum.build"),
    ("markovforge.spectrum", "unit_sum_enclosure", "spectrum.sum"),
    ("markovforge.spectrum", "weighted_sum_enclosure", "spectrum.sum"),
    ("markovforge.spectrum", "spectrum_checks", "spectrum.checks"),
    ("markovforge.spectrum", "delete_loop", "spectrum.delete"),
    ("markovforge.classifier", "classify", "classifier.classify"),
    ("markovforge.classifier", "entropy_enclosure", "classifier.entropy"),
    ("markovforge.classifier", "entropy_of_lift", "classifier.entropy"),
    ("markovforge.spectrum_io", "save", "spectrum_io.save"),
    ("markovforge.spectrum_io", "load", "spectrum_io.load"),
    ("markovforge.graph", "realize", "graph.realize"),
    ("markovforge.graph", "ExplicitGraph.adjacency", "graph.adjacency"),
    ("markovforge.graph", "ExplicitGraph.reverse_adjacency", "graph.adjacency"),
    ("markovforge.graph", "is_strongly_connected", "graph.connected"),
    ("markovforge.graph", "lift_period", "graph.lift"),
    ("markovforge.graph", "export", "graph.export"),
    ("markovforge.oracle", "count_paths", "oracle.dp"),
    ("markovforge.oracle", "count_first_returns", "oracle.dp"),
    ("markovforge.oracle", "enumerate_paths", "oracle.enum"),
    ("markovforge.oracle", "enumerate_first_returns", "oracle.enum"),
    ("markovforge.oracle", "renewal_convolve", "oracle.renewal"),
    ("markovforge.oracle", "table_from_spectrum", "oracle.renewal"),
    ("markovforge.oracle", "growth_rate", "oracle.growth"),
    ("markovforge.verification", "run_suite", "verification.suite"),
)


def den_bits(*values) -> int:
    """Largest denominator bit length among the endpoints of enclosures."""
    best = 0
    for v in values:
        for end in (getattr(v, "lo", None), getattr(v, "hi", None)):
            den = getattr(end, "denominator", None)
            if isinstance(den, int):
                best = max(best, den.bit_length())
    return best


def meta_den_bits(meta) -> int:
    return den_bits(*(getattr(meta, name, None)
                      for name in ("L", "delta", "tail_at_L")))


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# --- what each span records from its arguments and result --------------------

def _build_attrs(bound, result, attrs):
    meta = getattr(result, "meta", None)
    requested = bound.arguments.get("precision_bits")
    got = getattr(meta, "precision_bits", None)
    attrs["escalated"] = int(isinstance(requested, int) and isinstance(got, int)
                             and got > requested)
    attrs["den_bits"] = meta_den_bits(meta)


def _load_attrs(bound, result, attrs):
    attrs["bytes"] = _file_size(bound.arguments.get("path"))
    spectrum = getattr(result, "spectrum", None)
    attrs["den_bits"] = meta_den_bits(getattr(spectrum, "meta", None))


def _save_attrs(bound, result, attrs):
    attrs["bytes"] = _file_size(bound.arguments.get("path"))


def _classify_attrs(bound, result, attrs):
    verdict = getattr(result, "verdict", None)
    attrs["verdict"] = getattr(verdict, "value", str(verdict))
    attrs["den_bits"] = den_bits(getattr(result, "F_at_L", None),
                                 getattr(result, "mean_return_bound", None))


def _realize_attrs(bound, result, attrs):
    attrs["vertices"] = len(getattr(result, "vertices", ()))


def _export_attrs(bound, result, attrs):
    attrs["bytes"] = len(result) if isinstance(result, (bytes, str)) else 0


def _suite_attrs(bound, result, attrs):
    attrs["checks"] = len(result)
    attrs["failed"] = sum(1 for r in result if not getattr(r, "passed", True))


AFTER = {
    "spectrum.build": _build_attrs,
    "spectrum_io.load": _load_attrs,
    "spectrum_io.save": _save_attrs,
    "classifier.classify": _classify_attrs,
    "graph.realize": _realize_attrs,
    "graph.export": _export_attrs,
    "verification.suite": _suite_attrs,
}


class Recorder:
    """Spans as [name, start, end, parent index, attrs], kept in memory."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.open_names: Counter = Counter()

    def call(self, name, fn, args, kwargs, attrs=None, bound=None):
        if self.open_names[name]:
            return fn(*args, **kwargs)
        attrs = {} if attrs is None else attrs
        index = len(self.spans)
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, attrs]
        self.spans.append(span)
        self.stack.append(index)
        self.open_names[name] += 1
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as e:
            span[2] = time.perf_counter()
            attrs["raised"] = type(e).__name__
            raise
        else:
            span[2] = time.perf_counter()
            after = AFTER.get(name)
            if after is not None and bound is not None:
                after(bound, result, attrs)
            return result
        finally:
            self.stack.pop()
            self.open_names[name] -= 1

    def wrap(self, fn, name):
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            signature = None
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if signature is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                except TypeError:
                    bound = None
            attrs = {}
            if name == "intervals.floor" and bound is not None:
                refine = bound.arguments.get("refine")
                if refine is not None:
                    # each refine callback is one precision escalation
                    attrs["refines"] = 0

                    def counted(*a, **kw):
                        attrs["refines"] += 1
                        return refine(*a, **kw)
                    bound.arguments["refine"] = counted
                    args, kwargs = bound.args, bound.kwargs
            return recorder.call(name, fn, args, kwargs, attrs, bound)
        return traced

    def install(self, targets=TARGETS) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "markovforge" or n.startswith("markovforge."))]
        found = []
        for module_name, attr, name in targets:
            module = sys.modules.get(module_name)
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = getattr(owner, fn_name, None)
            if fn is None:
                raise LookupError(f"trace target {module_name}.{attr} not found "
                                  "after importing markovforge.cli")
            found.append((owner_name, owner, fn_name, fn, name))
        for owner_name, owner, fn_name, fn, name in found:
            traced = self.wrap(fn, name)
            if owner_name:
                setattr(owner, fn_name, traced)
                continue
            # replace every module-level name bound to this function
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, traced)


def main() -> int:
    if len(sys.argv) < 4 or sys.argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, argv = sys.argv[1], sys.argv[3:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.perf_counter()
    import markovforge.cli
    import_s = time.perf_counter() - t0
    recorder = Recorder()
    try:
        recorder.install()
    except LookupError as e:
        print(f"traced_cli: {e}", file=sys.stderr)
        return EXIT_NO_TARGET
    code = 1
    try:
        code = recorder.call("cli.main", markovforge.cli.main, (argv,), {},
                             {"command": argv[0]})
    except SystemExit as e:  # argparse usage errors
        code = e.code if isinstance(e.code, int) else 1
    finally:
        sys.stdout.flush()
        payload = {"argv": argv, "import_s": import_s,
                   "spans": recorder.spans}
        Path(out_path).write_text(json.dumps(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
