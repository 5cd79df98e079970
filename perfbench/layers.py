"""Per-layer metrics derived from the spans that traced_cli.py records.

Every ``_s`` metric is seconds spent in that layer over one pass of the
workload's command list, summed over its commands; it includes the layer's
child spans unless it is a ``_self_s`` metric.  Counts are per pass too.
"""

from __future__ import annotations

from collections import defaultdict

from workloads import RECURRENT

# metric -> span name: inclusive seconds
TIME = {
    "intervals.beta_eval_s": "intervals.beta_eval",
    "intervals.exp_s": "intervals.exp",
    "intervals.log_s": "intervals.log",
    "intervals.floor_s": "intervals.floor",
    "intervals.tail_s": "intervals.tail",
    "spectrum.build_s": "spectrum.build",
    "spectrum.sum_s": "spectrum.sum",
    "spectrum.checks_s": "spectrum.checks",
    "spectrum.delete_s": "spectrum.delete",
    "classifier.classify_s": "classifier.classify",
    "classifier.entropy_s": "classifier.entropy",
    "spectrum_io.save_s": "spectrum_io.save",
    "spectrum_io.load_s": "spectrum_io.load",
    "graph.realize_s": "graph.realize",
    "graph.adjacency_s": "graph.adjacency",
    "graph.connected_s": "graph.connected",
    "graph.lift_s": "graph.lift",
    "graph.export_s": "graph.export",
    "oracle.dp_s": "oracle.dp",
    "oracle.enum_s": "oracle.enum",
    "oracle.renewal_s": "oracle.renewal",
    "oracle.growth_s": "oracle.growth",
    "verification.suite_s": "verification.suite",
}
# metric -> span name: seconds minus the time covered by child spans
SELF_TIME = {
    "spectrum.build_self_s": "spectrum.build",
    "classifier.classify_self_s": "classifier.classify",
    "verification.suite_self_s": "verification.suite",
}
# metric -> span name: number of calls
CALLS = {
    "intervals.beta_eval_calls": "intervals.beta_eval",
    "intervals.exp_calls": "intervals.exp",
    "intervals.log_calls": "intervals.log",
    "intervals.floor_calls": "intervals.floor",
    "spectrum.build_calls": "spectrum.build",
    "classifier.calls": "classifier.classify",
    "graph.adjacency_calls": "graph.adjacency",
}
# metric -> (span name, attribute): attribute summed over the spans
ATTR_SUM = {
    "intervals.floor_refines": ("intervals.floor", "refines"),
    "spectrum.escalated_builds": ("spectrum.build", "escalated"),
    "spectrum_io.bytes_written": ("spectrum_io.save", "bytes"),
    "spectrum_io.bytes_read": ("spectrum_io.load", "bytes"),
    "graph.vertices": ("graph.realize", "vertices"),
    "graph.export_bytes": ("graph.export", "bytes"),
    "verification.checks_run": ("verification.suite", "checks"),
    "verification.checks_failed": ("verification.suite", "failed"),
}
# CLI subcommand -> metric: seconds inside markovforge.cli.main
CLI = {
    "build": "cli.build_s",
    "transient-variant": "cli.transient_variant_s",
    "classify": "cli.classify_s",
    "verify": "cli.verify_s",
    "lift": "cli.lift_s",
    "entropy": "cli.entropy_s",
    "export": "cli.export_s",
}
# (name, unit, better) in report order
PER_LAYER = (
    [("cli.import_s", "s", "lower")]
    + [(m, "s", "lower") for m in CLI.values()]
    + [("cli.exit_nonzero", "count", "lower")]
    + [(m, "s", "lower") for m in TIME if m.startswith("intervals.")]
    + [(m, "count", "lower") for m in CALLS if m.startswith("intervals.")]
    + [("intervals.floor_refines", "count", "lower"),
       ("intervals.den_bits_max", "bit", "lower")]
    + [(m, "s", "lower") for m in TIME if m.startswith("spectrum.")]
    + [("spectrum.build_self_s", "s", "lower"), ("spectrum.build_calls", "count", "lower"),
       ("spectrum.escalated_builds", "count", "lower")]
    + [("classifier.classify_s", "s", "lower"), ("classifier.classify_self_s", "s", "lower"),
       ("classifier.calls", "count", "lower"), ("classifier.entropy_s", "s", "lower"),
       ("classifier.wrong_verdicts", "count", "lower"),
       ("classifier.indeterminate", "count", "lower")]
    + [("spectrum_io.save_s", "s", "lower"), ("spectrum_io.load_s", "s", "lower"),
       ("spectrum_io.bytes_written", "B", "lower"), ("spectrum_io.bytes_read", "B", "lower")]
    + [(m, "s", "lower") for m in TIME if m.startswith("graph.")]
    + [("graph.vertices", "count", "lower"), ("graph.adjacency_calls", "count", "lower"),
       ("graph.export_bytes", "B", "lower")]
    + [(m, "s", "lower") for m in TIME if m.startswith("oracle.")]
    + [("oracle.enum_budget_hits", "count", "lower")]
    + [("verification.suite_s", "s", "lower"), ("verification.suite_self_s", "s", "lower"),
       ("verification.checks_run", "count", "higher"),
       ("verification.checks_failed", "count", "lower")]
    + [("trace.wall_s", "s", "lower")]
)


def pass_metrics(commands: list) -> dict:
    """Per-layer metrics of one traced pass.

    ``commands`` holds (exit code, transient expected or None, span payload or
    None) for every command of the pass.  ``trace.wall_s`` is left to the
    caller, which timed the pass.
    """
    out = {name: 0 for name, _, _ in PER_LAYER}
    for code, transient, payload in commands:
        if code != 0:
            out["cli.exit_nonzero"] += 1
        if payload is None:
            continue
        out["cli.import_s"] += payload["import_s"]
        spans = payload["spans"]
        child_time = defaultdict(float)
        for name, start, end, parent, attrs in spans:
            if parent >= 0:
                child_time[parent] += end - start
        by_name = defaultdict(list)
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            by_name[name].append((end - start, end - start - child_time[i], attrs))
            out["intervals.den_bits_max"] = max(out["intervals.den_bits_max"],
                                                attrs.get("den_bits", 0))
            if name == "cli.main" and attrs.get("command") in CLI:
                out[CLI[attrs["command"]]] += end - start
            elif name == "classifier.classify":
                verdict = attrs.get("verdict")
                out["classifier.indeterminate"] += verdict == "Indeterminate"
                if transient is not None and (
                        (transient and verdict in RECURRENT)
                        or (not transient and verdict == "Transient")):
                    out["classifier.wrong_verdicts"] += 1
            elif name == "oracle.enum" and attrs.get("raised") == "BudgetExceeded":
                out["oracle.enum_budget_hits"] += 1
        for metric, name in TIME.items():
            out[metric] += sum(d for d, _, _ in by_name[name])
        for metric, name in SELF_TIME.items():
            out[metric] += sum(s for _, s, _ in by_name[name])
        for metric, name in CALLS.items():
            out[metric] += len(by_name[name])
        for metric, (name, attr) in ATTR_SUM.items():
            out[metric] += sum(a.get(attr, 0) for _, _, a in by_name[name])
    return out
