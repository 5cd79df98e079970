#!/usr/bin/env python3
"""markovforge benchmark: seeded CLI pipelines, timed end to end and traced
per layer.

    python3 perfbench/run.py --workload {construct,verify,query,all} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its ``src``.
Each workload (see workloads.py) is a fixed list of ``markovforge`` CLI
commands, run one at a time as child processes: a closed loop with a single
client, so at most one core is busy.  A run sets the workload up
SETUP_REPEATS times (median reported as ``setup_s``), then runs whole passes
of the command list while the next pass is expected to end within
``--seconds``; at least one pass is always run.  Every command's outcome is
checked against ground truth after its pass.

With ``--trace 0`` commands run as ``python -m markovforge.cli`` and the
end-to-end metrics are reported.  With ``--trace 1`` the same list runs
through traced_cli.py, which records spans around each layer's public
functions, and the per-layer metrics (layers.py) are reported instead.

Every child is started by spawner.py and runs under a wall-clock alarm, a
CPU-time limit and an address-space cap, set on the child only.  A killed command has failed and
counts as TIMEOUT_S seconds.

The benchmark and its children are pinned to one CPU.  The end-to-end times
are scaled to a reference speed of that CPU: the speed of a shared VM drifts
by up to 1.5x from minute to minute as its neighbours load the host, which
moves raw times between runs by more than the benchmark's bounds.  After
every command, and once per SPEED_SAMPLE_EVERY_S of elapsed time, the
benchmark times a fixed piece of reference work (SpeedMeter).  Each set-up's
and each pass's seconds are multiplied by REFERENCE_S over the mean time of
that work during it, and each command's seconds by REFERENCE_S over its mean
just before and just after the command.  The time spent on the reference
work is not counted, and the measured, unscaled times and the scales are
printed with the metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
every command whose outcome was wrong; ``correct`` is false when a failure
is not the exact outcome of a documented defect (workloads.known_defect).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

TIMEOUT_S = 60              # per command: wall-clock alarm and CPU seconds
ADDRESS_SPACE = 2 << 30     # per command: RLIMIT_AS in bytes
SETUP_REPEATS = 3
RUN_LIMIT_S = 165           # every child of a run is killed by then
TAIL_BEYOND = 10            # samples required beyond the tail percentile

END_TO_END = (("wall_s", "s"), ("job_s_p50", "s"), ("job_s_tail", "s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))

IMPORT_CHECK = "import markovforge.cli; print(markovforge.cli.__file__)"

SPEED_SAMPLE_EVERY_S = 0.25
# Mean time of reference_work() on the vCPUs (Xeon, 2.1 GHz) the benchmark was
# tuned on, so that scaled times read close to seconds there.
REFERENCE_S = 0.010


def reference_work() -> float:
    """Time a fixed piece of pure-Python work like the program's hot paths:
    Fraction sums with growing denominators, and building a dict of lists."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(1, i)
    table = {i: [i, i ^ 0x5A5A] for i in range(40_000)}
    assert total > 0 and len(table) == 40_000
    return time.perf_counter() - t0


class SpeedMeter:
    """The machine's speed over a span of commands, sampled between them."""

    def __init__(self):
        self.samples = [reference_work()]
        self.tick_start = 0     # index of the last tick's first sample
        self.spent = 0.0        # seconds spent on the reference work
        self.last = time.perf_counter()

    def tick(self) -> float:
        """Sample after a command: once per SPEED_SAMPLE_EVERY_S elapsed since
        the last tick, and at least once.  Returns the command's own scale,
        from the samples of the ticks just before and just after it."""
        t0 = time.perf_counter()
        before, self.tick_start = self.tick_start, len(self.samples)
        due = max(1, int((t0 - self.last) / SPEED_SAMPLE_EVERY_S))
        self.samples += [reference_work() for _ in range(due)]
        self.last = time.perf_counter()
        self.spent += self.last - t0
        return REFERENCE_S / statistics.fmean(self.samples[before:])

    def scale(self) -> float:
        """The scale for the whole span."""
        return REFERENCE_S / statistics.fmean(self.samples)


class SetupError(Exception):
    pass


@dataclass
class Outcome:
    wall: float
    rss_mb: float
    code: int
    killed: bool
    stdout: str


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("MARKOVFORGE_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


class Spawner:
    """The spawner.py process that starts every child, so that a child's
    peak RSS is its own and not this process's (see spawner.py)."""

    def __enter__(self) -> "Spawner":
        self.proc = subprocess.Popen([sys.executable, "-S", str(HERE / "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=TIMEOUT_S + 5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def run(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise SetupError("the spawner process ended")
        return json.loads(answer)


SPAWNER: Optional[Spawner] = None


def spawn(argv: list, cwd: Path, log: Path, end: float) -> Outcome:
    """Run one child to completion, bounded by TIMEOUT_S and the run's end.

    The child is timed from spawn to exit; its peak RSS comes from wait4.
    """
    timeout = max(1, min(TIMEOUT_S, math.floor(end - time.perf_counter())))
    got = SPAWNER.run({"argv": argv, "cwd": str(cwd), "env": _child_env(),
                       "out": str(log.with_suffix(".out")), "err": str(log.with_suffix(".err")),
                       "timeout": timeout, "address_space": ADDRESS_SPACE})
    killed = os.WIFSIGNALED(got["status"])
    return Outcome(timeout if killed else got["wall"], got["maxrss_kb"] / 1024,
                   os.waitstatus_to_exitcode(got["status"]), killed,
                   log.with_suffix(".out").read_text(errors="replace"))


def cli_argv(cmd: workloads.Cmd, trace: bool, spans: Path) -> list:
    if trace:
        return [sys.executable, str(HERE / "traced_cli.py"), str(spans), "--", *cmd.argv]
    return [sys.executable, "-m", "markovforge.cli", *cmd.argv]


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def set_up(name: str, seed: int, cwd: Path, end: float,
           meter: SpeedMeter) -> workloads.Workload:
    """Import check, seed expansion and the input files the workload starts from."""
    cwd.mkdir(parents=True)
    got = spawn([sys.executable, "-c", IMPORT_CHECK], cwd, cwd / "import-check", end)
    meter.tick()
    location = Path(got.stdout.strip() or ".").resolve()
    if got.code != 0 or SRC.resolve() not in location.parents:
        raise SetupError(f"markovforge.cli is not importable from {SRC}")
    w = workloads.WORKLOADS[name](seed)
    for i, cmd in enumerate(w.setup):
        workloads.finalize(cmd, w, seed, cwd)
        got = spawn(cli_argv(cmd, False, None), cwd, cwd / f"setup-{i}", end)
        meter.tick()
        if got.code != cmd.expect_exit:
            raise SetupError(f"set-up command {' '.join(cmd.argv)} exited {got.code}")
    return w


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


@dataclass
class Record:
    cmd: workloads.Cmd
    outcome: Optional[Outcome]
    log: Optional[Path] = None
    scale: float = 1.0      # speed scale of the command's own time
    failure: Optional[str] = None
    known: Optional[str] = None
    spans: Optional[dict] = None


def run_pass(w, seed, cwd, trace, end, index) -> tuple[float, list, float]:
    """Run the command list once; its wall time, records and speed scale."""
    records = []
    meter = SpeedMeter()
    start = time.perf_counter()
    for i, cmd in enumerate(w.commands):
        workloads.finalize(cmd, w, seed, cwd)
        if cmd.skip:
            continue
        if time.perf_counter() > end - 2:
            records.append(Record(cmd, None))
            continue
        log = cwd / f"pass{index}-{i:03d}"
        got = spawn(cli_argv(cmd, trace, log.with_suffix(".spans")), cwd, log, end)
        records.append(Record(cmd, got, log, meter.tick()))
    wall = time.perf_counter() - start - meter.spent
    check_pass(w, cwd, records, trace, index, end)
    return wall, records, meter.scale()


def check_pass(w, cwd, records, trace, index, end) -> None:
    written = [r.cmd.writes for r in records
               if r.cmd.writes and r.outcome and r.outcome.code == 0]
    roundtrip = {}
    if written:
        got = spawn([sys.executable, str(HERE / "roundtrip.py"), *written], cwd,
                    cwd / f"pass{index}-roundtrip", end + 10)
        if got.code == 0:
            roundtrip = json.loads(got.stdout)
    for r in records:
        if r.outcome is None:
            r.failure = f"not started within {RUN_LIMIT_S} s of the run's start"
        elif r.outcome.killed:
            r.failure = "killed (time or memory bound)"
        else:
            r.failure = workloads.check(r.cmd, r.outcome.code, r.outcome.stdout, w, cwd)
            if r.failure is None and r.cmd.writes in written:
                status = roundtrip.get(r.cmd.writes, "not checked")
                if status is not True:
                    r.failure = f"round trip: {status}"
            if r.failure is not None:
                r.known = workloads.known_defect(r.cmd, w.files.get(r.cmd.reads),
                                                 r.outcome.code, r.outcome.stdout)
        spans = r.log.with_suffix(".spans") if r.log else None
        if trace and spans is not None:
            if spans.exists():
                r.spans = json.loads(spans.read_text())
            elif r.failure is None:
                r.failure = "the traced run wrote no spans"


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail_percentile(commands_per_pass: int) -> int:
    """Highest whole percentile with TAIL_BEYOND samples beyond it in one pass."""
    return max(50, math.floor(100 * (commands_per_pass - TAIL_BEYOND) / commands_per_pass))


def nearest_rank(values: list, pct: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def end_to_end(walls, passes, scales, setups) -> tuple[dict, list]:
    """The end-to-end metrics: wall times scaled per pass, command times per
    command, set-up times per set-up (setups: (seconds, scale))."""
    def times(scaled: bool) -> dict:
        jobs = [r.outcome.wall * (r.scale if scaled else 1)
                for r in records if r.outcome is not None]
        return {
            "wall_s": statistics.median(w * (s if scaled else 1) for w, s in zip(walls, scales)),
            "job_s_p50": statistics.median(jobs),
            "job_s_tail": nearest_rank(jobs, pct),
            "setup_s": statistics.median(t * (s if scaled else 1) for t, s in setups),
        }
    records = [r for p in passes for r in p]
    pct = tail_percentile(len(passes[0]))
    n_jobs = sum(1 for r in records if r.outcome is not None)
    metrics, raw = times(True), times(False)
    metrics["peak_rss_mb"] = max(r.outcome.rss_mb for r in records if r.outcome is not None)
    failed = sum(1 for r in records if r.failure)
    scale_note = "scale " + ", ".join(f"{s:.3f}" for s in scales)
    notes = [
        f"wall_s       {metrics['wall_s']:10.4f} s   median of {len(walls)} pass(es); "
        f"measured {raw['wall_s']:.4f} s, {scale_note}",
        f"job_s_p50    {metrics['job_s_p50']:10.4f} s   n = {n_jobs} commands; "
        f"measured {raw['job_s_p50']:.4f} s",
        f"job_s_tail   {metrics['job_s_tail']:10.4f} s   p{pct}, n = {n_jobs} commands; "
        f"measured {raw['job_s_tail']:.4f} s",
        f"peak_rss_mb  {metrics['peak_rss_mb']:10.1f} MB  max over {n_jobs} commands",
        f"fail_ratio   {failed / len(records):10.4f}     {failed} of {len(records)} commands",
        f"setup_s      {metrics['setup_s']:10.4f} s   median of {len(setups)} set-ups; "
        f"measured {raw['setup_s']:.4f} s, scale "
        + ", ".join(f"{s:.3f}" for _, s in setups),
    ]
    return {n: metrics[n] for n, _ in END_TO_END}, notes


def per_layer(w, walls, passes) -> dict:
    samples = []
    for wall, records in zip(walls, passes):
        rows = []
        for r in records:
            info = w.files.get(r.cmd.reads)
            transient = None if info is None else info.deleted is not None
            rows.append((r.outcome.code if r.outcome else -1, transient, r.spans))
        m = layers.pass_metrics(rows)
        m["trace.wall_s"] = wall
        samples.append(m)
    return {name: statistics.median(s[name] for s in samples)
            for name, _, _ in layers.PER_LAYER}


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{name}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        end = time.perf_counter() + RUN_LIMIT_S
        setups = []
        for i in range(1 if trace else SETUP_REPEATS):
            meter = SpeedMeter()
            t0 = time.perf_counter()
            w = set_up(name, seed, work / f"setup{i}", end, meter)
            setups.append((time.perf_counter() - t0 - meter.spent, meter.scale()))
        cwd = work / f"setup{len(setups) - 1}"
        walls, passes, scales = [], [], []
        measure_start = time.perf_counter()
        while True:
            wall, records, scale = run_pass(w, seed, cwd, trace, end, len(passes))
            walls.append(wall)
            passes.append(records)
            scales.append(scale)
            now = time.perf_counter()
            if now - measure_start + wall > seconds or now + wall > end:
                break
        records = [r for p in passes for r in p]
        if trace:
            metrics = per_layer(w, walls, passes)
            units = {n: u for n, u, _ in layers.PER_LAYER}
            notes = [f"{n:34s} {v:14.6g} {units[n]}" for n, v in metrics.items()]
        else:
            metrics, notes = end_to_end(walls, passes, scales, setups)
            units = dict(END_TO_END)
        failures = [r for r in records if r.failure]
        for r in failures:
            tag = "known defect" if r.known else "UNEXPECTED"
            notes.append(f"FAILED [{tag}] {' '.join(r.cmd.argv)}: {r.failure}"
                         + (f" ({r.known})" if r.known else ""))
        return {
            "correct": all(r.known for r in failures),
            "attempted": len(records),
            "failed": len(failures),
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
            "notes": notes,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "markovforge" / "cli.py").is_file():
        print(f"error: no markovforge sources under {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    global SPAWNER
    results = {}
    try:
        with Spawner() as SPAWNER:
            for name in names:
                results[name] = run(name, args.seed, args.seconds, bool(args.trace))
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for name, res in results.items():
        print(f"== {name}: {res['attempted']} commands, {res['failed']} failed")
        for line in res.pop("notes"):
            print(f"   {line}")
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
