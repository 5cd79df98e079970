"""Golden corpus: run a fixed list of markovforge commands and write one
manifest of what each gave, its exit code and the SHA-256 of its stdout and
of every file it wrote, so that "the output is byte-identical" is a diff.

    PYTHONPATH=src python scripts/golden.py --out golden.json
    diff scripts/golden_manifest.json golden.json

The list covers the benchmark's construct, verify and query bases, read
from perfbench/workloads.py, with their deletions and lifts, `export` to
DOT and JSON with and without a lift, the `entropy` CSVs, the files the CI
end-to-end step builds, the README examples and documented refusals, the
spectrum files under tests/data, the small-entropy builds whose
transient variant has no loop to delete yet (ROADMAP item 1, exit 4), and
the paths no file above reaches: user spectra through every reading
command, the loader's refusals, usage refusals, `--out -`, a constructed
file whose identity fails, and the edge cases of the bisection, of counts
past 4,300 digits and of an empty count list, and last the long builds
whose square floors and greedy digits run deep: e^3 at N_max = 1,000 and
e^1/5 at 4,000.
Every command runs in process through `cli.main`, in a fresh temporary
directory, in the order listed.  A change that alters output on purpose
regenerates the manifest and names each changed record.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

from markovforge import cli

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
OUTPUTS = ("--out", "--csv")
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  the benchmark's bases, lifts and flags

# ROADMAP item 1: build --entropy h --period p, then transient-variant
SMALL_H = ("1", "1/10", "1/100", "1/1000", "1/10000")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Corpus:
    def __init__(self) -> None:
        self.records: list[dict] = []

    def run(self, *argv: str) -> None:
        """``cli.main(argv)``, recorded: the exit code (or the name of an
        exception it let through), stdout, and each --out/--csv file."""
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        stdout, sys.stdout = sys.stdout, out
        try:
            with redirect_stderr(io.StringIO()):
                code = cli.main(list(argv))
        except Exception as e:
            code = type(e).__name__
        finally:
            out.flush()
            sys.stdout = stdout
        files = {}
        for i, arg in enumerate(argv[:-1]):
            if arg in OUTPUTS and argv[i + 1] != "-":
                path = Path(argv[i + 1])
                files[argv[i + 1]] = digest(path.read_bytes()) if path.exists() else None
        self.records.append({"argv": list(argv), "exit": code,
                             "stdout": digest(out.buffer.getvalue()), "files": files})


def build(c: Corpus, spec: str, n_max: int, prefix: str) -> str:
    name = spec.replace("^", "").replace("/", "_").replace("*", "").replace(".", "_")
    path = f"{prefix}_{name}_{n_max}.json"
    source = (["--entropy", "ln2", "--period", spec[4:]] if spec.startswith("ln2*")
              else ["--beta", spec])
    c.run("build", *source, "--max-n", str(n_max), "--out", path)
    return path


def deletable(path: str) -> list[int]:
    a, _ = workloads.counts(Path(path))
    return [n for n in range(2, len(a) + 1) if a[n - 1] >= 1]


def variant(c: Corpus, path: str, tag: str, pick) -> str:
    """transient-variant of ``path`` at the loop ``pick`` chooses from the
    deletable lengths (``auto`` where it chooses none)."""
    out = path.replace(".json", f"_{tag}.json")
    n0 = pick(deletable(path))
    c.run("transient-variant", path, "--n0", "auto" if n0 is None else str(n0), "--out", out)
    return out


def deepest_below(limit: int):
    return lambda lengths: max((n for n in lengths if n <= limit), default=None)


def user_file(name: str, a: list[str], finite: bool = True) -> str:
    """A version-4 user spectrum file of the counts ``a``."""
    Path(name).write_text(json.dumps({"format_version": 4, "N_max": len(a), "a": a,
                                      "finite_support": finite, "meta": None}))
    return name


def edited(source: str, name: str, edit) -> str:
    """A copy of the spectrum file ``source``, its payload changed by ``edit``."""
    payload = json.loads(Path(source).read_text())
    edit(payload)
    Path(name).write_text(json.dumps(payload))
    return name


def set_count(n: int, value: str):
    return lambda p: p["a"].__setitem__(n - 1, value)


def construct(c: Corpus) -> None:
    for spec, n_max in workloads.CONSTRUCT_CASES:
        path = build(c, spec, n_max, "c")
        for tag, pick in (("a", lambda lengths: None), ("t", deepest_below(n_max // 4))):
            c.run("classify", variant(c, path, tag, pick))
        c.run("classify", path)


def verify(c: Corpus) -> None:
    for spec, n_max in workloads.VERIFY_BASES:
        path = build(c, spec, n_max, "v")
        files = [path, variant(c, path, "t", deepest_below(n_max // 4))]
        if spec in workloads.VERIFY_LIFTS:
            for src in list(files):
                for p in (2, 3):
                    out = src.replace(".json", f"_p{p}.json")
                    c.run("lift", src, "--period", str(p), "--out", out)
                    files.append(out)
        for f in files:
            c.run("verify", f)


def query(c: Corpus) -> None:
    n_max = workloads.QUERY_N
    middle = lambda lengths: min((n for n in lengths if n_max // 2 <= n < 3 * n_max // 4),
                                 default=None)
    for spec in workloads.QUERY_BASES:
        path = build(c, spec, n_max, "q")
        c.run("classify", path, *workloads.QUERY_CLASSIFY_FLAGS[spec])
        for tag, pick in (("a", lambda lengths: None), ("m", middle),
                          ("d", lambda lengths: max(lengths, default=None))):
            c.run("classify", variant(c, path, tag, pick))
        c.run("entropy", path, "--max-n", str(workloads.ENTROPY_MAX_N),
              "--csv", path.replace(".json", ".csv"))
        files = [path]
        if spec in workloads.QUERY_LIFT:
            p = workloads.QUERY_LIFT[spec]
            files.append(path.replace(".json", f"_p{p}.json"))
            c.run("lift", path, "--period", str(p), "--out", files[-1])
        for f in files:
            max_n = workloads.export_max_n(*workloads.counts(Path(f)))
            for fmt in ("dot", "json"):
                c.run("export", f, "--format", fmt, "--max-n", str(max_n),
                      "--out", f.replace(".json", f"_graph.{fmt}"))


def ci_end_to_end(c: Corpus) -> None:
    c.run("build", "--beta", "e^3", "--max-n", "64", "--out", "e3.json")
    c.run("transient-variant", "e3.json", "--out", "e3_t.json")
    c.run("build", "--beta", "1000/999", "--out", "b1000_999.json")
    c.run("build", "--beta", "e^1/1000", "--out", "e1000.json")
    c.run("build", "--beta", "1.00001", "--out", "b100001.json")
    for f in ("e3.json", "e3_t.json", "b1000_999.json", "e1000.json", "b100001.json"):
        c.run("classify", f)
        c.run("verify", f)
    c.run("build", "--beta", "e^3", "--max-n", "4000", "--out", "e3_4000.json")
    c.run("classify", "e3_4000.json")
    a = ["0"] * 8000
    a[1] = a[-1] = "1"
    c.run("classify", user_file("u8000.json", a))
    c.run("build", "--beta", "2", "--out", "b2.json")
    c.run("entropy", "b2.json", "--max-n", "15000", "--csv", "big.csv")
    c.run("build", "--beta", "1000", "--max-n", "1700", "--out", "b1000.json")
    c.run("entropy", "b1000.json", "--max-n", "1700", "--csv", "b1000.csv")
    # the oracle depth fits the root alone: verify names the first loop past it
    c.run("verify", "b1000.json")
    c.run("lift", "e3.json", "--period", "3", "--out", "e3_p3.json")
    c.run("verify", "e3_p3.json")
    c.run("export", "e3.json", "--format", "json", "--max-n", "8", "--out", "e3_graph.json")
    c.run("build", "--beta", "3", "--max-n", "64", "--out", "b3.json")
    c.run("lift", "b3.json", "--period", "3", "--out", "b3_p3.json")
    c.run("export", "b3_p3.json", "--format", "json", "--max-n", "12",
          "--out", "b3_p3_graph.json")


def readme(c: Corpus) -> None:
    c.run("build", "--beta", "e^7/10", "--out", "e07.json")
    c.run("build", "--entropy", "ln2", "--period", "3", "--out", "p3.json")
    c.run("transient-variant", "b2.json", "--out", "b2t.json")
    c.run("classify", "b2.json", "--lambda-window")
    c.run("entropy", "b2.json", "--csv", "counts.csv")
    c.run("lift", "b2.json", "--period", "2", "--out", "lifted.json")
    c.run("verify", "lifted.json")
    c.run("export", "b2.json", "--format", "dot", "--max-n", "16")
    c.run("verify", "b2.json")
    # the documented refusals: exit 6, 2, 1, 1, 5, 3 and 3
    c.run("export", "e3.json", "--format", "dot", "--max-n", "64")
    c.run("build", "--beta", "abc", "--out", "x.json")
    for name, edit in (("b2_kneg.json", lambda p: p["meta"].update(k=-1000)),
                       ("b2_half.json", lambda p: p.update(
                           beta={"kind": "rational", "value": "1/2", "text": "1/2"})),
                       ("b2_k7.json", lambda p: p["meta"].update(k=7))):
        c.run("verify" if name == "b2_k7.json" else "classify", edited("b2.json", name, edit))
    for f in sorted(os.listdir("data")):
        c.run("classify", f"data/{f}")
        c.run("verify", f"data/{f}")
    c.run("build", "--beta", "e^3", "--max-n", "1000000", "--out", "x.json")
    c.run("build", "--entropy", "1000", "--period", "1000000000", "--out", "x.json")


def uncovered(c: Corpus) -> None:
    # user spectra, the only route to log_interval: a truncation (the
    # Cauchy-Hadamard estimate of L), an exact dyadic root, F(1) = 1, two
    # irrational roots and no loops at all
    for name, a, finite in (("u_trunc.json", ["1", "2", "3", "5", "8"], False),
                            ("u_2.json", ["2"], True), ("u_01.json", ["0", "1"], True),
                            ("u_11.json", ["1", "1"], True),
                            ("u_0203.json", ["0", "2", "0", "3"], True),
                            ("u_zero.json", ["0", "0", "0"], True)):
        user_file(name, a, finite)
        c.run("classify", name, "--bits", "--lambda-window")
        c.run("verify", name)
        c.run("entropy", name, "--max-n", "12")
        c.run("export", name, "--format", "dot")
    # the loader's refusals: counts not a list, a precision past 4,096 bits, a
    # constructed N_max below 4; and stored tails, which no load reads since format
    # version 5: a huge binary exponent, and a decimal exponent in version 1
    Path("bad_a.json").write_text(json.dumps({"format_version": 4, "N_max": 4, "a": "1012",
                                              "finite_support": True, "meta": None}))
    edited("b2.json", "bad_bits.json", lambda p: p["meta"].update(precision_bits=1000000))
    edited("b2.json", "bad_nmax.json", lambda p: p.update(N_max=0, a=[]))
    edited("b2.json", "bad_exp.json",
           lambda p: p["meta"].update(tail_at_L=["0x1p-30000000", "0x1p-8"]))
    edited("data/b2_n128.v1.json", "bad_v1.json",
           lambda p: p["meta"]["tail_at_L"].__setitem__(0, "1e-999999999"))
    for f in ("bad_a.json", "bad_bits.json", "bad_nmax.json", "bad_exp.json", "bad_v1.json"):
        c.run("classify", f)
        c.run("verify", f)
    # usage: a second lift and a zero entropy exit 2; --out - writes to stdout
    c.run("lift", "lifted.json", "--period", "2", "--out", "relifted.json")
    c.run("build", "--entropy", "0", "--out", "h0.json")
    c.run("build", "--beta", "5/2", "--max-n", "16", "--out", "-")
    c.run("transient-variant", "b2.json", "--out", "-")
    c.run("lift", "b2.json", "--period", "3", "--out", "-")
    # a constructed file whose identity fails: a(4) below its square floor
    edited("b2.json", "b2_low4.json", set_count(4, "0"))
    c.run("classify", "b2_low4.json", "--lambda-window")
    c.run("verify", "b2_low4.json")
    # finite spectra whose root lies below 2^-128: bisected on at degree 2,
    # refused below 2^-4096, and refused at degree 8000 for its bits
    user_file("u_deep.json", ["0", str(2 ** 257)])
    user_file("u_deeper.json", ["0", str(3 * 2 ** 9000)])
    user_file("u_deep4000.json", ["0", str(3 * 2 ** 4000)])
    user_file("u_deep_degree.json", ["0", str(2 ** 4000)] + ["0"] * 7997 + ["1"])
    for f in ("u_deep.json", "u_deeper.json", "u_deep4000.json", "u_deep_degree.json"):
        c.run("classify", f)
        c.run("verify", f)
    # counts of more than 4,300 digits at n = 1 and at n = 4
    for n in (1, 4):
        f = edited("b2.json", f"b2_huge{n}.json", set_count(n, "0x" + "f" * 5000))
        c.run("classify", f)
        c.run("verify", f)
        c.run("export", f, "--format", "dot")
    # an empty count list
    user_file("u_empty.json", [])
    for command in ("classify", "verify", "entropy", "export"):
        c.run(command, "u_empty.json", *(["--format", "dot"] if command == "export" else []))


def small_entropy(c: Corpus) -> None:
    for h in SMALL_H:
        for p in ("1", "3"):
            path = f"h{h.replace('/', '_')}_p{p}.json"
            c.run("build", "--entropy", h, "--period", p, "--out", path)
            c.run("transient-variant", path, "--out", path.replace(".json", "_t.json"))


def deep_builds(c: Corpus) -> None:
    for spec, n_max in (("e^3", 1000), ("e^1/5", 4000)):
        c.run("classify", build(c, spec, n_max, "k"), "--bits", "--lambda-window")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="-", help="manifest path, or - for stdout")
    args = parser.parse_args(argv)
    out = None if args.out == "-" else Path(args.out).resolve()
    corpus = Corpus()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        shutil.copytree(DATA, Path(work) / "data")
        os.chdir(work)
        try:
            for part in (construct, verify, query, ci_end_to_end, readme, small_entropy,
                         uncovered, deep_builds):
                part(corpus)
        finally:
            os.chdir(here)
    text = "[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in corpus.records) + "\n]\n"
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
