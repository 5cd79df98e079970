"""Command-line behavior, run in process through cli.main."""

import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import markovforge
from markovforge import (BetaValue, build_spectrum, cli, construction, graph, spectrum,
                         spectrum_io, verification)
from markovforge.errors import FloorUndecidable, PrecisionExhausted

from conftest import built, costly_files


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def exit_code(argv) -> int:
    """``cli.main(argv)``'s code, or that of a SystemExit it raises."""
    try:
        return cli.main(argv)
    except SystemExit as e:
        return e.code


def test_build_and_classify(tmp_path, capsys):
    out = tmp_path / "b2.json"
    code, _, _ = run(capsys, "build", "--beta", "2", "--max-n", "32",
                     "--out", str(out))
    assert code == 0
    code, stdout, _ = run(capsys, "classify", str(out))
    assert code == 0
    payload = json.loads(stdout)
    assert payload["verdict"] == "PositiveRecurrent"
    assert payload["has_mme"] is True
    assert payload["period_lift"] == 1


def test_build_rejects_bad_beta(tmp_path, capsys):
    for bad in ("1", "0.5", "e^0"):
        code, _, err = run(capsys, "build", "--beta", bad,
                           "--out", str(tmp_path / "x.json"))
        assert code == 2
        assert "error" in err


def test_build_negative_entropy_rejected(tmp_path, capsys):
    code, _, _ = run(capsys, "build", "--entropy", "-0.5",
                     "--out", str(tmp_path / "x.json"))
    assert code == 2


def test_precision_exhausted_exit_code(tmp_path, capsys, monkeypatch):
    def boom(*a, **k):
        raise PrecisionExhausted("unit width undecidable at 4096 bits")
    monkeypatch.setattr(construction, "build_spectrum", boom)
    code, _, err = run(capsys, "build", "--beta", "2",
                       "--out", str(tmp_path / "x.json"))
    assert code == 3
    assert "undecidable" in err


def test_undecidable_floor_restarts_the_whole_build(tmp_path, capsys, monkeypatch):
    # the restart in build_spectrum is the one place precision is raised
    beta, calls = BetaValue.parse("e^7/10"), []

    def undecidable_first(x):
        calls.append(x)
        if len(calls) == 1:
            raise FloorUndecidable("straddles an integer")
        return markovforge.certified_floor(x)
    monkeypatch.setattr(construction, "certified_floor", undecidable_first)
    s = build_spectrum(beta, 25)
    monkeypatch.undo()
    assert s.meta.precision_bits == 512
    assert s.a == build_spectrum(beta, 25, 512).a

    def undecidable(x):
        calls.append(x)
        raise FloorUndecidable("straddles an integer")
    calls.clear()
    monkeypatch.setattr(construction, "certified_floor", undecidable)
    code, _, err = run(capsys, "build", "--beta", "e^7/10", "--max-n", "25",
                       "--out", str(tmp_path / "x.json"))
    # one failed build at each of 256, 512, ..., 4096 bits, then the error
    assert len(calls) == 5
    assert code == 3 and "straddles" in err


def test_transient_variant_pipeline(tmp_path, capsys):
    # e^3 at n0 = 64: L^64 ~ 4e-84 is far below what a 40-digit file resolved
    for beta, max_n, n0_args in (("3", 32, ()), ("e^3", 64, ("--n0", "64"))):
        base = tmp_path / f"b{max_n}.json"
        var = tmp_path / f"t{max_n}.json"
        run(capsys, "build", "--beta", beta, "--max-n", str(max_n), "--out", str(base))
        code, _, _ = run(capsys, "transient-variant", str(base), *n0_args,
                         "--out", str(var))
        assert code == 0
        code, stdout, _ = run(capsys, "classify", str(var))
        payload = json.loads(stdout)
        assert payload["verdict"] == "Transient", beta
        assert payload["has_mme"] is False


@pytest.mark.parametrize("n, edit", [(2, 1), (4, -1)])
def test_edited_count_is_indeterminate(spec_e07, tmp_path, capsys, n, edit):
    path = tmp_path / "e07.json"
    payload = spectrum_io.to_dict(spectrum_io.SpectrumFile(spec_e07))
    payload["a"][n - 1] = str(int(payload["a"][n - 1]) + edit)
    path.write_text(json.dumps(payload))
    code, stdout, _ = run(capsys, "classify", str(path))
    assert code == 0
    report = json.loads(stdout)
    assert report["verdict"] == "Indeterminate"
    # a count above its square floor moves the unit sum off its target; one
    # below the floor recomputed from beta is named
    reason = "unit-sum enclosure misses its target" if edit > 0 else f"a({n}) lies below"
    assert any(reason in note for note in report["notes"])


def _undecidable_floors(payload, monkeypatch):
    # every floor of the square-floor loop straddles an integer
    def undecidable(lo, hi, precision_bits):
        raise FloorUndecidable("straddles an integer")
    monkeypatch.setattr(construction, "_floor", undecidable)


@pytest.mark.parametrize("edit, reason", [
    (lambda payload, _: payload["meta"].update(deleted_loop=65),
     "deleted loop length 65 outside 2..64"),
    # square_floors and delta are both None
    (_undecidable_floors, "a square floor is undecidable at 256 bits"),
    # not a(1) = 2, which needs parallel arrows: realize refuses it
    (lambda payload, _: payload.update(a=["0"] + payload["a"][1:]), "a(1) = 0, not 1"),
], ids=["deleted-loop-65", "undecidable-floor", "a1-0"])
def test_identity_failure_is_indeterminate_and_fails_verify(
        edit, reason, spec_e07, tmp_path, capsys, monkeypatch):
    path = tmp_path / "e07.json"
    payload = spectrum_io.to_dict(spectrum_io.SpectrumFile(spec_e07))
    edit(payload, monkeypatch)
    path.write_text(json.dumps(payload))
    code, stdout, _ = run(capsys, "classify", str(path))
    report = json.loads(stdout)
    assert code == 0 and report["verdict"] == "Indeterminate"
    assert report["notes"] == [f"construction identity not certified: {reason}"]
    code, stdout, _ = run(capsys, "verify", str(path))
    assert code == 5
    assert f"[FAIL] square floors recomputed from beta: {reason}\n" in stdout
    assert ("[PASS] classification certificates consistent: indeterminate "
            "verdicts carry no certificate\n") in stdout


def test_a_float_period_lift_is_malformed(spec_e07, tmp_path, capsys):
    path = tmp_path / "e07.json"
    payload = spectrum_io.to_dict(spectrum_io.SpectrumFile(spec_e07))
    payload["period_lift"] = 2.7
    path.write_text(json.dumps(payload))
    code, stdout, err = run(capsys, "verify", str(path))
    assert code == 1
    assert stdout == "" and "period_lift 2.7 is not an integer" in err


def test_a_float_count_is_malformed(tmp_path, capsys):
    path = tmp_path / "b2.json"
    payload = json.loads((Path(__file__).parent / "data" / "b2_n128.v1.json").read_bytes())
    payload["a"][2] = 2.7
    path.write_text(json.dumps(payload))
    code, stdout, err = run(capsys, "classify", str(path))
    assert code == 1
    assert stdout == "" and "count 2.7 is not an integer" in err


def test_costly_or_malformed_files_exit_1_at_once(spec2, tmp_path, capsys):
    # each would have run past a minute, crashed or misread its counts
    files = costly_files(spec2) + [
        ("a_text", {"format_version": 4, "N_max": 4, "a": "1012", "finite_support": True,
                    "meta": None}, "a is not a list of counts")]
    for name, payload, message in files:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        for command in ("classify", "verify"):
            t0 = time.monotonic()
            code, stdout, err = run(capsys, command, str(path))
            assert (code, stdout) == (1, "") and message in err, (name, command)
            assert time.monotonic() - t0 < 1, (name, command)


@pytest.mark.parametrize("tail", [["-0x3fp-8", "-0x3fp-8"], ["-0x1p-2", "0x1p-8"]],
                         ids=["narrow", "wide"])
def test_a_stored_tail_is_not_trusted(spec2, tmp_path, capsys, tail):
    # base 2 with a(2) = 1, where the construction gives 0: with the
    # construction's tail past N_max, F(1/2) = 5/4, so R < 1/2.  A version 4
    # file whose stored tail makes up the difference, exactly or within a
    # wide enclosure, must not be certified positive recurrent with R = 1/2
    payload = spectrum_io.to_dict(spectrum_io.SpectrumFile(spec2))
    payload["format_version"] = 4
    payload["a"][1] = "1"
    payload["meta"]["tail_at_L"] = tail
    path = tmp_path / "tail.json"
    path.write_text(json.dumps(payload))
    code, stdout, _ = run(capsys, "classify", str(path))
    assert (code, json.loads(stdout)["verdict"]) == (0, "Indeterminate")
    assert run(capsys, "verify", str(path))[0] == cli.EXIT_VERIFY


def test_an_undecidable_greedy_digit_is_indeterminate(spec2, tmp_path, capsys, monkeypatch):
    # tail_at_L is then unknown: no F(L) and no mean return, and verify fails
    path = tmp_path / "b2.json"
    spectrum_io.save(spectrum_io.SpectrumFile(spec2), path)

    def undecidable(*args):
        raise FloorUndecidable("a digit at the file's precision")

    monkeypatch.setattr(construction, "_greedy_digits", undecidable)
    code, stdout, _ = run(capsys, "classify", str(path))
    report = json.loads(stdout)
    assert (code, report["verdict"]) == (0, "Indeterminate")
    assert report["F_at_L"] is None and report["mean_return_bound"] is None
    assert report["notes"] == [
        "construction identity not certified: the tail past N_max is undecidable at 256 bits"]
    code, stdout, _ = run(capsys, "verify", str(path))
    assert code == cli.EXIT_VERIFY
    assert "[FAIL] unit sum encloses target: the tail past N_max is undecidable" in stdout


def test_negative_count_is_malformed(spec_e07, tmp_path, capsys):
    # a(2) = 0 for e^7/10: one less is no spectrum at all
    path = tmp_path / "e07.json"
    payload = spectrum_io.to_dict(spectrum_io.SpectrumFile(spec_e07))
    assert payload["a"][1] == "0"
    payload["a"][1] = "-1"
    path.write_text(json.dumps(payload))
    code, stdout, err = run(capsys, "classify", str(path))
    assert code == 1
    assert stdout == "" and "nonnegative" in err


def test_transient_variant_twice_fails(tmp_path, capsys):
    base = tmp_path / "b.json"
    var = tmp_path / "t.json"
    run(capsys, "build", "--beta", "2", "--max-n", "16", "--out", str(base))
    run(capsys, "transient-variant", str(base), "--out", str(var))
    code, _, err = run(capsys, "transient-variant", str(var),
                       "--out", str(tmp_path / "t2.json"))
    assert code == 4
    assert "error" in err
    # nor can a length without a loop lose one: base 2 has a(3) = 0
    code, _, err = run(capsys, "transient-variant", str(base), "--n0", "3",
                       "--out", str(tmp_path / "t3.json"))
    assert code == cli.EXIT_NO_LOOP == 4
    assert "a(3) has no loop to delete" in err
    assert not (tmp_path / "t3.json").exists()


def test_entropy_csv(tmp_path, capsys):
    base = tmp_path / "b.json"
    csv = tmp_path / "counts.csv"
    run(capsys, "build", "--beta", "2", "--max-n", "32", "--out", str(base))
    code, _, _ = run(capsys, "entropy", str(base), "--max-n", "32",
                     "--csv", str(csv))
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "n,f,p,growth_estimate"
    assert len(lines) == 33


def test_entropy_short_table_still_written(tmp_path, capsys):
    # four lengths are too few for a growth estimate; the CSV is still the output
    base = tmp_path / "b.json"
    csv = tmp_path / "counts.csv"
    run(capsys, "build", "--beta", "2", "--max-n", "32", "--out", str(base))
    code, _, err = run(capsys, "entropy", str(base), "--max-n", "4",
                       "--csv", str(csv))
    assert code == 0
    assert len(csv.read_text().splitlines()) == 5
    assert "growth estimate" not in err


def test_lifted_entropy_csv_is_unchanged_by_streaming(tmp_path, capsys):
    # the bytes and growth line written when the lifted table was built whole
    base, lifted, csv = tmp_path / "b.json", tmp_path / "b_p3.json", tmp_path / "p3.csv"
    run(capsys, "build", "--beta", "2", "--max-n", "16", "--out", str(base))
    run(capsys, "lift", str(base), "--period", "3", "--out", str(lifted))
    code, _, err = run(capsys, "entropy", str(lifted), "--max-n", "400", "--csv", str(csv))
    assert code == 0
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == (
        "f1a7c61c43007d536044222afdd368a756d9ccc8a9b18cc4559c2910c50718b9")
    assert err == "growth estimate at n = 1200: 0.224501\n"


def test_lift_and_lifted_entropy(tmp_path, capsys):
    base = tmp_path / "b.json"
    lifted = tmp_path / "l.json"
    run(capsys, "build", "--beta", "2", "--max-n", "16", "--out", str(base))
    code, _, _ = run(capsys, "lift", str(base), "--period", "3",
                     "--out", str(lifted))
    assert code == 0
    code, stdout, _ = run(capsys, "classify", str(lifted))
    payload = json.loads(stdout)
    assert payload["period_lift"] == 3
    lo, hi = payload["lifted_entropy"]
    assert abs(float(lo) - 0.6931471805599453 / 3) < 1e-12
    # a second lift on an already lifted file is refused
    code, _, _ = run(capsys, "lift", str(lifted), "--period", "2",
                     "--out", str(tmp_path / "l2.json"))
    assert code == 2


def test_entropy_flag_builds_exact_base(tmp_path, capsys):
    out = tmp_path / "p3.json"
    code, _, _ = run(capsys, "build", "--entropy", "ln2", "--period", "3",
                     "--max-n", "16", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["beta"]["kind"] == "rational"
    assert payload["beta"]["value"] == "8"
    # log 8 / 3 is ln 2: one bit, enclosed to 40 digits
    code, stdout, _ = run(capsys, "classify", str(out), "--bits")
    assert code == 0
    assert json.loads(stdout)["lifted_entropy_bits"] == ["0." + "9" * 40, "1." + "0" * 39 + "1"]


def test_period_with_beta_is_a_lift(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run(capsys, "build", "--beta", "2", "--max-n", "16", "--period", "3", "--out", "p.json")
    run(capsys, "build", "--beta", "2", "--max-n", "16", "--out", "b.json")
    run(capsys, "lift", "b.json", "--period", "3", "--out", "l.json")
    assert (tmp_path / "p.json").read_bytes() == (tmp_path / "l.json").read_bytes()
    assert json.loads((tmp_path / "p.json").read_text())["period_lift"] == 3


def test_truncated_user_spectrum_is_indeterminate(tmp_path, capsys):
    # no tail bound and no finite support: no radius R, so no entropy either
    path = tmp_path / "u.json"
    path.write_text(json.dumps({"format_version": 2, "N_max": 3, "a": ["1", "0", "2"]}))
    code, stdout, _ = run(capsys, "classify", str(path))
    report = json.loads(stdout)
    assert code == 0 and report["verdict"] == "Indeterminate"
    assert report["entropy"] is None and report["lifted_entropy"] is None


def test_an_empty_count_list_is_malformed(tmp_path, capsys):
    # N_max 0 reached graph.realize, which raised ValueError, in verify and export
    path = tmp_path / "u.json"
    path.write_text(json.dumps({"format_version": 4, "N_max": 0, "a": [], "meta": None}))
    for command, *flags in (["classify"], ["verify"], ["entropy"], ["export", "--format", "dot"]):
        code, stdout, err = run(capsys, command, str(path), *flags)
        assert (code, stdout) == (1, "") and "N_max 0 is below 1" in err, command
    # no loops over N_max >= 1 is still the empty spectrum
    path.write_text(json.dumps({"format_version": 4, "N_max": 3, "a": ["0", "0", "0"],
                                "finite_support": True, "meta": None}))
    code, stdout, _ = run(capsys, "classify", str(path))
    assert code == 0 and json.loads(stdout)["notes"] == ["empty spectrum: no loops at all"]


def test_a_deep_root_of_high_degree_is_refused_quickly(tmp_path, capsys):
    # a(2) = 2^4000, a(8000) = 1: the root lies near 2^-2000, and bisecting
    # to it in exact sums of degree 8000 would take minutes
    a = ["0"] * 8000
    a[1], a[-1] = str(2 ** 4000), "1"
    path = tmp_path / "u.json"
    path.write_text(json.dumps({"format_version": 4, "N_max": 8000, "a": a,
                                "finite_support": True, "meta": None}))
    for command in ("classify", "verify"):
        start = time.perf_counter()
        code, stdout, err = run(capsys, command, str(path))
        assert (code, stdout) == (3, "") and "at degree 8000" in err, command
        assert time.perf_counter() - start < 5, command


@pytest.mark.parametrize("n, verify_code", [(1, 5), (4, 5)])
def test_a_count_past_the_decimal_limit_exits_with_its_code(spec2, n, verify_code, tmp_path,
                                                            capsys):
    # a(n) = 16^5000 - 1, 6,021 digits: str() of it, of F(L) or of the vertex
    # count raised ValueError in classify, verify and export
    payload = spectrum_io.to_dict(spectrum_io.SpectrumFile(spec2))
    payload["a"][n - 1] = "0x" + "f" * 5000
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(payload))
    code, stdout, _ = run(capsys, "classify", str(path))
    report = json.loads(stdout)
    assert code == 0 and report["verdict"] == "Indeterminate"
    lo, hi = map(Fraction, report["F_at_L"])
    assert lo <= Fraction(16 ** 5000 - 1, 2 ** n) <= hi and "e+60" in report["F_at_L"][0]
    assert run(capsys, "verify", str(path))[0] == verify_code
    code, _, err = run(capsys, "export", str(path), "--format", "dot")
    assert code == 6 and ("0x3" in err if n == 4 else "a(1) > 1" in err)


def test_export_formats(tmp_path, capsys):
    base = tmp_path / "b.json"
    run(capsys, "build", "--beta", "2", "--max-n", "9", "--out", str(base))
    code, stdout, _ = run(capsys, "export", str(base), "--format", "dot")
    assert code == 0
    assert stdout.startswith("digraph")
    gpath = tmp_path / "g.json"
    code, _, _ = run(capsys, "export", str(base), "--format", "json",
                     "--out", str(gpath))
    assert code == 0
    g = json.loads(gpath.read_text())
    assert "vertices" in g and "arrows" in g


def test_export_refuses_oversized_graph(tmp_path, capsys, monkeypatch):
    # base 8 to length 64 has ~1e53 vertices: refused before any arrow array
    def array_called(*a, **k):
        raise AssertionError("export allocated a graph over the vertex budget")
    monkeypatch.setattr(graph, "array", array_called)
    base = tmp_path / "b8.json"
    out = tmp_path / "g.dot"
    run(capsys, "build", "--beta", "8", "--max-n", "64", "--out", str(base))
    code, stdout, err = run(capsys, "export", str(base), "--format", "dot",
                            "--out", str(out))
    assert code == cli.EXIT_TOO_LARGE == 6
    assert "vertices" in err
    assert stdout == ""
    assert not out.exists()


def test_verify_passes(tmp_path, capsys):
    base = tmp_path / "b.json"
    run(capsys, "build", "--beta", "2", "--max-n", "16", "--out", str(base))
    code, stdout, _ = run(capsys, "verify", str(base))
    assert code == 0
    assert "[PASS]" in stdout
    assert "[FAIL]" not in stdout


@pytest.mark.parametrize("beta, lift, digest", [
    ("2", None, "ed005fce5960c98a6530903d7d9ce7b75a117d83db57689bac5a2d9f53af6c66"),
    ("3", 3, "168845f975ad9d140e70a73e99d6627434f26e849b3f470f738aae3989881fea"),
    ("5/2", None, "c306ae487b84956b49bb24452ad4d49f77d76145cf5bdff5d2385258cab305c9"),
], ids=["2", "3-deleted-lifted", "5/2"])
def test_verify_stdout_is_pinned(beta, lift, digest, tmp_path, capsys):
    # every line, "realization strongly connected: N vertices" and "walked
    # all paths up to length k" among them, as the per-vertex search and walk
    # printed it; 3 has its first loop deleted and is lifted by 3
    path = tmp_path / "s.json"
    run(capsys, "build", "--beta", beta, "--max-n", "128", "--out", str(path))
    if lift:
        run(capsys, "transient-variant", str(path), "--out", str(path))
        run(capsys, "lift", str(path), "--period", str(lift), "--out", str(path))
    code, stdout, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == digest


def test_verify_checks_the_stored_k(tmp_path, capsys):
    # base 2 has delta = 0, so k = floor(beta^2 delta) = 0; a stored k of 7
    # fails the deficit check alone, as M = beta + k still bounds the counts
    path = tmp_path / "b2.json"
    run(capsys, "build", "--beta", "2", "--out", str(path))
    payload = json.loads(path.read_text())
    payload["meta"]["k"] = 7
    path.write_text(json.dumps(payload))
    code, stdout, _ = run(capsys, "verify", str(path))
    assert code == 5 and stdout.count("[FAIL]") == 1
    assert ("[FAIL] deficit in [0, 1) and k = floor(beta^2 delta): "
            "delta in [0.000e+00, 0.000e+00], k = 7") in stdout


def test_verify_prints_values_beyond_the_float_range(tmp_path, capsys):
    # beta = 2^1025 gives M = beta + k (k = 0) past the float range
    path = tmp_path / "big.json"
    run(capsys, "build", "--beta", str(2 ** 1025), "--max-n", "4", "--out", str(path))
    code, stdout, _ = run(capsys, "verify", str(path))
    assert code == 0 and "[FAIL]" not in stdout
    line = next(t for t in stdout.splitlines() if "bounded by M:" in t)
    assert line.endswith("M in [3.59539e+308, 3.59539e+308]")


def test_verify_prints_the_exponent_of_a_power_of_ten(tmp_path, capsys):
    # M = 10^512, whose exponent float logs put one low ("10e+511")
    path = tmp_path / "big.json"
    run(capsys, "build", "--beta", "1e512", "--max-n", "4", "--out", str(path))
    code, stdout, _ = run(capsys, "verify", str(path))
    assert code == 0 and stdout.count("M in [1e+512, 1e+512]") == 1


def test_build_deterministic(tmp_path, capsys, monkeypatch):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "build", "--beta", "e^7/10", "--max-n", "25", "--out", str(a))
    # the program picks its precision itself: no environment variable sets it
    monkeypatch.setenv("MARKOVFORGE_PRECISION", "320")
    run(capsys, "build", "--beta", "e^7/10", "--max-n", "25", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_missing_file_reports_error(capsys):
    code, _, err = run(capsys, "classify", "/no/such/file.json")
    assert code == 1
    assert "error" in err


def test_out_dash_writes_spectrum_files_to_stdout(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run(capsys, "build", "--beta", "e^7/10", "--max-n", "16", "--out", "b.json")
    for argv in (["build", "--beta", "e^7/10", "--max-n", "16"],
                 ["transient-variant", "b.json"],
                 ["lift", "b.json", "--period", "2"]):
        run(capsys, *argv, "--out", "file.json")
        code, stdout, _ = run(capsys, *argv, "--out", "-")
        assert code == 0
        assert stdout.encode("utf-8") == (tmp_path / "file.json").read_bytes(), argv[0]
    assert not (tmp_path / "-").exists()


def test_counts_beyond_the_decimal_limit_are_written_in_hex(tmp_path, capsys):
    # a(39^2) ~ 10^4452 has more digits than int <-> str allows by default
    path = tmp_path / "b1000.json"
    code, _, _ = run(capsys, "build", "--beta", "1000", "--max-n", "1700",
                     "--out", str(path))
    assert code == 0
    data = path.read_bytes()
    payload = json.loads(data)
    assert [n for n, v in enumerate(payload["a"], 1) if v.startswith("0x")] == \
        [39 * 39, 40 * 40, 41 * 41]
    assert payload["a"][38 * 38 - 1].isdigit()
    back = spectrum_io.from_bytes(data)
    assert back.spectrum.count(41 * 41) == int(payload["a"][41 * 41 - 1], 16)
    # integer beta: delta = 0, so each such count is its recomputed floor
    for n in (39 * 39, 40 * 40, 41 * 41):
        assert back.spectrum.count(n) == back.spectrum.meta.square_floors[n]
    assert spectrum_io.to_bytes(back) == data
    # entropy writes them so too: p(n) ~ 1000^n passes 4,300 digits at n = 1,434
    csv = tmp_path / "b1000.csv"
    code, _, err = run(capsys, "entropy", str(path), "--max-n", "1700", "--csv", str(csv))
    assert code == 0 and "Traceback" not in err
    rows = [r.split(",") for r in csv.read_text().splitlines()[1:]]
    assert len(rows) == 1700
    assert [n for n, (_, _, p, _) in enumerate(rows, 1) if not p.isdigit()] == \
        list(range(1434, 1701))
    assert all(p.startswith("0x") for _, _, p, _ in rows[1433:])
    assert [n for n, (_, f, _, _) in enumerate(rows, 1) if f.startswith("0x")] == \
        [39 * 39, 40 * 40, 41 * 41]
    assert int(rows[41 * 41 - 1][1], 16) == back.spectrum.count(41 * 41)


NEAR_ONE = "1." + "0" * 119 + "1"


@pytest.mark.parametrize("argv, code", [
    (["build", "--beta", "2", "--max-n", "2", "--out", "x.json"], 2),
    # the precision and the oracle depth are not options
    (["build", "--beta", "2", "--precision", "512", "--out", "x.json"], 2),
    (["build", "--beta", "2", "--max-n", "1" + "0" * 400, "--out", "x.json"], 3),
    (["build", "--beta", NEAR_ONE, "--out", "x.json"], 3),
    # log2(beta) ~ 7e-10: the build would need about 630,000 square floors
    (["build", "--beta", "1.0000000005", "--out", "x.json"], 3),
    (["build", "--entropy", "1/2000000000", "--out", "x.json"], 3),
    (["transient-variant", "b.json", "--n0", "x", "--out", "x.json"], 2),
    (["export", "b.json", "--format", "dot", "--max-n", "0"], 2),
    (["verify", "b.json", "--oracle-depth", "10"], 2),
    (["lift", "b.json", "--period", "0", "--out", "x.json"], 2),
    (["classify", "p0.json"], 1),
    (["verify", "p0.json"], 1),
    (["classify", "near-one.json"], 3),
    (["classify", "too-many-floors.json"], 3),
    # beta = e^(10^12): refused from the descriptor, never evaluated
    (["build", "--beta", "e^1000000000000", "--out", "x.json"], 3),
    (["build", "--entropy", "1000", "--period", "1000000000", "--out", "x.json"], 3),
    (["classify", "e-huge.json"], 3),
    (["build", "--beta", "abc", "--out", "x.json"], 2),
    (["build", "--beta", "1/0", "--out", "x.json"], 2),
    (["build", "--beta", "e^x", "--out", "x.json"], 2),
    (["build", "--entropy", "abc", "--out", "x.json"], 2),
    (["build", "--entropy", "ln5", "--out", "x.json"], 2),
    (["classify", "div0.json"], 1),
    (["classify", "half.json"], 1),
    (["classify", "k-negative.json"], 1),
    (["verify", "a1-2.json"], 5),
    (["export", "a1-2.json", "--format", "dot"], 6),
    # usage: a command, its FILE, its required options and known option names
    ([], 2),
    (["bogus", "b.json"], 2),
    (["verify", "b.json", "-x"], 2),
    (["verify", "b.json", "c.json"], 2),
    (["classify", "b.json", "--bits=1"], 2),
    (["build", "--beta", "2", "--out"], 2),
    (["build", "--beta", "2", "--entropy", "ln2", "--out", "x.json"], 2),
    (["build", "--out", "x.json"], 2),
    (["lift", "b.json", "--out", "x.json"], 2),
    (["classify"], 2),
    (["export", "b.json", "--format", "svg"], 2),
    # a power of ten Fraction would build first: refused at once
    (["build", "--beta", "1e999999999", "--out", "x.json"], 2),
    (["build", "--entropy", "1e999999999", "--out", "x.json"], 2),
    (["build", "--entropy", "1e-999999999", "--out", "x.json"], 2),
    (["build", "--beta", "1e30000", "--out", "x.json"], 2),
    (["build", "--entropy", "1e30000", "--out", "x.json"], 2),
], ids=["build-max-n", "build-precision", "build-huge-max-n", "build-near-one",
        "build-7e-10", "entropy-7e-10", "n0", "export-max-n", "oracle-depth", "lift-period",
        "classify-period-0", "verify-period-0", "classify-near-one",
        "classify-too-many-floors", "build-e-huge", "entropy-huge-period", "classify-e-huge",
        "beta-abc", "beta-1/0", "beta-e^x",
        "entropy-abc", "entropy-ln5", "beta-value-1/0", "stored-beta-1/2", "stored-k-negative",
        "verify-a1-2", "export-a1-2", "no-command", "unknown-command", "unknown-option",
        "second-file", "flag-with-value",
        "missing-value", "beta-and-entropy", "neither-beta-nor-entropy", "missing-period",
        "missing-file", "format-svg", "beta-1e999999999", "entropy-1e999999999",
        "entropy-1e-999999999", "beta-1e30000", "entropy-1e30000"])
def test_bad_input_exits_with_its_code(argv, code, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run(capsys, "build", "--beta", "2", "--max-n", "16", "--out", "b.json")
    # a file with period_lift 0, as `lift --period 0` used to write
    payload = json.loads((tmp_path / "b.json").read_text())
    payload["period_lift"] = 0
    (tmp_path / "p0.json").write_text(json.dumps(payload))
    # the same counts with beta edited to 1 + 10^-120
    payload["period_lift"] = 1
    payload["beta"] = {"kind": "decimal", "value": str(Fraction(NEAR_ONE)), "text": NEAR_ONE}
    (tmp_path / "near-one.json").write_text(json.dumps(payload))
    # or to 1.0000001, which L, taken from the build's plan, refuses as the
    # build does: N_max 16 would need more than MAX_SQUARE_FLOORS floors
    payload["beta"] = {"kind": "decimal", "value": "10000001/10000000", "text": "1.0000001"}
    (tmp_path / "too-many-floors.json").write_text(json.dumps(payload))
    payload["beta"] = {"kind": "rational", "value": "1/0", "text": "1/0"}
    (tmp_path / "div0.json").write_text(json.dumps(payload))
    payload["beta"] = {"kind": "rational", "value": "1/2", "text": "1/2"}
    (tmp_path / "half.json").write_text(json.dumps(payload))
    # base 2 with k = -1000: M = beta + k would fall below beta, and the
    # mean-return bound below the true 6
    payload["beta"] = {"kind": "rational", "value": "2", "text": "2"}
    payload["meta"]["k"] = -1000
    (tmp_path / "k-negative.json").write_text(json.dumps(payload))
    # e^3 at N_max 64 with its base edited to e^(10^12)
    payload = spectrum_io.to_dict(spectrum_io.SpectrumFile(built("e^3")))
    payload["beta"] = {"kind": "exp_rational", "value": "1000000000000",
                       "text": "e^1000000000000"}
    (tmp_path / "e-huge.json").write_text(json.dumps(payload))
    # a user spectrum with two self-loops at the root
    (tmp_path / "a1-2.json").write_text(json.dumps(
        {"format_version": 2, "N_max": 3, "a": ["2", "0", "1"], "finite_support": True}))
    start = time.perf_counter()
    got = exit_code(argv)
    assert time.perf_counter() - start < 1  # 10^999999999 alone would take far longer
    out, err = capsys.readouterr()
    assert got == code
    assert code != 2 or out == ""
    # a failing verify names its count of failed invariants, any other an error
    assert ("invariant(s) failed" if code == cli.EXIT_VERIFY else "error") in err
    # an exponent past the limit is refused for it, not as not a number
    assert not {"1e999999999", "1e-999999999", "1e30000"} & set(argv) or "beyond" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.json").exists()


def test_options_take_any_order_an_equals_sign_and_a_repeat(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "build", "--beta", "2", "--max-n=8", "--out=x.json")[0] == 0
    assert spectrum_io.load("x.json").spectrum.N_max == 8
    code, stdout, _ = run(capsys, "classify", "--bits", "x.json")
    assert code == 0 and "lifted_entropy_bits" in json.loads(stdout)
    # the last of a repeated option wins
    assert run(capsys, "build", "--max-n", "5", "--beta", "2", "--max-n", "6",
               "--out", "y.json")[0] == 0
    assert spectrum_io.load("y.json").spectrum.N_max == 6


@pytest.mark.parametrize("command", [[], ["build"], ["transient-variant"], ["classify"],
                                     ["entropy"], ["lift"], ["export"], ["verify"]])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_the_usage(command, flag, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert exit_code(command + [flag]) == 0
    out, err = capsys.readouterr()
    assert "usage" in out and all(name in out for name in command) and err == ""
    assert list(tmp_path.iterdir()) == []


def test_usage_errors_and_help_return_from_main(capsys):
    assert cli.main([]) == 2 and cli.main(["verify", "-h"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage") and err.startswith("usage") and "error: no command" in err


@pytest.mark.parametrize("argv", [
    ["--beta", "1.0000000007"],  # log2(beta) just above the old 1e-9 pad
    ["--beta", "1.000001"],
    ["--entropy", "1/1000000"],
])
def test_build_refuses_too_many_square_floors(argv, tmp_path, capsys):
    out = tmp_path / "x.json"
    start = time.perf_counter()
    code, _, err = run(capsys, "build", *argv, "--out", str(out))
    assert time.perf_counter() - start < 5
    assert code == 3 and f"more than {spectrum.MAX_SQUARE_FLOORS} square floors" in err
    assert not out.exists()


def test_build_refuses_a_long_beta_power(tmp_path, capsys, monkeypatch):
    # e^3 at N_max = 64 needs 277 bits for beta^N_max, at 16 only 70
    monkeypatch.setattr(construction, "MAX_SERIES_BITS", 100)
    asked, evaluate = [], BetaValue.eval
    monkeypatch.setattr(BetaValue, "eval",
                        lambda beta, bits: asked.append(bits) or evaluate(beta, bits))
    out = tmp_path / "x.json"
    code, _, err = run(capsys, "build", "--beta", "e^3", "--out", str(out))
    assert code == 3 and "more than 100 bits for beta^N_max" in err
    # refused from the descriptor: beta is never evaluated
    assert not out.exists() and not asked
    code, _, _ = run(capsys, "build", "--beta", "e^3", "--max-n", "16", "--out", str(out))
    assert code == 0 and out.exists()


def child_env(unbuffered=None) -> dict:
    """The environment of a child that imports this markovforge;
    ``unbuffered`` True or False sets or clears PYTHONUNBUFFERED, None keeps
    the caller's."""
    env = {**os.environ, "PYTHONPATH": str(Path(markovforge.__file__).parents[1])}
    if unbuffered is not None:
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
    return env


def markovforge_cli(*argv, unbuffered=None, timeout=60, **kwargs):
    """``python -m markovforge.cli *argv`` in a child process: the path the
    ``markovforge`` script and the benchmark take, which ends in
    ``cli.run``."""
    return subprocess.run([sys.executable, "-m", "markovforge.cli", *argv],
                          env=child_env(unbuffered), timeout=timeout, **kwargs)


def closed_stdout(*argv, unbuffered=None):
    """``markovforge_cli`` with stdout a pipe whose reader has already left."""
    r, w = os.pipe()
    os.close(r)
    try:
        return markovforge_cli(*argv, unbuffered=unbuffered, stdout=w,
                               stderr=subprocess.PIPE, text=True)
    finally:
        os.close(w)


def test_closed_stdout_is_not_an_error(tmp_path):
    # the reader of a pipe leaves before the report or the graph is written
    path = tmp_path / "b.json"
    assert cli.main(["build", "--beta", "e^3", "--out", str(path)]) == 0
    for argv in (["classify", str(path), "--lambda-window"],
                 ["export", str(path), "--format", "json", "--max-n", "5", "--out", "-"]):
        proc = closed_stdout(*argv)
        assert proc.returncode == 0 and proc.stderr == "", argv


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_leaves_the_verify_code_alone(unbuffered, tmp_path):
    # unbuffered, the first line raises BrokenPipeError; buffered, the flush
    # after the last: either way a failing verify still exits 5 and says so
    path, low = tmp_path / "b.json", tmp_path / "low4.json"
    assert cli.main(["build", "--beta", "2", "--out", str(path)]) == 0
    payload = json.loads(path.read_text())
    payload["a"][3] = "0"
    low.write_text(json.dumps(payload))
    proc = closed_stdout("verify", str(low), unbuffered=unbuffered)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_VERIFY, "2 invariant(s) failed\n")
    proc = closed_stdout("verify", str(path), unbuffered=unbuffered)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_the_fast_exit_loses_no_byte(tmp_path, capsys, monkeypatch):
    # cli.run leaves through os._exit: the child must give the bytes, files
    # and exit codes of cli.main in process; buffered, so that what is left
    # in a buffer at the end is lost unless it is flushed
    child, here = tmp_path / "child", tmp_path / "in_process"
    child.mkdir()
    here.mkdir()
    monkeypatch.chdir(here)

    def both(*argv):
        proc = markovforge_cli(*argv, unbuffered=False, cwd=child, capture_output=True)
        code, out, err = run(capsys, *argv)
        assert proc.returncode == code, argv
        assert proc.stdout == out.encode() and proc.stderr == err.encode(), argv
        return proc

    written = ("b2.json", "b2t.json", "b2p3.json", "b2p3.dot", "b2.csv")
    both("build", "--beta", "2", "--out", "b2.json")
    both("transient-variant", "b2.json", "--out", "b2t.json")
    both("lift", "b2.json", "--period", "3", "--out", "b2p3.json")
    both("export", "b2p3.json", "--format", "dot", "--max-n", "8", "--out", "b2p3.dot")
    both("entropy", "b2.json", "--max-n", "300", "--csv", "b2.csv")
    for name in written:
        assert (child / name).read_bytes() == (here / name).read_bytes(), name
    # several MB through a pipe, many times its buffer, and outputs short
    # enough to stay in stdout's buffers until the end
    assert len(both("entropy", "b2.json", "--max-n", "5000").stdout) > 3_000_000
    both("entropy", "b2.json", "--max-n", "20")
    both("classify", "b2.json", "--lambda-window")
    both("export", "b2.json", "--format", "json", "--max-n", "4", "--out", "-")
    for side in (child, here):
        payload = json.loads((side / "b2.json").read_text())
        payload["a"][3] = "0"
        (side / "low4.json").write_text(json.dumps(payload))
    # one command for each exit code from 1 to 6, its code returned by main
    codes = [both(*argv).returncode for argv in (
        ["classify", "missing.json"],
        ["lift", "b2p3.json", "--period", "2", "--out", "x.json"],
        ["build", "--beta", "e^3", "--max-n", "1000000", "--out", "x.json"],
        ["transient-variant", "b2.json", "--n0", "3", "--out", "x.json"],
        ["verify", "low4.json"],
        ["export", "b2.json", "--format", "dot"])]
    assert codes == [1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
def test_run_flushes_what_main_left_and_exits_with_its_code(closed):
    # main flushes stdout itself; run flushes again whatever a command left,
    # and keeps main's code, also where the reader of stdout has left
    script = ("import sys; from markovforge import cli; "
              "cli.main = lambda: (sys.stdout.write('out'), sys.stderr.write('err'), 3)[-1]; "
              "cli.run()")
    r, w = os.pipe()
    if closed:
        os.close(r)
    try:
        proc = subprocess.run([sys.executable, "-c", script], env=child_env(unbuffered=False),
                              stdout=w, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(w)
    if not closed:
        with os.fdopen(r, "rb") as fh:
            assert fh.read() == b"out"
    assert (proc.returncode, proc.stderr) == (3, b"err")


@pytest.mark.parametrize("beta", ["1000/999", "1.001"])
def test_small_entropy_bases_build_and_verify(beta, tmp_path):
    # entropy ~ 0.001: exact powers of such a rational beta once grew to
    # millions of bits, and the build ran for minutes
    def markovforge(*argv):
        return markovforge_cli(*argv, capture_output=True, text=True, timeout=30)

    path = str(tmp_path / "b.json")
    assert markovforge("build", "--beta", beta, "--out", path).returncode == 0
    assert markovforge("verify", path).returncode == 0
    report = markovforge("classify", path)
    assert json.loads(report.stdout)["verdict"] == "PositiveRecurrent"


def _lambda_window(capsys, path):
    code, out, _ = run(capsys, "classify", str(path), "--lambda-window")
    assert code == 0
    return [Fraction(v) for v in json.loads(out)["lambda_window"]]


def test_lift_keeps_the_renewal_limit(tmp_path, capsys):
    # p(n p) (R^(1/p))^(n p) = p(n) R^n: a lift relabels n and keeps the limit
    path, variant = tmp_path / "b2.json", tmp_path / "b2_t.json"
    assert run(capsys, "build", "--beta", "2", "--out", str(path))[0] == 0
    assert run(capsys, "transient-variant", str(path), "--out", str(variant))[0] == 0
    for src, expected in ((path, Fraction(1, 6)), (variant, 0)):
        windows = []
        for p in (1, 2, 3):
            lifted = tmp_path / f"lifted_p{p}.json"
            assert run(capsys, "lift", str(src), "--period", str(p),
                       "--out", str(lifted))[0] == 0
            windows.append(_lambda_window(capsys, lifted))
        assert windows[0] == windows[1] == windows[2]
        lo, hi = windows[0]
        assert lo <= expected <= hi and hi - lo < Fraction(1, 2 ** 50)
    assert windows[0] == [0, 0]  # transient: exactly 0


def test_lambda_window_cost_does_not_grow_with_the_lift(tmp_path, capsys):
    path, lifted = tmp_path / "b2.json", tmp_path / "b2_lifted.json"
    run(capsys, "build", "--beta", "2", "--max-n", "16", "--out", str(path))
    run(capsys, "lift", str(path), "--period", str(10 ** 6), "--out", str(lifted))
    start = time.perf_counter()
    lo, hi = _lambda_window(capsys, lifted)
    assert time.perf_counter() - start < 1
    assert lo <= Fraction(1, 6) <= hi
