"""Spectrum file serialization."""

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from markovforge import (BetaValue, CReal, Verdict, build_spectrum, classify,
                         delete_loop, spectrum_checks, user_spectrum)
from markovforge import cli, spectrum_io, verification
from markovforge.errors import SpectrumFileError
from markovforge.intervals import MAX_PRECISION_BITS
from markovforge.spectrum import int_text
from markovforge.verification import run_suite

from conftest import built, costly_files

DATA = Path(__file__).parent / "data"


def test_round_trip_constructed(spec_e07, tmp_path):
    sf = spectrum_io.SpectrumFile(spec_e07, period_lift=2)
    path = tmp_path / "s.json"
    spectrum_io.save(sf, path)
    back = spectrum_io.load(path)
    assert back.spectrum.a == spec_e07.a
    assert back.period_lift == 2
    # a second save of the loaded object must be byte identical
    path2 = tmp_path / "s2.json"
    spectrum_io.save(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def _interval_text(x: CReal) -> list[str]:
    """Each endpoint m 2^e of a dyadic enclosure as "<hex m>p<e>", m odd
    unless 0, as the version 2 to 4 writers stored tail_at_L and delta."""
    out = []
    for v in (x.lo, x.hi):
        m, den = v.numerator, v.denominator
        assert not den & (den - 1), v
        zeros = (m & -m).bit_length() - 1 if m else 0
        out.append(f"{m >> zeros:#x}p{zeros + 1 - den.bit_length():+d}")
    return out


def _with_tail(data: bytes) -> bytes:
    """The bytes the version 4 writer gave the same spectrum: the version 5
    payload plus tail_at_L, derived again."""
    payload = json.loads(data)
    s = spectrum_io.from_dict(payload).spectrum
    payload["format_version"] = 4
    payload["meta"]["tail_at_L"] = _interval_text(s.meta.tail_at_L)
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _with_delta(data: bytes) -> bytes:
    """The bytes the version 3 writer gave the same spectrum: the version 4
    payload plus the deficit delta, derived again, and entropy_target null,
    which a `build --beta` stored."""
    payload = json.loads(data)
    s = spectrum_io.from_dict(payload).spectrum
    payload["format_version"] = 3
    payload["entropy_target"] = None
    payload["meta"]["delta"] = _interval_text(s.meta.delta)
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _with_digit_trace(data: bytes) -> bytes:
    """The bytes the version 2 writer gave the same spectrum: the version 3
    payload plus the digit trace b, d, d' it stored, rebuilt from the square
    floors, with d'(n) = a(n) - b(n) and d = d' but for d(2) = d'(2) - k."""
    payload = json.loads(data)
    s = spectrum_io.from_dict(payload).spectrum
    b = [s.meta.square_floors.get(n, 0) for n in range(1, s.N_max + 1)]
    d_prime = [an - bn for an, bn in zip(s.a, b)]
    d = [d_prime[0], d_prime[1] - s.meta.k, *d_prime[2:]]
    payload["format_version"] = 2
    payload["digit_trace"] = {key: [int_text(v) for v in values]
                              for key, values in (("b", b), ("d", d), ("d_prime", d_prime))}
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


@pytest.mark.parametrize("text, n_max, digest, v4_digest, v3_digest, v2_digest, v1_file", [
    ("2", 128, "811e97b2ab642f57251cf977f16a3bb273ec2d9f163e82cd848e9d8a692dd785",
     "b272cc1cec282e118ae4445519995f518e1817beced7d4ce2d8b8c06e2b7f954",
     "087adbfe0709532ff790fa996d5f7707171e29d6b4f364aef709db27b4ba0986",
     "38705cfbc7ba99a3fa58887c41f0d844b812ffc4ad795b9e7d72421669f5e812",
     "b2_n128.v1.json"),
    ("e^7/10", 64, "70b988c0ba0ad5ad813e2261b0fa4f9a7796150cf651532b50d3f972f0a91440",
     "262de4745420e3ca6a742fcda5d88300ef5347489d4a3e83ac78694dfedb7150",
     "7a34877a0cd364d598bb7aeb7a956fd6be7534c1c7d00f45f8a2206a45a2a9fe",
     "7e8615e04d1eb7a5a1632a8e0258e90c5e12124b7050d280f0de646913659fdb",
     "e7_10_n64.v1.json"),
    ("3", 64, "d8b53829725b74ad5c02c483be4c88cac58a3f31ed315ae4a07b81951b8026e6",
     "83bda17387af03133949c4778d32e848cb62465a4f5792b4038ec41cd316f7eb",
     "ef6989433fd5d36b1004e80e7a0a6f6b50cc602767ec50d38792a9cd56cdb9a2",
     "5e8c50fc536aa63ffb664731fd5fd51251d472ac3a515689785a204faaa05496", None),
    ("5/2", 64, "28f1cca4c1453c47583d2119640c51cbd35d3d099554813e15305670dd496da3",
     "a72bf9e21dc11c86eace22805bd784df6dc6bf74a57def02059d0a8d8120600e",
     "d85f25b1cc3017bf889a4d86f4759e3d8f0fd3b2a0a14bb8bc8781748e833f77",
     "43977686a125a21027ae83c5113c71dc2c1ad303a2143c601ffa9e3756eb3cd9", None),
], ids=["2-128", "e^7/10-64", "3-64", "5/2-64"])
def test_build_bytes_are_golden(text, n_max, digest, v4_digest, v3_digest, v2_digest,
                               v1_file):
    # the bytes `markovforge build --beta TEXT --max-n N_MAX` writes
    sf = spectrum_io.SpectrumFile(build_spectrum(BetaValue.parse(text), n_max))
    data = spectrum_io.to_bytes(sf)
    assert hashlib.sha256(data).hexdigest() == digest
    # with the derived tail put back, the bytes the version 4 writer gave; with
    # the derived delta as well, those of the version 3 writer, and with the
    # trace too, those of the version 2 writer
    v4 = _with_tail(data)
    assert hashlib.sha256(v4).hexdigest() == v4_digest
    v3 = _with_delta(v4)
    assert hashlib.sha256(v3).hexdigest() == v3_digest
    assert hashlib.sha256(_with_digit_trace(v3)).hexdigest() == v2_digest
    if v1_file is None:
        return
    # the version 1 file of the same build holds the same counts and inputs,
    # and its stored square floors are the ones recomputed from beta
    new, old = json.loads(data), json.loads((DATA / v1_file).read_text())
    for key in ("a", "N_max", "beta"):
        assert new[key] == old[key], key
    for key in ("k", "precision_bits"):
        assert new["meta"][key] == old["meta"][key], key
    floors = sf.spectrum.meta.square_floors
    assert old["digit_trace"]["b"] == [str(floors.get(n, 0)) for n in range(1, n_max + 1)]


def test_v1_deep_deletion_loads_classifies_and_resaves_as_current():
    # written by the version 1 writer: e^3, N_max 64, the loop at n0 = 64
    # deleted; its 40-digit tail is far wider than L^64 ~ 4e-84
    sf = spectrum_io.from_bytes((DATA / "e3_n64_deleted64.v1.json").read_bytes())
    assert sf.spectrum.meta.deleted_loop == 64
    assert classify(sf.spectrum).verdict is Verdict.TRANSIENT
    data = spectrum_io.to_bytes(sf)
    assert json.loads(data)["format_version"] == spectrum_io.FORMAT_VERSION
    back = spectrum_io.from_bytes(data)
    assert back == sf
    assert spectrum_io.to_bytes(back) == data


def test_v2_variant_loads_classifies_and_resaves_as_current(spec_e07):
    # written by the version 2 writer: `build --beta e^7/10` (N_max 64), then
    # `transient-variant`, which deleted the loop at n0 = 4
    data = (DATA / "e7_10_n64_deleted4.v2.json").read_bytes()
    sf = spectrum_io.from_bytes(data)
    fresh = delete_loop(spec_e07, 4)
    assert sf.spectrum == fresh
    assert classify(sf.spectrum) == classify(fresh)
    assert classify(sf.spectrum).verdict is Verdict.TRANSIENT
    failed = [r for r in run_suite(sf.spectrum) if not r.passed]
    assert not failed, failed
    v2, v5 = json.loads(data), json.loads(spectrum_io.to_bytes(sf))
    assert v5["format_version"] == 5 and "digit_trace" not in v5
    # the tail derived at load is the one the version 2 writer stored
    assert _interval_text(sf.spectrum.meta.tail_at_L) == v2["meta"]["tail_at_L"]
    del v2["digit_trace"], v2["entropy_target"], v2["meta"]["delta"], v2["meta"]["tail_at_L"]
    assert {**v2, "format_version": 5} == v5


def test_v3_lifted_variant_loads_classifies_and_resaves_as_current():
    # written by the version 3 writer: `build --entropy ln2 --period 3`
    # (beta = 8, N_max 64), then `transient-variant`, which deleted the loop
    # at n0 = 4; it stores entropy_target "ln2" and a delta
    data = (DATA / "b8_ln2p3_n64_deleted4.v3.json").read_bytes()
    sf = spectrum_io.from_bytes(data)
    assert sf.period_lift == 3 and sf.spectrum.meta.deleted_loop == 4
    assert sf.spectrum == delete_loop(build_spectrum(BetaValue.from_rational(8)), 4)
    assert classify(sf.spectrum).verdict is Verdict.TRANSIENT
    failed = [r for r in run_suite(sf.spectrum, period_lift=3) if not r.passed]
    assert not failed, failed
    v3, v5 = json.loads(data), json.loads(spectrum_io.to_bytes(sf))
    assert v3["entropy_target"] == "ln2" and "delta" in v3["meta"]
    assert _interval_text(sf.spectrum.meta.tail_at_L) == v3["meta"]["tail_at_L"]
    del v3["entropy_target"], v3["meta"]["delta"], v3["meta"]["tail_at_L"]
    assert {**v3, "format_version": 5} == v5


def test_loaded_spectrum_derives_the_build_constants(spec_e07):
    back = spectrum_io.from_bytes(spectrum_io.to_bytes(spectrum_io.SpectrumFile(spec_e07)))
    for name in ("c", "L", "M_bound"):
        assert getattr(back.spectrum.meta, name) == getattr(spec_e07.meta, name), name
    assert "c" not in json.loads(spectrum_io.to_bytes(back))["meta"]


def test_loaded_e3_passes_construction_checks():
    # the stored c has 40 digits; scaled by e^(3 (m^2 - m)) it no longer
    # decides the square bounds, which must be re-derived from beta
    s = build_spectrum(BetaValue.parse("e^3"), 64)
    back = spectrum_io.from_bytes(spectrum_io.to_bytes(spectrum_io.SpectrumFile(s)))
    failed = [c for c in spectrum_checks(back.spectrum) if not c.passed]
    assert not failed, failed


def test_round_trip_preserves_deleted_loop(spec2):
    d = delete_loop(spec2)
    back = spectrum_io.from_bytes(spectrum_io.to_bytes(
        spectrum_io.SpectrumFile(d)))
    assert back.spectrum.meta.deleted_loop == 4
    assert back.spectrum.a == d.a


def test_round_trip_user_spectrum():
    s = user_spectrum([1, 0, 3, 5])
    back = spectrum_io.from_bytes(spectrum_io.to_bytes(
        spectrum_io.SpectrumFile(s)))
    assert back.spectrum.a == (1, 0, 3, 5)
    assert back.spectrum.meta is None
    assert back.spectrum.finite_support


def test_format_is_versioned_json(spec2):
    payload = json.loads(spectrum_io.to_bytes(spectrum_io.SpectrumFile(spec2)))
    assert payload["format_version"] == spectrum_io.FORMAT_VERSION
    assert payload["beta"]["kind"] == "rational"


def test_rejects_garbage(spec2):
    with pytest.raises(SpectrumFileError):
        spectrum_io.from_bytes(b"{nope")
    with pytest.raises(SpectrumFileError):
        spectrum_io.from_bytes(json.dumps({"format_version": 99}).encode())
    with pytest.raises(SpectrumFileError):
        spectrum_io.from_bytes(json.dumps(
            {"format_version": 1, "a": "oops"}).encode())
    for key, value in [("deleted_loop", "four"), ("k", -1)]:
        payload = spectrum_io.to_dict(spectrum_io.SpectrumFile(spec2))
        payload["meta"][key] = value
        with pytest.raises(SpectrumFileError):
            spectrum_io.from_bytes(json.dumps(payload).encode())
    # finite_support must be a JSON boolean: "false" or [1] is not a truncation flag
    for value in ("false", "true", [1], 0, 1, None):
        payload = spectrum_io.to_dict(spectrum_io.SpectrumFile(user_spectrum([1, 2])))
        payload["finite_support"] = value
        with pytest.raises(SpectrumFileError, match="finite_support"):
            spectrum_io.from_bytes(json.dumps(payload).encode())
    del payload["finite_support"]  # absent: the counts are a truncation
    assert spectrum_io.from_dict(payload).spectrum.finite_support is False
    # a count is a decimal or hex string or a JSON integer: int() would read
    # 2.7 as 2 and true as 1
    payload = json.loads((DATA / "b2_n128.v1.json").read_bytes())
    for value in (2.7, 2.0, True, False):
        payload["a"][2] = value
        with pytest.raises(SpectrumFileError, match=f"count {value!r} is not an integer"):
            spectrum_io.from_dict(payload)
    for value in (2, "2", "0x2"):
        payload["a"][2] = value
        assert spectrum_io.from_dict(payload).spectrum.count(3) == 2
    # a string's characters, or an object's keys, would be read as counts
    for a in ("1012", {"1": 0, "0": 1, "2": 2, "3": 3}):
        payload = {"format_version": 4, "N_max": 4, "a": a, "finite_support": True,
                   "meta": None}
        with pytest.raises(SpectrumFileError, match="a is not a list of counts"):
            spectrum_io.from_dict(payload)
    # a stored base must exceed 1, as beta + k bounds the counts
    for kind, value in [("rational", "1/2"), ("rational", "1"), ("exp_rational", "-1"),
                        ("exp_rational", "0")]:
        payload = spectrum_io.to_dict(spectrum_io.SpectrumFile(spec2))
        payload["beta"] = {"kind": kind, "value": value, "text": value}
        with pytest.raises(SpectrumFileError):
            spectrum_io.from_bytes(json.dumps(payload).encode())


def test_costly_files_are_refused_at_load(spec2):
    for name, payload, message in costly_files(spec2):
        with pytest.raises(SpectrumFileError, match=message):
            spectrum_io.from_dict(payload)
    # the bounds themselves load: the largest precision and the least
    # constructed N_max
    edge = spectrum_io.to_dict(spectrum_io.SpectrumFile(built("2", 4)))
    edge["meta"].update(precision_bits=MAX_PRECISION_BITS)
    meta = spectrum_io.from_dict(edge).spectrum.meta
    assert meta.precision_bits == MAX_PRECISION_BITS and meta.N_max == 4


@pytest.mark.parametrize("key, value", [
    ("N_max", 64.0), ("period_lift", 2.7), ("period_lift", True), ("precision_bits", 256.5),
    ("k", 0.9), ("k", False), ("deleted_loop", 4.0)])
def test_integer_fields_refuse_floats_and_booleans(spec2, key, value):
    # int() would truncate 2.7 to 2 and read true as 1
    payload = spectrum_io.to_dict(spectrum_io.SpectrumFile(spec2))
    (payload if key in payload else payload["meta"])[key] = value
    with pytest.raises(SpectrumFileError, match=f"{key} {value!r} is not an integer"):
        spectrum_io.from_bytes(json.dumps(payload).encode())


@given(st.lists(st.integers(min_value=0, max_value=10 ** 9),
                min_size=1, max_size=20))
@settings(max_examples=40, deadline=None)
def test_user_round_trip_random(a):
    sf = spectrum_io.SpectrumFile(user_spectrum(a))
    data = spectrum_io.to_bytes(sf)
    back = spectrum_io.from_bytes(data)
    assert back.spectrum.a == tuple(a)
    assert spectrum_io.to_bytes(back) == data


@st.composite
def constructed_files(draw):
    kind = draw(st.sampled_from(["rational", "near_one", "exp", "deep"]))
    least_n = 96 if kind == "deep" else 4
    if kind == "rational":
        beta = BetaValue.from_rational(draw(st.fractions(
            min_value=Fraction(3, 2), max_value=16, max_denominator=8)))
    elif kind == "near_one":
        # beta = 1 + d/q in (1, 3/2] off every dyadic grid, so eval gives a
        # ball; cost grows with 1/log(beta), about 0.3 s at 1001/1000
        q = draw(st.integers(min_value=3, max_value=1000))
        f = 1 + Fraction(draw(st.integers(min_value=1, max_value=q // 2)), q)
        assume(f.denominator & (f.denominator - 1))
        beta = BetaValue.from_rational(f)
    elif kind == "exp":
        beta = BetaValue.exp_of_rational(draw(st.fractions(
            min_value=Fraction(1, 20), max_value=3, max_denominator=20)))
    else:
        # N_max log2(beta) >= 96 * 2 log2(e) > 277: the sums need more than
        # the file's 256 bits
        beta = BetaValue.exp_of_rational(draw(st.fractions(
            min_value=2, max_value=3, max_denominator=20)))
    s = build_spectrum(beta, draw(st.integers(min_value=least_n, max_value=128)))
    deletable = [n for n in range(2, s.N_max + 1) if s.count(n)]
    if deletable and draw(st.booleans()):
        s = delete_loop(s, draw(st.sampled_from(deletable)))
    return spectrum_io.SpectrumFile(s)


@given(constructed_files())
@settings(max_examples=40, deadline=None)
def test_constructed_round_trip_is_lossless(sf):
    back = spectrum_io.from_bytes(spectrum_io.to_bytes(sf))
    assert back == sf
    # delta is derived, not a field: the loaded file derives the build's own
    assert back.spectrum.meta.delta == sf.spectrum.meta.delta
    report = classify(sf.spectrum)
    assert classify(back.spectrum) == report
    deleted = sf.spectrum.meta.deleted_loop is not None
    assert report.verdict is (Verdict.TRANSIENT if deleted else Verdict.POSITIVE_RECURRENT)
    # the loaded file passes the whole suite; depth 3 keeps the realization
    # small (a(4) alone is 146,952 loops for e^3)
    failed = [r for r in run_suite(back.spectrum, oracle_depth=3) if not r.passed]
    assert not failed, failed


def _cli(argv):
    """(exit code, stdout) of ``cli.main(argv)`` run in process."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@given(constructed_files(), st.integers(-2 ** 70, 2 ** 70), st.integers(0, 2 ** 70),
       st.integers(-700, 40))
@settings(max_examples=20, deadline=None)
def test_the_tail_is_derived_and_a_stored_one_is_ignored(sf, m, width, e):
    # a load derives the build's tail bit for bit
    s = sf.spectrum
    back = spectrum_io.from_bytes(spectrum_io.to_bytes(sf)).spectrum
    tail = build_spectrum(s.meta.beta, s.N_max, s.meta.precision_bits).meta.tail_at_L
    assert (back.meta.tail_at_L.lo, back.meta.tail_at_L.hi) == (tail.lo, tail.hi)
    # and reads none from a file: a version 4 payload whose tail_at_L is any
    # dyadic interval classifies as the untouched file does
    payload = spectrum_io.to_dict(sf)
    payload["format_version"] = 4
    payload["meta"]["tail_at_L"] = [f"{m:#x}p{e:+d}", f"{m + width:#x}p{e:+d}"]
    with tempfile.TemporaryDirectory() as tmp:
        intact, stored = Path(tmp) / "intact.json", Path(tmp) / "stored.json"
        spectrum_io.save(sf, intact)
        stored.write_text(json.dumps(payload))
        assert _cli(["classify", str(stored)]) == _cli(["classify", str(intact)])


def _k_edit(meta, which):
    """meta with k one up (which 0) or down (1), or None where k falls below 0."""
    k = meta.k + (-1) ** which
    return meta.replace(k=k) if k >= 0 else None


# L^128 of e^3 is about 2^-554, finer than the draws reach: a unit sum at the
# file's 256 bits (width about 2^-320) would miss an edit of a(127) or a(128)
_DEEP = spectrum_io.SpectrumFile(built("e^3", 128))


@given(constructed_files(), st.sampled_from([1, 1, 2, 3]),
       st.one_of(st.integers(0, 2), st.integers(0, 126)), st.booleans(), st.integers(0, 1))
@example(_DEEP, 1, 0, False, 0)
@example(_DEEP.replace(spectrum=delete_loop(_DEEP.spectrum)), 3, 1, True, 0)
@settings(max_examples=40, deadline=None)
def test_a_tampered_file_never_gets_a_wrong_verdict(sf, lift, back, down, which):
    # a count one off at an n drawn near N_max moves the unit sum by L^n, which
    # its enclosure must resolve: classify finds the identity failing and
    # verify fails; k one off may cost the verdict, but never gives a wrong one
    s, deleted = sf.spectrum, sf.spectrum.meta.deleted_loop
    sf = sf.replace(period_lift=lift)
    n = max(1, s.N_max - back)
    a = list(s.a)
    a[n - 1] += -1 if down and a[n - 1] else 1
    counts = sf.replace(spectrum=s.replace(a=tuple(a)))
    meta = _k_edit(s.meta, which)
    truth = Verdict.TRANSIENT if deleted is not None else Verdict.POSITIVE_RECURRENT
    depth = verification._oracle_checks
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        # the oracles compare the graph with its own counts: depth 3 keeps them cheap
        patch.setattr(verification, "_oracle_checks",
                      lambda s, lift, oracle_depth: depth(s, lift, 3))
        path = str(Path(tmp) / "counts.json")
        spectrum_io.save(counts, path)
        report = json.loads(_cli(["classify", path])[1])
        assert report["verdict"] == "Indeterminate", (n, a[n - 1])
        assert report["notes"][0].startswith("construction identity not certified: ")
        assert _cli(["verify", path])[0] == cli.EXIT_VERIFY
        if meta is not None:
            path = str(Path(tmp) / "k.json")
            spectrum_io.save(sf.replace(spectrum=s.replace(meta=meta)), path)
            report = json.loads(_cli(["classify", path])[1])
            assert report["verdict"] in (truth.value, "Indeterminate"), which
