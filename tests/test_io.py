"""Spectrum file serialization."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovforge import (BetaValue, build_spectrum, delete_loop,
                         spectrum_checks, user_spectrum)
from markovforge import spectrum_io
from markovforge.errors import SpectrumFileError


def test_round_trip_constructed(spec_e07, tmp_path):
    sf = spectrum_io.SpectrumFile(spec_e07, period_lift=2, entropy_target="0.35")
    path = tmp_path / "s.json"
    spectrum_io.save(sf, path)
    back = spectrum_io.load(path)
    assert back.spectrum.a == spec_e07.a
    assert back.period_lift == 2
    assert back.entropy_target == "0.35"
    # a second save of the loaded object must be byte identical
    path2 = tmp_path / "s2.json"
    spectrum_io.save(back, path2)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("text, n_max, digest", [
    ("2", 128, "88622d586db78cf0d154f04fda840f47131b2ca978d7fa393fdfa90eb3639e9d"),
    ("e^7/10", 64, "dbbbfd14388e8260ee15a367d35dbd0fe01fd2f664cf435668960ac2ece28938"),
])
def test_build_bytes_are_golden(text, n_max, digest):
    # the bytes `markovforge build --beta TEXT --max-n N_MAX` writes
    sf = spectrum_io.SpectrumFile(build_spectrum(BetaValue.parse(text), n_max))
    assert hashlib.sha256(spectrum_io.to_bytes(sf)).hexdigest() == digest


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


def test_rejects_garbage():
    with pytest.raises(SpectrumFileError):
        spectrum_io.from_bytes(b"{nope")
    with pytest.raises(SpectrumFileError):
        spectrum_io.from_bytes(json.dumps({"format_version": 99}).encode())
    with pytest.raises(SpectrumFileError):
        spectrum_io.from_bytes(json.dumps(
            {"format_version": 1, "a": "oops"}).encode())


@given(st.lists(st.integers(min_value=0, max_value=10 ** 9),
                min_size=1, max_size=20))
@settings(max_examples=40, deadline=None)
def test_user_round_trip_random(a):
    sf = spectrum_io.SpectrumFile(user_spectrum(a))
    data = spectrum_io.to_bytes(sf)
    back = spectrum_io.from_bytes(data)
    assert back.spectrum.a == tuple(a)
    assert spectrum_io.to_bytes(back) == data
