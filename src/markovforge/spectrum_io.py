"""Spectrum file format (version 4).

JSON with big integers as strings: decimal, or hex ("0x1f...") for those of
more than 4,300 digits, which CPython will not convert to decimal by
default; a reader takes either.  A constructed spectrum stores its counts
a(1..N_max), its base and, of the metadata, only what beta, N_max and the
precision cannot give back: k, the deleted loop, and tail_at_L, whose
dyadic endpoints are written exactly ("-0x1a3p-384"), so a load returns
what was saved.  The square floors and the deficit delta are recomputed
from beta (SpectrumMeta).  Versions 1 to 3 are read; the delta, the
entropy_target and the digit trace they may hold are ignored, and the
40-digit decimal endpoints of version 1 are rounded outward onto the grid
2^-precision_bits.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from typing import Union

from ._frozen import Frozen
from .errors import SpectrumFileError
from .intervals import MAX_PRECISION_BITS, BetaValue, CReal
from .spectrum import MAX_SERIES_BITS, LoopSpectrum, SpectrumMeta, int_text

FORMAT_VERSION = 4
# the finest grid a build's series arithmetic reaches (construction._build_plan:
# the precision, 64 guard bits and the bits of beta^N_max)
MAX_EXPONENT = MAX_PRECISION_BITS + 64 + MAX_SERIES_BITS


class SpectrumFile(Frozen):
    """A spectrum plus the period lift carried between CLI commands."""

    _fields = ("spectrum", "period_lift")

    def __init__(self, spectrum: LoopSpectrum, period_lift: int = 1) -> None:
        self._init(spectrum, period_lift)


def _whole(payload: dict, key: str) -> int:
    """``payload[key]``, which must be a JSON integer: a float or a boolean
    is refused, not truncated to an int."""
    value = payload[key]
    if type(value) is not int:
        raise ValueError(f"{key} {value!r} is not an integer")
    return value


def _int_in(value) -> int:
    """A count: a JSON integer, or a decimal or hex ("0x...") string, whose
    parsing has no digit limit; a float or a boolean is refused."""
    if type(value) not in (int, str):
        raise ValueError(f"count {value!r} is not an integer")
    return int(value, 16) if type(value) is str and value.startswith("0x") else int(value)


def _interval_out(x: CReal) -> list[str]:
    """Each endpoint m 2^e as "<hex m>p<e>", m odd unless 0: one text per value."""
    out = []
    for v in (x.lo, x.hi):
        m, den = v.numerator, v.denominator
        if den & (den - 1):
            raise ValueError(f"endpoint {v} is not dyadic")
        zeros = (m & -m).bit_length() - 1 if m else 0
        out.append(f"{m >> zeros:#x}p{zeros + 1 - den.bit_length():+d}")
    return out


def _plain_in(text) -> Fraction:
    """``Fraction(text)`` of a text without an exponent, whose power of ten
    ("1e-999999999") Fraction would build first."""
    if type(text) is not str or "e" in text.lower():
        raise ValueError(f"{text!r} is not a plain decimal")
    return Fraction(text)


def _dyadic_in(text: str) -> Fraction:
    # hex int parsing has no digit limit, unlike decimal str <-> int
    m, e = text.split("p")
    m, e = int(m, 16), int(e)
    if abs(e) > MAX_EXPONENT:  # the shift below costs as much as e is large
        raise ValueError(f"endpoint exponent {e} is beyond +-{MAX_EXPONENT}")
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def _interval_in(v, bits: int, version: int) -> CReal:
    lo, hi = v
    if version == 1:
        return CReal(_plain_in(lo), _plain_in(hi), bits).round_outward(bits)
    return CReal(_dyadic_in(lo), _dyadic_in(hi), bits)


def to_dict(sf: SpectrumFile) -> dict:
    s = sf.spectrum
    payload = {
        "format_version": FORMAT_VERSION,
        "beta": None,
        "period_lift": sf.period_lift,
        "N_max": s.N_max,
        "a": [int_text(v) for v in s.a],
        "finite_support": s.finite_support,
        "meta": None,
    }
    if s.meta is not None:
        m = s.meta
        payload["beta"] = {"kind": m.beta.kind, "value": str(m.beta.value),
                           "text": m.beta.text}
        payload["meta"] = {"precision_bits": m.precision_bits, "k": m.k,
                           "tail_at_L": _interval_out(m.tail_at_L),
                           "deleted_loop": m.deleted_loop}
    return payload


def from_dict(payload: dict) -> SpectrumFile:
    try:
        version = payload["format_version"]
        if version not in (1, 2, 3, FORMAT_VERSION):
            raise SpectrumFileError(f"unsupported format_version {version!r}")
        n_max = _whole(payload, "N_max")
        if type(payload["a"]) is not list:
            raise ValueError("a is not a list of counts")
        a = tuple(_int_in(v) for v in payload["a"])
        meta = None
        if payload.get("meta") is not None:
            b, m = payload["beta"], payload["meta"]
            bits = _whole(m, "precision_bits")
            if bits > MAX_PRECISION_BITS:  # what no build writes, before any series work
                raise ValueError(f"precision_bits {bits} is above {MAX_PRECISION_BITS}")
            if n_max < 4:
                raise ValueError(f"N_max {n_max} of a constructed spectrum is below 4")
            meta = SpectrumMeta(
                BetaValue(b["kind"], _plain_in(b["value"]), b["text"]), bits, n_max,
                _whole(m, "k"), _interval_in(m["tail_at_L"], bits, version),
                None if m["deleted_loop"] is None else _whole(m, "deleted_loop"))
        if n_max < 1:  # no command reads an empty count list
            raise ValueError(f"N_max {n_max} is below 1")
        finite = payload.get("finite_support", False)
        if not isinstance(finite, bool):
            raise ValueError(f"finite_support {finite!r} is not true or false")
        spectrum = LoopSpectrum(a, n_max, meta=meta, finite_support=finite)
        period_lift = _whole(payload, "period_lift") if "period_lift" in payload else 1
        if period_lift < 1:
            raise ValueError(f"period_lift {period_lift} is below 1")
        return SpectrumFile(spectrum, period_lift)
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as e:
        raise SpectrumFileError(f"malformed spectrum file: {e}") from e


def to_bytes(sf: SpectrumFile) -> bytes:
    return (json.dumps(to_dict(sf), indent=2, sort_keys=True) + "\n").encode("utf-8")


def from_bytes(data: bytes) -> SpectrumFile:
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise SpectrumFileError(f"not valid JSON: {e}") from e
    return from_dict(payload)


def save(sf: SpectrumFile, path: Union[str, os.PathLike]) -> None:
    with open(path, "wb") as fh:
        fh.write(to_bytes(sf))


def load(path: Union[str, os.PathLike]) -> SpectrumFile:
    with open(path, "rb") as fh:
        return from_bytes(fh.read())
