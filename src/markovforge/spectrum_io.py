"""Spectrum file format (version 5).

JSON with big integers as strings: decimal, or hex ("0x1f...") for those of
more than 4,300 digits, which CPython will not convert to decimal by
default; a reader takes either.  A constructed spectrum stores its counts
a(1..N_max), its base and, of the metadata, only what beta, N_max and the
precision cannot give back: k and the deleted loop.  The square floors, the
deficit delta and the tail past N_max, tail_at_L, are derived again from
beta (SpectrumMeta), so a load returns what was saved.  Versions 1 to 4 are
read; the tail_at_L, delta, entropy_target and digit trace they may hold
are ignored.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from typing import Union

from ._frozen import Frozen
from .errors import SpectrumFileError
from .intervals import MAX_PRECISION_BITS, BetaValue
from .spectrum import LoopSpectrum, SpectrumMeta, int_text

FORMAT_VERSION = 5


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


def _plain_in(text) -> Fraction:
    """``Fraction(text)`` of a text without an exponent, whose power of ten
    ("1e-999999999") Fraction would build first."""
    if type(text) is not str or "e" in text.lower():
        raise ValueError(f"{text!r} is not a plain decimal")
    return Fraction(text)


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
                           "deleted_loop": m.deleted_loop}
    return payload


def from_dict(payload: dict) -> SpectrumFile:
    try:
        version = payload["format_version"]
        if version not in range(1, FORMAT_VERSION + 1):
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
                _whole(m, "k"), None if m["deleted_loop"] is None else _whole(m, "deleted_loop"))
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
