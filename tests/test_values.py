"""The immutable value classes and what importing the CLI loads."""

import importlib.util
import os
import subprocess
import sys
from array import array
from fractions import Fraction
from pathlib import Path

import pytest

import markovforge
from markovforge import (BetaValue, CReal, ExplicitGraph, GrowthEstimate, LoopSpectrum,
                         PathCountTable, SpectrumMeta, classify, user_spectrum)
from markovforge.spectrum_io import SpectrumFile


def test_cli_import_loads_no_dataclasses_or_inspect():
    env = {**os.environ, "PYTHONPATH": str(Path(markovforge.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, markovforge.cli; "
         "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_trace_targets_resolve_after_importing_the_cli():
    # the lookup of Recorder.install, which also rebinds module globals
    # and so is not called here; an unresolved target makes the traced
    # benchmark pass exit without running its command
    path = Path(__file__).parents[1] / "perfbench" / "traced_cli.py"
    spec = importlib.util.spec_from_file_location("traced_cli", path)
    traced_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_cli)
    import markovforge.cli  # noqa: F401
    for module_name, attr, _ in traced_cli.TARGETS:
        module = sys.modules.get(module_name)
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        assert callable(getattr(owner, fn_name, None)), f"{module_name}.{attr}"


def test_fields_cannot_be_assigned_or_deleted(spec2):
    x = CReal(Fraction(1, 3), Fraction(1, 2))
    for obj, name in ((x, "lo"), (x, "other"), (spec2, "a"), (spec2.meta, "k"),
                      (SpectrumFile(spec2), "period_lift")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert x.lo == Fraction(1, 3)


def test_equal_fields_give_equal_objects_and_hashes(spec2):
    a, b = CReal(1, Fraction(3, 2), 64), CReal(Fraction(1), Fraction(3, 2), 64)
    assert a == b and hash(a) == hash(b)
    assert a != CReal(1, Fraction(3, 2), 65) and a != a.replace(hi=2)
    copy = spec2.replace()
    assert copy is not spec2 and copy == spec2 and hash(copy) == hash(spec2)
    assert classify(spec2) == classify(copy)
    # equality needs the same type, not just the same field values
    fields = ((1,), (2,))
    assert GrowthEstimate(*fields) != PathCountTable(*fields)
    assert GrowthEstimate(*fields) == GrowthEstimate(*fields)


def test_repr_and_asdict_follow_the_fields():
    x = CReal(1, 2, 64)
    assert repr(x) == "CReal(lo=Fraction(1, 1), hi=Fraction(2, 1), precision_bits=64)"
    assert x.asdict() == {"lo": 1, "hi": 2, "precision_bits": 64}
    assert repr(BetaValue.parse("e^1/2")) == \
        "BetaValue(kind='exp_rational', value=Fraction(1, 2), text='e^1/2')"


def test_explicit_graph_compares_its_arrows_but_does_not_hash_them():
    g = ExplicitGraph(2, array("l", [0, 1]), array("l", [1, 0]))
    same = ExplicitGraph(2, array("l", [0, 1]), array("l", [1, 0]))
    other = ExplicitGraph(2, array("l", [0, 1, 1]), array("l", [1, 0, 1]))
    assert g == same and hash(g) == hash(same)
    assert g != other and hash(g) == hash(other)
    g.adjacency()  # the kept neighbour form is not a field
    assert g == same and hash(g) == hash(same)


def test_beta_cache_is_outside_equality():
    used, fresh = BetaValue.parse("e^3"), BetaValue.parse("e^3")
    used.eval(128)
    assert used._cache and not fresh._cache
    assert used == fresh and hash(used) == hash(fresh)
    assert "_cache" not in repr(used) and "_cache" not in used.asdict()
    assert not used.replace()._cache


def test_replace_runs_the_checks(spec2):
    with pytest.raises(ValueError):
        spec2.replace(a=spec2.a[:-1])
    with pytest.raises(ValueError):
        spec2.replace(a=(-1,) + spec2.a[1:])
    with pytest.raises(ValueError):
        spec2.replace(meta=spec2.meta.replace(N_max=spec2.N_max + 1))
    with pytest.raises(ValueError):
        CReal(1, 2).replace(lo=3)
    with pytest.raises(TypeError):
        user_spectrum([1]).replace(size=1)
    assert isinstance(spec2.meta, SpectrumMeta) and isinstance(spec2, LoopSpectrum)
    assert spec2.meta.replace(k=spec2.meta.k).L == spec2.meta.L
