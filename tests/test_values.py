"""The immutable value classes and what importing the CLI loads."""

import importlib.util
import json
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
from markovforge.errors import NotGreaterThanOne
from markovforge.spectrum_io import SpectrumFile, save


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


@pytest.mark.parametrize("command, spans", [
    ("classify", {"intervals.exp", "spectrum.sum"}),
    ("verify", {"intervals.exp", "spectrum.sum", "spectrum.checks"}),
])
def test_traced_cli_records_the_moved_series_and_construction(command, spans, spec_e07,
                                                              tmp_path):
    # a call site that bypasses the traced names would leave these spans out,
    # and the benchmark's per-layer numbers at 0
    save(SpectrumFile(spec_e07), tmp_path / "e07.json")
    traced = Path(__file__).parents[1] / "perfbench" / "traced_cli.py"
    proc = subprocess.run([sys.executable, str(traced), "spans.json", "--", command,
                           "e07.json"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    recorded = {span[0] for span in json.loads((tmp_path / "spans.json").read_text())["spans"]}
    assert spans <= recorded, recorded


# the eager names, the lazy layers and the names re-exported from them
PUBLIC_NAMES = (
    "BetaValue", "CReal", "ClassificationReport", "ExplicitGraph", "GrowthEstimate",
    "LoopSpectrum", "PathCountTable", "Radius", "SpectrumMeta", "Verdict",
    "build_spectrum", "certified_floor", "classifier", "classify",
    "count_first_returns", "count_paths", "delete_loop", "entropy_enclosure",
    "entropy_of_lift", "errors", "exp_fraction", "export", "geometric_tail",
    "graph", "growth_rate", "intervals", "lift_period",
    "log_fraction", "oracle", "power_series", "radius_L", "realize",
    "renewal_convolve", "renewal_limit", "spectrum", "spectrum_checks",
    "table_from_spectrum", "unit_sum_enclosure", "unit_sum_target",
    "user_spectrum", "weighted_sum_enclosure")


def test_public_names_are_unchanged_and_resolve():
    assert markovforge.__all__ == list(PUBLIC_NAMES)
    for name in PUBLIC_NAMES:
        namespace = {}
        exec(f"from markovforge import {name}", namespace)
        assert namespace[name] is getattr(markovforge, name)
        assert name in dir(markovforge)
    # bound for the CLI, but not exported: the parent module never imported it
    assert "verification" not in markovforge.__all__
    with pytest.raises(AttributeError, match="no_such_name"):
        markovforge.no_such_name
    with pytest.raises(ImportError):
        exec("from markovforge import no_such_name", {})


LAYERS = ("classifier", "construction", "graph", "oracle", "series", "verification")
# the modules the import and the command add, against those loaded before
# it, so that what a site hook imported at start does not count
LAYER_PROBE = """
import json, sys, types
before = set(sys.modules)
import markovforge.cli
code = markovforge.cli.main(sys.argv[1:])
# reading any attribute of a lazy module runs it: probe the type alone
print(json.dumps([code, [layer for layer in {layers!r}
                         if type(sys.modules["markovforge." + layer]) is types.ModuleType],
                  sorted(set(sys.modules) - before)]),
      file=sys.stderr)
""".format(layers=LAYERS)


@pytest.mark.parametrize("argv, layers", [
    ("build --beta 2 --max-n 8 --out x.json", ["construction", "series"]),
    ("transient-variant b2.json --out t.json", []),
    ("lift b2.json --period 3 --out l.json", []),
    ("classify b2.json", ["classifier", "construction", "series"]),
    ("classify b2.json --lambda-window", ["classifier", "construction", "series"]),
    ("entropy b2.json --csv e.csv", ["oracle"]),
    ("export b2.json --format dot --max-n 8 --out g.dot", ["graph"]),
    ("verify b2.json", list(LAYERS)),
])
def test_each_command_runs_only_the_layers_it_calls(argv, layers, spec2, tmp_path):
    save(SpectrumFile(spec2), tmp_path / "b2.json")
    env = {**os.environ, "PYTHONPATH": str(Path(markovforge.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", LAYER_PROBE, *argv.split()], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=60)
    code, ran, added = json.loads(proc.stderr.splitlines()[-1])
    assert [code, ran] == [0, layers], proc.stderr
    # the command line is read without argparse, and so without gettext and locale
    assert not {"argparse", "gettext", "locale"} & set(added), added


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


@pytest.mark.parametrize("text", ["1", "1/2", "1.0", "e^0", "e^-1/2", "1.0001", "e^1/1000"])
def test_spectrum_meta_takes_the_bases_require_above_one_takes(text):
    # one rule for beta > 1; the metadata refuses with a ValueError, a file error
    beta = BetaValue.parse(text)
    try:
        beta.require_above_one()
        above_one = True
    except NotGreaterThanOne:
        above_one = False
    try:
        SpectrumMeta(beta, 256, 4, 0, CReal.exact(0))
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == above_one
    assert above_one == (text in ("1.0001", "e^1/1000"))
