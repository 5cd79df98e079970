"""Countable loop graphs of prescribed Gurevich entropy and period, with
certified Vere-Jones classification.

The modules ``series`` and ``construction`` and the layers ``classifier``,
``graph``, ``oracle`` and ``verification`` are put in ``sys.modules`` first
but run only when one of their attributes is first read (``LazyLoader``), so
a command compiles just those it calls.  Each is also bound as an attribute
of this package: ``from . import graph`` then finds it without reading its
``__spec__``, which would run it.  Their names re-exported here resolve
through the module ``__getattr__``.
"""

import importlib.util as _util
import sys as _sys


def _lazy(layer: str):
    name = f"{__name__}.{layer}"
    spec = _util.find_spec(name)
    spec.loader = _util.LazyLoader(spec.loader)
    module = _util.module_from_spec(spec)
    _sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


series = _lazy("series")
construction = _lazy("construction")
classifier = _lazy("classifier")
graph = _lazy("graph")
oracle = _lazy("oracle")
verification = _lazy("verification")

from .intervals import BetaValue, CReal, certified_floor  # noqa: E402
from .spectrum import LoopSpectrum, SpectrumMeta, delete_loop, user_spectrum  # noqa: E402

_EXPORTS = {
    "classifier": ("ClassificationReport", "Radius", "Verdict", "classify",
                   "entropy_enclosure", "entropy_of_lift", "radius_L",
                   "renewal_limit"),
    "construction": ("build_spectrum", "spectrum_checks", "unit_sum_enclosure",
                     "unit_sum_target", "weighted_sum_enclosure"),
    "graph": ("ExplicitGraph", "export", "lift_period", "realize"),
    "oracle": ("GrowthEstimate", "PathCountTable", "count_first_returns",
               "count_paths", "growth_rate", "renewal_convolve",
               "table_from_spectrum"),
    "series": ("exp_fraction", "geometric_tail", "log_fraction", "power_series"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

# the eager names, the layers classifier, graph and oracle and the names
# re-exported from the lazy modules; not verification, series or construction
__all__ = sorted({n for n in dir() if n[0] != "_"} - {"construction", "series", "verification"}
                 | set(_LAYER_OF))


def __getattr__(name: str):
    if name in _LAYER_OF:
        return getattr(globals()[_LAYER_OF[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
