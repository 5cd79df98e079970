import io
import time
from array import array
from math import gcd

import pytest

from markovforge import BetaValue, build_spectrum, export, spectrum_io
from markovforge.graph import ExplicitGraph
from markovforge.intervals import MAX_PRECISION_BITS
from markovforge.oracle import count_first_returns

BETA_TEXTS = ("2", "3", "e^7/10", "8")

_cache = {}
BUILD_TIMES = {}


def built(text, N_max=64):
    key = (text, N_max)
    if key not in _cache:
        t0 = time.monotonic()
        _cache[key] = build_spectrum(BetaValue.parse(text), N_max)
        BUILD_TIMES[key] = time.monotonic() - t0
    return _cache[key]


def neighbour_pairs(form, size):
    """(v, w) for every neighbour w of v in a form ``(one, hubs)``, in the
    order of v, then of the form."""
    one, hubs = form
    return [(v, w) for v in range(size)
            for w in hubs.get(v, [one[v]] if one[v] < size else [])]


def graph_from_arrows(root, names, arrows, period_lift=1):
    """The graph built from index arrays on the vertices ``names``, by
    index, with the (tail name, head name) ``arrows`` in order, rooted at
    the vertex named ``root``; the names themselves are not kept."""
    index = {v: i for i, v in enumerate(names)}
    return ExplicitGraph(len(names), array("l", [index[u] for u, _ in arrows]),
                         array("l", [index[v] for _, v in arrows]), index[root], period_lift)


def period(g):
    """Reference period: the gcd of the lengths of the loops through the
    root, read from a realized graph's loop lengths, and from its first
    returns for any other graph; 0 when no loop passes through the root."""
    if g.loop_lengths is not None:
        lengths = [n * g.period_lift for n, mult in g.loop_lengths if mult > 0]
    else:
        f = count_first_returns(g, g.root, g.size + 1)
        lengths = [n for n, v in enumerate(f, start=1) if v > 0]
    return gcd(*lengths)


def exported(g, fmt="json"):
    """The bytes ``export`` writes for ``g`` in ``fmt``."""
    out = io.BytesIO()
    export(g, fmt, out)
    return out.getvalue()


def costly_files(spec2):
    """(name, payload, message) of constructed files whose few bytes would
    cost unbounded time, or crash a command, if they were not refused."""
    def changed(edit):
        payload = spectrum_io.to_dict(spectrum_io.SpectrumFile(spec2))
        edit(payload)
        return payload

    def meta(key, value):
        return lambda payload: payload["meta"].__setitem__(key, value)

    def n_max(n):
        return lambda payload: payload.update(N_max=n, a=payload["a"][:n])

    return [
        ("precision", changed(meta("precision_bits", 10 ** 6)),
         "precision_bits 1000000 is above 4096"),
        ("precision_4097", changed(meta("precision_bits", MAX_PRECISION_BITS + 1)),
         "above 4096"),
        ("n_max_0", changed(n_max(0)), "N_max 0 of a constructed spectrum is below 4"),
        ("n_max_3", changed(n_max(3)), "N_max 3 of a constructed spectrum is below 4"),
        ("beta_exponent", changed(lambda payload: payload["beta"].update(value="1e999999999")),
         "not a plain decimal"),
    ]


@pytest.fixture(scope="session")
def spec2():
    return built("2")


@pytest.fixture(scope="session")
def spec3():
    return built("3")


@pytest.fixture(scope="session")
def spec8():
    return built("8")


@pytest.fixture(scope="session")
def spec_e07():
    return built("e^7/10")


@pytest.fixture(scope="session")
def all_spectra():
    return {text: built(text) for text in BETA_TEXTS}
