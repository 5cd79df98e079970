import time

import pytest

from markovforge import BetaValue, build_spectrum

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
