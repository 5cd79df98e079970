"""Loop spectra: sequences a(n) of loop counts with certified analytic metadata.

A constructed spectrum for a base beta > 1 satisfies, with c = (beta-1)^2
and M = beta + k:

  * a(1) = 1,
  * sum_{n>=1} a(n) beta^-n = 1,
  * c beta^(m^2-m) <= a(m^2) <= c beta^(m^2-m) + M for m >= 2
    (the lower bound up to the floor defect < 1),
  * 0 <= a(n) <= M for non-square n.

The construction and the certified sums and checks are in ``construction``.
"""

from __future__ import annotations

from functools import cached_property
from itertools import islice
from typing import BinaryIO, Iterator, Optional, Sequence

from . import construction, series
from ._frozen import Frozen
from .errors import FloorUndecidable, NoDeletableLoop, NotGreaterThanOne, PrecisionExhausted
from .intervals import _DECIMAL_LIMIT, BetaValue, CReal

DEFAULT_N_MAX = 64
# the most square floors a build computes: 1.00001 needs 4,476 at the default
# precision and builds in about 0.1 s; the cost is linear in their number
MAX_SQUARE_FLOORS = 5000
# the most bits N_max log2(beta) a build gives beta^N_max: base 1000 at N_max =
# 1700 takes 16,942; e^3 at 4,600 builds in about 2.3 s (in process, 2-vCPU VM)
MAX_SERIES_BITS = 20_000


def __getattr__(name: str):  # names moved to construction resolve here too
    if name in ("build_spectrum", "unit_sum_enclosure", "weighted_sum_enclosure",
                "spectrum_checks"):
        return getattr(construction, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SpectrumMeta(Frozen):
    """Certified analytic metadata of a constructed spectrum.

    Stored: the build's inputs and k = floor(beta^2 delta).  Derived on first
    use as the build derived them: B and L = 1/B (the radius of sum a(n) z^n),
    c = (B-1)^2, M_bound = B + k (bounds each count above its square floor),
    square_floors, b(m^2) = floor(c beta^(m^2-m)) for every m <= n_ext the
    plan tracks, their ``construction._floor_sweep`` past N_max, which gives
    the deficit delta, and tail_at_L = sum_{n > N_max} a(n) L^n of the
    construction (``construction._greedy_tail``), each None if a floor or a
    greedy digit is undecidable at precision_bits.
    """

    _fields = ("beta", "precision_bits", "N_max", "k", "deleted_loop")

    def __init__(self, beta: BetaValue, precision_bits: int, N_max: int, k: int,
                 deleted_loop: Optional[int] = None) -> None:
        try:
            beta.require_above_one()
        except NotGreaterThanOne as e:  # a file error, as a bad k is
            raise ValueError(*e.args) from None
        if k < 0:
            raise ValueError(f"M_bound = beta + k needs k >= 0, not k = {k}")
        self._init(beta, precision_bits, N_max, k, deleted_loop)

    _plan = cached_property(
        lambda self: construction._build_plan(self.beta, self.N_max, self.precision_bits))
    B = cached_property(lambda self: self._plan[3])
    c = cached_property(lambda self: (self.B - 1) ** 2)
    L = cached_property(lambda self: self._plan[4])
    M_bound = cached_property(lambda self: self.B + self.k)

    @cached_property
    def square_floors(self) -> Optional[dict[int, int]]:
        try:
            return construction._square_floors(self._plan[2], self._plan[1])
        except (FloorUndecidable, PrecisionExhausted):
            return None

    floor_sweep = cached_property(lambda self: None if self.square_floors is None else (
        construction._floor_sweep(self.beta, self.N_max, self.precision_bits, self._plan,
                                  self.square_floors)))
    delta = cached_property(lambda self: None if self.floor_sweep is None else self.floor_sweep[1])

    @cached_property
    def tail_at_L(self) -> Optional[CReal]:
        if self.floor_sweep is None:
            return None
        try:
            return construction._greedy_tail(self.N_max, self.precision_bits, self._plan,
                                             self.floor_sweep)[2]
        except (FloorUndecidable, PrecisionExhausted):
            return None


class LoopSpectrum(Frozen):
    """Truncated loop-count sequence a(1..N_max) with optional metadata.

    ``a[i]`` holds a(i+1).  ``meta`` is present for constructed spectra only;
    user-supplied spectra carry ``finite_support`` to say whether the list is
    the whole (polynomial) spectrum or a truncation of something unknown.
    """

    _fields = ("a", "N_max", "meta", "finite_support")

    def __init__(self, a: tuple[int, ...], N_max: int, meta: Optional[SpectrumMeta] = None,
                 finite_support: bool = False) -> None:
        if len(a) != N_max:
            raise ValueError("a must have exactly N_max entries")
        if any(v < 0 for v in a):
            raise ValueError("loop counts must be nonnegative")
        if meta is not None and meta.N_max != N_max:
            raise ValueError("meta was built for another N_max")
        self._init(a, N_max, meta, finite_support)

    # sum a(n) L^n and sum n a(n) L^n from one sweep of L's powers, and the unit
    # sum, summed once for verify's checks and classify; kept here, as they read the counts
    heads = cached_property(lambda self: series.power_series_moment(enumerate(self.a, 1),
                                                                    self.meta.L))
    unit_sum = cached_property(lambda self: construction.unit_sum_enclosure(self))

    def count(self, n: int) -> int:
        if not 1 <= n <= self.N_max:
            raise IndexError(f"n={n} outside 1..{self.N_max}")
        return self.a[n - 1]

    def support(self) -> list[int]:
        return [n for n in range(1, self.N_max + 1) if self.a[n - 1] > 0]


def user_spectrum(a: Sequence[int], finite_support: bool = True) -> LoopSpectrum:
    """Wrap an explicit count list (no analytic metadata)."""
    return LoopSpectrum(tuple(int(v) for v in a), len(a), finite_support=finite_support)


def delete_loop(s: LoopSpectrum, n0: Optional[int] = None) -> LoopSpectrum:
    """Remove one loop of length n0 >= 2 (smallest available by default)."""
    if s.meta is not None and s.meta.deleted_loop is not None:
        raise NoDeletableLoop("spectrum already has a deleted loop recorded")
    if n0 is None:
        n0 = next((n for n in range(2, s.N_max + 1) if s.count(n) >= 1), None)
        if n0 is None:
            raise NoDeletableLoop(f"no loop of length in 2..{s.N_max} to delete")
    else:
        if n0 < 2:
            raise NoDeletableLoop("only loops of length >= 2 may be deleted")
        if not (2 <= n0 <= s.N_max) or s.count(n0) < 1:
            raise NoDeletableLoop(f"a({n0}) has no loop to delete")
    a = list(s.a)
    a[n0 - 1] -= 1
    meta = s.meta.replace(deleted_loop=n0) if s.meta is not None else None
    return s.replace(a=tuple(a), meta=meta)


class CheckResult(Frozen):
    _fields = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = "") -> None:
        self._init(name, passed, detail)


def int_text(v: int) -> str:
    """Decimal, or hex ("0x...") for more than 4,300 digits."""
    return hex(v) if v >= _DECIMAL_LIMIT else str(v)


def write_lines(lines: Iterator[str], fh: BinaryIO) -> None:
    """Write ``lines``, each ended by a newline, to the binary file ``fh``,
    1,024 per write, fewer once they average a kilobyte, so that a write
    stays near a megabyte; a chunk is not held while the next is built."""
    most = 1024
    while chunk := list(islice(lines, most)):
        data = ("\n".join(chunk) + "\n").encode("utf-8")
        fh.write(data)
        most = min(1024, 1 + (len(chunk) << 20) // len(data))
        del chunk, data
