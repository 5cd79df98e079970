"""Exact path counting: the independent ground truth for everything else.

All counts are arbitrary-size integers.  Three routes are provided and
cross-checked in the tests: dynamic programming over the predecessors,
the renewal convolution of first-return counts, and (at desk scale)
literal enumeration by walking every path.  Graph routes take vertices
by index.  The DP steps on a graph's predecessor runs, and the enumeration
on the neighbour form built from its successor runs, both derived once.
"""

from __future__ import annotations

from collections import deque
from itertools import chain, islice, repeat
from operator import countOf, mul
from typing import TYPE_CHECKING, BinaryIO, Iterable, Iterator, Optional, Sequence

from ._frozen import Frozen
from .errors import InsufficientData
from .intervals import _ln_big
from .spectrum import LoopSpectrum, int_text, write_lines

if TYPE_CHECKING:
    from .graph import ExplicitGraph

ENUMERATION_BUDGET = 10 ** 6


class PathCountTable(Frozen):
    """f[i] = first-return count f(i+1); p[i] = all-loop count p(i), p(0) = 1."""

    _fields = ("f", "p")

    def __init__(self, f: tuple[int, ...], p: tuple[int, ...]) -> None:
        self._init(f, p)


# ---------------------------------------------------------------------------
# dynamic programming
# ---------------------------------------------------------------------------


def _pull(g: ExplicitGraph, u: int, N: int) -> Iterator[tuple[list[int], int]]:
    """The pull DP from the vector that is 1 at u, stepped N times on a
    list of N + size + 1 cells: after t steps vertex x's count is
    ``cells[x + N - t]``, and (cells, N - t) is yielded for t = 1..N.  The
    caller may change counts between steps.

    Lowering the offset by one moves every count to the next vertex, which
    is the step of every vertex whose one predecessor is v - 1, and gives
    vertex 0 a cell never written, 0.  The runs of
    :meth:`ExplicitGraph.predecessor_runs` then write the other vertices'
    counts, read before the step, one strided slice per run: a step costs
    slice passes over the runs, not Python work per vertex.  The cell of
    index ``size``, which a vertex without predecessor reads, is cleared
    after each step, so every cell but those of the vertices holds 0.
    """
    copies, sums = g.predecessor_runs()
    cells = [0] * (N + g.size + 1)
    cells[u + N] = 1
    for o in range(N - 1, -1, -1):
        sources = [cells[w + o + 1] for *_, w in copies]
        totals: dict[int, int] = {}
        for start, count, step, v in sums:
            s = start + o + 1
            totals[v] = totals.get(v, 0) + sum(cells[s:s + count * step:step])
        for (start, count, step, _), x in zip(copies, sources):
            s = start + o
            cells[s:s + count * step:step] = [x] * count
        for v, total in totals.items():
            cells[v + o] = total
        cells[g.size + o] = 0
        yield cells, o


def count_paths(g: ExplicitGraph, u: int, v: int, N: int) -> list[int]:
    """Exact counts p_uv(0..N) of length-n paths from u to v."""
    if N < 0:
        raise ValueError("N must be >= 0")
    return [int(u == v)] + [cells[v + o] for cells, o in _pull(g, u, N)]


def count_first_returns(g: ExplicitGraph, u: int, N: int) -> list[int]:
    """Exact first-return counts f_uu(1..N): loops at u avoiding u internally."""
    if N < 0:
        raise ValueError("N must be >= 0")
    out: list[int] = []
    # the cells count paths from u that have not revisited u; once none is
    # left every later count is 0, looked for at t = 1, 2, 4, ... below N
    for cells, o in _pull(g, u, N):
        out.append(cells[u + o])
        cells[u + o] = 0
        t = N - o
        if o and not t & (t - 1) and not any(cells):
            return out + [0] * o
    return out


def renewal_convolve(f: Sequence[int], N: int) -> list[int]:
    """p(0..N) from first-return counts via p(n) = sum_k f(k) p(n-k), p(0) = 1."""
    return [1, *islice(_renewal(f[:N]), N)]


def _renewal(a: Sequence[int]) -> Iterator[int]:
    """p(1), p(2), ... from the first-return counts a(1..len(a)), zero past
    them, holding only the last len(a) counts."""
    backwards = a[::-1]
    window = deque([0] * len(a), maxlen=len(a))
    window.append(1)  # p(0)
    while True:
        v = sum(map(mul, backwards, window))
        window.append(v)
        yield v


# ---------------------------------------------------------------------------
# literal enumeration (desk-scale cross-check)
# ---------------------------------------------------------------------------


class BudgetExceeded(Exception):
    pass


def _charge(walked: int, steps: int, budget: int) -> int:
    walked += steps
    if walked > budget:
        raise BudgetExceeded(f"more than {budget} path steps")
    return walked


def _levels(g: ExplicitGraph, u: int, v: int, budget: int,
            stop: bool = False) -> Iterator[int]:
    """The walks at v on levels n = 0, 1, ... of the walk from u; with
    ``stop``, v is u, and the walks that step back onto u are counted at v,
    then dropped.  The one level loop of the enumerators.

    The frontier holds one vertex per walk, never merged by endpoint (that
    would make this the DP again): each walk steps to its first neighbour,
    each walk at a hub adds the hub's fan, read in place, less its first
    step, and a step into a dead end is dropped.  A walk step is one vertex
    visited, the start included; BudgetExceeded is raised as soon as more
    than ``budget`` steps would be walked.  Each level is charged before it
    is built, less the ``ended`` walks, whose first step ends them
    (``ending``).  The walks at v and at each hub are counted as the level
    is built, on its mapped steps and once per fan times its hub's walks
    (``into[x]`` lists the hubs with a further step to x).  Where no walk
    ends, the next level holds at least this one's walks: a level after
    which it cannot be charged is counted on the frontier and not built.
    """
    one, hubs = g.adjacency()
    ends = {u} if stop else set()
    if not g.loop_lengths and g.size in one:
        ends.add(g.size)
    into = {x: [h for h, fan in hubs.items() if x in islice(fan, 1, None)] for x in {v, *hubs}}
    ending = bytearray(map(ends.__contains__, one)) if ends else b""
    # the fans as they are or, where walks end, less the further steps that end
    fans = {h: [fan[0], *more] for h, fan in hubs.items()
            if (more := [w for w in fan[1:] if w not in ends])} if ends else hubs
    frontier, walks, ended = [u], {x: int(x == u) for x in into}, ending[u] if ends else 0
    walked = _charge(0, 1, budget)
    yield walks[v]
    while True:
        steps = len(frontier) - ended + sum((len(fan) - 1) * walks[h] for h, fan in fans.items())
        walked = _charge(walked, steps, budget)
        if not ends and walked + steps > budget:  # the last: the next has at least its walks
            walks = {x: countOf(map(one.__getitem__, frontier), x)
                     + sum(map(walks.__getitem__, hs)) for x, hs in into.items()}
            yield walks[v]
            _charge(walked, steps + sum((len(fan) - 1) * walks[h] for h, fan in fans.items()),
                    budget)
        frontier = list(map(one.__getitem__, frontier))  # the level before is dropped here
        counts = {x: frontier.count(x) + sum(map(walks.__getitem__, hs)) for x, hs in into.items()}
        if ended:
            frontier = [w for w in frontier if w not in ends]
        for h, fan in fans.items():
            for _ in repeat(None, walks[h]):
                frontier += fan  # not fan * walks, which would hold the steps twice
                frontier[1 - len(fan)] = frontier.pop()  # over the first, held by the mapped steps
        ended = sum(map(ending.__getitem__, frontier)) if ends else 0
        yield counts[v]
        if stop:
            counts[u] = 0  # the returns, dropped
        walks = counts


def walk_path_counts(g: ExplicitGraph, u: int, v: int,
                     budget: int = ENUMERATION_BUDGET) -> Iterator[int]:
    """Counts of length-n paths from u to v, n = 0, 1, ..., from one walk;
    level n is walked on demand and charged what a call for length n is.
    A level over the budget raises and is never built, nor, unless a walk
    ends, is the level before it."""
    return _levels(g, u, v, budget)


def enumerate_paths(g: ExplicitGraph, u: int, v: int, n: int,
                    budget: int = ENUMERATION_BUDGET) -> int:
    """Count length-n paths from u to v by walking each one."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return next(islice(walk_path_counts(g, u, v, budget), n, None))


def enumerate_first_returns(g: ExplicitGraph, u: int, n: int,
                            budget: int = ENUMERATION_BUDGET) -> int:
    """Count length-n first-return loops at u by walking each path.

    A step back to u ends a walk: it is counted as a return on its level
    and is not a walk step.  n = 0 counts the empty path at u.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return next(islice(_levels(g, u, u, budget, True), n, None))


# ---------------------------------------------------------------------------
# spectrum-level tables and growth estimates
# ---------------------------------------------------------------------------


def table_from_spectrum(s: LoopSpectrum, N: int, period_lift: int = 1) -> PathCountTable:
    """Renewal table for the (optionally lifted) loop system of a spectrum.

    After a lift by p, first returns are supported on multiples of p with
    f(n p) = a(n); by the renewal equation, so are the nonzero p(n), with
    p(n p) the unlifted p(n).  So the unlifted counts are convolved, up to
    N // p, and spread onto the multiples of p.  Past N_max the counts are
    zero: only the stored ones enter the convolution.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    p, m = period_lift, N // period_lift
    a = s.a[:m]
    f, counts = [0] * N, [0] * (N + 1)
    f[p - 1:len(a) * p:p] = a
    counts[::p] = renewal_convolve(a, m)
    return PathCountTable(tuple(f), tuple(counts))


class GrowthEstimate(Frozen):
    """Trailing (1/n) log p(n) samples; ``value`` is the last one."""

    _fields = ("samples", "value")

    def __init__(self, samples: tuple[tuple[int, float], ...], value: float) -> None:
        self._init(samples, value)


def growth_rate(p: Iterable[int], window: int, period_lift: int = 1) -> GrowthEstimate:
    """Exponential growth estimate from the last ``window`` counts p(n) > 0
    of p(0), p(1), ...

    Zero counts, such as those of a period-p table off the multiples of p,
    are skipped, so they never hit log 0.  With ``period_lift`` p, ``p``
    holds the unlifted counts, and each sample is that of the lifted
    table: (n p, log p(n) / (n p)).
    """
    positive = deque(((n, v) for n, v in enumerate(p) if n and v > 0), maxlen=window)
    if len(positive) < window:
        raise InsufficientData(f"need {window} usable counts, have {len(positive)}")
    return _estimate(positive, period_lift)


def _estimate(positive: Iterable[tuple[int, int]], period_lift: int) -> GrowthEstimate:
    samples = tuple((n * period_lift, _ln_big(v) / (n * period_lift)) for n, v in positive)
    return GrowthEstimate(samples, samples[-1][1])


def _csv_lines(rows: Iterable[tuple[int, int]], period_lift: int,
               positive: deque) -> Iterator[str]:
    yield "n,f,p,growth_estimate"
    for m, (fv, pv) in enumerate(rows, 1):
        n = m * period_lift
        yield from map("{},0,0,".format, range(n - period_lift + 1, n))
        row = f"{n},{int_text(fv)},{int_text(pv)},"
        if pv > 0:
            positive.append((m, pv))
            row += f"{_ln_big(pv) / n:.12f}"
        yield row


def write_csv(s: LoopSpectrum, N: int, fh: BinaryIO,
              period_lift: int = 1) -> Optional[GrowthEstimate]:
    """Write the rows ``n,f,p,growth_estimate`` of ``table_from_spectrum(s,
    N)`` lifted by p to the binary file ``fh`` by ``write_lines``, and
    return ``growth_rate`` of its counts with window 8, or None if fewer
    than 8 are positive.

    No table is built: each unlifted row is computed as it is written, from
    a window of the last N_max counts, and spread onto n = m p.  Counts are
    written by :func:`spectrum.int_text`, in hex past 4,300 digits.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    a = s.a[:N]
    positive: deque = deque(maxlen=8)
    write_lines(_csv_lines(zip(chain(a, repeat(0)), islice(_renewal(a), N)), period_lift,
                           positive), fh)
    return _estimate(positive, period_lift) if len(positive) == 8 else None
