"""Exact path counting: the independent ground truth for everything else.

All counts are arbitrary-size integers.  Three routes are provided and
cross-checked in the tests: dynamic programming over the predecessors,
the renewal convolution of first-return counts, and (at desk scale)
literal enumeration by walking every path.  Graph routes take vertices
by index and run on the compact neighbour form that :class:`ExplicitGraph`
builds once per direction.
"""

from __future__ import annotations

from itertools import islice
from operator import itemgetter
from typing import TYPE_CHECKING, BinaryIO, Iterator, Sequence

from ._frozen import Frozen
from .errors import InsufficientData
from .intervals import _ln_big
from .spectrum import LoopSpectrum, int_text

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


def _pull_step(g: ExplicitGraph):
    """The DP step, in place: vec[v] becomes the sum of vec over v's
    predecessors.  vec ends in a 0 at index size, which the predecessor
    form gives a vertex without predecessors.  Built once per graph."""
    return g._kept("_pull_step", lambda: _make_pull_step(g))


def _make_pull_step(g: ExplicitGraph):
    one, hubs = g.reverse_adjacency()
    gather = itemgetter(*one, g.size)
    sums = [(v, itemgetter(*preds)) for v, preds in hubs.items()]

    def step(vec: list[int]) -> None:
        # the hub sums read the old vector, so they are taken before the gather
        totals = [sum(preds(vec)) for _, preds in sums]
        vec[:] = gather(vec)
        for (v, _), total in zip(sums, totals):
            vec[v] = total
    return step


def count_paths(g: ExplicitGraph, u: int, v: int, N: int) -> list[int]:
    """Exact counts p_uv(0..N) of length-n paths from u to v."""
    if N < 0:
        raise ValueError("N must be >= 0")
    step = _pull_step(g)
    vec = [0] * (g.size + 1)
    vec[u] = 1
    out = [vec[v]]
    for _ in range(N):
        step(vec)
        out.append(vec[v])
    return out


def count_first_returns(g: ExplicitGraph, u: int, N: int) -> list[int]:
    """Exact first-return counts f_uu(1..N): loops at u avoiding u internally."""
    if N < 0:
        raise ValueError("N must be >= 0")
    step = _pull_step(g)
    out: list[int] = []
    # vec counts paths from u that have not revisited u
    vec = [0] * (g.size + 1)
    vec[u] = 1
    while len(out) < N:
        step(vec)
        out.append(vec[u])
        vec[u] = 0
        if not any(vec):  # every path has returned or died
            out += [0] * (N - len(out))
    return out


def renewal_convolve(f: Sequence[int], N: int) -> list[int]:
    """p(0..N) from first-return counts via p(n) = sum_k f(k) p(n-k), p(0) = 1."""
    p = [1]
    for n in range(1, N + 1):
        p.append(sum(f[k - 1] * p[n - k] for k in range(1, min(n, len(f)) + 1)))
    return p


# ---------------------------------------------------------------------------
# literal enumeration (desk-scale cross-check)
# ---------------------------------------------------------------------------


class BudgetExceeded(Exception):
    pass


# The enumerators walk level by level: the frontier holds one vertex per walk
# and is never merged by endpoint (merging would make them the DP again); a
# hub fans out and a dead end drops.  A walk step is one vertex visited, the
# start included; each level's steps are charged before the level is built,
# and BudgetExceeded is raised as soon as more than ``budget`` steps would be
# walked.


def _charge(walked: int, steps: int, budget: int) -> int:
    walked += steps
    if walked > budget:
        raise BudgetExceeded(f"more than {budget} path steps")
    return walked


def _walker(g: ExplicitGraph):
    """``(ahead, ends)``.  ``ahead(frontier)`` gives the next level before it
    is built: every walk's step to its first neighbour (to ``size`` from a
    dead end), the other steps of each hub's walks as (fan, walks) pairs,
    and the number of steps.  ``ends`` is ``(size,)`` if ``g`` has a dead
    end, else empty: the steps to drop from every level.

    The walks at each hub are counted by one scan of the frontier, and the
    steps of a graph without a dead end are never scanned for one.  So a
    level costs list passes plus one count per hub.  A realized or lifted
    graph has one hub; only hand-built graphs have more.
    """
    one, hubs = g.adjacency()
    more = [(v, fan[1:]) for v, fan in hubs.items()]
    ends = (g.size,) if g.size in one else ()

    def ahead(frontier: list[int]) -> tuple[list[int], list[tuple[list[int], int]], int]:
        firsts = list(map(one.__getitem__, frontier))
        fans = [(fan, k) for v, fan in more if (k := frontier.count(v))]
        steps = len(firsts) + sum(len(fan) * k for fan, k in fans)
        for x in ends:
            steps -= firsts.count(x)
        return firsts, fans, steps
    return ahead, ends


def _level(firsts: list[int], fans: list[tuple[list[int], int]], *dropped: int) -> list[int]:
    """The next level from :func:`_walker`'s parts, less the steps to ``dropped``."""
    for fan, k in fans:
        firsts += fan * k
    for x in dropped:
        if x in firsts:
            firsts = list(filter(x.__ne__, firsts))
    return firsts


def walk_path_counts(g: ExplicitGraph, u: int, v: int,
                     budget: int = ENUMERATION_BUDGET) -> Iterator[int]:
    """Counts of length-n paths from u to v, n = 0, 1, ..., from one walk;
    level n is walked on demand and charged what a call for length n is."""
    ahead, ends = _walker(g)
    frontier = [u]
    walked = _charge(0, 1, budget)
    while True:
        yield frontier.count(v)
        firsts, fans, steps = ahead(frontier)
        walked = _charge(walked, steps, budget)
        frontier = _level(firsts, fans, *ends)


def enumerate_paths(g: ExplicitGraph, u: int, v: int, n: int,
                    budget: int = ENUMERATION_BUDGET) -> int:
    """Count length-n paths from u to v by walking each one."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return next(islice(walk_path_counts(g, u, v, budget), n, None))


def enumerate_first_returns(g: ExplicitGraph, u: int, n: int,
                            budget: int = ENUMERATION_BUDGET) -> int:
    """Count length-n first-return loops at u by walking each path.

    A step back to u ends a walk: it is counted as a return on the last
    level and is not a walk step.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    ahead, ends = _walker(g)
    frontier = [u]
    walked = _charge(0, 1, budget)
    for remaining in range(n, 0, -1):
        firsts, fans, steps = ahead(frontier)
        back = firsts.count(u) + sum(fan.count(u) * k for fan, k in fans)
        walked = _charge(walked, steps - back, budget)
        if remaining == 1:
            return back
        frontier = _level(firsts, fans, u, *ends)
    return 1  # n == 0: the empty path at u


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


def growth_rate(p: Sequence[int], window: int, period_lift: int = 1) -> GrowthEstimate:
    """Exponential growth estimate from the last ``window`` counts p(n) > 0.

    Zero counts, such as those of a period-p table off the multiples of p,
    are skipped, so they never hit log 0.  With ``period_lift`` p, ``p``
    holds the unlifted counts, and each sample is that of the lifted
    table: (n p, log p(n) / (n p)).
    """
    usable = [n for n in range(1, len(p)) if p[n] > 0]
    if len(usable) < window:
        raise InsufficientData(f"need {window} usable counts, have {len(usable)}")
    lifted = ((n * period_lift, p[n]) for n in usable[-window:])
    samples = tuple((n, _ln_big(v) / n) for n, v in lifted)
    return GrowthEstimate(samples, samples[-1][1])


def _csv_lines(table: PathCountTable, period_lift: int) -> Iterator[str]:
    yield "n,f,p,growth_estimate"
    for m, (fv, pv) in enumerate(zip(table.f, table.p[1:]), 1):
        n = m * period_lift
        yield from map("{},0,0,".format, range(n - period_lift + 1, n))
        row = f"{n},{int_text(fv)},{int_text(pv)},"
        yield f"{row}{_ln_big(pv) / n:.12f}" if pv > 0 else row


def write_csv(table: PathCountTable, fh: BinaryIO, period_lift: int = 1) -> None:
    """Write the rows ``n,f,p,growth_estimate`` of ``table`` lifted by p to
    the binary file ``fh``, a thousand lines per write.  ``table`` holds
    the unlifted counts, spread onto n = m p row by row: the lifted table,
    p times longer, is never built.  Counts are written by
    :func:`spectrum.int_text`, in hex past 4,300 digits."""
    lines = _csv_lines(table, period_lift)
    while chunk := list(islice(lines, 1024)):
        fh.write(("\n".join(chunk) + "\n").encode("utf-8"))
