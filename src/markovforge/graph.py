"""Explicit finite realizations of loop spectra and the period-p lift.

A spectrum truncation realizes as a "flower" graph: one root vertex 0, plus
a(n) vertex-disjoint simple loops of each length n <= N through the root,
on the vertex indices 0..size-1.  The lift by p crosses every vertex v with
a phase i = 1..p (index v*p + i-1) and multiplies every loop length by p.
A realized or lifted graph is stored as its loop lengths; its arrows are
derived for export only, and so are its names: v_{n}_{i}_{k} is vertex
k = 1..n-1 of the i-th length-n loop, and a lifted vertex gets the suffix
"@phase".  A graph built from index arrays of arrows has no names; the
tests build their hand-made graphs so.  Every graph derives its runs
first, from its loop lengths or by one scan of its arrows, which refuses a
repeated arrow.  ``export`` is the one DOT/JSON writer of a realized graph;
of the other layers, this one imports only spectrum.
"""

from __future__ import annotations

from array import array
from functools import cache, cached_property
from itertools import compress
from operator import ne
from typing import BinaryIO, Iterator, Optional

from ._frozen import Frozen
from .errors import Unrealizable
from .spectrum import LoopSpectrum, int_text, write_lines

ROOT = "root"
REALIZE_VERTEX_BUDGET = 2 * 10 ** 6  # the most vertices realize and lift_period accept
# loop lengths or arrows give the runs (copies, sums) of (start, count, step,
# w), see ExplicitGraph.predecessor_runs, which give the forms (one, hubs)
Neighbours = tuple[list[int], dict[int, list[int]]]
Run = tuple[int, int, int, int]
Runs = tuple[list[Run], list[Run]]


class ExplicitGraph(Frozen):
    """Finite oriented graph on the vertices 0..size-1 with at most one arrow
    per ordered vertex pair; arrow j runs from ``tails[j]`` to ``heads[j]``.

    A graph built from arrows stores them.  A realized graph stores
    ``tails = heads = None``: its ``loop_lengths``, the (pre-lift length,
    multiplicity) pairs, with ``size``, ``root`` and ``period_lift``
    determine its arrows and vertex names, which are generated when asked
    for and not kept.  Only a realized graph has names.
    """

    _fields = ("size", "tails", "heads", "root", "period_lift", "loop_lengths")
    _unhashed = ("tails", "heads")

    def __init__(self, size: int, tails: Optional[array], heads: Optional[array], root: int = 0,
                 period_lift: int = 1,
                 loop_lengths: Optional[tuple[tuple[int, int], ...]] = None) -> None:
        self._init(size, tails, heads, root, period_lift, loop_lengths)

    @property
    def vertices(self) -> tuple[str, ...]:
        """Vertex names of a realized graph by index, generated on every call."""
        names = [ROOT] + [f"v_{n}_{i}_{k}" for n, mult in self.loop_lengths
                          for i in range(1, mult + 1) for k in range(1, n)]
        p = self.period_lift
        return tuple(f"{v}@{i}" for v in names for i in range(1, p + 1)) if p > 1 else tuple(names)

    @property
    def arrows(self) -> tuple[tuple[str, str], ...]:
        """Arrows of a realized graph as (tail name, head name) pairs, in
        export order, derived on every call."""
        name = self.vertices.__getitem__
        tails, heads = self._arrow_arrays()
        return tuple(zip(map(name, tails), map(name, heads)))

    def _arrow_arrays(self) -> tuple[array, array]:
        """(tails, heads) of a realized graph, derived from ``loop_lengths``."""
        tails, heads = _flower_arrows(self.loop_lengths)
        p = self.period_lift
        return (tails, heads) if p == 1 else _lift_arrows(self.size // p, tails, heads, p)

    def adjacency(self) -> Neighbours:
        """Successors as ``(one, hubs)``: ``one[v]`` is v's first successor in
        arrow order, or ``size`` if it has none, and ``hubs`` maps each vertex
        with several successors to all of them, in arrow order.

        Built from :meth:`successor_runs` on the first call and kept on the
        instance; it is not a field, so equality and hashing are unaffected.
        Callers must not mutate it.  ``one`` is one list of the indices
        0..size, shifted in place, and the fans hold its ints, so reading
        the form allocates nothing.
        """
        return self._successors

    def reverse_adjacency(self) -> Neighbours:
        """Predecessors in the form of :meth:`adjacency`, built likewise from
        :meth:`predecessor_runs` and kept on its own."""
        return self._predecessors

    def predecessor_runs(self) -> Runs:
        """``(copies, sums)``: the predecessors of each vertex v > 0 whose
        only predecessor is not v - 1, and of vertex 0 if it has any, kept
        like the neighbour forms.  ``copies`` holds runs (start, count,
        step, w): the vertices start + j*step, j < count, have the one
        predecessor w, or none for w = ``size``.  ``sums`` holds runs
        (start, count, step, v) of all the predecessors of v, in arrow
        order, for each v with several and for the root of a realized graph.

        Derived before the neighbour forms: a realized graph's from
        ``loop_lengths``, a run per loop length, any other's by one scan of
        its arrows, where a repeated arrow raises ValueError.
        """
        return self._predecessor_runs

    def successor_runs(self) -> Runs:
        """The runs of :meth:`predecessor_runs` for the successors, whose
        default is v + 1 (none for the last vertex); derived and kept
        likewise."""
        return self._successor_runs

    def _runs(self, reverse: bool) -> Runs:
        if self.loop_lengths is not None:
            return _flower_runs(self, reverse)
        ends = (self.heads, self.tails, -1) if reverse else (self.tails, self.heads, 1)
        return _arrow_runs(self.size, *ends)

    # kept on the instance outside the fields, as Frozen allows
    _successor_runs = cached_property(lambda g: g._runs(False))
    _predecessor_runs = cached_property(lambda g: g._runs(True))
    _successors = cached_property(lambda g: _neighbours(g.size, g._successor_runs, False))
    _predecessors = cached_property(lambda g: _neighbours(g.size, g._predecessor_runs, True))


def _arrow_runs(size: int, tails: array, heads: array, shift: int) -> Runs:
    """The runs of the neighbours ``heads[j]`` of each ``tails[j]``, in arrow
    order, whose default neighbour is v + shift, or none (``size``) off the
    vertices 0..size-1; a repeated arrow raises ValueError."""
    one = [size] * size
    fans: dict[int, list[int]] = {}
    for u, v in zip(tails, heads):
        if one[u] == size:
            one[u] = v
        else:
            fans.setdefault(u, [one[u]]).append(v)
    if any(len(set(fan)) < len(fan) for fan in fans.values()):
        raise ValueError("duplicate arrow")
    copies, sums = [], []
    for v in compress(range(size), map(ne, one, range(shift, size + shift))):
        if v not in fans and one[v] != (v + shift) % (size + 1):  # a default of -1 is none
            _extend(copies, v, one[v])
    for v, fan in fans.items():
        for u in fan:
            _extend(sums, u, v)
    return copies, sums


def _flower_runs(g: ExplicitGraph, reverse: bool) -> Runs:
    """The runs of :meth:`ExplicitGraph.predecessor_runs` of a realized
    graph or, with ``reverse`` false, the like runs of its successors,
    which are otherwise v + 1."""
    # Lifted by p, every vertex x steps to x+1 (and back to x-1) but where a
    # loop meets the root: the k-th loop of length n >= 2 enters at
    # first + k*step from root@p (index p-1) and leaves from last + k*step to
    # root@1 (index 0); the root self-loop runs from root@p to root@1.
    p = g.period_lift
    hub, other = (0, p - 1) if reverse else (p - 1, 0)
    copies, sums = [], []
    base = 1
    for n, mult in g.loop_lengths:
        if n == 1:
            sums.append((other, 1, 1, hub))
            continue
        step = (n - 1) * p
        first = base * p
        near, far = (first, first + step - 1) if reverse else (first + step - 1, first)
        copies.append((near, mult, step, other))
        sums.append((far, mult, step, hub))
        base += mult * (n - 1)
    return copies, sums


def _neighbours(size: int, runs: Runs, reverse: bool) -> Neighbours:
    """The form of :meth:`ExplicitGraph.adjacency` of the successor ``runs``
    or, with ``reverse``, the predecessor runs, on one list of the indices
    0..size: the fans and the copies' ints are read from it, then it is
    shifted in place.  A vertex without a run or neighbours is vertex 0
    (reverse) or the last, to which the shift gives size."""
    one = list(range(size + 1))
    copies, sums = runs
    fans: dict[int, list[int]] = {}
    for start, count, step, v in sums:
        fans.setdefault(v, []).extend(one[start:start + count * step:step])
    sources = [one[w] for *_, w in copies]
    del one[-2 if reverse else 0]
    if reverse:
        one.insert(0, one.pop())
    for (start, count, step, _), w in zip(copies, sources):
        one[start:start + count * step:step] = [w] * count
    for v, fan in fans.items():
        one[v] = fan[0]
    return one, {v: fan for v, fan in fans.items() if len(fan) > 1}


def _extend(runs: list[Run], v: int, w: int) -> None:
    """Append v, with w, to the last of ``runs`` if it continues it, else as a new run."""
    if runs:
        start, count, step, last = runs[-1]
        if last == w and v > start and (count == 1 or v == start + count * step):
            runs[-1] = (start, count + 1, (v - start) // count, w)
            return
    runs.append((v, 1, 1, w))


def _flower_arrows(loop_lengths: tuple[tuple[int, int], ...]) -> tuple[array, array]:
    # Listing each loop as the root, then its vertices in order, gives the
    # tails of its arrows root -> w -> ... -> w+n-2 -> root, and the heads
    # are that list rotated by one.  The loops of one length lie side by
    # side, so column j of their tails is a range.
    tails = array("l", [0]) * sum(n * mult for n, mult in loop_lengths)
    start, first = 0, 1
    for n, mult in loop_lengths:
        stop, after = start + n * mult, first + mult * (n - 1)
        for j in range(1, n):
            tails[start + j:stop:n] = array("l", range(first + j - 1, after, n - 1))
        start, first = stop, after
    return tails, tails[1:] + tails[:1]


def _lift_arrows(size: int, tails: array, heads: array, p: int) -> tuple[array, array]:
    """The arrows of a graph on ``size`` vertices lifted by p: the phase steps
    v@i -> v@i+1 for i < p of every vertex, then u@p -> v@1 per arrow."""
    lifted_tails, lifted_heads = array("l", range(size * p)), array("l", range(1, size * p + 1))
    del lifted_tails[p - 1::p], lifted_heads[p - 1::p]
    lifted_tails += array("l", map((p - 1).__add__, map(p.__mul__, tails)))
    lifted_heads += array("l", map(p.__mul__, heads))
    return lifted_tails, lifted_heads


def realize(s: LoopSpectrum, N: Optional[int] = None, period_lift: int = 1) -> ExplicitGraph:
    """Build the flower graph containing every loop of length <= N, lifted by
    ``period_lift``; the root self-loop is present iff a(1) = 1.  Unrealizable,
    before anything is built, for a(1) > 1 (parallel arrows) or a lifted graph
    of more than REALIZE_VERTEX_BUDGET vertices."""
    if N is None:
        N = s.N_max
    if not 1 <= N <= s.N_max:
        raise ValueError(f"N must be in 1..{s.N_max}")
    if s.count(1) > 1:
        raise Unrealizable("a(1) > 1 cannot be realized without parallel arrows")
    if not fits(s, N, period_lift):
        raise Unrealizable(f"the graph up to length {N} has "
                           f"{int_text(vertex_count(s, N) * period_lift)} vertices, "
                           f"more than {REALIZE_VERTEX_BUDGET}")
    lengths = tuple((n, s.count(n)) for n in range(1, N + 1) if s.count(n))
    return lift_period(ExplicitGraph(vertex_count(s, N), None, None, loop_lengths=lengths),
                       period_lift)


def vertex_count(s: LoopSpectrum, N: int) -> int:
    """Number of vertices of ``realize(s, N)``, found without building it."""
    return 1 + sum(s.count(n) * (n - 1) for n in range(2, N + 1))


def fits(s: LoopSpectrum, N: int, period_lift: int = 1) -> bool:
    """Whether ``realize(s, N, period_lift)`` stays within the vertex budget."""
    return vertex_count(s, N) * period_lift <= REALIZE_VERTEX_BUDGET


def lift_period(g: ExplicitGraph, p: int) -> ExplicitGraph:
    """Cross every vertex of a realized graph with p phases; every loop
    length is multiplied by p.  The lift is O(1): the same loop lengths
    with ``period_lift`` p."""
    if g.loop_lengths is None:
        raise ValueError("only a realized graph lifts")
    if p < 1:
        raise ValueError("p must be >= 1")
    if g.period_lift != 1:
        raise ValueError("graph is already lifted")
    if p == 1:
        return g
    if g.size * p > REALIZE_VERTEX_BUDGET:
        raise Unrealizable(f"the graph lifted by {p} has {g.size * p} vertices, "
                           f"more than {REALIZE_VERTEX_BUDGET}")
    return ExplicitGraph(g.size * p, None, None, g.root * p, p, g.loop_lengths)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def _dot_lines(g: ExplicitGraph) -> Iterator[str]:
    names = g.vertices
    name = names.__getitem__
    tails, heads = g._arrow_arrays()
    yield "digraph loop_system {"
    yield from map('  "{}";'.format, names)
    yield from map('  "{}" -> "{}";'.format, map(name, tails), map(name, heads))
    yield "}"


def _json_lines(g: ExplicitGraph) -> Iterator[str]:
    # the layout of json.dumps(payload, indent=2, sort_keys=True), written
    # item by item; the generated names need no escaping, so quotes suffice
    names = g.vertices
    name = names.__getitem__
    tails, heads = g._arrow_arrays()
    arrows = map('    [\n      "{}",\n      "{}"\n    ]'.format,
                 map(name, tails), map(name, heads))
    yield "{"
    yield from _json_list("arrows", arrows, ",")
    yield f'  "period_lift": {g.period_lift},'
    yield from _json_list("vertices", map('    "{}"'.format, names), "")
    yield "}"


def _json_list(key: str, items: Iterator[str], end: str) -> Iterator[str]:
    """The lines of ``"key": [items]`` in a payload dumped with indent 2,
    each item but the last followed by a comma, the list by ``end``."""
    last = next(items, None)
    if last is None:
        yield f'  "{key}": []{end}'
        return
    yield f'  "{key}": ['
    for item in items:
        yield last + ","
        last = item
    yield last
    yield "  ]" + end


_EXPORT_LINES = {"dot": _dot_lines, "json": _json_lines}


def export(g: ExplicitGraph, fmt: str, fh: BinaryIO) -> None:
    """Write the realized graph ``g`` as DOT or JSON to the binary file
    ``fh`` by ``write_lines``; only the names and arrow arrays are held
    meanwhile."""
    if fmt not in _EXPORT_LINES:
        raise ValueError(f"unknown export format {fmt!r}")
    write_lines(_EXPORT_LINES[fmt](g), fh)


def is_strongly_connected(g: ExplicitGraph) -> bool:
    """Reachability in both directions from the root."""
    return (_reaches_all(g.size, g.root, g.predecessor_runs(), False)
            and _reaches_all(g.size, g.root, g.successor_runs(), True))


def _reaches_all(size: int, root: int, runs: Runs, flip: bool) -> bool:
    """Whether a search from the root meets every vertex, stepping from each
    vertex to those whose ``runs`` list it: the predecessor runs search along
    the arrows, the successor runs, with ``flip``, against them.

    Sets of vertices are ints: vertex v is bit v, or with ``flip`` bit
    size-1-v, so that the default neighbour a run leaves out (v - 1, or
    v + 1) is always the bit below.  One round steps the frontier to its
    default neighbours and on along them to the end of each chain of
    defaults, by one addition, then hops once along the runs: one AND-test
    per run.  Only a hop ends a round, so a realized or lifted graph is
    searched in two rounds, and no round does Python work per vertex.
    """
    @cache  # a vertex met by several runs is one int, not one per run
    def bits(start: int, count: int, step: int) -> int:
        low = size - 1 - start - (count - 1) * step if flip else start
        return _strided(count, step) << low

    copies, sums = runs
    default = (1 << size) - 1
    hops = []
    for start, count, step, w in copies:
        targets = bits(start, count, step)
        default &= ~targets
        if w < size:
            hops.append((bits(w, 1, 1), targets))
    for start, count, step, v in sums:
        target = bits(v, 1, 1)
        default &= ~target
        hops.append((bits(start, count, step), target))
    reached, frontier = 0, bits(root, 1, 1)
    while frontier:
        seeds = frontier << 1 & default
        frontier |= ((default + seeds) ^ default | seeds) & default  # the chains on from seeds
        reached |= frontier
        ahead = 0
        for source, targets in hops:
            if frontier & source:
                ahead |= targets
        frontier = ahead & ~reached
    return reached.bit_count() == size


def _strided(count: int, step: int) -> int:
    """The int with the bits j*step, j < count, set, by doubling: a closed
    form divides by 2^step - 1, which is quadratic in a long step."""
    mask, have = 1, 1
    while have < count:
        more = min(have, count - have)
        mask |= mask << more * step
        have += more
    return mask
