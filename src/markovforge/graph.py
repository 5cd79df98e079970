"""Explicit finite realizations of loop spectra and the period-p lift.

A spectrum truncation realizes as a "flower" graph: one root vertex 0, plus
a(n) vertex-disjoint simple loops of each length n <= N through the root,
on the vertex indices 0..size-1.  The lift by p crosses every vertex v with
a phase i = 1..p (index v*p + i-1) and multiplies every loop length by p.
A realized or lifted graph is stored as its loop lengths; its arrows are
derived for export only, and so are its names: v_{n}_{i}_{k} is vertex
k = 1..n-1 of the i-th length-n loop, and a lifted vertex gets the suffix
"@phase".
"""

from __future__ import annotations

import json
from array import array
from math import gcd
from typing import Optional

from ._frozen import Frozen
from .errors import EmptyLoopSet, Unrealizable
from .spectrum import LoopSpectrum

ROOT = "root"
REALIZE_VERTEX_BUDGET = 2 * 10 ** 6  # the most vertices realize and lift_period accept
# (one, hubs): the neighbour form of ExplicitGraph.adjacency
Neighbours = tuple[array, dict[int, list[int]]]


class ExplicitGraph(Frozen):
    """Finite oriented graph on the vertices 0..size-1 with at most one arrow
    per ordered vertex pair; arrow j runs from ``tails[j]`` to ``heads[j]``.

    Hand-built and imported graphs store their arrows and vertex ``names``.
    A realized graph stores ``tails = heads = names = None``: its
    ``loop_lengths``, the (pre-lift length, multiplicity) pairs, with
    ``size``, ``root`` and ``period_lift`` determine its arrows and names,
    which are generated when asked for and not kept.
    """

    _fields = ("size", "tails", "heads", "root", "period_lift", "names", "loop_lengths")
    _unhashed = ("tails", "heads")

    def __init__(self, size: int, tails: Optional[array], heads: Optional[array], root: int = 0,
                 period_lift: int = 1, names: Optional[tuple[str, ...]] = None,
                 loop_lengths: Optional[tuple[tuple[int, int], ...]] = None) -> None:
        self._init(size, tails, heads, root, period_lift, names, loop_lengths)

    @classmethod
    def from_names(cls, root: str, vertices: tuple[str, ...], arrows: tuple[tuple[str, str], ...],
                   period_lift: int = 1) -> ExplicitGraph:
        """Graph on named vertices; names are mapped to indices once."""
        if len(set(arrows)) != len(arrows):
            raise ValueError("duplicate arrow")
        index = {v: i for i, v in enumerate(vertices)}
        if root not in index:
            raise ValueError("root is not a vertex")
        return cls(len(vertices), array("l", [index[u] for u, _ in arrows]),
                   array("l", [index[v] for _, v in arrows]),
                   index[root], period_lift, tuple(vertices))

    @property
    def vertices(self) -> tuple[str, ...]:
        """Vertex names by index; generated on every call for a realized graph."""
        return self.names or _lift_names(_flower_names(self.loop_lengths), self.period_lift)

    @property
    def arrows(self) -> tuple[tuple[str, str], ...]:
        """Arrows as (tail name, head name) pairs, in export order; derived on
        every call for a realized graph."""
        return self._named_arrows(self.vertices)

    def _named_arrows(self, names: tuple[str, ...]) -> tuple[tuple[str, str], ...]:
        name = names.__getitem__
        tails, heads = self._arrow_arrays()
        return tuple(zip(map(name, tails), map(name, heads)))

    def _arrow_arrays(self) -> tuple[array, array]:
        """(tails, heads): stored, or derived from ``loop_lengths``."""
        if self.loop_lengths is None:
            return self.tails, self.heads
        tails, heads = _flower_arrows(self.loop_lengths)
        p = self.period_lift
        return (tails, heads) if p == 1 else _lift_arrows(self.size // p, tails, heads, p)

    def index(self, v: int | str) -> int:
        """Index of a vertex given by name, or of the root given by its index;
        a name lookup in a realized graph generates all its names."""
        return v if v == self.root else self.vertices.index(v)

    def adjacency(self) -> Neighbours:
        """Successors as ``(one, hubs)``: ``one[v]`` is v's first successor in
        arrow order, or ``size`` if it has none, and ``hubs`` maps each vertex
        with several successors to all of them, in arrow order.

        Built on the first call and kept on the instance; it is not a field,
        so equality and hashing are unaffected.  Callers must not mutate it.
        A realized graph derives it from ``loop_lengths``; any other graph
        from its arrows, where a repeated arrow raises ValueError.
        """
        return self._neighbours("_adjacency", False)

    def reverse_adjacency(self) -> Neighbours:
        """Predecessors in the form of :meth:`adjacency`, kept likewise."""
        return self._neighbours("_reverse_adjacency", True)

    def _neighbours(self, key: str, reverse: bool) -> Neighbours:
        if key not in self.__dict__:
            ends = (self.heads, self.tails) if reverse else (self.tails, self.heads)
            self.__dict__[key] = (_flower_neighbours(self, reverse)
                                  if self.loop_lengths is not None
                                  else _arrow_neighbours(self.size, *ends))
        return self.__dict__[key]


def _arrow_neighbours(size: int, tails: array, heads: array) -> Neighbours:
    one = array("l", [size]) * size
    hubs: dict[int, list[int]] = {}
    for u, v in zip(tails, heads):
        if one[u] == size:
            one[u] = v
        else:
            hubs.setdefault(u, [one[u]]).append(v)
    if any(len(set(fan)) < len(fan) for fan in hubs.values()):
        raise ValueError("duplicate arrow")
    return one, hubs


def _flower_neighbours(g: ExplicitGraph, reverse: bool) -> Neighbours:
    # Lifted by p, every vertex x steps to x+1 (and back to x-1) but where a
    # loop meets the root: the k-th loop of length n >= 2 enters at
    # first + k*step from root@p (index p-1) and leaves from last + k*step to
    # root@1 (index 0); the root self-loop runs from root@p to root@1.
    p, size = g.period_lift, g.size
    one = array("l", range(-1, size - 1) if reverse else range(1, size + 1))
    fan: list[int] = []
    base = 1
    for n, mult in g.loop_lengths:
        if n == 1:
            fan.append(p - 1 if reverse else 0)
            continue
        step = (n - 1) * p
        first = base * p
        last, stop = first + step - 1, first + mult * step
        if reverse:
            one[first:stop:step] = array("l", [p - 1]) * mult
            fan += range(last, stop, step)
        else:
            one[last:stop:step] = array("l", [0]) * mult
            fan += range(first, stop, step)
        base += mult * (n - 1)
    hub = 0 if reverse else p - 1
    one[hub] = fan[0] if fan else size
    return one, ({hub: fan} if len(fan) > 1 else {})


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


def _flower_names(loop_lengths: tuple[tuple[int, int], ...]) -> list[str]:
    return [ROOT] + [f"v_{n}_{i}_{k}" for n, mult in loop_lengths
                     for i in range(1, mult + 1) for k in range(1, n)]


def _lift_names(names, p: int) -> tuple[str, ...]:
    return tuple(f"{v}@{i}" for v in names for i in range(1, p + 1)) if p > 1 else tuple(names)


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
        raise Unrealizable(f"the graph up to length {N} has {vertex_count(s, N) * period_lift} "
                           f"vertices, more than {REALIZE_VERTEX_BUDGET}")
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
    """Cross every vertex with p phases; every loop length is multiplied by p.
    A realized graph lifts in O(1), to its loop lengths with ``period_lift`` p."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if g.period_lift != 1:
        raise ValueError("graph is already lifted")
    if p == 1:
        return g
    if g.size * p > REALIZE_VERTEX_BUDGET:
        raise Unrealizable(f"the graph lifted by {p} has {g.size * p} vertices, "
                           f"more than {REALIZE_VERTEX_BUDGET}")
    if g.loop_lengths is not None:
        return ExplicitGraph(g.size * p, None, None, g.root * p, p, None, g.loop_lengths)
    names = None if g.names is None else _lift_names(g.names, p)
    return ExplicitGraph(g.size * p, *_lift_arrows(g.size, g.tails, g.heads, p),
                         g.root * p, p, names)


def period(g: ExplicitGraph) -> int:
    """gcd of the lengths of all loops through the root."""
    if g.loop_lengths is not None:
        lengths = [n * g.period_lift for n, mult in g.loop_lengths if mult > 0]
    else:  # imported graph: fall back to exact first-return counting
        from .oracle import count_first_returns
        f = count_first_returns(g, g.root, g.size + 1)
        lengths = [n for n, v in enumerate(f, start=1) if v > 0]
    if not lengths:
        raise EmptyLoopSet("no loop through the root in this truncation")
    return gcd(*lengths)


# ---------------------------------------------------------------------------
# export / import
# ---------------------------------------------------------------------------


def export_dot(g: ExplicitGraph) -> bytes:
    names = g.vertices
    lines = ["digraph loop_system {"]
    lines += (f'  "{v}";' for v in names)
    lines += (f'  "{u}" -> "{v}";' for u, v in g._named_arrows(names))
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def export_json(g: ExplicitGraph) -> bytes:
    names = g.vertices
    payload = {
        "vertices": list(names),
        "arrows": [[u, v] for u, v in g._named_arrows(names)],
        "period_lift": g.period_lift,
    }
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


def export(g: ExplicitGraph, fmt: str) -> bytes:
    if fmt == "dot":
        return export_dot(g)
    if fmt == "json":
        return export_json(g)
    raise ValueError(f"unknown export format {fmt!r}")


def import_json(data: bytes) -> ExplicitGraph:
    payload = json.loads(data.decode("utf-8"))
    vertices = tuple(payload["vertices"])
    arrows = tuple((u, v) for u, v in payload["arrows"])
    p = int(payload.get("period_lift", 1))
    root = f"{ROOT}@1" if p > 1 else ROOT
    if root not in vertices:
        root = vertices[0]
    return ExplicitGraph.from_names(root, vertices, arrows, period_lift=p)


def is_strongly_connected(g: ExplicitGraph) -> bool:
    """Reachability in both directions from the root."""
    return _reaches_all(g, g.reverse_adjacency()) and _reaches_all(g, g.adjacency())


def _reaches_all(g: ExplicitGraph, adj: Neighbours) -> bool:
    """Whether a level-by-level search from the root meets every vertex."""
    one, hubs = adj
    seen = bytearray(g.size + 1)
    seen[g.size] = seen[g.root] = 1  # index size stands for no neighbour
    level, reached = [g.root], 1
    while level:
        ahead = list(map(one.__getitem__, level))
        for fan in filter(None, map(hubs.get, level)):
            ahead += fan
        level = []
        for w in ahead:
            if not seen[w]:
                seen[w] = 1
                level.append(w)
        reached += len(level)
    return reached == g.size
