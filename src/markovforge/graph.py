"""Explicit finite realizations of loop spectra and the period-p lift.

A spectrum truncation realizes as a "flower" graph: one root vertex, plus
a(n) vertex-disjoint simple loops of each length n <= N through the root.
Vertices of the i-th length-n loop are named v_{n}_{i}_{k} for
k = 1..n-1; the lift by p crosses every vertex with a phase 1..p
(suffix "@phase") and multiplies every loop length by p.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import gcd
from typing import Optional

from .errors import EmptyLoopSet
from .spectrum import LoopSpectrum

ROOT = "root"

Arrow = tuple[str, str]


@dataclass(frozen=True)
class ExplicitGraph:
    """Finite oriented graph with at most one arrow per ordered vertex pair.

    ``loop_lengths`` caches (pre-lift length, multiplicity) pairs for graphs
    built by :func:`realize`; it is derived data and excluded from equality.
    """

    root: str
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]
    period_lift: int = 1
    loop_lengths: Optional[tuple[tuple[int, int], ...]] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if len(set(self.arrows)) != len(self.arrows):
            raise ValueError("duplicate arrow")
        if self.root not in self.vertices:
            raise ValueError("root is not a vertex")

    def adjacency(self) -> list[list[int]]:
        """Successor lists indexed by position in ``vertices``.

        Built on the first call and kept on the instance; it is not a field,
        so equality and hashing are unaffected.  Callers must not mutate it.
        """
        adj = self.__dict__.get("_adjacency")
        if adj is None:
            adj = self._index_lists(reverse=False)
            object.__setattr__(self, "_adjacency", adj)
        return adj

    def reverse_adjacency(self) -> list[list[int]]:
        """Predecessor lists indexed like :meth:`adjacency`; built on every call."""
        return self._index_lists(reverse=True)

    def _index_lists(self, reverse: bool) -> list[list[int]]:
        index = {v: i for i, v in enumerate(self.vertices)}
        adj: list[list[int]] = [[] for _ in self.vertices]
        for u, v in self.arrows:
            if reverse:
                u, v = v, u
            adj[index[u]].append(index[v])
        return adj


def realize(s: LoopSpectrum, N: Optional[int] = None) -> ExplicitGraph:
    """Build the flower graph containing every loop of length <= N.

    The root self-loop is present iff a(1) = 1; a(1) > 1 is rejected because
    parallel arrows are not allowed.
    """
    if N is None:
        N = s.N_max
    if not 1 <= N <= s.N_max:
        raise ValueError(f"N must be in 1..{s.N_max}")
    if s.count(1) > 1:
        raise ValueError("a(1) > 1 cannot be realized without parallel arrows")
    vertices = [ROOT]
    arrows: list[Arrow] = []
    lengths: list[tuple[int, int]] = []
    if s.count(1) == 1:
        arrows.append((ROOT, ROOT))
        lengths.append((1, 1))
    for n in range(2, N + 1):
        mult = s.count(n)
        if mult == 0:
            continue
        lengths.append((n, mult))
        for i in range(1, mult + 1):
            prev = ROOT
            for k in range(1, n):
                v = f"v_{n}_{i}_{k}"
                vertices.append(v)
                arrows.append((prev, v))
                prev = v
            arrows.append((prev, ROOT))
    return ExplicitGraph(ROOT, tuple(vertices), tuple(arrows),
                         period_lift=1, loop_lengths=tuple(lengths))


def vertex_count(s: LoopSpectrum, N: int) -> int:
    """Number of vertices of ``realize(s, N)``, found without building it."""
    return 1 + sum(s.count(n) * (n - 1) for n in range(2, N + 1))


def lift_period(g: ExplicitGraph, p: int) -> ExplicitGraph:
    """Cross every vertex with p phases; every loop length is multiplied by p."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if g.period_lift != 1:
        raise ValueError("graph is already lifted")
    if p == 1:
        return g
    vertices = tuple(f"{v}@{i}" for v in g.vertices for i in range(1, p + 1))
    arrows: list[Arrow] = []
    for v in g.vertices:
        for i in range(1, p):
            arrows.append((f"{v}@{i}", f"{v}@{i + 1}"))
    for u, v in g.arrows:
        arrows.append((f"{u}@{p}", f"{v}@1"))
    return ExplicitGraph(f"{g.root}@1", vertices, tuple(arrows),
                         period_lift=p, loop_lengths=g.loop_lengths)


def period(g: ExplicitGraph) -> int:
    """gcd of the lengths of all loops through the root."""
    if g.loop_lengths is not None:
        lengths = [n * g.period_lift for n, mult in g.loop_lengths if mult > 0]
        if not lengths:
            raise EmptyLoopSet("no loop through the root in this truncation")
        return gcd(*lengths)
    # imported graph: fall back to exact first-return counting
    from .oracle import count_first_returns
    f = count_first_returns(g, g.root, len(g.vertices) + 1)
    lengths = [n for n, v in enumerate(f, start=1) if v > 0]
    if not lengths:
        raise EmptyLoopSet("no loop through the root in this truncation")
    return gcd(*lengths)


# ---------------------------------------------------------------------------
# export / import
# ---------------------------------------------------------------------------


def export_dot(g: ExplicitGraph) -> bytes:
    lines = ["digraph loop_system {"]
    for v in g.vertices:
        lines.append(f'  "{v}";')
    for u, v in g.arrows:
        lines.append(f'  "{u}" -> "{v}";')
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def export_json(g: ExplicitGraph) -> bytes:
    payload = {
        "vertices": list(g.vertices),
        "arrows": [[u, v] for u, v in g.arrows],
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
    return ExplicitGraph(root, vertices, arrows, period_lift=p)


def is_strongly_connected(g: ExplicitGraph) -> bool:
    """Reachability in both directions from the root.

    The reverse graph is walked first and dropped, so it never coexists with
    the forward adjacency that the graph keeps.
    """
    root = g.vertices.index(g.root)

    def reaches_all(adj: list[list[int]]) -> bool:
        seen = bytearray(len(adj))
        seen[root] = 1
        reached = 1
        stack = [root]
        while stack:
            for w in adj[stack.pop()]:
                if not seen[w]:
                    seen[w] = 1
                    reached += 1
                    stack.append(w)
        return reached == len(adj)

    return reaches_all(g.reverse_adjacency()) and reaches_all(g.adjacency())
