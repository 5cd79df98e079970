"""Graph realization, period lift, and serialization."""

import hashlib
import io
import json
import tracemalloc
import types
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from markovforge import export, graph, lift_period, realize, user_spectrum
from markovforge.errors import Unrealizable
from markovforge.graph import (ROOT, ExplicitGraph, is_strongly_connected,
                               vertex_count)
from markovforge import oracle
from markovforge.oracle import (BudgetExceeded, count_first_returns, count_paths,
                                enumerate_first_returns, walk_path_counts)

from conftest import built, exported, graph_from_arrows, neighbour_pairs, period


def test_realize_flower_counts(spec2):
    # a(1)=1 self loop, a(4)=4 loops of length 4: 1 + 4*3 extra vertices,
    # 1 + 4*4 arrows
    g = realize(spec2, 4)
    assert g.root == 0 and g.vertices[g.root] == ROOT
    assert len(g.vertices) == 13 == vertex_count(spec2, 4)
    assert len(g.arrows) == 17
    assert is_strongly_connected(g)
    for depth in (0, spec2.N_max + 1):
        with pytest.raises(ValueError, match="N must be in"):
            realize(spec2, depth)


def test_realize_rejects_multiple_short_loops():
    with pytest.raises(Unrealizable):
        realize(user_spectrum([2]))


def test_realize_refuses_before_allocating(spec8, monkeypatch):
    # base 8 to length 64 has ~1e53 vertices
    def array_called(*a, **k):
        raise AssertionError("an arrow array was allocated")
    monkeypatch.setattr(graph, "array", array_called)
    with pytest.raises(Unrealizable, match="vertices"):
        realize(spec8, 64)
    with pytest.raises(Unrealizable, match="parallel"):
        realize(user_spectrum([2, 0, 5]))


def test_lift_is_bounded_by_the_vertex_budget(spec2, monkeypatch):
    g = realize(spec2, 4)  # 13 vertices
    monkeypatch.setattr(graph, "REALIZE_VERTEX_BUDGET", 25)
    for refused in (lambda: lift_period(g, 2), lambda: realize(spec2, 4, 2)):
        with pytest.raises(Unrealizable, match="26 vertices"):
            refused()
    monkeypatch.setattr(graph, "REALIZE_VERTEX_BUDGET", 26)
    assert realize(spec2, 4, 2) == lift_period(g, 2)


def test_realize_and_lift_allocate_no_arrows():
    # 399,001 vertices at depth 8: one arrow array alone would take 3.2 MB
    s = user_spectrum([1] + [0] * 6 + [57_000])
    tracemalloc.start()
    try:
        g = realize(s, 8)
        realize_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        lifted = lift_period(g, 4)
        lift_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.size == 399_001 and lifted.size == 4 * g.size
    assert realize_peak < 10 ** 6 and lift_peak < 10 ** 6
    with pytest.raises(Unrealizable, match="2394006 vertices"):
        lift_period(g, 6)


def test_the_dp_on_a_realization_builds_no_neighbour_form(monkeypatch):
    # 399,001 vertices at depth 8: the DP's list of size + 9 counts takes
    # 3.2 MB; the gather it replaced built the neighbour forms and tuples
    # over the ids, more than 20 MB
    g = realize(user_spectrum([1] + [0] * 6 + [57_000]), 8)
    forbid_neighbour_forms(monkeypatch)
    for dp, counts in ((lambda: count_paths(g, g.root, g.root, 8), [1] * 8 + [57_001]),
                       (lambda: count_first_returns(g, g.root, 8), [1] + [0] * 6 + [57_000])):
        tracemalloc.start()
        try:
            assert dp() == counts
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * (g.size + 1), peak


def forbid_neighbour_forms(monkeypatch):
    def form_built(size, runs, reverse):
        raise AssertionError("a neighbour form was built")
    monkeypatch.setattr(graph, "_neighbours", form_built)


def test_the_search_on_a_realization_builds_no_neighbour_form(monkeypatch):
    # 399,001 vertices at depth 8, whose sets are 50 KB ints: the search
    # peaks near 12 of them, 0.6 MB, where the list search it replaced
    # built both neighbour forms, more than 20 MB
    forbid_neighbour_forms(monkeypatch)
    for a1 in (1, 0):
        s = user_spectrum([a1] + [0] * 6 + [57_000])
        for g in (realize(s, 8), realize(s, 8, 3)):
            tracemalloc.start()
            try:
                assert is_strongly_connected(g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * (g.size // 8), (g, peak)


def test_the_walk_counts_a_level_over_the_budget_without_building_it():
    # level n of the walk from the root has 57,000 n + 1 walks: a budget of
    # the first two levels stops the walk at the 114,001 steps of level 2,
    # a list of 912 KB, which the walk counts but never builds
    g = realize(user_spectrum([1] + [0] * 6 + [57_000]), 8)
    levels = walk_path_counts(g, g.root, g.root, 1 + 57_001)
    assert next(levels) == 1 and next(levels) == 1
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            next(levels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 4, peak


def test_first_returns_charge_a_level_before_building_it():
    # on the complete digraph with self-loops on 12 vertices, level n of the
    # first-return walk from vertex 0 holds 12 * 11^(n-1) steps: a budget of
    # 200,000 stops the walk at level 6, a list of 1,932,612 entries
    # (15.5 MB), which the walk counts but never builds
    names = tuple(f"v{i}" for i in range(12))
    g = graph_from_arrows("v0", names, tuple((u, v) for u in names for v in names))
    g.adjacency()
    assert enumerate_first_returns(g, 0, 5, 200_000) == 11 ** 4
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            enumerate_first_returns(g, 0, 6, 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 10 ** 6, peak


def test_first_returns_look_for_live_paths_at_powers_of_two(monkeypatch):
    # every path lives to step 8, so the scan for live ones runs at t = 1, 2,
    # 4 and 8: floor(log2 8) + 1 scans of the 399,009 cells, not one per step
    g = realize(user_spectrum([1] + [0] * 6 + [57_000]), 8)
    scans = []

    def spy(cells):
        scans.append(len(cells))
        return any(cells)
    monkeypatch.setattr(oracle, "any", spy, raising=False)
    assert count_first_returns(g, g.root, 8) == [1] + [0] * 6 + [57_000]
    assert len(scans) <= 4, scans


def test_export_streams_in_bounded_memory():
    # 98,001 vertices at depth 8, whose names take 7.5 MB
    g = realize(user_spectrum([1] + [0] * 6 + [14_000]), 8)
    sink = types.SimpleNamespace(write=len)  # discards every chunk
    for fmt in ("dot", "json"):
        tracemalloc.start()
        try:
            export(g, fmt, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # streamed, 9.3 MB for either format; built whole first, 34 MB (DOT)
        # and 57 MB (JSON)
        assert peak < 20 * 10 ** 6, (fmt, peak)


@st.composite
def realized_graphs(draw):
    """A realization of a drawn spectrum to a drawn depth N, lifted by 1-3."""
    s = user_spectrum([draw(st.integers(0, 1))] + draw(st.lists(st.integers(0, 3), max_size=9)))
    return realize(s, draw(st.integers(1, s.N_max)), draw(st.integers(1, 3)))


def whole_export(names, arrows, p, fmt):
    """The bytes of an export built whole: by json.dumps, or line by line."""
    if fmt == "json":
        payload = {"vertices": list(names), "arrows": [list(a) for a in arrows],
                   "period_lift": p}
        return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    lines = (["digraph loop_system {"] + [f'  "{v}";' for v in names]
             + [f'  "{u}" -> "{v}";' for u, v in arrows] + ["}"])
    return ("\n".join(lines) + "\n").encode()


@given(realized_graphs())
@example(realize(user_spectrum([0, 1]), 1))  # the root alone, no arrows
@settings(max_examples=60, deadline=None)
def test_export_layout_of_realized_graphs(g):
    for fmt in ("json", "dot"):
        assert exported(g, fmt) == whole_export(g.vertices, g.arrows, g.period_lift, fmt)


# SHA-256 of export bytes before realized graphs stopped storing their arrows
EXPORT_DIGESTS = {
    ("2", 16, 16, 1, "dot"): "aabea7067f493005977e6309843dbcd3818beee51ee36e11cb13b1cd828f9c96",
    ("2", 16, 16, 1, "json"): "cbf1e322f6d0f9027dee6643809412ba87478ec16f3636ca0a2f72b8285cbf11",
    ("2", 16, 16, 2, "dot"): "8e91aa8f75afc8ba030593f7feca91b4ad35c6d32203f90cef305d6393aef46d",
    ("2", 16, 16, 2, "json"): "e356b09decb9c236334391013009b2950aad3730bdcb486bf1eb9ca420d17e5e",
    ("3", 64, 12, 3, "dot"): "6cbfc4a6efbfafca659f3cd264ee3709c1e105a458e8b5b1e9d161e8ae44cb74",
    ("3", 64, 12, 3, "json"): "149c8e8f74647af10216c3a2ecfd48b755d81d1e48224595c5a492f4e752e244",
}


@pytest.mark.parametrize("case", EXPORT_DIGESTS, ids=lambda c: "{}@{}-N{}-p{}-{}".format(*c))
def test_export_bytes_are_unchanged(case):
    text, N_max, N, p, fmt = case
    g = realize(built(text, N_max), N, p)
    data = exported(g, fmt)
    assert hashlib.sha256(data).hexdigest() == EXPORT_DIGESTS[case]
    assert data == whole_export(g.vertices, g.arrows, p, fmt)


def test_period_is_gcd_of_loop_lengths():
    assert period(realize(user_spectrum([1, 0, 0, 1]))) == 1
    assert period(realize(user_spectrum([0, 1, 0, 1]))) == 2
    assert period(realize(user_spectrum([0, 0, 1, 0, 0, 1]))) == 3
    # a graph built from arrows has no loop lengths: its first returns give them
    for a, p in (([1, 0, 0, 1], 1), ([0, 1, 0, 1], 2), ([0, 0, 1, 0, 0, 1], 3)):
        g = realize(user_spectrum(a))
        assert period(graph_from_arrows(ROOT, g.vertices, g.arrows)) == p
    # no loop through the root: the gcd of no lengths
    assert period(graph_from_arrows("u", ("u", "v"), (("u", "v"),))) == 0


def test_lift_multiplies_period(spec2):
    g = realize(spec2, 4)
    lifted = lift_period(g, 3)
    assert len(lifted.vertices) == 3 * len(g.vertices)
    assert len(lifted.arrows) == 2 * len(g.vertices) + len(g.arrows)
    assert lifted.period_lift == 3
    assert period(lifted) == 3
    assert is_strongly_connected(lifted)


def test_lift_identity(spec2):
    g = realize(spec2, 4)
    assert lift_period(g, 1) is g


def test_lift_refuses_double_lift(spec2):
    lifted = lift_period(realize(spec2, 4), 2)
    with pytest.raises(ValueError):
        lift_period(lifted, 3)
    with pytest.raises(ValueError, match="p must be >= 1"):
        lift_period(realize(spec2, 4), 0)
    # a graph built from arrows has no loop lengths to lift
    cycle = graph_from_arrows("u", ("u", "v"), (("u", "v"), ("v", "u")))
    with pytest.raises(ValueError, match="only a realized graph lifts"):
        lift_period(cycle, 3)


def test_duplicate_arrow_rejected():
    # a graph built from arrows is refused when its runs are first derived
    hand_built = graph_from_arrows("u", ("u",), (("u", "u"), ("u", "u")))
    with pytest.raises(ValueError, match="duplicate arrow"):
        hand_built.successor_runs()


def test_dot_export_mentions_every_arrow(spec2):
    g = realize(spec2, 4)
    text = exported(g, "dot").decode()
    assert text.startswith("digraph")
    for src, dst in g.arrows:
        assert f'"{src}" -> "{dst}"' in text


def test_json_round_trip(spec2):
    g = lift_period(realize(spec2, 9), 2)
    back = json.loads(exported(g))
    assert tuple(back["vertices"]) == g.vertices
    assert tuple(map(tuple, back["arrows"])) == g.arrows
    assert back["period_lift"] == g.period_lift == 2


def test_export_dispatch(spec2):
    g = realize(spec2, 4)
    for fmt in ("dot", "json"):
        assert exported(g, fmt) == whole_export(g.vertices, g.arrows, 1, fmt)
    out = io.BytesIO()
    with pytest.raises(ValueError):
        export(g, "gml", out)
    assert out.getvalue() == b""


def test_strong_connectivity_detects_sink():
    g = graph_from_arrows("u", ("u", "v"), (("u", "u"), ("u", "v")))
    assert not is_strongly_connected(g)


def test_adjacency_built_once_by_index(spec2):
    g = realize(spec2, 4)
    adj, radj = g.adjacency(), g.reverse_adjacency()
    assert adj is g.adjacency() and radj is g.reverse_adjacency()
    name = g.vertices
    assert sorted((name[i], name[j])
                  for i, j in neighbour_pairs(adj, g.size)) == sorted(g.arrows)
    assert sorted((name[j], name[i])
                  for i, j in neighbour_pairs(radj, g.size)) == sorted(g.arrows)


def test_kept_adjacency_leaves_equality_alone(spec2):
    g, h = realize(spec2, 9), realize(spec2, 9)
    g.adjacency()
    assert g == h and hash(g) == hash(h)
    assert g != realize(spec2, 4)


def named_reference(a, p):
    """Vertex names and arrows of the lifted flower graph, built as strings."""
    vertices, arrows = [ROOT], []
    if a[0] == 1:
        arrows.append((ROOT, ROOT))
    for n, mult in enumerate(a[1:], start=2):
        for i in range(1, mult + 1):
            prev = ROOT
            for k in range(1, n):
                v = f"v_{n}_{i}_{k}"
                vertices.append(v)
                arrows.append((prev, v))
                prev = v
            arrows.append((prev, ROOT))
    if p > 1:
        arrows = ([(f"{v}@{i}", f"{v}@{i + 1}") for v in vertices for i in range(1, p)]
                  + [(f"{u}@{p}", f"{v}@1") for u, v in arrows])
        vertices = [f"{v}@{i}" for v in vertices for i in range(1, p + 1)]
    return tuple(vertices), tuple(arrows)


@given(st.integers(0, 1), st.lists(st.integers(0, 3), max_size=9), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_indexed_realization_matches_named_reference(a1, tail, p):
    s = user_spectrum([a1] + tail)
    g = lift_period(realize(s), p)
    direct = realize(s, s.N_max, p)
    assert direct == g and hash(direct) == hash(g)
    assert (g.vertices, g.arrows) == named_reference(s.a, p)
    assert g.root == 0 and g.size == len(g.vertices)
    back = json.loads(exported(g))
    assert (tuple(back["vertices"]), tuple(map(tuple, back["arrows"]))) == (g.vertices, g.arrows)
    # the form built from loop_lengths is the one the arrows give, hub order included
    from_arrows = graph_from_arrows(g.vertices[0], g.vertices, g.arrows)
    assert g.adjacency() == from_arrows.adjacency()
    assert g.reverse_adjacency() == from_arrows.reverse_adjacency()
    name = g.vertices
    assert sorted((name[i], name[j])
                  for i, j in neighbour_pairs(g.adjacency(), g.size)) == sorted(g.arrows)
    assert sorted((name[j], name[i])
                  for i, j in neighbour_pairs(g.reverse_adjacency(), g.size)) == sorted(g.arrows)


def test_indexed_duplicate_arrow_rejected_by_adjacency():
    g = ExplicitGraph(2, array("l", [0, 0, 1]), array("l", [1, 1, 0]))
    with pytest.raises(ValueError):
        g.adjacency()
    with pytest.raises(ValueError):
        g.reverse_adjacency()
