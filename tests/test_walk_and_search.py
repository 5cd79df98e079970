"""The reachability search and the literal walk against the loops they
replaced, which are kept here as the reference, and the DP against the
reference walk.

The reference loops test a met set for every vertex the search meets and
look up every walk's vertex in a dict of hub fans; the search in ``src``
steps on int bitsets over the predecessor and successor runs, and the walk
charges each level before it builds it and counts the walks at the target
and at each hub as it builds it, each fan once times its hub's walks.
They must agree on every graph: the verdict of the search in each
direction, the counts of the walk and the level at which a budget stops
it.  The reference loops
walk the neighbour forms, which every graph builds from its runs, so the
forms of hand-built graphs are checked against their arrows as well.
"""

from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from markovforge import delete_loop, realize, user_spectrum
from markovforge.graph import _reaches_all, is_strongly_connected, vertex_count
from markovforge.oracle import (BudgetExceeded, _charge, count_first_returns, count_paths,
                                enumerate_first_returns, walk_path_counts)

from conftest import BETA_TEXTS, built, graph_from_arrows, neighbour_pairs

BUDGETS = (1, 10, 100, 10 ** 4)
MOST_LEVELS = 16
MOST_VERTICES = 3000


# ---------------------------------------------------------------------------
# the reference loops
# ---------------------------------------------------------------------------


def reference_is_strongly_connected(g):
    return (reference_reaches_all(g, g.reverse_adjacency())
            and reference_reaches_all(g, g.adjacency()))


def reference_reaches_all(g, adj):
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


def reference_walker(g):
    one, hubs = g.adjacency()
    more = {v: fan[1:] for v, fan in hubs.items()}

    def ahead(frontier):
        firsts = list(map(one.__getitem__, frontier))
        fans = list(filter(None, map(more.get, frontier)))
        return firsts, fans, len(firsts) - firsts.count(g.size) + sum(map(len, fans))
    return ahead


def reference_level(firsts, fans, *dropped):
    for fan in fans:
        firsts += fan
    for x in dropped:
        if x in firsts:
            firsts = list(filter(x.__ne__, firsts))
    return firsts


def reference_walk_path_counts(g, u, v, budget):
    ahead = reference_walker(g)
    frontier = [u]
    walked = _charge(0, 1, budget)
    while True:
        yield frontier.count(v)
        firsts, fans, steps = ahead(frontier)
        walked = _charge(walked, steps, budget)
        frontier = reference_level(firsts, fans, g.size)


def reference_enumerate_first_returns(g, u, n, budget):
    ahead = reference_walker(g)
    frontier = [u]
    walked = _charge(0, 1, budget)
    for remaining in range(n, 0, -1):
        firsts, fans, steps = ahead(frontier)
        back = firsts.count(u) + sum(fan.count(u) for fan in fans)
        walked = _charge(walked, steps - back, budget)
        if remaining == 1:
            return back
        frontier = reference_level(firsts, fans, u, g.size)
    return 1


# ---------------------------------------------------------------------------
# what is compared
# ---------------------------------------------------------------------------


def walked(walk, g, u, v, budget):
    """The counts a walk yields, at most MOST_LEVELS of them, and whether it
    raised BudgetExceeded after the last."""
    counts = []
    try:
        for count in islice(walk(g, u, v, budget), MOST_LEVELS):
            counts.append(count)
    except BudgetExceeded:
        return counts, True
    return counts, False


def first_returns(enumerate_, g, u, budget):
    """f(n) for n < MOST_LEVELS, None where the budget stops the walk."""
    out = []
    for n in range(MOST_LEVELS):
        try:
            out.append(enumerate_(g, u, n, budget))
        except BudgetExceeded:
            out.append(None)
    return out


def assert_matches_reference(g, u, v):
    assert is_strongly_connected(g) == reference_is_strongly_connected(g)
    for budget in BUDGETS:
        assert (walked(walk_path_counts, g, u, v, budget)
                == walked(reference_walk_path_counts, g, u, v, budget))
        assert (first_returns(enumerate_first_returns, g, u, budget)
                == first_returns(reference_enumerate_first_returns, g, u, budget))
    # the DP steps on the graph's predecessor runs: strided ones from a
    # realization, scanned ones from a hand-built graph
    counts, _ = walked(reference_walk_path_counts, g, u, v, BUDGETS[-1])
    assert count_paths(g, u, v, MOST_LEVELS - 1)[:len(counts)] == counts
    returns = first_returns(reference_enumerate_first_returns, g, u, BUDGETS[-1])[1:]
    f = count_first_returns(g, u, MOST_LEVELS - 1)
    assert all(r is None or r == x for x, r in zip(f, returns))


# ---------------------------------------------------------------------------
# the graphs
# ---------------------------------------------------------------------------

SPECTRA = st.one_of(
    st.sampled_from(BETA_TEXTS).map(built),
    st.tuples(st.integers(0, 1), st.lists(st.integers(0, 3), max_size=7))
    .map(lambda t: user_spectrum([t[0], *t[1]])))


@st.composite
def realized(draw):
    """(graph, u, v): a realization, lifted by 1, 2 or 3, of at most
    MOST_VERTICES vertices, and two of its vertices."""
    s, p = draw(SPECTRA), draw(st.sampled_from((1, 2, 3)))
    deepest = 1
    while deepest < s.N_max and vertex_count(s, deepest + 1) * p <= MOST_VERTICES:
        deepest += 1
    g = realize(s, draw(st.integers(1, deepest)), p)
    vertex = st.integers(0, g.size - 1)
    return g, draw(vertex), draw(vertex)


@st.composite
def hand_built(draw):
    """(graph, u, v): a graph of up to 7 named vertices with any arrows (dead
    ends, hubs, vertices with several arrows in and parts the root cannot
    reach or be reached from), any root, and two of its vertices."""
    n = draw(st.integers(1, 7))
    vertex = st.integers(0, n - 1)
    names = tuple(f"v{i}" for i in range(n))
    arrows = draw(st.lists(st.tuples(vertex, vertex), unique=True, max_size=3 * n))
    g = graph_from_arrows(names[draw(vertex)], names,
                          tuple((names[a], names[b]) for a, b in arrows))
    return g, draw(vertex), draw(vertex)


def every_feature():
    """r and a and x are hubs; a, b and c have several arrows in; d is a dead
    end; r has one arrow in; x and y cannot be reached from r."""
    return graph_from_arrows(
        "r", ("r", "a", "b", "c", "d", "x", "y"),
        (("r", "a"), ("r", "b"), ("a", "b"), ("a", "c"), ("a", "r"), ("b", "c"),
         ("c", "d"), ("x", "y"), ("x", "a"), ("y", "x")))


@given(realized())
@settings(max_examples=60, deadline=None)
def test_realized_graphs_match_the_reference(case):
    assert_matches_reference(*case)


# the further steps of the hub a land on the hub r and on the target c: the
# walk counts them once per fan, times a's walks
@given(hand_built())
@example((every_feature(), 0, 3))
@settings(max_examples=150, deadline=None)
def test_hand_built_graphs_match_the_reference(case):
    assert_matches_reference(*case)


def test_a_graph_with_every_feature_matches_the_reference():
    g = every_feature()
    one, hubs = g.adjacency()
    assert len(hubs) == 3 and len(g.reverse_adjacency()[1]) == 3
    assert g.size in one and one.count(g.size) == 1
    assert not is_strongly_connected(g)
    for u in range(g.size):
        for v in range(g.size):
            assert_matches_reference(g, u, v)


@pytest.mark.parametrize("text, p", [("3", 1), ("3", 3), ("e^7/10", 2)])
def test_realized_graph_walks_match_the_reference_to_the_default_budget(text, p):
    # the budget verify walks under, on graphs of the verify depth
    g = realize(built(text), 8, p)
    assert is_strongly_connected(g)
    counts = walked(walk_path_counts, g, g.root, g.root, 10 ** 6)
    assert counts == walked(reference_walk_path_counts, g, g.root, g.root, 10 ** 6)


# ---------------------------------------------------------------------------
# the search on bitsets, direction by direction
# ---------------------------------------------------------------------------


def assert_search_matches_reference(g):
    """Each direction of the search against the reference, so a graph
    whose one direction fails is checked in the other as well."""
    assert (_reaches_all(g.size, g.root, g.predecessor_runs(), False)
            == reference_reaches_all(g, g.adjacency()))
    assert (_reaches_all(g.size, g.root, g.successor_runs(), True)
            == reference_reaches_all(g, g.reverse_adjacency()))
    assert is_strongly_connected(g) == reference_is_strongly_connected(g)


def named(size, root, arrows):
    names = tuple(f"v{i}" for i in range(size))
    return graph_from_arrows(names[root], names,
                             tuple((names[a], names[b]) for a, b in sorted(arrows)))


@st.composite
def with_runs(draw):
    """A graph of up to 40 vertices, any root, built from chains of arrows
    v -> v+1, strided runs of arrows from or to one vertex w (so runs of
    one predecessor or successor other than the default, and hubs and
    joins), and a few arrows more; a vertex may have no arrow in or out."""
    n = draw(st.integers(1, 40))
    vertex = st.integers(0, n - 1)
    arrows = {(v, v + 1) for v, on in enumerate(draw(st.lists(
        st.booleans(), min_size=n - 1, max_size=n - 1))) if on}
    for _ in range(draw(st.integers(0, 3))):
        w, start, step = draw(vertex), draw(vertex), draw(st.integers(1, 7))
        ends = range(start, min(n, start + draw(st.integers(1, 8)) * step), step)
        out = draw(st.booleans())
        arrows |= {(w, x) if out else (x, w) for x in ends}
    arrows |= set(draw(st.lists(st.tuples(vertex, vertex), max_size=4)))
    return named(n, draw(vertex), arrows)


@given(st.one_of(with_runs(), hand_built().map(lambda case: case[0])))
@example(every_feature())
@settings(max_examples=200, deadline=None)
def test_both_neighbour_forms_of_a_hand_built_graph_list_its_arrows(g):
    # the forms are built from the runs, so this ties the reference loops,
    # which walk the forms, back to the arrows: each vertex's neighbours, in
    # arrow order
    by_tail = sorted(zip(g.tails, g.heads), key=lambda arrow: arrow[0])
    by_head = sorted(zip(g.heads, g.tails), key=lambda arrow: arrow[0])
    assert neighbour_pairs(g.adjacency(), g.size) == by_tail
    assert neighbour_pairs(g.reverse_adjacency(), g.size) == by_head


@st.composite
def realized_for_search(draw):
    """A realization lifted by 1, 2 or 3, with or without a loop deleted."""
    s, p = draw(SPECTRA), draw(st.sampled_from((1, 2, 3)))
    deletable = [n for n in range(2, s.N_max + 1) if s.count(n)]
    if deletable and draw(st.booleans()):
        s = delete_loop(s, draw(st.sampled_from(deletable)))
    deepest = 1
    while deepest < s.N_max and vertex_count(s, deepest + 1) * p <= 10 * MOST_VERTICES:
        deepest += 1
    return realize(s, draw(st.integers(1, deepest)), p)


# the root reaches v2 but v2 reaches nothing; v2 reaches the root, which does not reach it
NOT_BACKWARD = named(3, 0, {(0, 1), (1, 0), (0, 2)})
NOT_FORWARD = named(3, 0, {(0, 1), (1, 0), (2, 0)})
# v2 has the predecessors v3 and v4, which only v2 reaches: the search must
# not step to v2 from v1, which comes before it but has no arrow to it
JOIN_AFTER_A_CHAIN = named(5, 0, {(0, 1), (1, 0), (2, 3), (2, 4), (3, 2), (4, 2), (3, 0)})


def test_each_direction_of_the_search_can_fail_alone():
    assert _reaches_all(3, 0, NOT_BACKWARD.predecessor_runs(), False)
    assert not _reaches_all(3, 0, NOT_BACKWARD.successor_runs(), True)
    assert not _reaches_all(3, 0, NOT_FORWARD.predecessor_runs(), False)
    assert _reaches_all(3, 0, NOT_FORWARD.successor_runs(), True)


@given(st.one_of(with_runs(), hand_built().map(lambda case: case[0]), realized_for_search()))
@example(NOT_BACKWARD)
@example(NOT_FORWARD)
@example(JOIN_AFTER_A_CHAIN)
@example(every_feature())
@settings(max_examples=300, deadline=None)
def test_the_bitset_search_matches_the_reference(g):
    assert_search_matches_reference(g)
