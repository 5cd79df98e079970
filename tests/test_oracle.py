"""Path-counting oracles.

The renewal identity p(n) = sum over k of f(k) p(n-k) with p(0) = 1 is the
ground truth tying all three counting methods together.  For f = (1,0,0,4)
the first values are worked out by hand:
p = 1, 1, 1, 1, 5, 9, 13, 17, 37.
"""

import hashlib
import io
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovforge import (count_first_returns, count_paths, growth_rate,
                         lift_period, realize, renewal_convolve,
                         table_from_spectrum, user_spectrum)
from markovforge.errors import InsufficientData
from markovforge.intervals import _ln_big
from markovforge.oracle import (BudgetExceeded, enumerate_first_returns,
                                enumerate_paths, walk_path_counts, write_csv)

from conftest import built, graph_from_arrows


def walk_reference(g, u, v, n, first_return):
    """(count, steps) from a recursive walk of every path between the vertex
    indices u and v, one step per vertex visited; with ``first_return`` a
    step back to u ends the walk.  The successors come from the arrow arrays,
    stored or, for a realized graph, generated as for export."""
    succ = [[] for _ in range(g.size)]
    for a, b in zip(*(g._arrow_arrays() if g.tails is None else (g.tails, g.heads))):
        succ[a].append(b)
    steps = 0

    def walk(w, remaining):
        nonlocal steps
        steps += 1
        if remaining == 0:
            return 1 if w == v else 0
        total = 0
        for x in succ[w]:
            if first_return and x == u:
                total += remaining == 1
            else:
                total += walk(x, remaining - 1)
        return total

    return walk(u, n), steps


def test_renewal_hand_values():
    assert renewal_convolve([1, 0, 0, 4], 8) == [1, 1, 1, 1, 5, 9, 13, 17, 37]


def test_dp_matches_renewal_on_flower(spec2):
    g = realize(spec2, 12)
    f = count_first_returns(g, g.root, 12)
    p = count_paths(g, g.root, g.root, 12)
    assert tuple(f) == spec2.a[:12]
    assert renewal_convolve(f, 12) == p
    for negative in (lambda: count_first_returns(g, g.root, -1),
                     lambda: count_paths(g, g.root, g.root, -1)):
        with pytest.raises(ValueError, match="must be >= 0"):
            negative()


def test_enumeration_matches_dp(spec2):
    flower = realize(spec2, 10)
    lifted = lift_period(realize(spec2, 5), 2)
    from_arrows = graph_from_arrows(lifted.vertices[0], lifted.vertices, lifted.arrows)
    # not a flower: walks of equal length meet at a and at b
    chords = graph_from_arrows("u", ("u", "a", "b"),
                               (("u", "a"), ("u", "b"), ("a", "b"),
                                ("a", "u"), ("b", "u"), ("b", "a")))
    for g in (flower, lifted, from_arrows, chords):
        p = count_paths(g, g.root, g.root, 10)
        f = count_first_returns(g, g.root, 10)
        for n in range(1, 11):
            assert enumerate_paths(g, g.root, g.root, n, 10 ** 6) == p[n]
            assert enumerate_first_returns(g, g.root, n, 10 ** 6) == f[n - 1]
    for negative in (lambda: enumerate_paths(flower, 0, 0, -1),
                     lambda: enumerate_first_returns(flower, 0, -1)):
        with pytest.raises(ValueError, match="must be >= 0"):
            negative()


def test_enumeration_budget_is_exact(spec2):
    g = lift_period(realize(spec2, 6), 2)
    off_root = 5
    cases = [(lambda n, b: enumerate_paths(g, g.root, g.root, n, b), g.root, False),
             (lambda n, b: enumerate_paths(g, g.root, off_root, n, b), off_root, False),
             (lambda n, b: enumerate_first_returns(g, g.root, n, b), g.root, True)]
    for enumerate_, v, first_return in cases:
        for n in range(0, 13):
            count, steps = walk_reference(g, g.root, v, n, first_return)
            assert enumerate_(n, steps) == count
            with pytest.raises(BudgetExceeded):
                enumerate_(n, steps - 1)


def test_one_walk_charges_each_level_like_enumerate_paths(spec2):
    # level n of a single walk is charged exactly the budget a call for
    # length n needs, so the walk stops where those calls would start failing
    g = lift_period(realize(spec2, 6), 2)
    budget = walk_reference(g, g.root, g.root, 9, False)[1]
    counts = []
    with pytest.raises(BudgetExceeded):
        for count in walk_path_counts(g, g.root, g.root, budget):
            counts.append(count)
    assert counts == [enumerate_paths(g, g.root, g.root, n, budget) for n in range(10)]


def hand_built(root):
    """Not a flower: a is a hub that is not the root and has a self-loop, b
    has in-degree 3 and d is a dead end."""
    return graph_from_arrows(root, ("u", "a", "b", "c", "d"),
                             (("u", "a"), ("u", "b"), ("a", "a"), ("a", "b"),
                              ("a", "c"), ("a", "d"), ("c", "b"), ("b", "u"),
                              ("c", "u")))


def mutual_hubs():
    """a and b each have several predecessors, each other among them, and a
    has a self-loop: a DP step that summed at a hub after overwriting the
    vector would read the new counts."""
    return graph_from_arrows("u", ("u", "a", "b"),
                             (("u", "a"), ("u", "b"), ("a", "a"), ("a", "b"),
                              ("b", "a"), ("b", "u")))


@pytest.mark.parametrize("g", [pytest.param(hand_built("u"), id="u"),
                               pytest.param(hand_built("a"), id="a"),
                               pytest.param(mutual_hubs(), id="mutual_hubs")])
def test_hand_built_graph_matches_brute_force(g):
    # every vertex, by its index, as the end of a path from the root and as
    # the vertex of the first returns
    p = count_paths(g, g.root, g.root, 8)
    assert renewal_convolve(count_first_returns(g, g.root, 8), 8) == p
    for v in range(g.size):
        f = count_first_returns(g, v, 8)
        for n in range(9):
            count, steps = walk_reference(g, g.root, v, n, False)
            assert count_paths(g, g.root, v, 8)[n] == count
            assert enumerate_paths(g, g.root, v, n, steps) == count
            with pytest.raises(BudgetExceeded):
                enumerate_paths(g, g.root, v, n, steps - 1)
            count, steps = walk_reference(g, v, v, n, True)
            assert (f[n - 1] if n else 1) == count
            assert enumerate_first_returns(g, v, n, steps) == count
            with pytest.raises(BudgetExceeded):
                enumerate_first_returns(g, v, n, steps - 1)


def test_table_from_spectrum_base2(spec2):
    t = table_from_spectrum(spec2, 16)
    assert t.p[0] == 1
    assert t.p[:9] == (1, 1, 1, 1, 5, 9, 13, 17, 37)
    assert list(t.p) == renewal_convolve(t.f, 16)
    with pytest.raises(ValueError, match="must be >= 0"):
        table_from_spectrum(spec2, -1)
    # past N_max only the stored counts are convolved; the table is the one
    # the counts, padded with zeros to 2 N_max, give, lifted or not
    padded = list(spec2.a) + [0] * spec2.N_max
    unlifted = renewal_convolve(padded, 2 * spec2.N_max)
    for p in (1, 3):
        t = table_from_spectrum(spec2, 2 * spec2.N_max * p, p)
        assert t.f[p - 1::p] == tuple(padded)
        assert t.p[::p] == tuple(unlifted)
    # and its cost stays linear in N: convolving the zero padding as well
    # takes 15.5 s at N = 8,000 (one run, 2-vCPU VM)
    start = time.perf_counter()
    table_from_spectrum(spec2, 8000)
    assert time.perf_counter() - start < 5


def test_table_from_graph_agrees(spec2):
    g = realize(spec2, 12)
    p = count_paths(g, g.root, g.root, 12)
    assert p == renewal_convolve(count_first_returns(g, g.root, 12), 12)
    assert tuple(p) == table_from_spectrum(spec2, 12).p


def test_period_lift_spreads_counts(spec2):
    t = table_from_spectrum(spec2, 24, period_lift=3)
    assert all(t.p[n] == 0 for n in range(1, 25) if n % 3 != 0)
    base = table_from_spectrum(spec2, 8)
    assert [t.p[3 * n] for n in range(9)] == list(base.p)


def csv_bytes(s, N, p=1):
    out = io.BytesIO()
    write_csv(s, N, out, p)
    return out.getvalue()


def test_csv_has_growth_column(spec2):
    lines = csv_bytes(spec2, 8).decode().splitlines()
    assert lines[0] == "n,f,p,growth_estimate"
    assert lines[4].startswith("4,4,5,")
    assert len(lines) == 9


class Writes(list):
    """A binary sink that keeps each write separately."""

    def write(self, data):
        self.append(data)


def test_lifted_csv_streams_the_unlifted_table():
    # base 2, N_max 16, lifted by 3, --max-n 400: 1,200 rows, whose bytes and
    # growth line are those the lifted table, built whole, gave
    s = built("2", 16)
    writes = Writes()
    est = write_csv(s, 400, writes, 3)
    data = b"".join(writes)
    assert hashlib.sha256(data).hexdigest() == (
        "f1a7c61c43007d536044222afdd368a756d9ccc8a9b18cc4559c2910c50718b9")
    assert [w.count(b"\n") for w in writes] == [1024, 177]
    lifted = table_from_spectrum(s, 1200, 3)
    assert data.decode().splitlines()[1:] == [
        f"{n},{lifted.f[n - 1]},{v}," + (f"{_ln_big(v) / n:.12f}" if v else "")
        for n, v in enumerate(lifted.p) if n > 0]
    assert est == growth_rate(table_from_spectrum(s, 400).p, window=8, period_lift=3)
    assert est == growth_rate(lifted.p, window=8)
    assert f"{est.samples[-1][0]}: {est.value:.6f}" == "1200: 0.224501"


def test_growth_rate_converges_base2(spec2):
    t = table_from_spectrum(spec2, 64)
    est = growth_rate(t.p, window=8)
    import math
    assert abs(est.value - math.log(2)) < 0.05
    assert est.samples[-1][0] == 64


@given(st.lists(st.integers(0, 3), min_size=1, max_size=8), st.integers(1, 4),
       st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_lifted_counts_vanish_off_the_period(a, p, extra):
    # growth_rate relies on this instead of a period
    t = table_from_spectrum(user_spectrum(a), len(a) * p + extra, p)
    assert all(n % p == 0 for n, v in enumerate(t.p) if v > 0)


@given(st.lists(st.integers(0, 5), min_size=1, max_size=10), st.sampled_from([1, 2, 3, 7]),
       st.integers(0, 80))
@settings(max_examples=80, deadline=None)
def test_lifted_table_is_the_renewal_of_the_lifted_returns(a, p, N):
    # the table convolves the unlifted counts and spreads them; the reference
    # convolves the lifted first returns f(n p) = a(n) over every length
    f = [0] * N
    for n, v in enumerate(a, 1):
        if n * p <= N:
            f[n * p - 1] = v
    t = table_from_spectrum(user_spectrum(a), N, p)
    assert t.f == tuple(f)
    assert t.p == tuple(renewal_convolve(f, N))


def test_growth_rate_needs_data():
    with pytest.raises(InsufficientData):
        growth_rate([1, 0, 0], window=8)


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=6)
       .map(lambda tail: [1] + tail))
@settings(max_examples=40, deadline=None)
def test_renewal_identity_random_flowers(a):
    s = user_spectrum(a)
    g = realize(s)
    n = len(a) + 3
    f = count_first_returns(g, g.root, n)
    assert tuple(f[:len(a)]) == s.a
    assert renewal_convolve(f, n) == count_paths(g, g.root, g.root, n)


@given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=4)
       .map(lambda tail: [1] + tail))
@settings(max_examples=25, deadline=None)
def test_enumeration_random_flowers(a):
    g = realize(user_spectrum(a))
    p = count_paths(g, g.root, g.root, 7)
    for n in range(1, 8):
        assert enumerate_paths(g, g.root, g.root, n, 10 ** 6) == p[n]
