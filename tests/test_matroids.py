import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidpack import (
    Multigraph,
    graphic_rank,
    rigidity_rank,
)
from rigidpack.matroids import PebbleGame, pebble_rejections

import corpus
import oracles


def test_graphic_independent_examples():
    # F is independent iff its rank is |F|.
    tri = corpus.triangle()
    assert graphic_rank(tri, {0, 1}).rank == 2
    assert graphic_rank(tri, {0, 1, 2}).rank < 3
    assert graphic_rank(corpus.double_edge(), {0, 1}).rank < 2


def test_graphic_rank_examples():
    assert graphic_rank(corpus.triangle(), range(3)).rank == 2
    assert graphic_rank(Multigraph(5), ()).rank == 0
    assert graphic_rank(corpus.k4(), range(6)).rank == 3


def test_graphic_rank_basis_is_spanning_forest():
    for G in corpus.random_corpus(30, seed=11):
        res = graphic_rank(G, range(G.m))
        assert graphic_rank(G, res.basis).rank == len(res.basis) == res.rank
        assert res.rank == oracles.graphic_rank_def(G, range(G.m))


def test_sparse_independent_examples():
    # F is independent iff its rank is |F|; the violator of a dependent
    # graph is the closure of the (2,3) game's first rejection.
    tri = corpus.triangle()
    assert rigidity_rank(tri, range(3)).rank == 3
    assert next(pebble_rejections(tri, 2, 3), None) is None

    assert rigidity_rank(corpus.k4(), range(6)).rank < 6
    assert next(pebble_rejections(corpus.k4(), 2, 3)) == (5, frozenset(range(4)))  # 6 > 2*4 - 3

    assert rigidity_rank(corpus.k33(), range(9)).rank == 9


def test_sparse_bruteforce_examples():
    assert oracles.sparse_independent_bruteforce(corpus.single_edge(), {0})
    assert oracles.sparse_independent_bruteforce(corpus.cycle(4), range(4))
    assert not oracles.sparse_independent_bruteforce(corpus.double_edge(), range(2))


def test_rigidity_rank_examples():
    assert rigidity_rank(corpus.triangle(), range(3)).rank == 3
    assert rigidity_rank(corpus.k4(), range(6)).rank == 5
    assert rigidity_rank(corpus.bowtie(), range(6)).rank == 6


def test_rigidity_rank_basis_is_sparse():
    for G in corpus.random_corpus(40, seed=12):
        res = rigidity_rank(G, range(G.m))
        assert rigidity_rank(G, res.basis).rank == len(res.basis) == res.rank


def is_rigid(G):
    """Rigidity rank 2n - 3: some edge subset is a spanning minimally rigid
    subgraph."""
    return rigidity_rank(G, range(G.m)).rank == 2 * G.n - 3


def test_rigid_flags():
    def minimally_rigid(G):
        return is_rigid(G) and G.m == 2 * G.n - 3

    graphs = (corpus.triangle(), corpus.k33(), corpus.k4(), corpus.cycle(4), corpus.bowtie())
    for G in graphs:
        assert is_rigid(G) == (oracles.max_sparse_subset_size(G, range(G.m)) == 2 * G.n - 3)
    assert is_rigid(corpus.triangle()) and minimally_rigid(corpus.triangle())
    assert minimally_rigid(corpus.k33())
    assert is_rigid(corpus.k4()) and not minimally_rigid(corpus.k4())
    assert not is_rigid(corpus.cycle(4))
    assert not is_rigid(corpus.bowtie())


def test_pebble_agrees_with_definition_small():
    # exhaustive over all simple graphs on 4 vertices and all subsets
    for G in corpus.all_simple_graphs(4):
        for r in range(G.m + 1):
            for F in itertools.combinations(range(G.m), r):
                assert (rigidity_rank(G, F).rank == len(F)) == oracles.sparse_by_def(G, F)


def test_pebble_witness_is_definitional_violator():
    for G in corpus.random_corpus(60, seed=13):
        rejected = next(pebble_rejections(G, 2, 3), None)
        assert (rejected is None) == (rigidity_rank(G, range(G.m)).rank == G.m)
        if rejected is None:
            continue
        witness = rejected[1]
        assert len(witness) >= 2
        assert oracles.induced(G, range(G.m), witness) > 2 * len(witness) - 3


def test_rank_axioms_spot_checks():
    rng = random.Random(14)
    for G in corpus.random_corpus(25, seed=14, n_range=(3, 6)):
        assert rigidity_rank(G, ()).rank == 0
        assert graphic_rank(G, ()).rank == 0
        edges = list(range(G.m))
        if not edges:
            continue
        # unit increase
        F = rng.sample(edges, rng.randint(0, G.m - 1))
        e = rng.choice([x for x in edges if x not in F])
        for rank_fn in (rigidity_rank, graphic_rank):
            delta = rank_fn(G, F + [e]).rank - rank_fn(G, F).rank
            assert delta in (0, 1)
        # submodularity: r(A) + r(B) >= r(A|B) + r(A&B)
        A = frozenset(rng.sample(edges, rng.randint(0, G.m)))
        B = frozenset(rng.sample(edges, rng.randint(0, G.m)))
        for rank_fn in (rigidity_rank, graphic_rank):
            assert (
                rank_fn(G, A).rank + rank_fn(G, B).rank
                >= rank_fn(G, A | B).rank + rank_fn(G, A & B).rank
            )


def test_rank_upper_bounds():
    for G in corpus.random_corpus(30, seed=15, n_range=(2, 6)):
        F = range(G.m)
        assert rigidity_rank(G, F).rank <= min(G.m, max(0, 2 * G.n - 3))
        assert graphic_rank(G, F).rank <= min(G.m, max(0, G.n - 1))


def test_insertion_order_does_not_change_rank():
    rng = random.Random(16)
    for G in corpus.random_corpus(20, seed=16, n_range=(3, 6)):
        baseline = rigidity_rank(G, range(G.m)).rank
        for _ in range(5):
            order = list(range(G.m))
            rng.shuffle(order)
            game = PebbleGame(G.n)
            rank = sum(1 for e in order if game.try_insert(*G.edges[e]))
            assert rank == baseline


def test_rank_matches_collection_minimum_on_tiny_graphs():
    # the closed-form rank: min over collections covering F of sum(2|X|-3)
    for G in (corpus.triangle(), corpus.k4(), corpus.bowtie(), corpus.path(4)):
        assert rigidity_rank(G, range(G.m)).rank == oracles.collection_rank_min(G, range(G.m))


def test_parallel_edge_always_dependent():
    G = corpus.double_edge()
    assert rigidity_rank(G, range(2)).rank == 1
    assert list(pebble_rejections(G, 2, 3)) == [(1, frozenset({0, 1}))]


def test_rigid_graphs_are_two_connected():
    count = 0
    for G in corpus.random_corpus(80, seed=17, n_range=(3, 6)):
        if G.n >= 3 and is_rigid(G):
            count += 1
            assert oracles.two_connected_def(G)
    assert count > 0  # the corpus really exercises the property


@settings(max_examples=300, deadline=None, database=None)
@given(corpus.insert_remove_runs())
def test_pebble_remove_keeps_game_exact(run):
    # After every insert and removal the weighted game accepts exactly
    # what the count definition allows, each rejection's closure violates
    # the count, and the arcs are the held edges, w units each.
    n, (a, b, w), ops = run
    game = PebbleGame(n, a, b, w)
    held: list[tuple[int, int]] = []
    for op in ops:
        if op[0] == "insert":
            u, v = op[1]
            G = Multigraph(n, tuple(held) + ((u, v),))
            expected = oracles.count_sparse_def(G, range(G.m), a, b, w)
            assert game.try_insert(u, v) == expected
            if expected:
                held.append((u, v))
            else:
                X = game.last_witness()
                assert w * oracles.induced(G, range(G.m), X) > a * len(X) - b
        elif held:
            u, v = held.pop(op[1] % len(held))
            game.remove(u, v)
        for x in range(n):
            assert game.pebbles[x] + sum(game.out[x].values()) == a
        arcs = [tuple(sorted((x, y))) for x in range(n) for y, c in game.out[x].items()
                for _ in range(c)]
        assert sorted(arcs) == sorted(tuple(sorted(p)) for p in held for _ in range(w))


def test_pebble_remove_missing_edge_raises():
    game = PebbleGame(3)
    assert game.try_insert(0, 1)
    game.remove(1, 0)
    assert game.pebbles == [2, 2, 2]
    with pytest.raises(ValueError):
        game.remove(0, 1)


@settings(max_examples=300, deadline=None, database=None)
@given(corpus.insert_remove_runs())
def test_last_witness_is_the_reach_closure(run):
    # The witness read off the failed search's queue against a fresh
    # search of the orientation, after every rejected insert.
    n, (a, b, w), ops = run
    game = PebbleGame(n, a, b, w)
    held: list[tuple[int, int]] = []
    rejected = 0
    for op in ops:
        if op[0] == "insert":
            u, v = op[1]
            if game.try_insert(u, v):
                held.append((u, v))
            else:
                assert game.last_witness() == oracles.reach_closure(game, u, v)
                rejected += 1
        elif held:
            game.remove(*held.pop(op[1] % len(held)))
    if not rejected:
        assert game.last_witness() is None


@settings(max_examples=150, deadline=None, database=None)
@given(G=corpus.small_multigraphs(max_n=8), a=st.integers(1, 6), data=st.data())
def test_ab_pebble_game_matches_the_count_definition(G, a, data):
    # Each edge offered in order is accepted iff the accepted edges stay
    # (a,b)-sparse with it, and each rejection's closure X holds more than
    # a|X| - b of the accepted edges plus the rejected one.  Then half the
    # accepted edges are removed and the rejected ones offered again.
    b = data.draw(st.integers(0, 2 * a - 1), label="b")
    game = PebbleGame(G.n, a, b)
    accepted, rejected, closures = [], [], []

    def offer(e):
        u, v = G.edges[e]
        ok = game.try_insert(u, v)
        assert ok == oracles.count_sparse_def(G, accepted + [e], a, b), (e, a, b)
        if ok:
            accepted.append(e)
            return
        X = game.last_witness()
        assert u in X and v in X
        assert oracles.induced(G, accepted + [e], X) > a * len(X) - b
        rejected.append(e)
        closures.append((e, X))

    for e in range(G.m):
        offer(e)
    # Offered to a fresh game in one pass, the edges meet the same
    # rejections and closures.
    assert list(pebble_rejections(G, a, b)) == closures
    for e in data.draw(st.permutations(accepted), label="removals")[: len(accepted) // 2]:
        game.remove(*G.edges[e])
        accepted.remove(e)
    for x in range(G.n):
        assert game.pebbles[x] + sum(game.out[x].values()) == a
    again, rejected[:] = rejected[:], []
    for e in again:
        offer(e)


def test_ab_pebble_game_range():
    for a, b, w in ((1, -1, 1), (-1, 0, 1), (1, 1, 0)):
        with pytest.raises(ValueError):
            PebbleGame(3, a, b, w)
    # With b >= 2a, a|X| - b < 1 at |X| = 2, so the count definition
    # allows no edge: each is rejected and its closure is its endpoints.
    for a, b in ((0, 1), (1, 2), (2, 4)):
        game = PebbleGame(3, a, b)
        for u, v in ((0, 1), (1, 2), (0, 2)):
            assert not game.try_insert(u, v) and game.last_witness() == {u, v}
    # (0,0) accepts no edge; the closure is the edge's endpoints.
    game = PebbleGame(3, 0, 0)
    assert not game.try_insert(0, 2) and game.last_witness() == {0, 2}
    # (1,1) is the graphic matroid, (1,0) allows one cycle per component.
    assert PebbleGame(3, 1, 1).try_insert(0, 1)
    triangle = [(0, 1), (1, 2), (0, 2)]
    assert [e for e, _ in pebble_rejections(Multigraph(3, tuple(triangle)), 1, 1)] == [2]
    assert list(pebble_rejections(Multigraph(3, tuple(triangle)), 1, 0)) == []


@settings(max_examples=150, deadline=None, database=None)
@given(G=corpus.small_multigraphs(max_n=7), a=st.integers(0, 6), b=st.integers(0, 12),
       w=st.integers(1, 4))
def test_weighted_game_matches_the_weighted_count_definition(G, a, b, w):
    # Whatever a, b and w, an edge is accepted iff the accepted edges stay
    # within w i(X) <= a|X| - b with it, and each rejection's closure holds
    # its endpoints and more than a|X| - b weight of the accepted edges
    # plus the rejected one.
    rejections = list(pebble_rejections(G, a, b, w))
    closures = dict(rejections)
    accepted = []
    for e in range(G.m):
        if oracles.count_sparse_def(G, accepted + [e], a, b, w):
            assert e not in closures, (e, a, b, w)
            accepted.append(e)
            continue
        X = closures[e]
        assert set(G.edges[e]) <= X
        assert w * oracles.induced(G, accepted + [e], X) > a * len(X) - b
    # Scaled by about 10^9, the game moves as many pebbles per pull and
    # gives the same answer.
    big = 10**9 + 7
    assert list(pebble_rejections(G, a * big, b * big, w * big)) == rejections
