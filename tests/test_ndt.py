import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rigidpack import (
    ConditionReport,
    Decomposition,
    GraphInputError,
    Multigraph,
    PebbleGame,
    check_kwz_condition,
    degree_bound,
    degree_bound_floor,
    graphic_rank,
    ndt_decompose,
    verify_decomposition,
)
from rigidpack.certificates import decomposition_payload
from rigidpack.ndt import _capped_forest

import corpus
import oracles


def is_forest(G, F):
    """F (distinct ids) is a forest iff its graphic rank is |F|."""
    return graphic_rank(G, F).rank == len(F)


def test_degree_bound_values():
    assert degree_bound(6) == Fraction(7, 3)
    assert degree_bound_floor(6) == 2
    assert degree_bound_floor(4) == 1
    assert degree_bound_floor(3) == 0
    assert degree_bound_floor(2) == 0  # clamped; remainder is forced empty anyway


def test_kwz_condition_examples():
    report = check_kwz_condition(corpus.triangle(), 1, 2)
    assert report.holds
    # single-vertex subsets always satisfy (k+1)(k+d) - k^2 >= 0
    assert check_kwz_condition(Multigraph(1), 2, 3).holds
    with pytest.raises(GraphInputError):
        check_kwz_condition(corpus.triangle(), 1, 1)  # needs d >= k + 1


def test_kwz_condition_matches_oracle():
    for G in corpus.random_corpus(20, seed=51, n_range=(2, 6), m_max=12):
        for k, d in ((1, 2), (1, 3), (2, 4)):
            assert check_kwz_condition(G, k, d).holds == oracles.kwz_def(G, k, d)


def test_kwz_holds_for_sparse_graphs_at_the_lemma_bound():
    # The exact bound d = (2n-5)/3 is required: sparsity gives
    # 3d - 2|X| + 5 >= 0 only for the fractional value (a tight sparse
    # graph on 6 vertices already fails at X = V with d = floor(7/3)).
    for seed in range(10):
        for n in (6, 7, 8):
            H = corpus.random_sparse_graph(n, seed=100 + seed)
            assert check_kwz_condition(H, 1, degree_bound(n)).holds


def test_sparse_to_two_forests_triangle():
    cover = ndt_decompose(corpus.triangle(), 0, 2)
    assert cover.forest_classes() == (frozenset({0, 1}), frozenset({2}))
    assert not cover.bounded_classes()


def test_sparse_to_two_forests_single_edge_and_k33():
    cover = ndt_decompose(corpus.single_edge(), 0, 2)
    assert cover.forest_classes() == (frozenset({0}), frozenset())
    G = corpus.k33()
    f1, f2 = ndt_decompose(G, 0, 2).forest_classes()
    assert f1 | f2 == frozenset(range(9)) and not f1 & f2
    assert is_forest(G, f1) and is_forest(G, f2)


def test_sparse_to_two_forests_handles_disconnected_input():
    G = corpus.two_triangles_disjoint()
    f1, f2 = ndt_decompose(G, 0, 2).forest_classes()
    assert f1 | f2 == frozenset(range(6))
    assert is_forest(G, f1) and is_forest(G, f2)


def test_sparse_to_two_forests_rejects_non_sparse():
    report = ndt_decompose(corpus.k4(), 0, 2)
    assert report == ConditionReport("sparse-cover", {"k": 1}, False, frozenset(range(4)))


def test_two_forest_split_total_on_sparse_corpus():
    # sparse inputs always split, full-size or not, connected or not
    for seed in range(12):
        for n in (4, 5, 6, 7):
            H = corpus.random_sparse_graph(n, seed=300 + seed, full=seed % 2 == 0)
            f1, f2 = ndt_decompose(H, 0, 2).forest_classes()
            assert f1 | f2 == frozenset(range(H.m)) and not f1 & f2
            assert is_forest(H, f1) and is_forest(H, f2)


def test_forest_plus_bounded_k4_minus_edge():
    G = corpus.k4_minus_edge()
    cover = ndt_decompose(G, 0, 1)
    assert isinstance(cover, Decomposition)
    (forest,), (rest,) = cover.forest_classes(), cover.bounded_classes()
    assert is_forest(G, forest)
    assert max(G.subgraph_of(rest).degrees()) <= 1


def test_forest_plus_bounded_triangle_provably_impossible():
    report = ndt_decompose(corpus.triangle(), 0, 1)
    assert report == ConditionReport("forest-plus-bounded", {"k": 0, "l": 1}, False,
                                     frozenset(range(3)))


def _assert_valid_split(H, cover):
    assert cover.l == cover.bounded == 1, (H, cover)
    assert oracles.cover_verdict(H, cover) == (True, None), (H, cover)


def test_forest_plus_bounded_path_trivial():
    G = corpus.path(6)
    _assert_valid_split(G, ndt_decompose(G, 0, 1))


def test_forest_plus_bounded_search_matches_recursive_reference():
    # A split exists exactly when the exhaustive search finds one, on sparse
    # graphs with and without splits.
    graphs = [corpus.triangle(), corpus.k4_minus_edge(), corpus.path(5), corpus.k33()]
    graphs += [corpus.random_sparse_graph(n, seed=s, full=f)
               for n in range(3, 10) for s in range(4) for f in (True, False)]
    for H in graphs:
        result = ndt_decompose(H, 0, 1)
        found = isinstance(result, Decomposition)
        assert found == (oracles.forest_plus_bounded_reference(H) is not None), H
        if found:
            _assert_valid_split(H, result)
        else:
            assert result.condition == "forest-plus-bounded"


@st.composite
def _sparse_graphs(draw):
    # The pebble game keeps what it accepts of a drawn pair sequence, in
    # the drawn order, so edge ids are not sorted by endpoint.
    n = draw(st.integers(1, 9))
    pairs = list(itertools.combinations(range(n), 2))
    order = draw(st.permutations(pairs))
    kept = draw(st.integers(0, len(pairs)))
    game = PebbleGame(n)
    return Multigraph(n, tuple(p for p in order[:kept] if game.try_insert(*p)))


@settings(max_examples=300, deadline=None, database=None)
@given(H=_sparse_graphs())
def test_forest_plus_bounded_exists_iff_the_reference_finds_one(H):
    result = ndt_decompose(H, 0, 1)
    found = isinstance(result, Decomposition)
    assert found == (oracles.forest_plus_bounded_reference(H) is not None)
    if found:
        _assert_valid_split(H, result)
    else:
        assert result.condition == "forest-plus-bounded"


def test_forest_plus_bounded_always_exists_from_n6():
    # the guarantee behind the pipeline, checked exhaustively on sparse graphs
    for seed in range(8):
        for n in (6, 7, 8):
            H = corpus.random_sparse_graph(n, seed=200 + seed, full=seed % 2 == 0)
            assert isinstance(ndt_decompose(H, 0, 1), Decomposition)
            assert oracles.bounded_split_exists_def(H, degree_bound_floor(n))


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_capped_forest_is_exact(data):
    # The matroid-intersection step on its own, on instances where taking
    # edges greedily can block a later head: a forest S plus exactly cap[v]
    # edges at each head v is found exactly when one exists.
    n = data.draw(st.integers(2, 7))
    pairs = data.draw(st.permutations(list(itertools.combinations(range(n), 2))))
    G = Multigraph(n, tuple(pairs[: data.draw(st.integers(1, min(len(pairs), 12)))]))
    high = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))
    S = [e for e, (u, v) in enumerate(G.edges) if u in high and v in high]
    S = [e for e in S if data.draw(st.booleans())]
    assume(is_forest(G, S))
    head = {e: u if u in high else v for e, (u, v) in enumerate(G.edges)
            if (u in high) != (v in high)}
    cap = [data.draw(st.integers(0, 3)) if v in high else 0 for v in range(n)]
    got = _capped_forest(G, S, head, cap)
    assert (got is not None) == oracles.capped_forest_exists_def(G, S, head, cap)
    if got is not None:
        assert is_forest(G, set(S) | got)
        assert all(sum(head[e] == v for e in got) == cap[v] for v in range(n))


def test_ndt_triangle_two_forests():
    result = ndt_decompose(corpus.triangle(), 0, 2)
    assert isinstance(result, Decomposition)
    assert result.l == 2 and not result.bounded
    assert oracles.cover_verdict(corpus.triangle(), result) == (True, None)


def test_ndt_k4_two_forests_two_bounded():
    G = corpus.k4()
    result = ndt_decompose(G, 1, 2)
    assert isinstance(result, Decomposition)
    assert result.l == 2 and result.bounded == 2
    ok, reason = oracles.cover_verdict(G, result)
    assert ok, reason


def test_ndt_k4_fails_for_k0():
    result = ndt_decompose(corpus.k4(), 0, 1)
    assert isinstance(result, ConditionReport)
    assert not result.holds
    X = result.witness
    assert oracles.induced(corpus.k4(), range(6), X) > 2 * len(X) - 3


def test_ndt_parameter_range():
    with pytest.raises(GraphInputError):
        ndt_decompose(corpus.k4(), 1, 1)  # l < k + 1
    with pytest.raises(GraphInputError):
        ndt_decompose(corpus.k4(), 1, 5)  # l > 2k + 2


def test_ndt_small_graph_may_fail_on_forest_plus_bounded():
    # the triangle with k=0, l=1 needs a forest + empty remainder: impossible
    result = ndt_decompose(corpus.triangle(), 0, 1)
    assert isinstance(result, ConditionReport)
    assert result.condition == "forest-plus-bounded"


def test_ndt_pipeline_on_bounded_density_corpus():
    for k in (0, 1):
        graphs = corpus.connected_gamma2_bounded(6, k + 1, seed=52, n_range=(6, 8))
        for G in graphs:
            for l in range(k + 1, 2 * k + 3):
                result = ndt_decompose(G, k, l)
                assert isinstance(result, Decomposition), (G, k, l)
                ok, reason = oracles.cover_verdict(G, result)
                assert ok, reason
                assert result.l == l
                assert result.bounded == 2 * k + 2 - l


def test_verify_bounded_cover_rejects_bad_parts():
    G = corpus.triangle()
    result = ndt_decompose(G, 0, 2)
    f1, f2 = (sorted(f) for f in result.forest_classes())

    def claim(forests, **fields):
        colour = {e: c for c, part in enumerate(forests, 1) for e in part}
        dec = Decomposition(0, 2, tuple(colour.get(e, 0) for e in range(G.m)))
        payload = {**decomposition_payload(dec), **fields}
        return oracles.claim_verdict(G, "ndt", {"k": 0, "l": 2}, payload)

    assert claim([f1, f2]) == (True, None)
    # a "cover" that drops an edge
    assert claim([f1, []]) == (False, f"the split covers {len(f1)} edges, expected 3")
    # a "forest" with a cycle
    assert claim([[0, 1, 2], []]) == (False, "class 1 is not a forest")
    # a bounded class count that is not 2k + 2 - l
    assert claim([f1, f2], bounded=1) == (False, "payload is not the encoding of its claim")
    # n = 6, bound 2: a path and the chord 1-3.  Vertex 3 ends the path
    # edge 2-3 and the chord and starts 3-4, so a part holding all three
    # has degree 3 there; the path alone has degree 2, and G degree 3.
    G = Multigraph(6, corpus.path(6).edges + ((1, 3),))
    path_ids, chord = frozenset(range(5)), frozenset({5})

    def split(forests, bounded):
        colour = {e: c for c, part in enumerate(forests + bounded, 1) for e in part}
        dec = Decomposition(0, len(forests), tuple(colour.get(e, 0) for e in range(G.m)),
                            len(bounded))
        return verify_decomposition(G, dec)

    assert split([chord], [path_ids]) == (True, None)
    assert split([], [path_ids | chord]) == (False, "class 1 exceeds max degree 2")
    assert split([], [frozenset({4}), frozenset(range(4)) | chord]) == (
        False, "class 2 exceeds max degree 2")


def test_ndt_splits_the_union_classes_with_no_second_sparsity_game(monkeypatch):
    # The union held each sparse class in a live (2,3) game, so ndt splits
    # them unchecked: it opens no (2,3) game past the union's k + 1 classes.
    games = []
    init = PebbleGame.__init__

    def counting_init(self, n, a=2, b=3, w=1):
        games.append((a, b, w))
        init(self, n, a, b, w)

    for n, seed in ((8, 60), (10, 61), (12, 62)):
        edges = corpus.random_sparse_graph(n, seed).edges + corpus.random_sparse_graph(n, seed + 1).edges
        G = Multigraph(n, edges[2:])
        for l in (2, 3, 4):
            games.clear()
            with monkeypatch.context() as patch:
                patch.setattr(PebbleGame, "__init__", counting_init)
                result = ndt_decompose(G, 1, l)
            assert 0 < games.count((2, 3, 1)) <= 2, (n, l, games)
            assert isinstance(result, Decomposition), (n, l)
            assert oracles.cover_verdict(G, result) == (True, None)
            assert result.l == l
    # A graph that is not sparse is reported at k = 0, with the same X.
    for l in (1, 2):
        report = ndt_decompose(corpus.k4(), 0, l)
        assert report == ConditionReport("sparse-cover", {"k": 1}, False, frozenset(range(4)))
