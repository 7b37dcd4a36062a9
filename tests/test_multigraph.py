import copy
import pickle

import pytest

from rigidpack import (
    Decomposition,
    GraphInputError,
    Multigraph,
    Partition,
    adjacent_number,
    cross_edge_count,
    format_graph,
    induced_edge_count,
    parse_graph,
    random_multigraph,
)

import corpus
import oracles


def test_loops_rejected():
    with pytest.raises(GraphInputError):
        Multigraph(3, ((0, 0),))


def test_out_of_range_endpoint_rejected():
    with pytest.raises(GraphInputError):
        Multigraph(3, ((0, 3),))


@pytest.mark.parametrize("pair", [(0, 1.5), (0.0, 1), ("0", 1), (True, 2), (0, False)])
def test_non_integer_endpoint_rejected(pair):
    with pytest.raises(GraphInputError):
        Multigraph(3, (pair,))


def test_edges_normalized_and_ids_stable():
    G = Multigraph(3, ((2, 0), (1, 0)))
    assert G.edges == ((0, 2), (0, 1))
    assert G.edges[1] == (0, 1)


def test_multiplicity():
    # The oracle helper that acceptance criterion 5 filters its corpus by.
    assert oracles.multiplicity(corpus.triangle()) == 1
    assert oracles.multiplicity(corpus.double_edge()) == 2
    assert oracles.multiplicity(Multigraph(2)) == 0


def test_induced_edge_count_examples():
    tri = corpus.triangle()
    assert induced_edge_count(tri, {0, 1, 2}) == 3
    assert induced_edge_count(tri, {0, 1}) == 1
    assert induced_edge_count(corpus.double_edge(), {0, 1}) == 2


def test_induced_edge_count_rejects_bad_vertex():
    with pytest.raises(GraphInputError):
        induced_edge_count(corpus.triangle(), {0, 7})


def test_cross_edge_count_examples():
    tri = corpus.triangle()
    singletons = Partition((frozenset({0}), frozenset({1}), frozenset({2})))
    assert cross_edge_count(tri, singletons) == 3
    halves = Partition((frozenset({0, 1}), frozenset({2, 3})))
    assert cross_edge_count(corpus.k4(), halves) == 4
    p3 = corpus.path(3)
    assert cross_edge_count(p3, Partition((frozenset({0, 2}), frozenset({1})))) == 2
    with pytest.raises(GraphInputError, match="partition vertex 3 out of range 0..2"):
        cross_edge_count(tri, Partition((frozenset({0, 1}), frozenset({2, 3}))))


def test_overlapping_blocks_rejected():
    with pytest.raises(GraphInputError):
        Partition((frozenset({0, 1}), frozenset({1, 2})))


def test_empty_block_rejected():
    with pytest.raises(GraphInputError):
        Partition((frozenset(),))


def test_records_compare_hash_and_print_by_their_normalized_fields():
    G = Multigraph(3, [(1, 0)])
    assert G == Multigraph(3, ((0, 1),)) == Multigraph(n=3, edges=iter([(0, 1)]))
    assert hash(G) == hash(Multigraph(3, ((0, 1),)))
    assert G != Multigraph(4, ((0, 1),)) and G != Multigraph(3, ((0, 1), (0, 1)))
    assert G != (3, ((0, 1),)) and len({G, Multigraph(3, ((0, 1),))}) == 1
    assert repr(G) == "Multigraph(n=3, edges=((0, 1),))"
    assert Multigraph(2) == Multigraph(2, ()) and Multigraph(2).edges == ()
    pi = Partition([{1, 0}, [2]])
    assert pi == Partition(blocks=(frozenset({0, 1}), frozenset({2})))
    assert hash(pi) == hash(Partition((frozenset({0, 1}), frozenset({2}))))
    assert pi != Partition(([2], [0, 1]))  # block order is part of the value
    assert repr(pi) == "Partition(blocks=(frozenset({0, 1}), frozenset({2})))"
    for record in (G, pi):
        assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))
    with pytest.raises(AttributeError):
        G.n = 4
    with pytest.raises(AttributeError):
        G.edges = ()
    with pytest.raises(AttributeError):
        del G.edges
    with pytest.raises(AttributeError):
        pi.blocks = ()
    with pytest.raises(AttributeError):
        pi.extra = 1
    assert G.n == 3 and G.edges == ((0, 1),) and len(pi) == 2
    for bad in (lambda: Multigraph(-1), lambda: Multigraph(2, [(0,)]), lambda: Multigraph(2, [5]),
                lambda: Partition([[0], []]), lambda: Partition([[0, 1], [1]])):
        with pytest.raises(GraphInputError):
            bad()


def test_trivial_count():
    pi = Partition((frozenset({0, 1}), frozenset({2}), frozenset({3})))
    assert pi.trivial_count == 2
    assert len(pi) == 3
    assert pi.ground == frozenset({0, 1, 2, 3})


def test_adjacent_number_star():
    G = corpus.star(3)  # centre 0, leaves 1..3
    singles = Partition((frozenset({1}), frozenset({2}), frozenset({3})))
    assert adjacent_number(G, {0}, singles) == 3
    merged = Partition((frozenset({1, 2, 3}),))
    assert adjacent_number(G, {0}, merged) == 1


def test_adjacent_number_triangle():
    tri = corpus.triangle()
    pi = Partition((frozenset({0}), frozenset({1})))
    assert adjacent_number(tri, {2}, pi) == 2


def test_adjacent_number_parallel_edges_count_once():
    G = Multigraph(3, ((0, 1), (0, 1), (0, 2)))
    pi = Partition((frozenset({1}), frozenset({2})))
    assert adjacent_number(G, {0}, pi) == 2


def test_adjacent_number_rejects_overlap():
    tri = corpus.triangle()
    with pytest.raises(GraphInputError):
        adjacent_number(tri, {0}, Partition((frozenset({0}), frozenset({1, 2}))))
    with pytest.raises(GraphInputError):
        adjacent_number(tri, {0}, Partition((frozenset({1}),)))


def test_adjacent_number_monotone_under_refinement():
    # Merging two blocks of any partition can only lower the adjacent number.
    from oracles import enumerate_partitions

    for G in corpus.random_corpus(15, seed=5, n_range=(3, 5)):
        Z = frozenset({0})
        rest = set(range(G.n)) - Z
        for pi in enumerate_partitions(rest):
            if len(pi) < 2:
                continue
            fine = adjacent_number(G, Z, pi)
            merged = Partition((pi.blocks[0] | pi.blocks[1],) + pi.blocks[2:])
            assert fine >= adjacent_number(G, Z, merged)


def test_induced_count_bounded_by_multiplicity():
    from math import comb

    from oracles import enumerate_vertex_subsets

    for G in corpus.random_corpus(20, seed=7, n_range=(2, 5), mult_max=3):
        mult = oracles.multiplicity(G)
        for X in enumerate_vertex_subsets(G, 0):
            assert 0 <= induced_edge_count(G, X) <= mult * comb(len(X), 2)


def test_cross_plus_induced_identity():
    from oracles import enumerate_partitions

    for G in corpus.random_corpus(20, seed=6, n_range=(2, 5)):
        for pi in enumerate_partitions(G.vertices()):
            inside = sum(induced_edge_count(G, b) for b in pi)
            assert cross_edge_count(G, pi) + inside == G.m
        # partitions of a proper subset: edges leaving the ground are ignored
        if G.n >= 3:
            ground = set(range(G.n - 1))
            for pi in enumerate_partitions(ground):
                inside = sum(induced_edge_count(G, b) for b in pi)
                assert cross_edge_count(G, pi) + inside == induced_edge_count(G, ground)


def test_random_multigraph_deterministic():
    a = random_multigraph(5, 8, 2, seed=42)
    b = random_multigraph(5, 8, 2, seed=42)
    assert a == b
    assert a.m == 8 and oracles.multiplicity(a) <= 2


def test_random_multigraph_forced_k4():
    G = random_multigraph(4, 6, 1, seed=7)
    assert sorted(G.edges) == sorted(corpus.k4().edges)


def test_random_multigraph_infeasible():
    with pytest.raises(GraphInputError):
        random_multigraph(2, 3, 2, seed=1)
    for n, m in ((-1, 0), (3, -1)):
        with pytest.raises(GraphInputError, match="n and m must be non-negative"):
            random_multigraph(n, m)


def test_random_multigraph_matches_the_slot_list_reference():
    # Every seeded graph is the one sampled from the materialised slot list.
    for n in (0, 1, 2, 3, 7, 12):
        for mult in (1, 2, 5):
            total = n * (n - 1) // 2 * mult
            for m in sorted({0, 1, total // 3, total // 2, total, total + 1}):
                for seed in (0, 1, 99):
                    expected = oracles.random_multigraph_reference(n, m, mult, seed)
                    if expected is None:
                        with pytest.raises(GraphInputError):
                            random_multigraph(n, m, mult, seed)
                    else:
                        assert random_multigraph(n, m, mult, seed) == expected, (n, m, mult, seed)


def test_parse_and_format_round_trip():
    text = "4 3\n0 1\n1 2\n3 2\n"
    G = parse_graph(text)
    assert G.n == 4 and G.m == 3
    assert parse_graph(format_graph(G)) == G


@pytest.mark.parametrize(
    "bad,fragment",
    [
        ("", "line 1"),
        ("2\n", "header"),
        ("2 x\n", "integers in header"),
        ("2 1\n", "1 edges"),
        ("2 1\n0 0\n", "loops"),
        ("2 1\n0 5\n", "out of range"),
        ("2 1\n0 x\n", "integer"),
    ],
)
def test_parse_errors_carry_line_info(bad, fragment):
    with pytest.raises(GraphInputError) as exc:
        parse_graph(bad)
    assert fragment in str(exc.value)


def test_edge_parts_error_is_the_one_disjointness_check_of_both_verifiers():
    # A split states one colour per edge, so no edge lies in two classes and
    # no edge id is written.  A forged pack or ndt assignment is refused by
    # verify_decomposition's length and colour checks, or by the number of
    # edges its command's split covers.
    G = corpus.triangle()

    def pack(l, colours):  # l spanning trees
        return oracles.packing_verdict(G, Decomposition(0, l, tuple(colours)))

    def cover(colours):  # ndt --k 0 --l 1: a forest and a bounded class
        return oracles.cover_verdict(G, Decomposition(0, 1, tuple(colours), 1))

    assert pack(1, [1, 1, 0]) == (True, None)
    assert pack(1, [1, 0]) == (False, "assignment length does not match edge count")
    assert pack(1, [1, -1, 1]) == (False, "assignment uses an out-of-range colour")
    assert pack(1, [1, True, 0]) == (False, "assignment uses an out-of-range colour")
    assert pack(1, [1, 0, 0]) == (False, "the split covers 1 edges, expected 2")
    assert cover([1, 1, 3]) == (False, "assignment uses an out-of-range colour")
    assert cover([1, 1, 0]) == (False, "the split covers 2 edges, expected 3")
    assert cover([1, 1, 1]) == (False, "class 1 is not a forest")
    assert cover([1, 1, 2]) == (False, "class 2 exceeds max degree 0")
