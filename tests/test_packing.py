import time

import pytest

from rigidpack import (
    ConditionReport,
    Decomposition,
    GraphInputError,
    Multigraph,
    format_graph,
    check_necessary_condition,
    check_parthm_condition,
    is_pq_connected,
    pack_rigid_and_trees,
)

from rigidpack.cli import main

import corpus
import oracles


def _pack_claim(G, k, l, rigid_parts, tree_parts):
    """The verdict on a pack claim of these classes, written as one
    colouring: an edge in two parts keeps the later one's colour."""
    colour = [0] * G.m
    for c, part in enumerate(rigid_parts + tree_parts, 1):
        for e in part:
            colour[e] = c
    return oracles.packing_verdict(G, Decomposition(k, l, tuple(colour)))


def test_tree_itself_is_its_packing():
    G = corpus.path(5)
    result = pack_rigid_and_trees(G, 0, 1)
    assert isinstance(result, Decomposition)
    assert result.forest_classes() == (frozenset(range(4)),)
    assert oracles.packing_verdict(G, result) == (True, None)


def test_k4_two_spanning_trees():
    G = corpus.k4()
    result = pack_rigid_and_trees(G, 0, 2)
    assert isinstance(result, Decomposition)
    assert len(result.forest_classes()) == 2
    ok, reason = oracles.packing_verdict(G, result)
    assert ok, reason


def test_cycle_cannot_pack_two_trees():
    result = pack_rigid_and_trees(corpus.cycle(4), 0, 2)
    assert isinstance(result, ConditionReport)
    assert not result.holds
    pi = result.witness
    assert oracles.cross(corpus.cycle(4), [sorted(b) for b in pi]) < 2 * (len(pi) - 1)


def test_pack_triangle_single_rigid():
    G = corpus.triangle()
    result = pack_rigid_and_trees(G, 1, 0)
    assert isinstance(result, Decomposition)
    assert result.sparse_classes() == (frozenset(range(3)),)
    assert oracles.packing_verdict(G, result) == (True, None)


def test_pack_k5_spanning_minimally_rigid():
    G = corpus.k5()
    result = pack_rigid_and_trees(G, 1, 0)
    assert isinstance(result, Decomposition)
    (part,) = result.sparse_classes()
    assert len(part) == 7  # 2*5 - 3
    ok, reason = oracles.packing_verdict(G, result)
    assert ok, reason


def test_pack_bowtie_fails():
    # Every edge fits one sparse class, so F is empty and the bound is m.
    result = pack_rigid_and_trees(corpus.bowtie(), 1, 0)
    assert isinstance(result, ConditionReport) and result.condition == "packing"
    assert (result.holds, result.witness) == (False, frozenset())
    assert oracles.certified(corpus.bowtie(), result)[4:] == ("edge-set", 6, 7)


def test_pack_parameter_validation(tmp_path):
    # k = 0 packs trees only, so (0, 1) packs and (0, 0) asks for nothing.
    assert isinstance(pack_rigid_and_trees(corpus.triangle(), 0, 1), Decomposition)
    with pytest.raises(GraphInputError):
        pack_rigid_and_trees(corpus.triangle(), 0, 0)
    # Every k needs two vertices; one vertex would pack any l empty trees.
    for G in (Multigraph(0), Multigraph(1)):
        for k, l in ((0, 1), (1, 0), (0, 10**9)):
            with pytest.raises(GraphInputError, match="need at least two vertices"):
                pack_rigid_and_trees(G, k, l)
    gfile, out = tmp_path / "one.txt", tmp_path / "cert.json"
    gfile.write_text(format_graph(Multigraph(1)))
    start = time.perf_counter()
    assert main(["pack", str(gfile), "--k", "0", "--l", "1000000000", "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    assert not out.exists()


def test_verify_packing_rejects_overlap_and_cycles():
    G = corpus.k4()
    packing = pack_rigid_and_trees(G, 0, 2)
    assert isinstance(packing, Decomposition)
    t1, t2 = (sorted(t) for t in packing.forest_classes())
    # Two trees cannot share edges: each edge has one colour, so the second
    # copy takes them all and the packing falls short.
    assert _pack_claim(G, 0, 2, [], [t1, t1]) == (False, "the split covers 3 edges, expected 6")

    # n - 1 edges containing a cycle is not a spanning tree
    assert _pack_claim(G, 0, 1, [], [[0, 1, 3]]) == (  # 01, 02, 12 in K4 ids
        False, "class 1 is not a forest")


def test_verify_packing_rejects_wrong_sizes():
    G = corpus.k4()
    assert _pack_claim(G, 1, 0, [[0, 1]], []) == (False, "the split covers 2 edges, expected 5")
    # 2n - 3 = 7 edges of K5 that hold a K4: the right size, not sparse
    k4_in_k5 = [0, 1, 2, 4, 5, 7]  # the pairs of {0, 1, 2, 3}
    assert _pack_claim(corpus.k5(), 1, 0, [sorted(k4_in_k5 + [3])], []) == (
        False, "class 1 is not (2,3)-sparse")


def test_tree_packing_iff_partition_condition():
    for G in corpus.random_corpus(40, seed=31, n_range=(1, 6), m_max=12):
        for l in (1, 2):
            if G.n < 2:
                with pytest.raises(GraphInputError, match="need at least two vertices"):
                    pack_rigid_and_trees(G, 0, l)
                continue
            result = pack_rigid_and_trees(G, 0, l)
            packed = isinstance(result, Decomposition)
            assert packed == oracles.tree_packing_def(G, l)
            if packed:
                ok, reason = oracles.packing_verdict(G, result)
                assert ok, reason


def test_partition_connectivity_implies_packing():
    # [3k+l, k]-partition-connected (or (6k+2l, 2k)-connected) graphs with
    # multiplicity at most k pack k rigid spanning subgraphs and l trees
    import itertools

    from rigidpack import Multigraph, is_bracket_partition_connected, is_pq_connected

    k7 = Multigraph(7, tuple(itertools.combinations(range(7), 2)))
    dk6 = Multigraph(6, tuple(p for p in itertools.combinations(range(6), 2) for _ in range(2)))
    graphs = corpus.connected_corpus(15, seed=33, n_range=(3, 6), m_max=12, mult_max=2)
    graphs += [corpus.k4(), k7, dk6]
    hits = 0
    for G in graphs:
        for k, l in ((1, 0), (1, 1), (2, 0)):
            if oracles.multiplicity(G) > k:
                continue
            bracket = is_bracket_partition_connected(G, 3 * k + l, k)
            if is_pq_connected(G, 6 * k + 2 * l, 2 * k):
                assert bracket  # the stronger hypothesis implies the weaker
            if bracket:
                hits += 1
                result = pack_rigid_and_trees(G, k, l)
                assert isinstance(result, Decomposition), (G, k, l)
                assert oracles.packing_verdict(G, result)[0]
    assert hits >= 2  # K7 at (1,0) and doubled K6 at (2,0) at least


def test_parthm_implies_packing_and_packing_implies_necessary():
    interesting = 0
    for G in corpus.connected_corpus(50, seed=32, n_range=(3, 6), m_max=12, mult_max=2):
        for k, l in ((1, 0), (1, 1), (2, 0)):
            if oracles.multiplicity(G) > k:
                continue
            sufficient = check_parthm_condition(G, k, l)
            result = pack_rigid_and_trees(G, k, l)
            packed = isinstance(result, Decomposition)
            if sufficient.holds:
                interesting += 1
                assert packed, (G, k, l)
                assert oracles.packing_verdict(G, result)[0]
            if packed:
                assert check_necessary_condition(G, k, l).holds
    assert interesting > 0


def _cycle_union(n, multipliers):
    """Hamiltonian cycles i -> i + c (mod n), one for each multiplier c:
    a 2|multipliers|-regular simple graph for prime n >= 2 max(c) + 1."""
    return Multigraph(n, tuple((c * i % n, c * (i + 1) % n) for c in multipliers for i in range(n)))


@pytest.mark.parametrize("n, multipliers, k, l", [
    (7, (1, 2, 3), 1, 0), (11, (1, 2, 3), 1, 0), (13, (1, 2, 3), 1, 0),
    (11, (1, 2, 3, 4), 1, 1), (13, (1, 2, 3, 4), 1, 1),
])
def test_pq_connected_cycle_unions_pack(n, multipliers, k, l):
    # The paper's corollary, the multigraph form of Cheriyan, Durand de
    # Gevigney and Szigeti: a (6k + 2l, 2k)-connected multigraph packs k
    # spanning rigid subgraphs and l spanning trees.
    G = _cycle_union(n, multipliers)
    assert oracles.multiplicity(G) == 1
    assert is_pq_connected(G, 6 * k + 2 * l, 2 * k)
    result = pack_rigid_and_trees(G, k, l)
    assert isinstance(result, Decomposition)
    assert oracles.packing_verdict(G, result) == (True, None)
