import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rigidpack.packing as packing_mod
import rigidpack.union as union_mod
from rigidpack import (
    ConditionReport,
    Decomposition,
    GraphInputError,
    LimitExceededError,
    Multigraph,
    decompose,
    gamma2,
    graphic_rank,
    ndt_decompose,
    pack_rigid_and_trees,
    random_multigraph,
    rigidity_rank,
    union_rank,
    verify_decomposition,
)
from rigidpack.matroids import PebbleGame, pebble_rejections

import corpus
import oracles


def _check_classes(G, dec):
    assert dec.is_complete()
    ok, reason = verify_decomposition(G, dec)
    assert ok, reason


def test_union_rank_triangle_one_sparse_class():
    ur = union_rank(corpus.triangle(), 1, 0)
    assert ur.rank == 3
    assert ur.decomposition.assignment == (1, 1, 1)


def test_union_rank_k4_one_sparse_one_forest():
    G = corpus.k4()
    ur = union_rank(G, 1, 1)
    assert ur.rank == 6
    assert ur.decomposition.is_complete()
    _check_classes(G, ur.decomposition)


def test_union_rank_doubled_triangle_two_sparse():
    G = corpus.doubled_triangle()
    ur = union_rank(G, 2, 0)
    assert ur.rank == 6
    sparse_classes = ur.decomposition.sparse_classes()
    assert sorted(map(len, sparse_classes)) == [3, 3]
    _check_classes(G, ur.decomposition)


def test_union_rank_bruteforce_examples():
    assert oracles.union_rank_bruteforce(corpus.triangle(), 1, 0) == 3
    assert oracles.union_rank_bruteforce(corpus.k4(), 1, 0) == 5
    assert oracles.union_rank_bruteforce(corpus.single_edge(), 0, 2) == 1


def test_union_rank_bruteforce_guardrail():
    G = corpus.random_corpus(1, seed=20, n_range=(6, 6), m_max=12)[0]
    assert oracles.union_rank_bruteforce(G, 1, 0) >= 0
    big = Multigraph(6, tuple((u, v) for u in range(6) for v in range(u + 1, 6)))
    assert big.m == 15
    with pytest.raises(LimitExceededError):
        oracles.union_rank_bruteforce(big, 1, 0)


def test_union_rank_bad_parameters():
    with pytest.raises(GraphInputError):
        union_rank(corpus.triangle(), 0, 0)
    with pytest.raises(GraphInputError):
        union_rank(corpus.triangle(), -1, 2)


def test_union_matches_bruteforce_on_corpus():
    for G in corpus.random_corpus(60, seed=21, m_max=12):
        for k, l in ((0, 1), (1, 0), (1, 1), (2, 0), (2, 2)):
            assert union_rank(G, k, l).rank == oracles.union_rank_bruteforce(G, k, l)


def test_union_matches_definitional_rank_on_tiny_graphs():
    for G in (corpus.triangle(), corpus.k4(), corpus.double_edge(), corpus.path(4)):
        for k, l in ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2)):
            assert union_rank(G, k, l).rank == oracles.union_rank_def(G, k, l)


def test_union_monotone_in_parameters_and_edges():
    for G in corpus.random_corpus(25, seed=22, m_max=10):
        base = union_rank(G, 1, 1).rank
        assert union_rank(G, 2, 1).rank >= base
        assert union_rank(G, 1, 2).rank >= base
        if G.m > 0:
            smaller = Multigraph(G.n, G.edges[:-1])
            assert union_rank(smaller, 1, 1).rank <= base


def test_decompose_sparse_k4_fails_with_witness():
    result = decompose(corpus.k4(), 1, 0)
    assert isinstance(result, ConditionReport)
    assert not result.holds
    assert result.witness == frozenset(range(4))
    assert oracles.certified(corpus.k4(), result)[4:] == ("vertex-set", 6, 5)


def test_decompose_sparse_k4_with_two_classes():
    G = corpus.k4()
    result = decompose(G, 2, 0)
    assert isinstance(result, Decomposition)
    _check_classes(G, result)


def test_decompose_sparse_double_edge():
    result = decompose(corpus.double_edge(), 2, 0)
    assert isinstance(result, Decomposition)
    assert sorted(result.assignment) == [1, 2]  # copies in separate classes


def test_decompose_accepts_disconnected():
    # Both count conditions hold iff they hold on every component, so the
    # count game decides a disconnected graph too.
    G = corpus.two_triangles_disjoint()
    result = decompose(G, 1, 0)
    assert isinstance(result, Decomposition)
    _check_classes(G, result)
    result = decompose(G, 0, 1)
    assert isinstance(result, ConditionReport) and result.condition == "forest-cover"
    assert result.witness == frozenset({0, 1, 2})
    assert oracles.certified(G, result)[4:] == ("vertex-set", 3, 2)


def test_count_covers_are_exact_on_any_graph():
    graphs = corpus.random_corpus(150, seed=25, n_range=(1, 7), m_max=12)
    assert sum(not oracles.connected_def(G) for G in graphs) > 50
    for G in graphs:
        for k, l in ((1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (0, 3)):
            result = decompose(G, k, l)
            decomposed = isinstance(result, Decomposition)
            if l == 0:
                assert decomposed == oracles.sparse_cover_def(G, k), (G, k, l)
            else:
                assert decomposed == oracles.forest_cover_def(G, l), (G, k, l)
            if decomposed:
                _check_classes(G, result)
            else:
                a, b = (2 * k, 3 * k) if l == 0 else (l, l)
                X = result.witness
                lhs = oracles.certified(G, result).lhs
                assert lhs == oracles.induced(G, range(G.m), X) > a * len(X) - b


def test_the_count_game_answers_before_the_union(monkeypatch):
    # With l = 0 or k = 0 a failure is decided and witnessed by one count
    # game; the union runs only to build a split that exists.
    def union_rank(*args):
        raise AssertionError("the union ran")

    monkeypatch.setattr(union_mod, "union_rank", union_rank)
    monkeypatch.setattr(packing_mod, "union_rank", union_rank)
    doubled_k4 = Multigraph(4, tuple(e for e in corpus.k4().edges for _ in range(2)))
    for result, condition in (
        (decompose(doubled_k4, 2, 0), "sparse-cover"),
        (decompose(doubled_k4, 0, 3), "forest-cover"),
        (pack_rigid_and_trees(corpus.cycle(4), 0, 2), "tree-packing"),
        (ndt_decompose(doubled_k4, 1, 2), "sparse-cover"),
    ):
        assert isinstance(result, ConditionReport) and not result.holds
        assert result.condition == condition


def test_decompose_forests_examples():
    result = decompose(corpus.triangle(), 0, 1)
    assert isinstance(result, ConditionReport)
    assert result.witness == frozenset(range(3))
    assert oracles.certified(corpus.triangle(), result)[4:] == ("vertex-set", 3, 2)

    G = corpus.k4()
    result = decompose(G, 0, 2)
    assert isinstance(result, Decomposition)
    _check_classes(G, result)

    tree = corpus.path(5)
    result = decompose(tree, 0, 1)
    assert isinstance(result, Decomposition)
    assert result.assignment == (1,) * 4


def test_theorem_style_iff_on_connected_corpus():
    # decomposability into k sparse classes <=> subset condition <=> gamma2 <= k
    for G in corpus.connected_corpus(40, seed=23, n_range=(2, 6), m_max=12):
        for k in (1, 2, 3):
            result = decompose(G, k, 0)
            succeeded = isinstance(result, Decomposition)
            assert succeeded == oracles.sparse_cover_def(G, k)
            if G.n >= 2:
                assert succeeded == (gamma2(G).value <= k)
            if succeeded:
                _check_classes(G, result)
            else:
                X = result.witness
                assert oracles.induced(G, range(G.m), X) > k * (2 * len(X) - 3)
        for l in (1, 2, 3):
            result = decompose(G, 0, l)
            succeeded = isinstance(result, Decomposition)
            assert succeeded == oracles.forest_cover_def(G, l)
            if succeeded:
                _check_classes(G, result)


def test_verify_decomposition_rejects_tampering():
    G = corpus.k4()
    dec = decompose(G, 2, 0)
    assert isinstance(dec, Decomposition)
    # move every edge into the first class: not sparse any more
    broken = Decomposition(2, 0, tuple(1 for _ in dec.assignment))
    ok, reason = verify_decomposition(G, broken)
    assert not ok and "sparse" in reason
    # one colour short
    assert verify_decomposition(G, Decomposition(2, 0, dec.assignment[:-1])) == (
        False, "assignment length does not match edge count")


_KL = ((0, 1), (1, 0), (1, 1), (2, 0), (2, 2), (0, 3), (3, 0), (1, 3), (3, 2))


def test_union_rank_matches_reference_on_seeded_corpus():
    named = (corpus.triangle(), corpus.k4(), corpus.k5(), corpus.k33(), corpus.bowtie(),
             corpus.double_edge(), corpus.doubled_triangle(), corpus.k4_minus_edge(),
             corpus.two_triangles_disjoint(), corpus.cycle(5), corpus.star(4), corpus.path(5))
    graphs = (list(named) + corpus.random_corpus(60, seed=21, m_max=12)
              + corpus.connected_corpus(40, seed=23, n_range=(2, 6), m_max=12))
    for G in graphs:
        for k, l in _KL:
            assert union_rank(G, k, l) == oracles.union_rank_reference(G, k, l)


def test_union_rank_matches_reference_on_random_multigraphs():
    rng = random.Random(24)
    for i in range(400):
        n = rng.randint(2, 14)
        mult = rng.randint(1, 3)
        m = rng.randint(0, min(mult * n * (n - 1) // 2, 6 * n))
        G = random_multigraph(n, m, mult, seed=2400 + i)
        for _ in range(2):
            k = rng.randint(0, 3)
            l = rng.randint(0 if k else 1, 3)
            assert union_rank(G, k, l) == oracles.union_rank_reference(G, k, l), (n, m, k, l)


def test_union_rank_keeps_class_oracles_live(monkeypatch):
    # One game per class, built when the class opens and never rebuilt;
    # fundamental circuits are read off the class's own pebble game
    # without moving a pebble.
    real_circuit = union_mod._CountClass.circuit
    games, moves, circuits = [], [], []

    def circuit(self, eid, witness):
        circuits.append(1)
        before = len(games), len(moves)
        result = real_circuit(self, eid, witness)
        assert len(games) == before[0], "circuit built a pebble game"
        assert len(moves) == before[1], "circuit inserted or removed an edge"
        return result

    real_init = PebbleGame.__init__
    real_insert, real_remove = PebbleGame.try_insert, PebbleGame.remove
    monkeypatch.setattr(
        PebbleGame, "__init__", lambda g, n, a, b: games.append(1) or real_init(g, n, a, b)
    )
    monkeypatch.setattr(
        PebbleGame, "try_insert", lambda g, u, v: moves.append(1) or real_insert(g, u, v)
    )
    monkeypatch.setattr(
        PebbleGame, "remove", lambda g, u, v: moves.append(1) or real_remove(g, u, v)
    )
    monkeypatch.setattr(union_mod._CountClass, "circuit", circuit)
    G = random_multigraph(10, 70, 2, seed=25)
    for k, l in ((2, 0), (1, 1), (2, 2)):
        games.clear()
        circuits.clear()
        used = set(union_rank(G, k, l).decomposition.assignment) - {0}
        assert circuits
        # The used classes come first; at most one more is open, and empty.
        assert used == set(range(1, len(used) + 1))
        assert len(used) <= len(games) <= min(len(used) + 1, k + l)


_KINDS = [
    pytest.param(2, 3, rigidity_rank, id="rigidity"),
    pytest.param(1, 1, graphic_rank, id="graphic"),
]


def _independent(rank, G, F):
    """F (distinct ids) is independent iff its rank is |F|."""
    return rank(G, F).rank == len(F)


@pytest.mark.parametrize("a, b, rank", _KINDS)
@settings(max_examples=300, deadline=None, database=None)
@given(run=corpus.insert_remove_runs())
def test_class_circuit_read_off_matches_delete_and_retry(a, b, rank, run):
    # The closure read-off against the pebble-moving search it replaced,
    # after every rejected insert of a live class under inserts and removals;
    # each probe agrees with a fresh independence test of the members.
    # The class fixes its own (a, b), so the run's game parameters go unused.
    n, _, ops = run
    G = Multigraph(n, tuple(op[1] for op in ops if op[0] == "insert"))
    cls = union_mod._CountClass(G, a, b)
    eid = 0
    for op in ops:
        if op[0] == "insert":
            ok, witness = cls.probe(*G.edges[eid])
            assert ok == _independent(rank, G, cls.members + [eid])
            if ok:
                cls.update([], [eid])
            else:
                members = list(cls.members)
                circ = cls.circuit(eid, witness)
                assert circ == oracles.circuit_by_delete_and_retry(cls, eid, witness)
                assert circ and cls.members == members
            eid += 1
        elif cls.members:
            cls.update([cls.members[op[1] % len(cls.members)]], [])


@pytest.mark.parametrize("a, b, rank", _KINDS)
def test_class_circuit_is_fundamental_circuit(a, b, rank):
    # x is in the circuit of e iff the class with x swapped for e is
    # independent.
    checked = 0
    for G in corpus.random_corpus(80, seed=26, n_range=(3, 9), m_max=30):
        members = sorted(rank(G, range(0, G.m, 2)).basis)
        cls = union_mod._CountClass(G, a, b)
        cls.update([], members)
        for e in range(1, G.m, 2):
            ok, witness = cls.probe(*G.edges[e])
            assert ok == _independent(rank, G, members + [e])
            if ok:
                continue
            expected = [x for x in members if _independent(rank, G, set(members) - {x} | {e})]
            assert cls.circuit(e, witness) == expected
            assert cls.members == members
            checked += 1
    assert checked > 100


@pytest.mark.parametrize("a, b, G", [
    pytest.param(2, 3, corpus.k4(), id="rigidity"),
    pytest.param(1, 1, corpus.triangle(), id="graphic"),
])
def test_class_insert_breaking_independence_raises(a, b, G):
    # The last edge closes K4's one circuit in (2,3), the triangle in (1,1).
    last = G.m - 1
    cls = union_mod._CountClass(G, a, b)
    cls.update([], list(range(last)))
    assert cls.take(last) == (False, frozenset(range(G.n)))
    assert cls.members == list(range(last))
    with pytest.raises(RuntimeError, match="not independent"):
        cls.update([], [last])


def test_union_rank_builds_at_most_m_oracles_of_each_kind(monkeypatch):
    # An empty class takes any edge, so no search reaches a class past the
    # first empty one: classes open one at a time, a huge k or l costs
    # neither memory nor time, and the colouring is the one that a search
    # over every class finds.
    for G in corpus.random_corpus(30, seed=27, m_max=8):
        for k, l in ((G.m + 2, 0), (0, G.m + 2), (G.m + 1, G.m + 1), (1, G.m + 3)):
            assert union_rank(G, k, l) == oracles.union_rank_reference(G, k, l)
    built = []
    real_init = union_mod._CountClass.__init__
    monkeypatch.setattr(union_mod._CountClass, "__init__",
                        lambda c, G, a, b: built.append((a, b)) or real_init(c, G, a, b))
    ur = union_rank(corpus.triangle(), 10**6, 10**6)
    assert ur.rank == 3 and ur.decomposition.assignment == (1, 1, 1)
    # Class 1 takes every edge; class 2 opens with its first and stays empty.
    assert built == [(2, 3), (2, 3)]
    tracemalloc.start()
    try:
        union_rank(corpus.triangle(), 10**5, 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak


def test_union_rank_memory_does_not_grow_with_k():
    # 400 edges on 200 vertices: two sparse classes take them all, so three
    # 200-vertex games at most are built, whatever k is.
    G = random_multigraph(200, 400, 1, seed=3)
    tracemalloc.start()
    try:
        ur = union_rank(G, 10**9, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ur.rank == G.m and set(ur.decomposition.assignment) == {1, 2}
    assert peak < 1_000_000, peak


def test_verify_decomposition_checks_only_used_colours(monkeypatch):
    calls = []
    real_rigidity, real_graphic = union_mod.rigidity_rank, union_mod.graphic_rank
    monkeypatch.setattr(union_mod, "rigidity_rank",
                        lambda G, F: calls.append(1) or real_rigidity(G, F))
    monkeypatch.setattr(union_mod, "graphic_rank",
                        lambda G, F: calls.append(1) or real_graphic(G, F))
    big = 10**6
    tri = corpus.triangle()
    assert verify_decomposition(tri, Decomposition(big, big, (1, big, 2 * big))) == (True, None)
    assert len(calls) == 3
    assert verify_decomposition(tri, Decomposition(big, big, (0, 0, 0))) == (True, None)
    # Colour 0 marks uncovered edges, not a class: K4's six are not sparse.
    assert verify_decomposition(corpus.k4(), Decomposition(1, 0, (0,) * 6)) == (True, None)
    assert verify_decomposition(corpus.k4(), Decomposition(big, 0, (7,) * 6)) == (
        False, "class 7 is not (2,3)-sparse")
    assert verify_decomposition(tri, Decomposition(1, big, (1, big + 1, big + 1))) == (True, None)
    assert verify_decomposition(tri, Decomposition(1, big, (big, big, big))) == (
        False, f"class {big} is not a forest")
    # The lowest offending colour is reported, as when every class is checked.
    doubled = corpus.doubled_triangle()
    assert verify_decomposition(doubled, Decomposition(2, 1, (3, 3, 3, 1, 1, 1))) == (
        False, "class 1 is not (2,3)-sparse")


def _union_bound(G, k, l, F):
    """Edmonds' bound m - |F| + k r_rig(F) + l r_gr(F) on the union rank."""
    return G.m - len(F) + k * rigidity_rank(G, F).rank + l * graphic_rank(G, F).rank


@st.composite
def _union_instances(draw):
    """(G, k, l, F): n <= 7, at most as many edges as the brute force
    takes, k and l <= 2, and an arbitrary edge set F."""
    n = draw(st.integers(2, 7))
    pairs = list(itertools.combinations(range(n), 2))
    G = Multigraph(n, tuple(draw(st.lists(st.sampled_from(pairs),
                                          max_size=oracles.BRUTE_FORCE_EDGE_LIMIT))))
    k = draw(st.integers(0, 2))
    l = draw(st.integers(0 if k else 1, 2))
    F = draw(st.frozensets(st.integers(0, G.m - 1))) if G.m else frozenset()
    return G, k, l, F


@settings(max_examples=200, deadline=None, database=None)
@given(_union_instances())
def test_union_bound_is_tight_at_the_closed_set_and_sound_everywhere(case):
    G, k, l, F = case
    rank = oracles.union_rank_bruteforce(G, k, l)
    ur = union_rank(G, k, l)
    assert _union_bound(G, k, l, ur.closed) == ur.rank == rank
    assert _union_bound(G, k, l, F) >= rank


def test_the_count_game_never_decides_the_union():
    # The 4-cycle with every edge doubled is (3,4)-sparse, the count
    # condition (2k+l, 3k+l) at k = l = 1, so that game rejects nothing.
    # But a sparse class takes at most one copy of each pair and a forest
    # at most 3 edges, so the union of one of each has rank 7 < 8.  The
    # count game must never decide packing or union-cover.
    G = Multigraph(4, tuple(e for e in corpus.cycle(4).edges for _ in range(2)))
    assert list(pebble_rejections(G, 3, 4)) == []
    assert union_rank(G, 1, 1).rank == 7
    report = union_mod.decompose(G, 1, 1)
    assert isinstance(report, ConditionReport) and report.condition == "union-cover"


def _laman_union(n, seed, laman, trees):
    """Edge list of ``laman`` random Laman graphs and ``trees`` random
    spanning trees on n vertices, in random order."""
    rng = random.Random(seed)
    edges = []
    for i in range(laman):
        edges += corpus.random_sparse_graph(n, seed=1000 * seed + i).edges
    for _ in range(trees):
        order = rng.sample(range(n), n)
        edges += [(order[rng.randrange(i)], order[i]) for i in range(1, n)]
    rng.shuffle(edges)
    return edges, rng


def test_a_full_class_is_passed_by_when_a_later_class_takes_the_edge(monkeypatch):
    # A (2,3) class of 2n - 3 edges rejects every edge, so its game sees an
    # insert only when every class rejects the offered edge and a search
    # reads its witness.
    inserts = []
    real_insert = PebbleGame.try_insert
    monkeypatch.setattr(PebbleGame, "try_insert",
                        lambda g, u, v: inserts.append(g) or real_insert(g, u, v))
    taken = []
    real_take = union_mod._CountClass.take

    def take(c, e):
        result = real_take(c, e)
        taken.append(result[0])
        return result

    monkeypatch.setattr(union_mod._CountClass, "take", take)
    real_augment = union_mod._augment
    passed = 0

    def augment(G, classes, color, start, dead):
        nonlocal passed
        full = [c for c in classes.values() if len(c.members) == 2 * G.n - 3]
        del inserts[:], taken[:]
        absorbed = real_augment(G, classes, color, start, dead)
        if any(taken):  # a class took the edge outright: no search ran
            assert not any(c.game in inserts for c in full), start
            passed += len(full)
        return absorbed

    monkeypatch.setattr(union_mod, "_augment", augment)
    for n, seed in ((8, 1), (11, 2), (14, 3)):
        shuffled, _ = _laman_union(n, seed, 2, 0)
        # One Laman graph after the other: class 1 fills with the first and
        # is passed by for each edge of the second.
        in_turn = [e for i in range(2) for e in corpus.random_sparse_graph(n, 1000 * seed + i).edges]
        for edges in (shuffled, in_turn):
            before = passed
            G = Multigraph(n, tuple(edges))
            result = decompose(G, 2, 0)
            assert isinstance(result, Decomposition)
            _check_classes(G, result)
            assert passed > before
        assert passed - before == 2 * n - 3


def test_a_forest_probe_moves_no_pebble():
    # In a (1,1) game every vertex holds its pebble or has one out-arc, so
    # a probe walks u and v to their roots.  Its witness is the reach
    # closure that a rejected insert leaves: the tree path between them.
    rng = random.Random(28)
    rejected = 0
    for trial in range(40):
        n = rng.randint(2, 12)
        G = random_multigraph(n, rng.randint(1, min(3 * n, n * (n - 1))), 2, seed=2800 + trial)
        cls = union_mod._CountClass(G, 1, 1)
        for e in range(G.m):
            if cls.probe(*G.edges[e])[0]:
                cls.update([], [e])
        if cls.members:  # reorient the forest a little
            cls.update([cls.members[0]], [])
        for u, v in itertools.combinations(range(n), 2):
            pebbles, out = list(cls.game.pebbles), [dict(arcs) for arcs in cls.game.out]
            ok, witness = cls.probe(u, v)
            assert cls.game.pebbles == pebbles and cls.game.out == out
            game = PebbleGame(n, 1, 1)
            game.pebbles, game.out = list(pebbles), [dict(arcs) for arcs in out]
            assert game.try_insert(u, v) == ok
            if not ok:
                assert witness == oracles.reach_closure(game, u, v)
                rejected += 1
    assert rejected > 100


def test_a_search_does_not_probe_inside_a_closure_it_expanded(monkeypatch):
    # If class j returned a closure X earlier in the same search and both
    # ends of y lie in X, y's closure lies inside X, whose members were all
    # reached already: the probe of y in class j would add nothing.
    closures: dict = {}
    real_take, real_probe = union_mod._CountClass.take, union_mod._CountClass.probe
    probes = 0

    def note(c, result):
        if not result[0]:
            closures.setdefault(c, []).append(result[1])
        return result

    def probe(c, u, v):
        nonlocal probes
        assert not any(u in X and v in X for X in closures.get(c, ())), (u, v)
        probes += 1
        return note(c, real_probe(c, u, v))

    real_augment = union_mod._augment
    monkeypatch.setattr(union_mod._CountClass, "take", lambda c, e: note(c, real_take(c, e)))
    monkeypatch.setattr(union_mod._CountClass, "probe", probe)
    monkeypatch.setattr(union_mod, "_augment",
                        lambda *args: closures.clear() or real_augment(*args))
    failures = 0
    for n, seed in ((9, 4), (12, 5), (15, 6)):
        edges, rng = _laman_union(n, seed, 1, 2)
        del edges[:2]
        cluster = rng.sample(range(n), 4)
        edges += [pair for pair in itertools.combinations(cluster, 2) for _ in range(2)]
        report = decompose(Multigraph(n, tuple(edges)), 1, 2)
        assert isinstance(report, ConditionReport) and report.condition == "union-cover"
        failures += 1
    assert failures == 3 and probes > 50


def _benchmark_shape(n, seed, k, l, shape):
    """A union of k Laman graphs and l spanning trees on n vertices with two
    edges removed or two added, or with a doubled K4 offered last."""
    edges, rng = _laman_union(n, seed, k, l)
    if shape == "removed":
        del edges[:2]
    elif shape == "added":
        edges += [tuple(rng.sample(range(n), 2)) for _ in range(2)]
    else:
        del edges[:2]
        cluster = rng.sample(range(n), 4)
        edges += [pair for pair in itertools.combinations(cluster, 2) for _ in range(2)]
    return Multigraph(n, tuple(edges))


def test_union_rank_matches_reference_at_the_benchmark_sizes():
    # n = 17-20, around the threshold k(2n - 3) + l(n - 1), where classes
    # fill and searches expand many closures, unlike the n <= 14 sweeps.
    shapes = itertools.cycle(("removed", "added", "doubled K4"))
    for i, (n, shape) in enumerate(zip((17, 18, 19, 20) * 2, shapes)):
        for k, l in ((2, 0), (1, 1), (1, 2), (0, 3)):
            G = _benchmark_shape(n, 40 + i, k, l, shape)
            assert union_rank(G, k, l) == oracles.union_rank_reference(G, k, l), (n, shape, k, l)
