"""Named graphs and seeded random corpora shared across the tests."""

from __future__ import annotations

import itertools
import random

from hypothesis import strategies as st

from rigidpack import Multigraph, random_multigraph
from rigidpack.matroids import PebbleGame

from oracles import connected_def


def triangle() -> Multigraph:
    return Multigraph(3, ((0, 1), (1, 2), (0, 2)))


def k4() -> Multigraph:
    return Multigraph(4, tuple(itertools.combinations(range(4), 2)))


def k5() -> Multigraph:
    return Multigraph(5, tuple(itertools.combinations(range(5), 2)))


def k33() -> Multigraph:
    return Multigraph(6, tuple((u, v) for u in range(3) for v in range(3, 6)))


def bowtie() -> Multigraph:
    """Two triangles sharing vertex 2."""
    return Multigraph(5, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)))


def path(n: int) -> Multigraph:
    return Multigraph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Multigraph:
    return Multigraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def henneberg_strip(n: int) -> Multigraph:
    """Each vertex from 2 on joined to the two before it, plus the edges
    0-1 and 0-(n - 1): a rigid graph on which the partition walks branch
    widely before the bound drops a prefix."""
    return Multigraph(n, ((0, 1), *((i, i - d) for i in range(2, n) for d in (1, 2)), (0, n - 1)))


def star(leaves: int) -> Multigraph:
    return Multigraph(leaves + 1, tuple((0, i) for i in range(1, leaves + 1)))


def single_edge() -> Multigraph:
    return Multigraph(2, ((0, 1),))


def double_edge() -> Multigraph:
    return Multigraph(2, ((0, 1), (0, 1)))


def doubled_triangle() -> Multigraph:
    return Multigraph(3, ((0, 1), (0, 1), (0, 2), (0, 2), (1, 2), (1, 2)))


def k4_minus_edge() -> Multigraph:
    return Multigraph(4, ((0, 1), (0, 2), (2, 3), (0, 3), (1, 2)))


def two_triangles_disjoint() -> Multigraph:
    return Multigraph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))


def all_simple_graphs(n: int):
    """Every labelled simple graph on exactly n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Multigraph(n, tuple(p for i, p in enumerate(pairs) if mask >> i & 1))


def random_corpus(count: int, seed: int, *, n_range=(2, 6), m_max=12, mult_max=3):
    """Deterministic mixed corpus of random multigraphs."""
    rng = random.Random(seed)
    graphs = []
    for i in range(count):
        n = rng.randint(*n_range)
        mult = rng.randint(1, mult_max)
        m = rng.randint(0, min(m_max, mult * n * (n - 1) // 2))
        graphs.append(random_multigraph(n, m, mult, seed=seed * 100003 + i))
    return graphs


def connected_corpus(count: int, seed: int, *, n_range=(2, 6), m_max=12, mult_max=3):
    """Deterministic corpus of connected random multigraphs (rejection)."""
    rng = random.Random(seed)
    graphs = []
    attempt = 0
    while len(graphs) < count:
        n = rng.randint(*n_range)
        mult = rng.randint(1, mult_max)
        lo = n - 1 if n > 1 else 0
        hi = min(m_max, mult * n * (n - 1) // 2)
        if hi < lo:
            attempt += 1
            continue
        m = rng.randint(lo, hi)
        G = random_multigraph(n, m, mult, seed=seed * 99991 + attempt)
        attempt += 1
        if connected_def(G):
            graphs.append(G)
    return graphs


def random_sparse_graph(n: int, seed: int, *, full: bool = True) -> Multigraph:
    """Random (2,3)-sparse graph on n vertices: shuffle the pairs of K_n and
    keep what the pebble game accepts (optionally stopping early)."""
    rng = random.Random(seed)
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    game = PebbleGame(n)
    kept = [p for p in pairs if game.try_insert(*p)]
    if not full and kept:
        kept = kept[: rng.randint(max(1, len(kept) // 2), len(kept))]
    return Multigraph(n, tuple(sorted(kept)))


def connected_gamma2_bounded(count: int, bound: int, seed: int, *, n_range=(6, 8)):
    """Connected graphs whose sparse-cover density is at most ``bound``."""
    from rigidpack.conditions import gamma2

    rng = random.Random(seed)
    graphs = []
    attempt = 0
    while len(graphs) < count:
        n = rng.randint(*n_range)
        attempt += 1
        if bound == 1:
            G = random_sparse_graph(n, seed * 7919 + attempt)
        else:
            cap = min(bound * (2 * n - 3), 2 * n + rng.randint(0, n), n * (n - 1) // 2)
            m = rng.randint(n, cap)
            G = random_multigraph(n, m, 1, seed=seed * 7919 + attempt)
        if not connected_def(G):
            continue
        if gamma2(G).value <= bound:
            graphs.append(G)
    return graphs


@st.composite
def insert_remove_runs(draw):
    """A vertex count, a game's (a, b, w) and a list of operations:
    ``("insert", u, v)`` offers an edge, ``("remove", i)`` deletes the
    i-th accepted edge (modulo the number currently held).  Few vertices
    make parallel edges common; b runs one past the matroid range 2a - 1."""
    n = draw(st.integers(2, 6))
    a = draw(st.integers(0, 6))
    b = draw(st.integers(0, 2 * a))
    w = draw(st.integers(1, 3))
    vertex = st.integers(0, n - 1)
    pair = st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1])
    op = st.one_of(
        st.tuples(st.just("insert"), pair),
        st.tuples(st.just("remove"), st.integers(0, 100)),
    )
    return n, (a, b, w), draw(st.lists(op, max_size=40))


@st.composite
def small_multigraphs(draw, max_n: int = 8, max_mult: int = 3):
    """A multigraph on 0..max_n vertices with at most ``max_mult`` parallel
    edges per pair, most pairs empty or single, edges in a random order."""
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    weights = [0, 0, 0, 1, 1, 2, 3]
    counts = draw(st.lists(st.sampled_from([w for w in weights if w <= max_mult]),
                           min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, c in zip(pairs, counts) for _ in range(c)]
    return Multigraph(n, tuple(draw(st.permutations(edges))))
