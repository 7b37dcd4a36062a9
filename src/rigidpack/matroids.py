"""Independence oracles and rank functions for the two matroids living on a
multigraph's edge set.

* The graphic matroid: an edge set is independent iff it induces a forest.
  Rank is ``n - c(F)`` where ``c`` counts components (isolated vertices
  included).  Implemented with union-find.

* The generic 2D rigidity matroid: an edge set is independent iff it is
  (2,3)-sparse, i.e. every vertex set X with |X| >= 2 induces at most
  2|X| - 3 of its edges.  Implemented with the (2,3) pebble game: each
  vertex holds two pebbles, and an edge is accepted iff four pebbles can
  be gathered on its endpoints, one of which then pays for the edge.

When the pebble game rejects an edge, the set of vertices reachable from
its endpoints in the current orientation is a certified violator: the
accepted edges fill it to exactly 2|X| - 3, so the rejected edge pushes it
over.  The two failed pebble searches have just marked exactly that set,
so ``last_witness`` reads it off the marks with no further search, and
``sparse_independent`` surfaces it as a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import GraphInputError
from .multigraph import Multigraph, check_edge_subset


@dataclass(frozen=True)
class RankResult:
    rank: int
    basis: frozenset


class UnionFind:
    __slots__ = ("parent", "size")

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


def graphic_independent(G: Multigraph, F: Iterable[int]) -> bool:
    """True iff the edge set induces a forest (no cycle, no parallel pair)."""
    ids = check_edge_subset(G, F)
    uf = UnionFind(G.n)
    for e in ids:
        u, v = G.edges[e]
        if not uf.union(u, v):
            return False
    return True


def graphic_rank(G: Multigraph, F: Iterable[int]) -> RankResult:
    """Rank of F in the graphic matroid, with a spanning forest as basis."""
    ids = check_edge_subset(G, F)
    uf = UnionFind(G.n)
    basis = [e for e in ids if uf.union(*G.edges[e])]
    return RankResult(len(basis), frozenset(basis))


class PebbleGame:
    """Mutable (2,3) pebble game state over vertices ``0..n-1``.

    ``try_insert`` either accepts an edge (recording it in the orientation)
    or leaves the state's pebble/orientation invariants intact and remembers
    the failed endpoints so ``last_witness`` can report the violating vertex
    set.  The witness is only meaningful immediately after a failed insert.
    ``remove`` deletes an accepted edge; every vertex keeps
    ``pebbles[v] + len(out[v]) == 2``, and the game stays exact for the
    edges that remain, whatever the order of inserts and removals.
    """

    __slots__ = ("n", "pebbles", "out", "_mark", "_stamp", "_parent", "_failed")

    def __init__(self, n: int) -> None:
        self.n = n
        self.pebbles = [2] * n
        self.out: list[list[int]] = [[] for _ in range(n)]
        self._mark = [0] * n
        self._stamp = 0
        self._parent = [0] * n
        self._failed: tuple[int, int] | None = None

    def copy(self) -> "PebbleGame":
        g = object.__new__(PebbleGame)
        g.n = self.n
        g.pebbles = self.pebbles[:]
        g.out = [lst[:] for lst in self.out]
        g._mark = self._mark[:]  # keeps ``last_witness`` valid on the copy
        g._stamp = self._stamp
        g._parent = [0] * self.n
        g._failed = self._failed
        return g

    def _pull_pebble(self, root: int, other: int) -> bool:
        # Depth-first search along the orientation for a vertex (not the
        # other endpoint) holding a free pebble; reverse the path to move
        # one pebble onto ``root``.
        self._stamp += 1
        stamp = self._stamp
        mark, parent, out, pebbles = self._mark, self._parent, self.out, self.pebbles
        mark[root] = stamp
        stack = [root]
        while stack:
            x = stack.pop()
            for y in out[x]:
                if mark[y] == stamp:
                    continue
                mark[y] = stamp
                parent[y] = x
                if pebbles[y] > 0 and y != other:
                    pebbles[y] -= 1
                    pebbles[root] += 1
                    node = y
                    while node != root:
                        p = parent[node]
                        out[p].remove(node)
                        out[node].append(p)
                        node = p
                    return True
                stack.append(y)
        return False

    def try_insert(self, u: int, v: int) -> bool:
        """Accept the edge iff four pebbles can be gathered on {u, v}."""
        pebbles = self.pebbles
        self._failed = None
        while pebbles[u] + pebbles[v] < 4:
            if not (self._pull_pebble(u, v) or self._pull_pebble(v, u)):
                self._failed = (u, v)
                return False
        if pebbles[u] == 0:
            u, v = v, u
        pebbles[u] -= 1
        self.out[u].append(v)
        return True

    def remove(self, u: int, v: int) -> None:
        """Delete one u-v edge, whichever way it is oriented, and give the
        pebble back to the arc's tail (Lee & Streinu's deletion move)."""
        out = self.out
        if v in out[u]:
            out[u].remove(v)
            self.pebbles[u] += 1
        elif u in out[v]:
            out[v].remove(u)
            self.pebbles[v] += 1
        else:
            raise ValueError(f"no edge {u}-{v} in the pebble game")

    def last_witness(self) -> frozenset | None:
        # The two searches of the failed insert, from u and then from v,
        # each ran to exhaustion without moving a pebble, so together the
        # vertices they marked are the reach closure of {u, v}.
        if self._failed is None:
            return None
        mark, since = self._mark, self._stamp - 1
        return frozenset(x for x in range(self.n) if mark[x] >= since)


def sparse_independent(G: Multigraph, F: Iterable[int]) -> tuple[bool, frozenset | None]:
    """Pebble-game independence test for the rigidity matroid.

    Returns ``(True, None)`` when F is (2,3)-sparse, otherwise
    ``(False, X)`` where X is a vertex set with more than 2|X| - 3 edges
    of F inside it.
    """
    ids = check_edge_subset(G, F)
    game = PebbleGame(G.n)
    for e in ids:
        u, v = G.edges[e]
        if not game.try_insert(u, v):
            return False, game.last_witness()
    return True, None


def rigidity_rank(G: Multigraph, F: Iterable[int]) -> RankResult:
    """Rank of F in the rigidity matroid via greedy pebble insertion.

    The greedy order (ascending edge id) is immaterial to the rank but
    makes the returned basis deterministic.
    """
    ids = check_edge_subset(G, F)
    game = PebbleGame(G.n)
    basis = [e for e in ids if game.try_insert(*G.edges[e])]
    return RankResult(len(basis), frozenset(basis))


def full_rigidity_rank(G: Multigraph) -> int:
    return rigidity_rank(G, range(G.m)).rank


def is_rigid(G: Multigraph) -> bool:
    """True iff some subset of the edges forms a spanning minimally rigid
    subgraph, i.e. the rigidity rank of the whole edge set is 2n - 3."""
    if G.n <= 1:
        raise GraphInputError("rigidity is defined for graphs with at least 2 vertices")
    return full_rigidity_rank(G) == 2 * G.n - 3


def is_minimally_rigid(G: Multigraph) -> bool:
    return is_rigid(G) and G.m == 2 * G.n - 3
