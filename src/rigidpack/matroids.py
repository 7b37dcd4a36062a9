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

The same game with a pebbles per vertex and b + 1 gathered decides the
(a,b) count matroid for any 0 <= b < 2a: every X spanning an edge induces
at most a|X| - b (Lee & Streinu, "Pebble game algorithms and sparse
graphs", 2008).  (2k,3k) is the paper's cover condition for k sparse
classes, (l,l) Nash-Williams' condition for l forests.  With every edge
of weight w, b + w gathered and w spent, ``pebble_rejections`` decides
any count condition w i(X) <= a|X| - b in integers: the density
parameters and the kwz degree condition are of that form.  It is a
separate one-shot game with weighted arcs; ``PebbleGame``, which the
matroid union keeps live and edits, stays unweighted.

When the pebble game rejects an edge, the set of vertices reachable from
its endpoints in the current orientation is a certified violator: the
accepted edges fill it to exactly a|X| - b, so the rejected edge pushes it
over.  The two failed pebble searches have just marked exactly that set,
so ``last_witness`` reads it off the marks with no further search, and
``sparse_independent`` surfaces it as a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

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
    """Mutable (a,b) pebble game state over vertices ``0..n-1``, for
    0 <= b < 2a, or a = b = 0, which accepts no edge; the default (2,3) is
    the rigidity matroid.

    ``try_insert`` either accepts an edge (recording it in the orientation)
    or leaves the state's pebble/orientation invariants intact and remembers
    the failed endpoints so ``last_witness`` can report the violating vertex
    set.  The witness is only meaningful immediately after a failed insert.
    ``remove`` deletes an accepted edge; every vertex keeps
    ``pebbles[v] + len(out[v]) == a``, and the game stays exact for the
    edges that remain, whatever the order of inserts and removals.
    """

    __slots__ = ("n", "need", "pebbles", "out", "_mark", "_stamp", "_parent", "_failed")

    def __init__(self, n: int, a: int = 2, b: int = 3) -> None:
        if not (0 <= b < 2 * a or a == b == 0):
            raise ValueError(f"the (a,b) pebble game needs 0 <= b < 2a (got a={a}, b={b})")
        self.n = n
        self.need = b + 1
        self.pebbles = [a] * n
        self.out: list[list[int]] = [[] for _ in range(n)]
        self._mark = [0] * n
        self._stamp = 0
        self._parent = [0] * n
        self._failed: tuple[int, int] | None = None

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
        """Accept the edge iff b + 1 pebbles can be gathered on {u, v}."""
        pebbles, need = self.pebbles, self.need
        self._failed = None
        while pebbles[u] + pebbles[v] < need:
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


def pebble_rejections(
    G: Multigraph, a: int, b: int, w: int = 1
) -> Iterator[tuple[int, frozenset]]:
    """Offer G's edges in id order, each of weight w, to one (a,b) pebble
    game, and yield ``(e, X)`` for each rejected edge e, X the reach
    closure of its endpoints.  An edge is accepted when b + w pebbles can
    be gathered on its endpoints, and then spends w of them, as w parallel
    unit edges would.  The accepted edges inside X weigh more than
    a|X| - b - w, then and ever after, so w times G's edges inside X
    exceed a|X| - b.  So nothing is yielded iff w i(X) <= a|X| - b for
    every X spanning an edge.

    Arcs carry multiplicities.  Each pull moves as many pebbles as are
    wanted, free at the end and carried by every arc of a shortest path
    from {u, v}, so a large w costs no more searches than w = 1, as in
    Edmonds and Karp's shortest augmenting paths.  The closure of a
    rejection, the least set that minimizes a|X| - w i(X) over the
    accepted edges, does not depend on the orientation."""
    n = G.n
    pebbles = [a] * n
    out: list[dict[int, int]] = [{} for _ in range(n)]
    mark, parent, stamp = [0] * n, list(range(n)), 0
    need = b + w
    for e, (u, v) in enumerate(G.edges):
        while (short := need - pebbles[u] - pebbles[v]) > 0:
            # Breadth-first from both endpoints for a free pebble elsewhere.
            stamp += 1
            mark[u] = mark[v] = stamp
            parent[u], parent[v] = u, v
            queue, found = [u, v], -1
            for x in queue:
                for y in out[x]:
                    if mark[y] != stamp:
                        mark[y] = stamp
                        parent[y] = x
                        if pebbles[y]:
                            found = y
                            break
                        queue.append(y)
                if found >= 0:
                    break
            if found < 0:
                yield e, frozenset(queue)
                break
            # Walk the path once for its bottleneck t, once to reverse t
            # units of each arc and move t pebbles to its root.
            t, y = pebbles[found] if pebbles[found] < short else short, found
            while (x := parent[y]) != y:
                c = out[x][y]
                if c < t:
                    t = c
                y = x
            pebbles[found] -= t
            pebbles[y] += t
            y = found
            while (x := parent[y]) != y:
                arcs, back = out[x], out[y]
                if arcs[y] == t:
                    del arcs[y]
                else:
                    arcs[y] -= t
                back[x] = back.get(x, 0) + t
                y = x
        else:
            # Spend w pebbles, u's first: each turns into one unit of arc
            # toward the other end.
            t = pebbles[u] if pebbles[u] < w else w
            if t:
                pebbles[u] -= t
                out[u][v] = out[u].get(v, 0) + t
            if t < w:
                pebbles[v] -= w - t
                out[v][u] = out[v].get(u, 0) + w - t


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


def is_rigid(G: Multigraph) -> bool:
    """True iff some subset of the edges forms a spanning minimally rigid
    subgraph, i.e. the rigidity rank of the whole edge set is 2n - 3."""
    if G.n <= 1:
        raise GraphInputError("rigidity is defined for graphs with at least 2 vertices")
    return rigidity_rank(G, range(G.m)).rank == 2 * G.n - 3


def is_minimally_rigid(G: Multigraph) -> bool:
    return is_rigid(G) and G.m == 2 * G.n - 3
