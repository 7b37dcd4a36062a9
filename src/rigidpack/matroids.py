"""Rank functions for the two matroids living on a multigraph's edge set.
An edge set F is independent iff its rank is |F|, so the rank is the one
oracle each matroid has.

* The graphic matroid: an edge set is independent iff it induces a forest.
  Rank is ``n - c(F)`` where ``c`` counts components (isolated vertices
  included).  Implemented with union-find.

* The generic 2D rigidity matroid: an edge set is independent iff it is
  (2,3)-sparse, i.e. every vertex set X with |X| >= 2 induces at most
  2|X| - 3 of its edges.  Implemented with the (2,3) pebble game: each
  vertex holds two pebbles, and an edge is accepted iff four pebbles can
  be gathered on its endpoints, one of which then pays for the edge.

The same game with a pebbles per vertex, every edge of weight w, b + w
gathered and w spent decides any count condition w i(X) <= a|X| - b for
X spanning an edge (Lee & Streinu, "Pebble game algorithms and sparse
graphs", 2008).  (2k,3k) is the paper's cover condition for k sparse
classes, (l,l) Nash-Williams' condition for l forests; the density
parameters and the kwz degree condition are weighted ones.  ``PebbleGame``
is that one game: the matroid union keeps it live and edits it, and
``pebble_rejections`` offers a whole graph to it once.

When the game rejects an edge, the set of vertices reachable from its
endpoints in the current orientation is a certified violator: the
accepted edges inside it weigh a|X| less the fewer than b + w pebbles
left on the endpoints, so with the rejected edge X weighs more than
a|X| - b.  The failed search has just queued exactly that set, so
``last_witness`` reads it off the queue with no further search, and
``pebble_rejections`` yields it with each rejected edge.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator

from .multigraph import Multigraph, check_edge_subset


RankResult = namedtuple("RankResult", "rank basis")


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


def graphic_rank(G: Multigraph, F: Iterable[int]) -> RankResult:
    """Rank of F in the graphic matroid, with a spanning forest as basis."""
    ids = check_edge_subset(G, F)
    uf = UnionFind(G.n)
    basis = [e for e in ids if uf.union(*G.edges[e])]
    return RankResult(len(basis), frozenset(basis))


class PebbleGame:
    """Mutable (a,b) pebble game over vertices ``0..n-1`` with every edge
    of weight w, for any a, b >= 0 and w >= 1; the default (2,3,1) is the
    rigidity matroid.  Each vertex starts with a pebbles, and ``out[x]``
    maps each head y to the units of arc x -> y.

    ``try_insert`` accepts an edge when b + w pebbles can be gathered on
    its endpoints, and then spends w of them, each turning into one unit
    of arc toward the other end.  A rejection leaves the game as it was,
    up to pebble moves, and ``last_witness`` returns the reach closure of
    the endpoints; it is None after an accepted insert.  ``remove``
    deletes an accepted edge; every vertex keeps
    ``pebbles[x] + sum(out[x].values()) == a``, and the game stays exact
    for the edges that remain, whatever the order of inserts and removals.
    """

    __slots__ = ("need", "w", "pebbles", "out", "_mark", "_stamp", "_parent", "_witness")

    def __init__(self, n: int, a: int = 2, b: int = 3, w: int = 1) -> None:
        if a < 0 or b < 0 or w < 1:
            raise ValueError(f"the pebble game needs a, b >= 0 and w >= 1 (got {a}, {b}, {w})")
        self.need = b + w
        self.w = w
        self.pebbles = [a] * n
        self.out: list[dict[int, int]] = [{} for _ in range(n)]
        self._mark = [0] * n
        self._stamp = 0
        self._parent = list(range(n))
        self._witness: list[int] | None = None

    def try_insert(self, u: int, v: int) -> bool:
        """Accept the edge iff b + w pebbles can be gathered on {u, v}.

        Each pull moves as many pebbles as are wanted, free at the end and
        carried by every arc of a shortest path from {u, v}, so a large w
        costs no more searches than w = 1, as in Edmonds and Karp's
        shortest augmenting paths."""
        pebbles, out = self.pebbles, self.out
        while (short := self.need - pebbles[u] - pebbles[v]) > 0:
            # Breadth-first from both endpoints for a free pebble elsewhere;
            # the loops break out with y at the first one found.
            self._stamp = stamp = self._stamp + 1
            mark, parent = self._mark, self._parent
            mark[u] = mark[v] = stamp
            parent[u], parent[v] = u, v
            queue = [u, v]
            for x in queue:
                for y in out[x]:
                    if mark[y] != stamp:
                        mark[y] = stamp
                        parent[y] = x
                        if pebbles[y]:
                            break
                        queue.append(y)
                else:
                    continue
                break
            else:
                # The search ran to exhaustion: its queue is the closure.
                self._witness = queue
                return False
            # Walk the path once for its bottleneck t (as far as t > 1),
            # once to reverse t units of each arc and move t pebbles to
            # its root.
            found, t = y, pebbles[y] if pebbles[y] < short else short
            while t > 1 and (x := parent[y]) != y:
                c = out[x][y]
                if c < t:
                    t = c
                y = x
            pebbles[found] -= t
            y = found
            while (x := parent[y]) != y:
                arcs, back = out[x], out[y]
                if arcs[y] == t:
                    del arcs[y]
                else:
                    arcs[y] -= t
                back[x] = back.get(x, 0) + t
                y = x
            pebbles[y] += t
        self._witness = None
        # Spend w pebbles, u's first.
        w, t = self.w, pebbles[u]
        if t >= w:
            pebbles[u] = t - w
            arcs = out[u]
            arcs[v] = arcs.get(v, 0) + w
            return True
        if t:
            pebbles[u] = 0
            out[u][v] = out[u].get(v, 0) + t
        pebbles[v] -= w - t
        out[v][u] = out[v].get(u, 0) + w - t
        return True

    def remove(self, u: int, v: int) -> None:
        """Delete one u-v edge: w units of arc between u and v, whichever
        way they point, each giving its pebble back to its tail (Lee &
        Streinu's deletion move)."""
        out, pebbles, w = self.out, self.pebbles, self.w
        t = min(out[u].get(v, 0), w)
        if t + out[v].get(u, 0) < w:
            raise ValueError(f"no edge {u}-{v} in the pebble game")
        for x, y, t in ((u, v, t), (v, u, w - t)):
            if t:
                pebbles[x] += t
                arcs = out[x]
                if arcs[y] == t:
                    del arcs[y]
                else:
                    arcs[y] -= t

    def last_witness(self) -> frozenset | None:
        """The reach closure of the endpoints of the last insert, if it
        was rejected: the least X holding them that minimizes
        a|X| - w i(X) over the held edges, whatever the orientation."""
        return None if self._witness is None else frozenset(self._witness)


def pebble_rejections(
    G: Multigraph, a: int, b: int, w: int = 1
) -> Iterator[tuple[int, frozenset]]:
    """Offer G's edges in id order, each of weight w, to one (a,b) pebble
    game, and yield ``(e, X)`` for each rejected edge e, X the reach
    closure of its endpoints.  The accepted edges inside X weigh more than
    a|X| - b - w, then and ever after, so w times G's edges inside X
    exceed a|X| - b.  So nothing is yielded iff w i(X) <= a|X| - b for
    every X spanning an edge."""
    game = PebbleGame(G.n, a, b, w)
    insert = game.try_insert
    for e, (u, v) in enumerate(G.edges):
        if not insert(u, v):
            yield e, game.last_witness()


def rigidity_rank(G: Multigraph, F: Iterable[int]) -> RankResult:
    """Rank of F in the rigidity matroid via greedy pebble insertion.

    The greedy order (ascending edge id) is immaterial to the rank but
    makes the returned basis deterministic.
    """
    ids = check_edge_subset(G, F)
    game = PebbleGame(G.n)
    basis = [e for e in ids if game.try_insert(*G.edges[e])]
    return RankResult(len(basis), frozenset(basis))

