"""The guardrail and the bitmask kernel of the partition scans.

A partition scan is refused once its walk has charged more than
``PARTITION_BUDGET``: one unit per vertex placed, and r + C(r, 2) for the
set-up of each Z, r = |V - Z|, charged before it is built.  The charge
counts the walk's work, not the vertices, so a walk that branch and bound
keeps short answers on large graphs.  Orders are deterministic so that
reported witnesses are reproducible.

Vertex v of an n-vertex graph is the bit ``1 << (n - 1 - v)``.
``short_partitions`` walks the partitions of V - Z in restricted-growth
order with counts kept up to date as vertices are placed, and drops each
prefix that no short partition extends (branch and bound), so it reports
the full walk's short partitions, in its order, from a fraction of the
partitions; the partition conditions run on it.  Nothing here builds a
table over all 2^n vertex sets.  Only a reported witness is turned back
into a ``frozenset`` or ``Partition``.  The set-at-a-time enumerators the
kernel replaced are test oracles now.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator

from .errors import LimitExceededError
from .multigraph import Multigraph, Partition, multiplicities

# The most one ``short_partitions`` call may charge: the unpruned Z walk
# at n = 11 places sum_{s=0}^{10} C(11, s) sum_{i=1}^{11-s} Bell(i) =
# 5,268,881 vertices, and its set-up on K_11 is sum C(11, s)(r + C(r, 2)) =
# 39,424.  The walk of necessary at n = 12 charges at most 5,034,584 + 78.
# Pruning only drops prefixes, so every walk of necessary up to 12
# vertices and of the Z scans up to 11 is admitted.
PARTITION_BUDGET = 5_308_305


# ------------------------------------------------------------ bitmask kernel

def mask_vertices(n: int, mask: int) -> frozenset:
    """The vertex set of ``mask`` (vertex v is bit n - 1 - v)."""
    return frozenset(v for v in range(n) if mask >> (n - 1 - v) & 1)


def mask_partition(n: int, blocks: Iterable[int]) -> Partition:
    """The partition whose blocks are the vertex masks ``blocks``."""
    return Partition(tuple(mask_vertices(n, m) for m in blocks))


def short_partitions(
    G: Multigraph, zs: Iterable[int], slope: int, per_singleton: int, per_touch: int
) -> Iterator[tuple[int, tuple[int, ...], int, int]]:
    """Each (z, pi, lhs, rhs) with pi a partition of V - Z, as its block
    masks, and

        lhs = cross_{G-Z}(pi) < slope(|pi| - 1) - per_singleton*n0 - per_touch*nZ = rhs,

    Z running over the vertex masks ``zs`` and pi over restricted-growth
    order, one block per first-appearance label: the single block first,
    the singletons last.  Past ``PARTITION_BUDGET``, charged over all of
    ``zs``, it raises LimitExceededError.

    Branch and bound: the walk places the vertices of V - Z one at a time,
    children in label order, and drops a prefix when no completion can
    have a negative slack lhs - rhs, so what it reports and the order are
    those of the full walk.  Placing the rest only adds crossing edges and
    adjacent vertices.  With P the placed vertices, an unplaced vertex v
    that opens a block changes the slack by at least e(v, P) - slope +
    per_singleton; one that joins a prefix block B by at least e(v, P) -
    e(v, B) - per_singleton [|B| = 1], and one that joins a block with no
    placed vertex by at least as much as opening one.  That needs slope >=
    2 per_singleton >= 0 and per_touch >= 0.  The bound is the prefix's
    slack plus each unplaced v's least change.  A block v has no edge to
    does no better than a new one, so v's best block is updated only as
    its neighbours are placed; a block that has stopped being a singleton
    may be overstated, which only weakens the bound.  The state is
    O(n + m).
    """
    if not (slope >= 2 * per_singleton >= 0 and per_touch >= 0):
        raise ValueError("the bound needs slope >= 2*per_singleton >= 0 and per_touch >= 0")
    n = G.n
    opening = slope - per_singleton  # what opening a block costs the slack, net of e(v, P)
    budget, spent, bit = PARTITION_BUDGET, 0, []
    for z in zs:
        r = n - z.bit_count()
        if not r:
            continue
        spent += r + r * (r - 1) // 2
        if spent > budget:
            raise _over_budget(spent, budget)
        if not bit:  # the graph's tables, of n^2 bits, once a Z's set-up is charged
            bit = [1 << (n - 1 - v) for v in range(n)]
            mult = multiplicities(G)
            adjacency = [sum(bit[u] for u in row) for row in mult]
            # Binary digits of the multiplicities: the edges from v into a
            # block B are sum(|levels[v][t] & B| << t).
            levels = [[(t, sum(bit[u] for u, m in row.items() if m >> t & 1))
                       for t in range(max(row.values(), default=0).bit_length())]
                      for row in mult]
        items = [v for v in range(n) if not z & bit[v]]
        touched = z if per_touch else 0
        # Per item: its unplaced neighbours in V - Z, with multiplicities.
        ahead = [[(u, m) for u, m in mult[v].items() if u > v and not z & bit[u]]
                 for v in items]
        placed_edges = [0] * n  # e(v, P)
        # Each unplaced v changes the slack by at least e(v, P) - opening -
        # gain[v], gain[v] its best block's e(v, B) + per_singleton [|B| = 1]
        # above opening, if any.
        gain = [0] * n
        labels = [0] * r
        masks = [0] * r
        sizes = [0] * r
        near = [0] * r  # per block: the union of its vertices' neighbourhoods
        undo = [None] * r
        saved = []  # the old gain[u] of each u a placement raised, as flat (u, gain) pairs
        blocks = cross = singletons = touching = 0
        rest = 0  # sum over unplaced v of e(v, P) - gain[v]
        i = 0
        while i >= 0:
            # Place item i in the block its label names.
            spent += 1
            if spent > budget:
                raise _over_budget(spent, budget)
            v = items[i]
            j = labels[i]
            block = masks[j] | bit[v]
            old = near[j]
            undo[i] = (blocks, cross, singletons, touching, rest, old, len(saved))
            into = 0
            for t, level in levels[v]:
                into += (level & block).bit_count() << t
            cross += placed_edges[v] - into
            rest -= placed_edges[v] - gain[v]
            masks[j] = block
            size = sizes[j] = sizes[j] + 1
            if size == 1:
                blocks += 1
                singletons += 1
            elif size == 2:
                singletons -= 1
            if touched:
                new = near[j] = old | adjacency[v]
                touching += (new & touched).bit_count() - (old & touched).bit_count()
            bonus = (per_singleton if size == 1 else 0) - opening
            for u, m in ahead[i]:
                edges = placed_edges[u] = placed_edges[u] + m
                rest += m
                if edges + bonus <= gain[u]:
                    continue  # e(u, B) <= e(u, P)
                value = bonus
                for t, level in levels[u]:
                    value += (level & block).bit_count() << t
                if value > gain[u]:
                    saved += u, gain[u]
                    rest -= value - gain[u]
                    gain[u] = value
            slack = cross - slope * (blocks - 1) + per_singleton * singletons + per_touch * touching
            if slack + rest < opening * (r - 1 - i):
                if i + 1 < r:
                    i += 1
                    labels[i] = 0
                    continue
                yield z, tuple(masks[:blocks]), cross, cross - slack
            # The next prefix: the last placed item whose label may grow (up
            # to the number of blocks among earlier items) takes the next
            # label.
            while i >= 0:
                v = items[i]
                j = labels[i]
                blocks, cross, singletons, touching, rest, near[j], mark = undo[i]
                masks[j] ^= bit[v]
                sizes[j] -= 1
                for u, m in ahead[i]:
                    placed_edges[u] -= m
                while len(saved) > mark:
                    value = saved.pop()
                    gain[saved.pop()] = value
                if j < blocks:
                    labels[i] = j + 1
                    break
                i -= 1


def _over_budget(spent: int, budget: int) -> LimitExceededError:
    return LimitExceededError(f"partition walks are limited to {budget} steps (charged {spent})")


def first_short_partition(
    G: Multigraph, zs: Iterable[int], slope: int, per_singleton: int, per_touch: int
) -> tuple[frozenset, Partition] | None:
    """The first short partition in ``short_partitions`` order, as (Z, pi);
    None when there is none."""
    for z, blocks, _, _ in short_partitions(G, zs, slope, per_singleton, per_touch):
        return mask_vertices(G.n, z), mask_partition(G.n, blocks)
    return None


def masks_by_size(n: int, sizes: Iterable[int]) -> Iterator[int]:
    """The vertex masks of each size in ``sizes`` in turn, lexicographic
    (mask descending) within a size."""
    bits = [1 << (n - 1 - v) for v in range(n)]
    for size in sizes:
        for combo in itertools.combinations(bits, size):
            yield sum(combo)
