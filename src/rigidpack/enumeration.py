"""The guardrails and the bitmask kernel of the partition scans.

Partition scans refuse ground sets beyond ``PARTITION_LIMIT`` (Bell
numbers blow up fast; Bell(12) is about 4.2M), and ``SUBSET_LIMIT`` sizes
the cut-step budget of ``pq-connected``.  Orders are deterministic so
that reported witnesses are reproducible.

Vertex v of an n-vertex graph is the bit ``1 << (n - 1 - v)``.
``PartitionWalk`` visits the partitions of a ground set with counts kept
up to date as vertices move between blocks, and needs no table; the
partition conditions run on it.  Nothing here builds a table over all
2^n vertex sets.  Only a reported witness is turned back into a
``frozenset`` or ``Partition``.  The set-at-a-time enumerators the kernel
replaced are test oracles now.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from .errors import LimitExceededError
from .multigraph import Multigraph, Partition

SUBSET_LIMIT = 16
PARTITION_LIMIT = 12


def check_partition_limit(size: int) -> None:
    if size > PARTITION_LIMIT:
        raise LimitExceededError(
            f"partition enumeration is limited to {PARTITION_LIMIT} elements (got {size})"
        )


# ------------------------------------------------------------ bitmask kernel

def mask_vertices(n: int, mask: int) -> frozenset:
    """The vertex set of ``mask`` (vertex v is bit n - 1 - v)."""
    return frozenset(v for v in range(n) if mask >> (n - 1 - v) & 1)


def multiplicities(G: Multigraph) -> list[dict[int, int]]:
    """Per vertex, its neighbours and the number of edges to each."""
    mult: list[dict[int, int]] = [{} for _ in range(G.n)]
    for u, v in G.edges:
        mult[u][v] = mult[u].get(v, 0) + 1
        mult[v][u] = mult[v].get(u, 0) + 1
    return mult


class PartitionWalk:
    """The partitions of ``ground`` (a vertex mask of G) in lexicographic
    restricted-growth-string order, one block per first-appearance label:
    the single block first, the singletons last.

    Iterating yields ``(blocks, inside, singletons, touching)`` after each
    partition: its number of blocks, the edges inside blocks, the number of
    one-vertex blocks and the adjacent number with respect to the vertex
    mask ``z`` (over blocks, the vertices of z with a neighbour in the
    block).  ``partition()`` builds the current partition.  The walk is
    iterative and holds O(n) state, whatever the ground set's size.
    """

    def __init__(self, G: Multigraph, ground: int, z: int = 0) -> None:
        n = G.n
        self.n = n
        self.z = z
        bit = [1 << (n - 1 - v) for v in range(n)]
        items = [v for v in range(n) if ground & bit[v]]
        mult = multiplicities(G)
        self.bits = [bit[v] for v in items]
        self.adjacency = [sum(bit[u] for u in mult[v]) for v in items]
        # Binary digits of the multiplicities inside the ground set: the
        # edges from v into a block B are sum(|levels[t] & B| << t).
        self.levels = []
        for v in items:
            row = {u: m for u, m in mult[v].items() if ground & bit[u]}
            self.levels.append([
                (t, sum(bit[u] for u, m in row.items() if m >> t & 1))
                for t in range(max(row.values(), default=0).bit_length())
            ])
        self.total = sum(1 for u, v in G.edges if ground & bit[u] and ground & bit[v])
        self.labels = [0] * len(items)
        self.masks = [0] * len(items)

    def partition(self) -> Partition:
        used = max(self.labels, default=-1) + 1
        return Partition(tuple(mask_vertices(self.n, m) for m in self.masks[:used]))

    def __iter__(self) -> Iterator[tuple[int, int, int, int]]:
        bits, adjacency, levels, z = self.bits, self.adjacency, self.levels, self.z
        labels, masks = self.labels, self.masks
        r = len(bits)
        labels[:] = [0] * r
        masks[:] = [0] * r
        sizes = [0] * r
        near = [0] * r  # per block: the union of its vertices' neighbourhoods
        undo = [(0, 0)] * r  # per item: its edges into its block, the block's old `near`
        blocks = inside = singletons = touching = 0
        i = 0
        while True:
            # Items i.. join the blocks their labels name.
            for i in range(i, r):
                j = labels[i]
                block = masks[j]
                into = 0
                for t, level in levels[i]:
                    into += (level & block).bit_count() << t
                old = near[j]
                new = old | adjacency[i]
                undo[i] = (into, old)
                masks[j] = block | bits[i]
                near[j] = new
                size = sizes[j]
                sizes[j] = size + 1
                if size == 0:
                    blocks += 1
                    singletons += 1
                elif size == 1:
                    singletons -= 1
                inside += into
                if z:
                    touching += (new & z).bit_count() - (old & z).bit_count()
            yield blocks, inside, singletons, touching
            # The next restricted-growth string: the last item whose label
            # may grow (up to the number of blocks among earlier items)
            # takes the next label, and every later item goes to block 0.
            i = r - 1
            while i > 0:
                j = labels[i]
                into, old = undo[i]
                new = near[j]
                masks[j] ^= bits[i]
                near[j] = old
                size = sizes[j] - 1
                sizes[j] = size
                if size == 0:
                    blocks -= 1
                    singletons -= 1
                elif size == 1:
                    singletons += 1
                inside -= into
                if z:
                    touching -= (new & z).bit_count() - (old & z).bit_count()
                if j < blocks:
                    break
                i -= 1
            else:
                return
            labels[i] += 1
            labels[i + 1:] = [0] * (r - 1 - i)


def first_short_partition(
    G: Multigraph, z: int, slope: int, per_singleton: int, per_touch: int
) -> tuple[Partition, int, int] | None:
    """The first partition pi of V - Z in ``PartitionWalk`` order with

        cross_{G-Z}(pi) < slope(|pi| - 1) - per_singleton*n0 - per_touch*nZ

    as (pi, lhs, rhs); None when there is none.  Z is the vertex mask ``z``;
    the caller runs the guardrails."""
    walk = PartitionWalk(G, ((1 << G.n) - 1) ^ z, z)
    total = walk.total
    for blocks, inside, singletons, touching in walk:
        lhs = total - inside
        rhs = slope * (blocks - 1) - per_singleton * singletons - per_touch * touching
        if lhs < rhs:
            return walk.partition(), lhs, rhs
    return None


def masks_by_size(n: int, sizes: Iterable[int]) -> Iterator[int]:
    """The vertex masks of each size in ``sizes`` in turn, lexicographic
    (mask descending) within a size."""
    bits = [1 << (n - 1 - v) for v in range(n)]
    for size in sizes:
        for combo in itertools.combinations(bits, size):
            yield sum(combo)
