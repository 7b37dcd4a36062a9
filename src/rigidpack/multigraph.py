"""Multigraph values, partitions, and the counting primitives everything
else is built on.

Vertices are the integers ``0..n-1``.  Edges carry stable dense ids (their
position in the edge tuple), so parallel edges remain distinguishable when
they are assigned to different classes of a decomposition.  Loops are
rejected outright.
"""

from __future__ import annotations

import bisect
import random
import sys
from collections.abc import Iterable, Iterator

from .errors import GraphInputError, LimitExceededError

# Every command builds per-vertex lists (a pebble game holds about 250
# bytes a vertex), so a graph file may not promise more vertices than this.
VERTEX_LIMIT = 1 << 20


class _Record:
    """A value whose fields are its ``__slots__``: equal, hashed and shown
    by its fields, and never assigned after ``__init__``."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class Multigraph(_Record):
    """An undirected multigraph with no loops.

    ``edges`` is a tuple of endpoint pairs; each pair is normalized to
    ``(min, max)`` on construction.  The index of a pair is its edge id.
    """

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise GraphInputError("vertex count must be non-negative")
        norm = []
        for idx, pair in enumerate(edges):
            try:
                u, v = pair
            except (TypeError, ValueError):
                raise GraphInputError(f"edge {idx}: expected an endpoint pair") from None
            if type(u) is not int or type(v) is not int:  # bools are ints too
                raise GraphInputError(f"edge {idx}: endpoints must be integers: ({u!r}, {v!r})")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphInputError(f"edge {idx}: endpoint out of range 0..{n - 1}: ({u}, {v})")
            if u == v:
                raise GraphInputError(f"edge {idx}: loops are not allowed")
            norm.append((u, v) if u <= v else (v, u))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def m(self) -> int:
        return len(self.edges)

    def vertices(self) -> range:
        return range(self.n)

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def subgraph_of(self, F: Iterable[int]) -> "Multigraph":
        """Spanning subgraph keeping only edge ids ``F`` (ids are remapped
        to ``0..|F|-1`` in ascending order of the original ids)."""
        ids = check_edge_subset(self, F)
        return Multigraph(self.n, tuple(self.edges[e] for e in ids))


def multiplicities(G: Multigraph) -> list[dict[int, int]]:
    """Per vertex, its neighbours and the number of edges to each."""
    mult: list[dict[int, int]] = [{} for _ in range(G.n)]
    for u, v in G.edges:
        mult[u][v] = mult[u].get(v, 0) + 1
        mult[v][u] = mult[v].get(u, 0) + 1
    return mult


def check_vertex_subset(G: Multigraph, X: Iterable[int]) -> frozenset:
    X = frozenset(X)
    for v in X:
        if not (type(v) is int and 0 <= v < G.n):
            raise GraphInputError(f"vertex {v!r} out of range 0..{G.n - 1}")
    return X


def check_edge_subset(G: Multigraph, F: Iterable[int]) -> list[int]:
    """F's distinct edge ids, ascending.  The ids are checked in F's order
    before any is compared, so the first bad one is refused."""
    F = tuple(F)
    for e in F:
        if not (type(e) is int and 0 <= e < G.m):
            raise GraphInputError(f"edge id {e!r} out of range 0..{G.m - 1}")
    return sorted(set(F))


class Partition(_Record):
    """A partition of some vertex set into disjoint nonempty blocks."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: Iterable[Iterable[int]]) -> None:
        norm = tuple(frozenset(b) for b in blocks)
        seen: set[int] = set()
        for b in norm:
            if not b:
                raise GraphInputError("partition blocks must be nonempty")
            if seen & b:
                raise GraphInputError("partition blocks overlap")
            seen |= b
        object.__setattr__(self, "blocks", norm)

    @property
    def ground(self) -> frozenset:
        return frozenset().union(*self.blocks) if self.blocks else frozenset()

    @property
    def trivial_count(self) -> int:
        """Number of singleton blocks."""
        return sum(1 for b in self.blocks if len(b) == 1)

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[frozenset]:
        return iter(self.blocks)

    def block_of(self) -> dict[int, int]:
        """Vertex -> block index lookup."""
        lookup: dict[int, int] = {}
        for i, b in enumerate(self.blocks):
            for v in b:
                lookup[v] = i
        return lookup


def induced_edge_count(G: Multigraph, X: Iterable[int]) -> int:
    """Number of edges with both endpoints in ``X`` (parallel edges count)."""
    X = check_vertex_subset(G, X)
    return sum(1 for u, v in G.edges if u in X and v in X)


def cross_edge_count(G: Multigraph, pi: Partition) -> int:
    """Number of edges whose endpoints lie in two different blocks of ``pi``.

    Edges with an endpoint outside the partition's ground set are ignored,
    so for a partition of ``V(G) - Z`` this is the cross count in ``G - Z``.
    """
    lookup = pi.block_of()
    for v in lookup:
        if not 0 <= v < G.n:
            raise GraphInputError(f"partition vertex {v} out of range 0..{G.n - 1}")
    count = 0
    for u, v in G.edges:
        bu = lookup.get(u)
        bv = lookup.get(v)
        if bu is not None and bv is not None and bu != bv:
            count += 1
    return count


def adjacent_number(G: Multigraph, Z: Iterable[int], pi: Partition) -> int:
    """Sum over the blocks of ``pi`` of how many vertices of ``Z`` have a
    neighbour in that block.

    A vertex of ``Z`` counts once per block it touches, regardless of how
    many parallel edges realize the adjacency.  ``pi`` must partition
    exactly ``V(G) - Z``.
    """
    Z = check_vertex_subset(G, Z)
    ground = pi.ground
    if Z & ground:
        raise GraphInputError("Z intersects the partition's ground set")
    if Z | ground != frozenset(G.vertices()):
        raise GraphInputError("partition must cover exactly V(G) - Z")
    mult = multiplicities(G)
    return sum(1 for block in pi.blocks for z in Z if mult[z].keys() & block)


def random_multigraph(n: int, m: int, max_multiplicity: int = 1, seed: int = 0) -> Multigraph:
    """A random multigraph with exactly ``m`` edges and no vertex pair
    carrying more than ``max_multiplicity`` parallel edges.

    Deterministic for a fixed seed: edges are sampled without replacement
    from the multiset of available slots, then sorted.  Slot s is a copy of
    the (s // max_multiplicity)-th pair of ``combinations(range(n), 2)``;
    only the m sampled slots are decoded, so the cost is O(m log n).
    """
    if n < 0 or m < 0:
        raise GraphInputError("n and m must be non-negative")
    if max_multiplicity < 1:
        raise GraphInputError("max_multiplicity must be at least 1")
    total = n * (n - 1) // 2 * max_multiplicity
    if m > total:
        raise GraphInputError(
            f"cannot place {m} edges on {n} vertices with multiplicity <= {max_multiplicity}"
        )
    if total > sys.maxsize:  # more slots than a range can index
        raise GraphInputError(f"too many edge slots to sample from ({total} > {sys.maxsize})")

    def first_pair(u: int) -> int:  # index of (u, u + 1) among the pairs
        return u * (2 * n - u - 1) // 2

    edges = []
    for s in random.Random(seed).sample(range(total), m):
        p = s // max_multiplicity
        u = bisect.bisect_right(range(n), p, key=first_pair) - 1
        edges.append((u, u + 1 + p - first_pair(u)))
    return Multigraph(n, tuple(sorted(edges)))


def parse_graph(text: str) -> Multigraph:
    """Parse the plain text format: first line ``n m``, then ``m`` lines
    ``u v`` (0-based).  Parallel edges repeat lines; ids follow file order."""
    lines = text.splitlines()
    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if stripped:
            rows.append((lineno, stripped.split()))
    if not rows:
        raise GraphInputError("line 1: empty graph file")
    lineno, header = rows[0]
    if len(header) != 2:
        raise GraphInputError(f"line {lineno}: expected header 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise GraphInputError(f"line {lineno}: expected integers in header") from None
    if n > VERTEX_LIMIT:
        raise LimitExceededError(f"graphs are limited to {VERTEX_LIMIT} vertices (got n={n})")
    if len(rows) - 1 != m:
        raise GraphInputError(
            f"line {lineno}: header promises {m} edges, file has {len(rows) - 1} edge lines"
        )
    edges = []
    for lineno, fields in rows[1:]:
        if len(fields) != 2:
            raise GraphInputError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphInputError(f"line {lineno}: expected integer endpoints") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError(f"line {lineno}: endpoint out of range 0..{n - 1}")
        if u == v:
            raise GraphInputError(f"line {lineno}: loops are not allowed")
        edges.append((u, v))
    return Multigraph(n, tuple(edges))


def format_graph(G: Multigraph) -> str:
    """The canonical edge list: a line ``n m``, then ``u v`` per edge in id order."""
    return f"{G.n} {G.m}\n" + "".join(f"{u} {v}\n" for u, v in G.edges)


def load_graph(path) -> Multigraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_graph(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphInputError(f"cannot read graph file {path}: {exc}") from None


def write_graph(path, G: Multigraph) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(G))
