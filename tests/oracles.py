"""Independent definitional oracles.

Everything here is written directly from the definitions with itertools
and plain dictionaries: no pebble game, no union-find, no matroid union.
The main implementation is tested against these, so they must not share
code paths with it.  The exceptions at the end, ``union_rank_reference``,
``reach_closure``, ``circuit_by_delete_and_retry``, the ``*_reference``
condition scans and the ``*_bruteforce`` scans, are regression oracles
rather than definitional ones.  So are the guarded enumerators at the
start, ``enumerate_vertex_subsets``, ``enumerate_partitions`` and
``bell_number``: the reference scans draw from them, in the orders the
library's bitmask kernel must match.  ``certified`` is no oracle: it reads
what a library report's certificate states into the references' form,
``claim_verdict`` only hands a forged claim to the verifier, and
``packing_verdict`` and ``cover_verdict`` hand it a packing or a cover as
a ``pack`` or an ``ndt`` claim.
"""

from __future__ import annotations

import itertools
import random
from collections import deque, namedtuple
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator

from rigidpack import (
    GraphInputError,
    LimitExceededError,
    Multigraph,
    Partition,
)
from rigidpack.certificates import (
    SCHEMA,
    certificate_hash,
    decomposition_payload,
    graph_hash,
    report_payload,
    verify_certificate,
)
from rigidpack.conditions import ConditionReport, GammaResult, _cut_below
from rigidpack.matroids import PebbleGame, UnionFind, rigidity_rank
from rigidpack.multigraph import (
    adjacent_number,
    check_edge_subset,
    cross_edge_count,
    induced_edge_count,
    multiplicities,
)
from rigidpack.union import (
    Decomposition,
    UnionRank,
    degree_bound_floor,
    union_rank,
)


# The exhaustive subset scans here refuse more vertices than this.
SUBSET_LIMIT = 16
# The partition enumerator here refuses ground sets larger than this, so
# the necessary reference refuses above 12 vertices and the Z scan
# references, which walk Bell(n + 1) - 1 partitions, above 11.
PARTITION_LIMIT = 12


def _check_subset_limit(n: int, max_n: int | None = None, what: str = "subset enumeration"):
    """The subset scans' guardrail, which an enumerator's caller may move."""
    limit = SUBSET_LIMIT if max_n is None else max_n
    if n > limit:
        raise LimitExceededError(f"{what} is limited to n <= {limit} vertices (got n={n})")


def enumerate_vertex_subsets(
    G: Multigraph, min_size: int = 0, *, max_n: int | None = None
) -> Iterator[frozenset]:
    """All subsets of V(G) with at least ``min_size`` vertices.

    Order: decreasing size, lexicographic within a size, so the whole
    vertex set comes first.
    """
    _check_subset_limit(G.n, max_n)
    verts = range(G.n)
    for size in range(G.n, min_size - 1, -1):
        if size < 0:
            break
        for combo in itertools.combinations(verts, size):
            yield frozenset(combo)


def _restricted_growth_strings(n: int) -> Iterator[list[int]]:
    # Lexicographic restricted-growth strings; the yielded list is reused.
    if n == 0:
        yield []
        return
    a = [0] * n
    b = [1] * n  # b[i] = 1 + max(a[:i]), the largest value allowed at i
    while True:
        yield a
        i = n - 1
        while i > 0 and a[i] == b[i]:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        nxt = b[i] + 1 if a[i] == b[i] else b[i]
        for j in range(i + 1, n):
            a[j] = 0
            b[j] = nxt


def enumerate_partitions(
    S: Iterable[int], *, max_size: int | None = None
) -> Iterator[Partition]:
    """All set partitions of ``S`` in restricted-growth-string order.

    The single-block partition comes first and the all-singletons
    partition last; blocks are ordered by first appearance.
    """
    items = sorted(S)
    limit = PARTITION_LIMIT if max_size is None else max_size
    if len(items) > limit:
        raise LimitExceededError(
            f"partition enumeration is limited to {limit} elements (got {len(items)})"
        )
    for rgs in _restricted_growth_strings(len(items)):
        nblocks = max(rgs) + 1 if rgs else 0
        blocks: list[list[int]] = [[] for _ in range(nblocks)]
        for item, label in zip(items, rgs):
            blocks[label].append(item)
        yield Partition(tuple(frozenset(b) for b in blocks))


def bell_number(n: int) -> int:
    """Number of set partitions of an n-element set (triangle recurrence)."""
    if n == 0:
        return 1
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for val in row:
            nxt.append(nxt[-1] + val)
        row = nxt
    return row[-1]


def iter_subsets(items, min_size=0):
    items = sorted(items)
    for r in range(min_size, len(items) + 1):
        for combo in itertools.combinations(items, r):
            yield frozenset(combo)


def set_partitions(items):
    """All set partitions, as lists of lists (recursive construction)."""
    items = sorted(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def induced(G, F, X):
    return sum(1 for e in F if G.edges[e][0] in X and G.edges[e][1] in X)


def cross(G, blocks):
    lookup = {}
    for i, b in enumerate(blocks):
        for v in b:
            lookup[v] = i
    return sum(
        1
        for u, v in G.edges
        if u in lookup and v in lookup and lookup[u] != lookup[v]
    )


def adjacent_number_def(G, Z, blocks):
    neighbours = {v: set() for v in range(G.n)}
    for u, v in G.edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    return sum(sum(1 for z in Z if neighbours[z] & set(b)) for b in blocks)


def sparse_by_def(G, F):
    return all(
        induced(G, F, X) <= 2 * len(X) - 3 for X in iter_subsets(range(G.n), 2)
    )


def count_sparse_def(G, F, a, b, w=1):
    """(a,b)-sparse: every vertex set X that spans an edge of F spans at
    most a|X| - b of them, each of weight w."""
    for X in iter_subsets(range(G.n), 2):
        count = induced(G, F, X)
        if count and w * count > a * len(X) - b:
            return False
    return True


def forest_by_def(G, F):
    """Acyclic iff every vertex subset induces at most |X| - 1 edges of F."""
    return all(
        induced(G, F, X) <= len(X) - 1 for X in iter_subsets(range(G.n), 2)
    )


def max_sparse_subset_size(G, F):
    F = sorted(F)
    for r in range(len(F), 0, -1):
        for combo in itertools.combinations(F, r):
            if sparse_by_def(G, combo):
                return r
    return 0


def graphic_rank_def(G, F):
    adj = {v: [] for v in range(G.n)}
    for e in F:
        u, v = G.edges[e]
        adj[u].append(v)
        adj[v].append(u)
    seen = set()
    comps = 0
    for s in range(G.n):
        if s in seen:
            continue
        comps += 1
        stack = [s]
        seen.add(s)
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return G.n - comps


def union_rank_def(G, k, l):
    """Rank formula evaluated with the definitional ranks (tiny m only)."""
    best = None
    for F in iter_subsets(range(G.m)):
        val = (
            k * max_sparse_subset_size(G, F)
            + l * graphic_rank_def(G, F)
            + (G.m - len(F))
        )
        if best is None or val < best:
            best = val
    return best


# The field of ``generic_union_rank``: integers mod the Mersenne prime 2^61 - 1.
GENERIC_PRIME = (1 << 61) - 1


def generic_union_rank(G, k, l, F=None, seed=0):
    """Rank of edge set F (default all of E) in the union of k rigidity and
    l graphic matroids, as the rank of a matrix mod GENERIC_PRIME.

    Each rigidity copy is the rigidity matrix at its own random points
    (edge uv has p_u - p_v at u's two coordinates and p_v - p_u at v's),
    each graphic copy the incidence matrix, and edge e's part in copy i is
    scaled by a random t(e, i).  Stacked, the copies represent the union:
    a square minor expands over the splits of its edges into the copies,
    and is not zero only if some split is independent in every copy.  So
    the result never exceeds the union rank, at any points, and equals it
    unless the draw hits a root of a nonzero minor (Schwartz-Zippel).  No
    pebble game or union-find is used: Gaussian elimination keeps each
    basis vector reduced at every other pivot, so a new column is reduced
    by the basis vectors at its own few entries."""
    p, n = GENERIC_PRIME, G.n
    rng = random.Random(seed)
    points = [[(rng.randrange(p), rng.randrange(p)) for _ in range(n)] for _ in range(k)]
    basis: dict[int, dict[int, int]] = {}  # pivot -> entries at non-pivot rows
    for e in (range(G.m) if F is None else sorted(F)):
        u, v = G.edges[e]
        column: dict[int, int] = {}
        for i, pts in enumerate(points):
            t, base = rng.randrange(1, p), 2 * n * i
            for a, b in ((u, v), (v, u)):
                for axis in (0, 1):
                    column[base + 2 * a + axis] = t * (pts[a][axis] - pts[b][axis]) % p
        for j in range(l):
            t, base = rng.randrange(1, p), 2 * n * k + n * j
            column[base + u], column[base + v] = t, p - t
        reduced = {r: x for r, x in column.items() if r not in basis}
        for r, x in column.items():
            for r2, y in basis.get(r, {}).items():
                reduced[r2] = (reduced.get(r2, 0) - x * y) % p
        reduced = {r: x for r, x in reduced.items() if x}
        if not reduced:
            continue
        pivot = min(reduced)
        inverse = pow(reduced.pop(pivot), p - 2, p)
        new = {r: x * inverse % p for r, x in reduced.items()}
        for vector in basis.values():
            if (x := vector.pop(pivot, 0)):
                for r, y in new.items():
                    if (z := (vector.get(r, 0) - x * y) % p):
                        vector[r] = z
                    else:
                        vector.pop(r, None)
        basis[pivot] = new
    return len(basis)


def collection_rank_min(G, F):
    """Minimum of sum(2|X| - 3) over collections whose induced edge sets
    partition F (the closed-form rigidity rank, for tiny F)."""
    F = sorted(F)
    if not F:
        return 0
    best = None
    for part in set_partitions(F):
        total = 0
        ok = True
        for group in part:
            supp = set()
            for e in group:
                supp.update(G.edges[e])
            if sorted(e for e in F if G.edges[e][0] in supp and G.edges[e][1] in supp) != sorted(group):
                ok = False
                break
            total += 2 * len(supp) - 3
        if ok and (best is None or total < best):
            best = total
    return best


def sparse_cover_def(G, k):
    return all(
        induced(G, range(G.m), X) <= k * (2 * len(X) - 3)
        for X in iter_subsets(range(G.n), 2)
    )


def forest_cover_def(G, l):
    return all(
        induced(G, range(G.m), X) <= l * (len(X) - 1)
        for X in iter_subsets(range(G.n), 1)
    )


def tree_packing_def(G, l):
    return all(
        cross(G, part) >= l * (len(part) - 1)
        for part in set_partitions(range(G.n))
    )


def parthm_def(G, k, l):
    vertices = set(range(G.n))
    for Z in iter_subsets(vertices):
        if len(Z) == G.n:
            continue
        for part in set_partitions(vertices - Z):
            n0 = sum(1 for b in part if len(b) == 1)
            nz = adjacent_number_def(G, Z, part)
            if cross(G, part) < (3 * k + l) * (len(part) - 1) - k * n0 - k * nz:
                return False
    return True


def necessary_def(G, k, l):
    for part in set_partitions(range(G.n)):
        n0 = sum(1 for b in part if len(b) == 1)
        if cross(G, part) < (3 * k + l) * (len(part) - 1) - k * n0:
            return False
    return True


def gamma_def(G):
    return max(
        Fraction(induced(G, range(G.m), X), len(X) - 1)
        for X in iter_subsets(range(G.n), 2)
    )


def gamma2_def(G):
    return max(
        Fraction(induced(G, range(G.m), X), 2 * len(X) - 3)
        for X in iter_subsets(range(G.n), 2)
    )


def edge_conn_within_def(G, W):
    W = sorted(W)
    if len(W) <= 1:
        return None
    inside = [(u, v) for u, v in G.edges if u in W and v in W]
    best = None
    for r in range(len(W) - 1):
        for combo in itertools.combinations(W[1:], r):
            S = set(combo) | {W[0]}
            cut = sum(1 for u, v in inside if (u in S) != (v in S))
            if best is None or cut < best:
                best = cut
    return best


def pq_connected_def(G, p, q):
    if G.n * q <= p:
        return False
    vertices = set(range(G.n))
    for X in iter_subsets(vertices):
        if len(X) == G.n:
            continue
        need = p - q * len(X)
        if need <= 0:
            continue
        lam = edge_conn_within_def(G, vertices - X)
        if lam is not None and lam < need:
            return False
    return True


def bracket_pc_def(G, p, q):
    if G.n * q <= p:
        return False
    vertices = set(range(G.n))
    for Z in iter_subsets(vertices):
        if len(Z) == G.n:
            continue
        for part in set_partitions(vertices - Z):
            if cross(G, part) < p * (len(part) - 1) - q * adjacent_number_def(G, Z, part):
                return False
    return True


def essential_def(G):
    if G.n <= 3:
        return None
    vals = []
    for S in iter_subsets(range(G.n), 2):
        if 0 not in S or G.n - len(S) < 2:
            continue
        vals.append(cross(G, [sorted(S), sorted(set(range(G.n)) - S)]))
    return min(vals)


def violated_def(G, condition, parameters, witness):
    """(violated, lhs, rhs) of a failure's inequality at its witness, from
    the definitions: what the failure's certificate must state."""
    p = dict(parameters)
    k, l = p.get("k", 0), p.get("l", 0)
    if condition in ("union-cover", "packing"):
        F = witness  # Edmonds: m - |F| + k r_rig(F) + l r_gr(F) bounds the union rank
        lhs = G.m - len(F) + k * max_sparse_subset_size(G, F) + l * graphic_rank_def(G, F)
        rhs = G.m if condition == "union-cover" else k * (2 * G.n - 3) + l * (G.n - 1)
        return lhs < rhs, lhs, rhs
    if condition in ("tree-packing", "necessary", "parthm"):
        Z, pi = witness if condition == "parthm" else (frozenset(), witness)
        blocks = [sorted(b) for b in pi.blocks]
        n0 = sum(1 for b in blocks if len(b) == 1)
        lhs = cross(G, blocks)
        rhs = (3 * k + l) * (len(blocks) - 1) - k * n0 - k * adjacent_number_def(G, Z, blocks)
        return lhs < rhs, lhs, rhs
    size, inside = len(witness), induced(G, range(G.m), witness)
    if condition == "kwz":
        d = Fraction(p["d"])
        lhs = (k + 1) * (k + d) * size - (k + d + 1) * inside - k * k
        return size >= 1 and lhs < 0, lhs, 0
    if condition == "forest-cover":
        return size >= 1 and inside > l * (size - 1), inside, l * (size - 1)
    # cover and sparse-cover
    return size >= 2 and inside > k * (2 * size - 3), inside, k * (2 * size - 3)


def kwz_def(G, k, d):
    d = Fraction(d)
    return all(
        (k + 1) * (k + d) * len(X) - (k + d + 1) * induced(G, range(G.m), X) - k * k >= 0
        for X in iter_subsets(range(G.n), 1)
    )


def two_connected_def(G):
    """Connected, n >= 3, and still connected after removing any vertex."""
    if G.n < 3 or not connected_def(G):
        return False
    return all(connected_def(G, set(range(G.n)) - {v}) for v in range(G.n))


def connected_def(G, W=None):
    """Is the subgraph induced by W (all of V by default) connected?"""
    if W is None:
        W = set(range(G.n))
    if not W:
        return True
    adj = {v: set() for v in W}
    for u, v in G.edges:
        if u in W and v in W:
            adj[u].add(v)
            adj[v].add(u)
    start = next(iter(W))
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen == W


def multiplicity(G):
    """Largest number of parallel edges between any vertex pair."""
    counts: dict[tuple[int, int], int] = {}
    for pair in G.edges:
        counts[pair] = counts.get(pair, 0) + 1
    return max(counts.values(), default=0)


def bounded_split_exists_def(G, d):
    """Is there an acyclic T with the remaining edges of max degree <= d?"""
    for T in iter_subsets(range(G.m)):
        if not forest_by_def(G, T):
            continue
        deg = [0] * G.n
        for e in range(G.m):
            if e not in T:
                u, v = G.edges[e]
                deg[u] += 1
                deg[v] += 1
        if not deg or max(deg) <= d:
            return True
    return False


def capped_forest_exists_def(G, S, head, cap):
    """Is there a set I of the edges in ``head`` with exactly cap[v] of
    them at each head v = head[e] and S + I acyclic?"""
    for I in itertools.combinations(sorted(head), sum(cap)):
        counts = [0] * G.n
        for e in I:
            counts[head[e]] += 1
        if counts == list(cap) and forest_by_def(G, set(S) | set(I)):
            return True
    return False


# ----------------------------------------------------------------------
# Regression oracle for the matroid union.  Unlike everything above, this
# is not definitional: it is the same augmenting-path search as
# ``rigidpack.union.union_rank`` without the live class oracles.  Every
# augmentation rebuilds all class oracles and every fundamental circuit is
# found by replaying a fresh pebble game per candidate, so it shares no
# state with ``union_rank``, only ``PebbleGame.try_insert``/``remove`` and
# ``UnionFind``.  The two must return identical decompositions.


class _RigidityClass:
    """Per-class oracle used during one augmentation round (class frozen)."""

    def __init__(self, G: Multigraph, members: list[int]) -> None:
        self.G = G
        self.members = members
        self.game = PebbleGame(G.n)
        for e in members:
            if not self.game.try_insert(*G.edges[e]):
                raise RuntimeError("union invariant broken: class not sparse")

    def probe(self, u: int, v: int) -> tuple[bool, frozenset | None]:
        game = self.game
        if game.try_insert(u, v):
            game.remove(u, v)
            return True, None
        return False, game.last_witness()

    def circuit(self, eid: int, witness: frozenset) -> list[int]:
        # The fundamental circuit lies inside the witness closure, so only
        # members induced by it are candidates.
        u, v = self.G.edges[eid]
        candidates = [x for x in self.members
                      if self.G.edges[x][0] in witness and self.G.edges[x][1] in witness]
        circ = []
        for x in candidates:
            trial = PebbleGame(self.G.n)
            ok = True
            for y in self.members:
                if y != x and not trial.try_insert(*self.G.edges[y]):
                    ok = False
                    break
            if ok and trial.try_insert(u, v):
                circ.append(x)
        return circ


class _GraphicClass:
    """Forest oracle: component labels for independence, tree paths for
    circuits."""

    def __init__(self, G: Multigraph, members: list[int]) -> None:
        self.G = G
        uf = UnionFind(G.n)
        self.adj: list[list[tuple[int, int]]] = [[] for _ in range(G.n)]
        for e in members:
            u, v = G.edges[e]
            if not uf.union(u, v):
                raise RuntimeError("union invariant broken: class not a forest")
            self.adj[u].append((v, e))
            self.adj[v].append((u, e))
        self.comp = [uf.find(x) for x in range(G.n)]

    def probe(self, u: int, v: int) -> tuple[bool, None]:
        return self.comp[u] != self.comp[v], None

    def circuit(self, eid: int, witness=None) -> list[int]:
        u, v = self.G.edges[eid]
        # BFS along the forest from u to v; the path edges form the circuit.
        prev: dict[int, tuple[int, int]] = {u: (-1, -1)}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            if x == v:
                break
            for y, e in self.adj[x]:
                if y not in prev:
                    prev[y] = (x, e)
                    queue.append(y)
        path = []
        node = v
        while node != u:
            node, e = prev[node]
            path.append(e)
        return sorted(path)


def _build_classes(G: Multigraph, k: int, l: int, color: list[int]):
    members: list[list[int]] = [[] for _ in range(k + l + 1)]
    for e, c in enumerate(color):
        if c:
            members[c].append(e)
    classes: dict[int, object] = {}
    for j in range(1, k + 1):
        classes[j] = _RigidityClass(G, members[j])
    for j in range(k + 1, k + l + 1):
        classes[j] = _GraphicClass(G, members[j])
    return classes


def _augment(G: Multigraph, k: int, l: int, color: list[int], start: int, reached: set) -> bool:
    """Try to absorb edge ``start``; on success the colouring is updated,
    on failure the edges the search reached join ``reached``."""
    classes = _build_classes(G, k, l, color)
    pred: dict[int, tuple[int, int] | None] = {start: None}
    queue = deque([start])
    found = None
    while queue and found is None:
        y = queue.popleft()
        u, v = G.edges[y]
        for j in range(1, k + l + 1):
            if color[y] == j:
                continue
            oracle = classes[j]
            ok, witness = oracle.probe(u, v)
            if ok:
                found = (y, j)
                break
            for x in oracle.circuit(y, witness):
                if x not in pred:
                    pred[x] = (y, j)
                    queue.append(x)
    if found is None:
        reached.update(pred)
        return False
    cur, new_color = found
    while True:
        info = pred[cur]
        vacated = color[cur]
        color[cur] = new_color
        if info is None:
            return True
        cur, new_color = info[0], vacated


def union_rank_reference(G: Multigraph, k: int, l: int) -> UnionRank:
    """Maximum edge set splittable into k sparse sets and l forests,
    together with the split."""
    if k < 0 or l < 0 or k + l < 1:
        raise GraphInputError("need k >= 0, l >= 0, and k + l >= 1")
    cap = k * max(0, 2 * G.n - 3) + l * max(0, G.n - 1)
    color = [0] * G.m
    rank = 0
    reached: set[int] = set()
    for e in range(G.m):
        if rank >= cap:
            reached = set(range(G.m))
            break
        if _augment(G, k, l, color, e, reached):
            rank += 1
    # Cheap paranoia: rebuilding the class oracles re-validates that every
    # class is still independent after all the exchanges.
    _build_classes(G, k, l, color)
    dec = Decomposition(k, l, tuple(color))
    return UnionRank(rank, dec.covered(), dec, frozenset(reached))


def reach_closure(game: PebbleGame, u: int, v: int) -> frozenset:
    """Vertices reachable from {u, v} along the pebble game's current
    orientation, by a search of its own: what ``PebbleGame.last_witness``
    must equal right after the game rejected the edge u-v."""
    seen = {u, v}
    stack = [u, v]
    while stack:
        x = stack.pop()
        for y in game.out[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return frozenset(seen)


def circuit_by_delete_and_retry(cls, eid: int, witness: frozenset) -> list[int]:
    """Fundamental circuit of edge ``eid`` in a live
    ``rigidpack.union._CountClass`` whose game just rejected it, found
    by moving pebbles: a member x inside the witness closure is in the
    circuit iff the class without x accepts the edge.  Delete x, retry
    the edge, then restore x; the class is left as it was found."""
    u, v = cls.G.edges[eid]
    edges, game = cls.G.edges, cls.game
    circ = []
    for x in cls.members:
        a, b = edges[x]
        if a not in witness or b not in witness:
            continue
        game.remove(a, b)
        if game.try_insert(u, v):
            circ.append(x)
            game.remove(u, v)
        if not game.try_insert(a, b):
            raise AssertionError("a class member could not be restored")
    return circ


# ------------------------------------------------ frozenset scan references
#
# The exhaustive condition scans as they were written before the bitmask
# kernel: one frozenset or Partition per set drawn from the public
# enumerators, with the counting primitives of ``rigidpack.multigraph``.
# Regression oracles: the kernel must give the same whole report (verdict,
# witness, argmax) wherever the reference answers, and its certificate the
# same witness kind and both sides.


class ReferenceReport(namedtuple(
        "ReferenceReport", "condition parameters holds witness witness_kind lhs rhs")):
    """A reference scan's answer: the library's report (the first four
    fields), and the witness kind and the two sides of the violated
    inequality that the report's certificate must state."""

    __slots__ = ()

    def __new__(cls, condition, parameters, holds, witness=None, witness_kind=None,
                lhs=None, rhs=None):
        report = ConditionReport(condition, parameters, holds, witness)
        return super().__new__(cls, *report, witness_kind, lhs, rhs)


def certified(G: Multigraph, report: ConditionReport) -> ReferenceReport:
    """``report`` with the witness kind and both sides its certificate
    states, in the form of the reference scans."""
    payload = report_payload(G, report)
    kind = payload["witness"] and payload["witness"]["kind"]
    lhs, rhs = (None if x is None else Fraction(x) for x in (payload["lhs"], payload["rhs"]))
    return ReferenceReport(*report, kind, lhs, rhs)


def claim_verdict(G: Multigraph, command: str, parameters: dict, payload: dict):
    """``verify_certificate``'s verdict on a certificate of this claim,
    hashed as the CLI would hash it but never self-checked, so a forged
    claim reaches the verifier."""
    cert = {"schema": SCHEMA, "command": command, "parameters": parameters,
            "graph_hash": graph_hash(G), "payload": payload, "verified": True}
    cert["cert_hash"] = certificate_hash(cert)
    return verify_certificate(cert, G)


def packing_verdict(G: Multigraph, dec: Decomposition):
    """``verify_certificate``'s verdict on dec as the payload of a ``pack``
    certificate."""
    return claim_verdict(G, "pack", {"k": dec.k, "l": dec.l}, decomposition_payload(dec))


def cover_verdict(G: Multigraph, dec: Decomposition):
    """``verify_certificate``'s verdict on dec as the payload of an ``ndt``
    certificate, whose k gives 2k + 2 - l bounded classes."""
    k = (dec.l + dec.bounded) // 2 - 1
    return claim_verdict(G, "ndt", {"k": k, "l": dec.l}, decomposition_payload(dec))


def check_cover_condition_reference(G: Multigraph, k: int) -> ReferenceReport:
    """Does every X with |X| >= 2 satisfy i(X) <= k(2|X| - 3)?"""
    if k < 0:
        raise GraphInputError("need k >= 0")
    for X in enumerate_vertex_subsets(G, 2):
        lhs = induced_edge_count(G, X)
        rhs = k * (2 * len(X) - 3)
        if lhs > rhs:
            return ReferenceReport("cover", {"k": k}, False, X, "vertex-set", lhs, rhs)
    return ReferenceReport("cover", {"k": k}, True)


def check_tree_packing_condition_reference(G: Multigraph, l: int) -> ReferenceReport:
    """Does every partition p of V satisfy cross(p) >= l(|p| - 1)?"""
    if l < 0:
        raise GraphInputError("need l >= 0")
    for pi in enumerate_partitions(G.vertices()):
        lhs = cross_edge_count(G, pi)
        rhs = l * (len(pi) - 1)
        if lhs < rhs:
            return ReferenceReport("tree-packing", {"l": l}, False, pi, "partition", lhs, rhs)
    return ReferenceReport("tree-packing", {"l": l}, True)


def proper_subsets_reference(G: Multigraph):
    # All proper subsets of V (empty included), smallest first so the
    # Z = empty-set cases are scanned before any vertex deletions.
    _check_subset_limit(G.n)
    verts = range(G.n)
    for size in range(G.n):
        for combo in itertools.combinations(verts, size):
            yield frozenset(combo)


def _check_z_scan_limit(G: Multigraph) -> None:
    """The reference's bound on a scan over every (Z, partition) pair,
    which walks Bell(n + 1) - 1 partitions."""
    if G.n + 1 > PARTITION_LIMIT:
        raise LimitExceededError(
            f"(Z, partition) scans walk Bell(n + 1) partitions and are limited to "
            f"n <= {PARTITION_LIMIT - 1} vertices (got n={G.n})"
        )


def check_parthm_condition_reference(G: Multigraph, k: int, l: int) -> ReferenceReport:
    """Sufficient packing condition: for every proper subset Z and every
    partition p of V - Z,

        cross_{G-Z}(p) >= (3k + l)(|p| - 1) - k*n0 - k*nZ

    where n0 counts trivial parts and nZ is the adjacent number of p with
    respect to Z.
    """
    if k < 0 or l < 0:
        raise GraphInputError("need k >= 0 and l >= 0")
    params = {"k": k, "l": l}
    _check_z_scan_limit(G)
    vertices = frozenset(G.vertices())
    for Z in proper_subsets_reference(G):
        rest = vertices - Z
        for pi in enumerate_partitions(rest):
            lhs = cross_edge_count(G, pi)
            rhs = (3 * k + l) * (len(pi) - 1) - k * pi.trivial_count - k * adjacent_number(G, Z, pi)
            if lhs < rhs:
                return ReferenceReport(
                    "parthm", params, False, (Z, pi), "z-partition", lhs, rhs
                )
    return ReferenceReport("parthm", params, True)


def check_necessary_condition_reference(G: Multigraph, k: int, l: int) -> ReferenceReport:
    """Necessary packing condition: every partition p of V satisfies
    cross(p) >= (3k + l)(|p| - 1) - k*n0."""
    if k < 0 or l < 0:
        raise GraphInputError("need k >= 0 and l >= 0")
    params = {"k": k, "l": l}
    for pi in enumerate_partitions(G.vertices()):
        lhs = cross_edge_count(G, pi)
        rhs = (3 * k + l) * (len(pi) - 1) - k * pi.trivial_count
        if lhs < rhs:
            return ReferenceReport("necessary", params, False, pi, "partition", lhs, rhs)
    return ReferenceReport("necessary", params, True)


def short_partitions_reference(G: Multigraph, Z: frozenset, slope: int, per_singleton: int,
                               per_touch: int) -> Iterator[tuple[Partition, int, int]]:
    """Every partition pi of V - Z with cross_{G-Z}(pi) < slope(|pi| - 1) -
    per_singleton*n0 - per_touch*nZ, as (pi, lhs, rhs), in enumeration
    order: what the pruned ``enumeration.short_partitions`` must report."""
    for pi in enumerate_partitions(frozenset(G.vertices()) - Z, max_size=G.n):
        lhs = cross_edge_count(G, pi)
        rhs = (slope * (len(pi) - 1) - per_singleton * pi.trivial_count
               - per_touch * adjacent_number(G, Z, pi))
        if lhs < rhs:
            yield pi, lhs, rhs


def gamma_reference(G: Multigraph) -> GammaResult:
    """Fractional arboricity: max of i(X) / (|X| - 1) over |X| >= 2,
    as an exact fraction with the first maximizer in enumeration order."""
    return density_max_reference(G, lambda x: x - 1)


def gamma2_reference(G: Multigraph) -> GammaResult:
    """Sparse-cover density: max of i(X) / (2|X| - 3) over |X| >= 2."""
    return density_max_reference(G, lambda x: 2 * x - 3)


def density_max_reference(G: Multigraph, denominator) -> GammaResult:
    if G.n < 2:
        raise GraphInputError("density parameters need at least 2 vertices")
    best: Fraction | None = None
    arg: frozenset | None = None
    for X in enumerate_vertex_subsets(G, 2):
        val = Fraction(induced_edge_count(G, X), denominator(len(X)))
        if best is None or val > best:
            best, arg = val, X
    assert best is not None and arg is not None
    return GammaResult(best, arg)


def min_cut_within_reference(G: Multigraph, W: frozenset) -> int | None:
    """Edge connectivity of the subgraph induced by W; None when |W| <= 1
    (vacuously as connected as required)."""
    verts = sorted(W)
    if len(verts) <= 1:
        return None
    inside = [(u, v) for u, v in G.edges if u in W and v in W]
    anchor = verts[0]
    rest = verts[1:]
    best: int | None = None
    for size in range(len(rest) + 1):
        for combo in itertools.combinations(rest, size):
            side = set(combo)
            side.add(anchor)
            if len(side) == len(verts):
                continue
            cut = sum(1 for u, v in inside if (u in side) != (v in side))
            if best is None or cut < best:
                best = cut
                if best == 0:
                    return 0
    return best


def edge_connectivity_reference(G: Multigraph) -> int | None:
    """Global edge connectivity by scanning all bipartitions; None for
    graphs with fewer than 2 vertices."""
    _check_subset_limit(G.n, what="edge connectivity scan")
    return min_cut_within_reference(G, frozenset(G.vertices()))


def is_pq_connected_reference(G: Multigraph, p: int, q: int) -> bool:
    """|V| > p/q and G - X is (p - q|X|)-edge-connected for every proper X."""
    if p < 1 or q < 1:
        raise GraphInputError("need p >= 1 and q >= 1")
    if G.n * q <= p:
        return False
    vertices = frozenset(G.vertices())
    for X in proper_subsets_reference(G):
        need = p - q * len(X)
        if need <= 0:
            continue
        cut = min_cut_within_reference(G, vertices - X)
        if cut is not None and cut < need:
            return False
    return True


def is_pq_connected_per_x_reference(G: Multigraph, p: int, q: int) -> bool:
    """(p,q)-connectivity by one threshold cut of G - X for each X with
    q|X| < p, smallest X first, and no guardrail: each cut's charge is
    dropped.  X is skipped when some x in X has fewer than 2q + 2 edges
    into V - X: G - (X - x) has already passed at p - q(|X| - 1), so a cut
    of G - X below p - q|X| would need q + 1 edges from x into each side.
    Polynomial in n for a fixed p/q, so it reaches the sizes where the
    exhaustive reference refuses."""
    if p < 1 or q < 1:
        raise GraphInputError("need p >= 1 and q >= 1")
    if G.n * q <= p:
        return False
    mult = multiplicities(G)
    deg = [sum(row.values()) for row in mult]
    for s in range((p - 1) // q + 1):
        for X in itertools.combinations(range(G.n), s):
            if G.n - s < 2 or any(
                deg[x] - sum(mult[x].get(y, 0) for y in X) < 2 * q + 2 for x in X
            ):
                continue
            adj = {v: {u: c for u, c in row.items() if u not in X}
                   for v, row in enumerate(mult) if v not in X}
            if _cut_below(adj, p - q * s, lambda steps: None):
                return False
    return True


def is_bracket_partition_connected_reference(G: Multigraph, p: int, q: int) -> bool:
    """|V| > p/q and cross_{G-Z}(pi) >= p(|pi| - 1) - q*nZ(pi) for every
    proper subset Z and partition pi of V - Z."""
    if p < 1 or q < 1:
        raise GraphInputError("need p >= 1 and q >= 1")
    if G.n * q <= p:
        return False
    _check_z_scan_limit(G)
    vertices = frozenset(G.vertices())
    for Z in proper_subsets_reference(G):
        rest = vertices - Z
        for pi in enumerate_partitions(rest):
            if cross_edge_count(G, pi) < p * (len(pi) - 1) - q * adjacent_number(G, Z, pi):
                return False
    return True


def essential_edge_connectivity_reference(G: Multigraph) -> int | None:
    """Minimum number of edges crossing a bipartition with both sides of
    size >= 2; None ("unbounded") when no such bipartition exists."""
    _check_subset_limit(G.n, what="essential connectivity scan")
    if G.n <= 3:
        return None
    best: int | None = None
    rest = range(1, G.n)
    for size in range(1, G.n - 2):
        for combo in itertools.combinations(rest, size):
            side = frozenset(combo) | {0}
            if len(side) < 2:
                continue
            pi = Partition((side, frozenset(G.vertices()) - side))
            cut = cross_edge_count(G, pi)
            if best is None or cut < best:
                best = cut
    return best


def check_kwz_condition_reference(G: Multigraph, k: int, d) -> ReferenceReport:
    """Does every nonempty X satisfy
    (k+1)(k+d)|X| - (k+d+1) i(X) - k^2 >= 0?

    ``d`` may be an integer or an exact fraction; the hypothesis requires
    d >= k + 1.
    """
    if k < 0:
        raise GraphInputError("need k >= 0")
    d = Fraction(d)
    if d < k + 1:
        raise GraphInputError(f"the degree bound requires d >= k + 1 (got d={d}, k={k})")
    params = {"k": k, "d": str(d)}
    for X in enumerate_vertex_subsets(G, 1):
        lhs = (k + 1) * (k + d) * len(X) - (k + d + 1) * induced_edge_count(G, X) - k * k
        if lhs < 0:
            return ReferenceReport("kwz", params, False, X, "vertex-set", lhs, 0)
    return ReferenceReport("kwz", params, True)


def pack_spanning_trees_reference(G: Multigraph, l: int) -> Decomposition | ReferenceReport:
    """Extract l edge-disjoint spanning trees, or report a partition pi
    with fewer than l(|pi| - 1) crossing edges."""
    if l < 1:
        raise GraphInputError("need l >= 1")
    if G.n < 2:
        raise GraphInputError("need at least two vertices")
    ur = union_rank(G, 0, l)
    target = l * (G.n - 1)
    if ur.rank == target:
        return ur.decomposition
    params = {"l": l}
    try:
        for pi in enumerate_partitions(G.vertices()):
            lhs = cross_edge_count(G, pi)
            rhs = l * (len(pi) - 1)
            if lhs < rhs:
                return ReferenceReport(
                    "tree-packing", params, False, pi, "partition", lhs, rhs
                )
    except LimitExceededError:  # witness unavailable above the guardrail
        return ReferenceReport("tree-packing", params, False)
    raise RuntimeError("tree packing failed but every partition satisfies the bound")


def sparse_independent_bruteforce(G: Multigraph, F: Iterable[int]) -> bool:
    """Definitional sparsity check: scan every vertex subset."""
    ids = check_edge_subset(G, F)
    pairs = [G.edges[e] for e in ids]
    for X in enumerate_vertex_subsets(G, 2):
        induced = sum(1 for u, v in pairs if u in X and v in X)
        if induced > 2 * len(X) - 3:
            return False
    return True


BRUTE_FORCE_EDGE_LIMIT = 14


@lru_cache(maxsize=4)
def _subset_rank_tables(G: Multigraph) -> tuple[list[int], list[int]]:
    """Rigidity and graphic ranks for every edge subset (as bitmask)."""
    m = G.m
    size = 1 << m
    rank_r = [0] * size
    basis_r = [0] * size
    rank_g = [0] * size
    basis_g = [0] * size
    edges = G.edges
    for mask in range(1, size):
        low = mask & -mask
        e = low.bit_length() - 1
        rest = mask ^ low
        u, v = edges[e]

        bas = basis_g[rest]
        uf = UnionFind(G.n)
        b = bas
        while b:
            x = (b & -b).bit_length() - 1
            uf.union(*edges[x])
            b &= b - 1
        if uf.union(u, v):
            rank_g[mask] = rank_g[rest] + 1
            basis_g[mask] = bas | low
        else:
            rank_g[mask] = rank_g[rest]
            basis_g[mask] = bas

        bas = basis_r[rest]
        game = PebbleGame(G.n)
        b = bas
        while b:
            x = (b & -b).bit_length() - 1
            game.try_insert(*edges[x])
            b &= b - 1
        if game.try_insert(u, v):
            rank_r[mask] = rank_r[rest] + 1
            basis_r[mask] = bas | low
        else:
            rank_r[mask] = rank_r[rest]
            basis_r[mask] = bas
    return rank_r, rank_g


def union_rank_bruteforce(G: Multigraph, k: int, l: int) -> int:
    """Evaluate the union rank formula over every edge subset."""
    if k < 0 or l < 0 or k + l < 1:
        raise GraphInputError("need k >= 0, l >= 0, and k + l >= 1")
    if G.m > BRUTE_FORCE_EDGE_LIMIT:
        raise LimitExceededError(
            f"brute-force union rank is limited to {BRUTE_FORCE_EDGE_LIMIT} edges (got {G.m})"
        )
    rank_r, rank_g = _subset_rank_tables(G)
    m = G.m
    best = m  # F = empty set
    for mask in range(1, 1 << m):
        val = k * rank_r[mask] + l * rank_g[mask] + (m - mask.bit_count())
        if val < best:
            best = val
    return best


def forest_plus_bounded_reference(H: Multigraph) -> tuple[frozenset, frozenset] | None:
    """Exhaustive backtracking over the edge list in id order, branching
    forest-first and copying the union-find at every node (one Python frame
    per edge): a forest-plus-bounded split, or None when none exists."""
    if rigidity_rank(H, range(H.m)).rank < H.m:
        raise GraphInputError("input graph is not (2,3)-sparse")
    bound = degree_bound_floor(H.n)
    m = H.m
    edges = H.edges
    rem_degree = [0] * H.n
    choice = [False] * m  # True = edge in forest
    uf = UnionFind(H.n)

    def search(depth: int) -> bool:
        if depth == m:
            return True
        u, v = edges[depth]
        if uf.find(u) != uf.find(v):
            saved_parent = uf.parent[:]
            saved_size = uf.size[:]
            uf.union(u, v)
            choice[depth] = True
            if search(depth + 1):
                return True
            uf.parent = saved_parent
            uf.size = saved_size
        if rem_degree[u] < bound and rem_degree[v] < bound:
            rem_degree[u] += 1
            rem_degree[v] += 1
            choice[depth] = False
            if search(depth + 1):
                return True
            rem_degree[u] -= 1
            rem_degree[v] -= 1
        return False

    if not search(0):
        return None
    forest = frozenset(e for e in range(m) if choice[e])
    return forest, frozenset(range(m)) - forest


def random_multigraph_reference(n: int, m: int, max_multiplicity: int = 1, seed: int = 0):
    """``random_multigraph`` sampling from the materialised list of every
    slot, each pair of ``combinations(range(n), 2)`` repeated
    ``max_multiplicity`` times; None when m edges do not fit."""
    pairs = list(itertools.combinations(range(n), 2))
    slots = [p for p in pairs for _ in range(max_multiplicity)]
    if m > len(slots):
        return None
    return Multigraph(n, tuple(sorted(random.Random(seed).sample(slots, m))))
