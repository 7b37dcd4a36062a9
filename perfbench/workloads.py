"""Seeded request pools for the three benchmark workloads.

Inputs are built here with the standard library's ``random`` only, never
with ``rigidpack.random_multigraph``, so a change to the program cannot
change what the benchmark feeds it.  Graphs are built so that their verdict
is known by construction wherever the theory gives one (a union of k Laman
graphs and l spanning trees decomposes and packs; fewer edges than the
threshold cannot pack; a doubled K4 cannot be split), which keeps the
verdict mix, and with it the latency mix, the same for every seed.  Every
graph is connected, because ``decompose`` and ``ndt`` reject disconnected
inputs with exit 2.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

MAX_MULT = 2

# Vertex counts.  Above 16 vertices the subset scans refuse (and above 12
# the partition scans), so failures in union-produce fall back to
# deficiency witnesses and enumeration does no work there.  Larger graphs
# (a failing (2,0) decompose takes seconds from n = 26, a holding kwz scan
# from n = 15, a holding parthm scan at n = 9) would leave too few
# requests per run for a steady median.
UNION_NS = (17, 18, 19, 20)
# Distinct graphs per union-produce request kind and vertex count.  The cost
# of union_rank on one graph differs from that on another of the same kind
# by 30 % and more, so a run's figures are steady from seed to seed only
# when they aggregate many distinct graphs.
UNION_REPLICAS = 5
SUBSET_NS = (11, 12, 13, 14)
KWZ_NS = (11, 12, 13, 14)  # kwz scans from |X| = 1 in exact fractions
PQ_NS = (11, 12, 13, 14)  # pq-connected runs a bipartition scan for each |X| < 2
PARTITION_NS = (7, 8, 9)
HEAVY_PARTITION_NS = (8,)  # parthm and bracket-partition
# Distinct graphs per subset-scan kind and vertex count.  A subset scan's
# cost depends on the graph; a partition scan's hardly does, and the
# partition scans have one graph each.
SCAN_REPLICAS = 2


@dataclass(frozen=True)
class Request:
    """One CLI call; ``argv`` holds a ``{graph}`` placeholder for the input file.

    ``expect`` is the exit code the construction guarantees, or None when
    the construction only makes the verdict likely.
    """

    name: str
    argv: tuple[str, ...]
    n: int
    edges: tuple[tuple[int, int], ...]
    expect: int | None

    def graph_text(self) -> str:
        return f"{self.n} {len(self.edges)}\n" + "".join(f"{u} {v}\n" for u, v in self.edges)


class _Builder:
    """Edge multiset on ``n`` vertices that respects ``MAX_MULT``."""

    def __init__(self, rng: random.Random, n: int) -> None:
        self.rng = rng
        self.n = n
        self.edges: list[tuple[int, int]] = []
        self.count: dict[tuple[int, int], int] = {}

    def room(self, u: int, v: int) -> bool:
        return self.count.get((min(u, v), max(u, v)), 0) < MAX_MULT

    def add(self, u: int, v: int) -> None:
        pair = (min(u, v), max(u, v))
        self.count[pair] = self.count.get(pair, 0) + 1
        self.edges.append(pair)

    def add_all(self, edges) -> bool:
        """Add every edge, or none of them when one would exceed MAX_MULT."""
        extra: dict[tuple[int, int], int] = {}
        for u, v in edges:
            pair = (min(u, v), max(u, v))
            extra[pair] = extra.get(pair, 0) + 1
            if self.count.get(pair, 0) + extra[pair] > MAX_MULT:
                return False
        for u, v in edges:
            self.add(u, v)
        return True

    def add_class(self, make) -> None:
        for _ in range(1000):
            if self.add_all(make(self.rng, self.n)):
                return
        raise RuntimeError("could not place a class within the multiplicity cap")

    def add_random(self, count: int) -> None:
        while count:
            u, v = self.rng.sample(range(self.n), 2)
            if self.room(u, v):
                self.add(u, v)
                count -= 1

    def connected_without(self, skip: int) -> bool:
        adj: dict[int, list[int]] = {}
        for i, (u, v) in enumerate(self.edges):
            if i != skip:
                adj.setdefault(u, []).append(v)
                adj.setdefault(v, []).append(u)
        seen, stack = {0}, [0]
        while stack:
            for y in adj.get(stack.pop(), ()):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == self.n

    def drop_random(self, count: int, keep=frozenset()) -> None:
        """Remove ``count`` random edges that have an endpoint outside
        ``keep`` and whose removal leaves the graph connected."""
        for _ in range(count):
            candidates = [i for i, (u, v) in enumerate(self.edges)
                          if not (u in keep and v in keep)]
            self.rng.shuffle(candidates)
            idx = next(i for i in candidates if self.connected_without(i))
            pair = self.edges.pop(idx)
            self.count[pair] -= 1

    def fill(self, verts) -> None:
        """Raise every pair among ``verts`` to ``MAX_MULT`` parallel edges."""
        for i, a in enumerate(verts):
            for b in verts[i + 1:]:
                while self.room(a, b):
                    self.add(a, b)

    def done(self) -> tuple[tuple[int, int], ...]:
        edges = self.edges[:]
        self.rng.shuffle(edges)
        return tuple(edges)


def spanning_tree(rng: random.Random, n: int) -> list[tuple[int, int]]:
    order = list(range(n))
    rng.shuffle(order)
    return [(order[i], order[rng.randrange(i)]) for i in range(1, n)]


def laman(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """A random minimally rigid graph (2n - 3 edges) by Henneberg moves."""
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[0], order[1])]
    for i in range(2, n):
        v = order[i]
        if i >= 3 and rng.random() < 0.3:
            # Type II: split an edge (a, b) through v and one more vertex c.
            a, b = edges.pop(rng.randrange(len(edges)))
            c = rng.choice([x for x in order[:i] if x != a and x != b])
            edges += [(v, a), (v, b), (v, c)]
        else:
            a, b = rng.sample(order[:i], 2)
            edges += [(v, a), (v, b)]
    return edges


def matching(rng: random.Random, n: int, size: int) -> list[tuple[int, int]]:
    verts = rng.sample(range(n), 2 * size)
    return [(verts[2 * i], verts[2 * i + 1]) for i in range(size)]


def hamiltonian_cycle(rng: random.Random, n: int) -> list[tuple[int, int]]:
    order = list(range(n))
    rng.shuffle(order)
    return [(order[i], order[(i + 1) % n]) for i in range(n)]


def _union(rng, n, k, l, *, extra=0, drop=0):
    """k Laman graphs plus l spanning trees, then ``extra`` random edges
    added or ``drop`` random edges removed."""
    b = _Builder(rng, n)
    for _ in range(k):
        b.add_class(laman)
    for _ in range(l):
        b.add_class(spanning_tree)
    b.add_random(extra)
    b.drop_random(drop)
    return b.done()


def _overfull(rng, n, k, l):
    """k Laman graphs plus l spanning trees, with four vertices made to span
    a doubled K4 (12 edges, more than k(2*4-3) + l(4-1) for every class mix
    used here), trimmed to two edges below the threshold.  The union then
    rejects a fixed number of edges, and, never reaching its cap, is offered
    every edge."""
    b = _Builder(rng, n)
    for _ in range(k):
        b.add_class(laman)
    for _ in range(l):
        b.add_class(spanning_tree)
    cluster = rng.sample(range(n), 4)
    before = len(b.edges)
    b.fill(cluster)
    inside = frozenset(cluster)
    b.drop_random(len(b.edges) - before + 2, keep=inside)
    # The cluster's edges come last, so the rejected ones are offered when
    # every other edge is in: the costliest augmentations, at a fixed point.
    edges = b.done()
    return (tuple(e for e in edges if not (e[0] in inside and e[1] in inside))
            + tuple(e for e in edges if e[0] in inside and e[1] in inside))


def _sparse_base(rng, n, matching_size):
    """A spanning tree plus a matching: every X spans at most 1.5|X| - 1 edges."""
    b = _Builder(rng, n)
    b.add_class(spanning_tree)
    b.add_class(lambda r, m: matching(r, m, matching_size))
    return b


def _tree_with_spot(rng, n, triangle):
    """A spanning tree with one dense spot: a doubled tree edge, the only set
    with i(X) > 2|X| - 3, or a triangle of 5 edges on a tree path, the only
    set with i(X) > 1.6|X| - 0.2.  A scan for either runs to its last sizes."""
    b = _Builder(rng, n)
    tree = spanning_tree(rng, n)
    b.add_all(tree)
    nbrs: dict[int, list[int]] = {}
    for u, v in tree:
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    mid = rng.choice(sorted(v for v in nbrs if len(nbrs[v]) >= 2))
    a, c = rng.sample(nbrs[mid], 2)
    b.add(a, mid)
    if triangle:
        b.add(a, c)
        b.add(a, c)
    return b.done()


def _pendant(rng, n, k, l):
    """k Laman graphs and l spanning trees on vertices 0..n-2, and vertex
    n-1 hanging on one edge.  The necessary and parthm conditions then fail
    at the second partition scanned, {V - {n-1}, {n-1}}."""
    b = _Builder(rng, n)
    for _ in range(k):
        b.add_class(lambda r, _: laman(r, n - 1))
    for _ in range(l):
        b.add_class(lambda r, _: spanning_tree(r, n - 1))
    b.add(n - 1, rng.randrange(n - 1))
    return b.done()


def _cycles(rng, n, *, drop=0):
    b = _Builder(rng, n)
    b.add_class(hamiltonian_cycle)
    b.add_class(hamiltonian_cycle)
    b.drop_random(drop)
    return b.done()


def _request(workload, seed, name, argv, n, make, expect) -> Request:
    # One generator per request, so a request's graph depends only on the
    # seed and its name, not on which other requests share the pool.
    rng = random.Random(f"{workload}/{seed}/{name}")
    return Request(name, argv, n, make(rng), expect)


def union_produce(seed: int) -> list[Request]:
    """decompose / pack / ndt around the matroid-union threshold k(2n-3) + l(n-1),
    ``UNION_REPLICAS`` distinct graphs of each kind at each vertex count.

    A pass graph is a union of k Laman graphs and l spanning trees, minus two
    edges for decompose and ndt and plus two for pack.  A failing pack has two
    edges fewer than the threshold; a failing decompose or ndt holds an
    overfull cluster.
    """
    out: list[Request] = []

    def add(name, argv, n, make, expect):
        out.append(_request("union-produce", seed, f"{name}-n{n}-r{rep}", argv, n, make, expect))

    for n, rep in itertools.product(UNION_NS, range(UNION_REPLICAS)):
        for k, l in ((2, 0), (1, 1), (1, 2), (0, 3)):
            argv = ("decompose", "{graph}", "--k", str(k), "--l", str(l))
            add(f"decompose-{k}{l}-pass", argv, n, lambda r: _union(r, n, k, l, drop=2), 0)
            add(f"decompose-{k}{l}-fail", argv, n, lambda r: _overfull(r, n, k, l), 1)
        for k, l in ((1, 1), (0, 2)):
            argv = ("pack", "{graph}", "--k", str(k), "--l", str(l))
            add(f"pack-{k}{l}-pass", argv, n, lambda r: _union(r, n, k, l, extra=2), 0)
            add(f"pack-{k}{l}-fail", argv, n, lambda r: _union(r, n, k, l, drop=2), 1)
        # ndt --k 1 needs two sparse classes before it splits each one.
        argv = ("ndt", "{graph}", "--k", "1", "--l", "2")
        add("ndt-12-pass", argv, n, lambda r: _union(r, n, 2, 0, drop=2), 0)
        add("ndt-12-fail", argv, n, lambda r: _overfull(r, n, 2, 0), 1)
    return out


def scan_check(seed: int) -> list[Request]:
    """Exhaustive subset scans at n = 11-14, ``SCAN_REPLICAS`` distinct graphs
    of each kind at each vertex count, and partition scans at n = 7-9."""
    out: list[Request] = []

    def add(name, argv, n, make, expect, rep=0):
        out.append(_request("scan-check", seed, f"{name}-n{n}-r{rep}", argv, n, make, expect))

    for rep, n in itertools.product(range(SCAN_REPLICAS), SUBSET_NS):
        cover = ("check", "cover", "{graph}", "--k", "1")
        add("cover-hold", cover, n, lambda r: _union(r, n, 1, 0, drop=2), 0, rep)
        add("cover-fail", cover, n, lambda r: _tree_with_spot(r, n, False), 1, rep)
        for which in ("gamma", "gamma2"):
            add(which, ("gamma", which, "{graph}"), n,
                lambda r: _sparse_base(r, n, n // 3).done(), 0, rep)
    for rep, n in itertools.product(range(SCAN_REPLICAS), KWZ_NS):
        # kwz with k=1, d=3 asks i(X) <= 1.6|X| - 0.2 for every X.
        kwz = ("check", "kwz", "{graph}", "--k", "1", "--d", "3")
        add("kwz-hold", kwz, n, lambda r: _sparse_base(r, n, n // 2).done(), 0, rep)
        add("kwz-fail", kwz, n, lambda r: _tree_with_spot(r, n, True), 1, rep)
    for rep, n in itertools.product(range(SCAN_REPLICAS), PQ_NS):
        # Two Hamiltonian cycles are 4-edge-connected and stay 2-edge-connected
        # after deleting a vertex; one edge fewer leaves a degree-3 vertex.
        pq = ("check", "pq-connected", "{graph}", "--p", "4", "--q", "2")
        add("pq-hold", pq, n, lambda r: _cycles(r, n), 0, rep)
        add("pq-fail", pq, n, lambda r: _cycles(r, n, drop=1), 1, rep)
    for n in PARTITION_NS:
        # A Laman graph has 2n - 3 edges, one short of two spanning trees, yet
        # every partition but the last one scanned, all singletons, has
        # enough crossing edges: sum of i(B) <= 2(n - |p|) - 1.
        tp = ("check", "tree-packing", "{graph}", "--l", "2")
        add("tree-packing-hold", tp, n, lambda r: _union(r, n, 0, 2, extra=1), 0)
        add("tree-packing-fail", tp, n, lambda r: _union(r, n, 1, 0), 1)
        # A spanning rigid graph meets the necessary condition.
        nec = ("check", "necessary", "{graph}", "--k", "1", "--l", "0")
        add("necessary-hold", nec, n, lambda r: _union(r, n, 1, 0, extra=1), 0)
        add("necessary-fail", nec, n, lambda r: _pendant(r, n, 1, 0), 1)
    for n in HEAVY_PARTITION_NS:
        # Holding is only likely here: two Laman graphs are far above both bounds.
        pt = ("check", "parthm", "{graph}", "--k", "1", "--l", "0")
        add("parthm-hold", pt, n, lambda r: _union(r, n, 2, 0), None)
        add("parthm-fail", pt, n, lambda r: _pendant(r, n, 1, 0), 1)
        bp = ("check", "bracket-partition", "{graph}", "--p", "2", "--q", "1")
        add("bracket-hold", bp, n, lambda r: _union(r, n, 2, 0), None)
        # With Z = {} the bracket condition is tree-packing with l = 2.
        add("bracket-fail", bp, n, lambda r: _union(r, n, 1, 0), 1)
    return out


def verify_sources(seed: int) -> list[Request]:
    """The producer requests whose certificates verify-certs checks.

    Every passing union-produce request, the failing ones with a rigidity
    class (k > 0) of the first three replicas and those with forests only
    of the first, and scan-check at its smallest sizes except the holding
    parthm and bracket-partition reports.  Checking a passing certificate
    costs 2-3 ms, checking a forests-only failure 4-6 ms and checking a
    rigidity failure or a holding scan report re-runs the producer (20 ms
    to a few tenths of a second), so the median lies inside the first group
    and p90 inside the last, not on an edge between two groups.  Re-checking
    a holding parthm or bracket-partition report re-runs a scan of about a
    second, which alone would set a third of the pool's time.
    """
    def keep(r: Request) -> bool:
        replica = int(r.name.rsplit("-r", 1)[1])
        forests_only = r.argv[r.argv.index("--k") + 1] == "0"
        return "-pass-" in r.name or replica < (1 if forests_only else 3)

    union = [r for r in union_produce(seed) if keep(r)]
    scan = [r for r in scan_check(seed) if r.n in (SUBSET_NS[1], PARTITION_NS[1])
            and r.name.endswith("-r0")
            and not r.name.startswith(("parthm-hold", "bracket-hold"))]
    return union + scan


WORKLOADS = ("union-produce", "scan-check", "verify-certs")
