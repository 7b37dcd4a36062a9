"""Subset and partition condition checkers, plus the fractional density
parameters and connectivity notions built from them.

Where the paper or a classical theorem gives a polynomial test, the
checker runs it at any n: ``cover`` is one (2k,3k) pebble game (the
paper's cover theorem) and ``tree-packing`` one (l,l) game
(Nash-Williams and Tutte), each reporting a violator read off the game;
``gamma`` and ``gamma2`` take a few weighted pebble games, one per guess
of Dinkelbach's iteration; ``pq-connected`` looks for one mixed
vertex-edge cut below p: a Nagamochi-Ibaraki threshold cut, in place,
for X = {}, then max flows in which each vertex of 2q + 2 or more edges
costs q, under a step limit (``PQ_STEP_LIMIT``) charged before each cut
phase and each augmenting search.  The partition checkers scan their
full quantifier range, under the walk budget of ``enumeration``
(``PARTITION_BUDGET``, charged per placed vertex and per Z), and report
the first violator in enumeration order.
They walk the partitions incrementally on the bitmask kernel of
``enumeration``, which skips every prefix that a bound shows holds no
violator; the tables of a graph are built once per scan, not once per Z.
None builds a subset table.  A report states its verdict and witness
only: ``certificates.CONDITIONS`` gives the witness's kind and the two
sides of the inequality it violates.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .enumeration import first_short_partition, masks_by_size
from .errors import GraphInputError, LimitExceededError
from .matroids import UnionFind, pebble_rejections
from .multigraph import Multigraph, Partition, induced_edge_count, multiplicities

# The steps one ``is_pq_connected`` call may charge: r^2 for each cut
# phase on r vertices and n + arcs for each augmenting search, 2^28 in all.
PQ_STEP_LIMIT = 16**3 << 16


class ConditionReport(namedtuple("ConditionReport", "condition parameters holds witness")):
    """Outcome of a condition check.

    ``parameters`` is a tuple of (name, value) pairs, sorted when given as
    a dict; ``witness`` is what a failure was found at, or None.  The
    witness's kind and the two sides of the inequality it violates are
    the condition's, in ``certificates.CONDITIONS``.
    """

    __slots__ = ()

    def __new__(cls, condition: str, parameters, holds: bool, witness=None):
        if isinstance(parameters, dict):
            parameters = sorted(parameters.items())
        return super().__new__(cls, condition, tuple(parameters), holds, witness)


GammaResult = namedtuple("GammaResult", "value argmax")

# Each partition condition's weights (slope, per_singleton, per_touch), read by its walk and verifier.
_PARTITION_WEIGHTS = {
    "tree-packing": lambda l: (l, 0, 0),
    "necessary": lambda k, l: (3 * k + l, k, 0),
    "parthm": lambda k, l: (3 * k + l, k, k),
    "bracket-partition": lambda p, q: (p, 0, q),
}


def count_condition_report(
    G: Multigraph, condition: str, parameters: dict, a: int, b: int, w: int = 1
) -> ConditionReport:
    """Does every X spanning an edge satisfy w i(X) <= a|X| - b?  One
    (a,b) pebble game at weight w decides; a failure's witness is the reach
    closure of the first rejected edge."""
    for _, X in pebble_rejections(G, a, b, w):
        return ConditionReport(condition, parameters, False, X)
    return ConditionReport(condition, parameters, True)


def check_cover_condition(G: Multigraph, k: int) -> ConditionReport:
    """Does every X with |X| >= 2 satisfy i(X) <= k(2|X| - 3)?"""
    if k < 0:
        raise GraphInputError("need k >= 0")
    return count_condition_report(G, "cover", {"k": k}, 2 * k, 3 * k)


def check_tree_packing_condition(G: Multigraph, l: int) -> ConditionReport:
    """Does every partition p of V satisfy cross(p) >= l(|p| - 1)?

    One (l,l) pebble game decides: the condition holds iff it accepts
    l(n - 1) edges.  Otherwise the closures of the rejected edges are
    tight, i(X) = l(|X| - 1) over the accepted set I, and so is the union
    of two that meet.  Merged into blocks, with every other vertex a
    singleton, they give a partition p that holds every rejected edge
    inside a block, so cross(p) = |I| - l(n - |p|) < l(|p| - 1).
    """
    if l < 0:
        raise GraphInputError("need l >= 0")
    uf = UnionFind(G.n)
    accepted = G.m
    for _, X in pebble_rejections(G, l, l):
        accepted -= 1
        first, *rest = X
        for v in rest:
            uf.union(first, v)
    if accepted >= l * (G.n - 1):
        return ConditionReport("tree-packing", {"l": l}, True)
    blocks: dict[int, list[int]] = {}
    for v in range(G.n):
        blocks.setdefault(uf.find(v), []).append(v)
    pi = Partition(tuple(frozenset(b) for b in blocks.values()))
    return ConditionReport("tree-packing", {"l": l}, False, pi)


def check_parthm_condition(G: Multigraph, k: int, l: int) -> ConditionReport:
    """Sufficient packing condition: for every proper subset Z and every
    partition p of V - Z, cross_{G-Z}(p) >= (3k + l)(|p| - 1) - k*n0 - k*nZ,
    n0 the trivial parts of p and nZ its adjacent number with respect to Z."""
    if k < 0 or l < 0:
        raise GraphInputError("need k >= 0 and l >= 0")
    # Z runs over the proper subsets of V, smallest first: Z = {} first.
    found = first_short_partition(G, masks_by_size(G.n, range(G.n)),
                                  *_PARTITION_WEIGHTS["parthm"](k, l))
    return ConditionReport("parthm", {"k": k, "l": l}, found is None, found)


def check_necessary_condition(G: Multigraph, k: int, l: int) -> ConditionReport:
    """Necessary packing condition: every partition p of V satisfies
    cross(p) >= (3k + l)(|p| - 1) - k*n0."""
    if k < 0 or l < 0:
        raise GraphInputError("need k >= 0 and l >= 0")
    found = first_short_partition(G, (0,), *_PARTITION_WEIGHTS["necessary"](k, l))
    return ConditionReport("necessary", {"k": k, "l": l}, found is None, found and found[1])


# Each density parameter is the max of i(X) / (a|X| - b) over |X| >= 2.
DENSITY_COUNTS = {"gamma": (1, 1), "gamma2": (2, 3)}


def gamma(G: Multigraph) -> GammaResult:
    """Fractional arboricity: max of i(X) / (|X| - 1) over |X| >= 2, as an
    exact fraction with a maximizer."""
    return _density_max(G, *DENSITY_COUNTS["gamma"])


def gamma2(G: Multigraph) -> GammaResult:
    """Sparse-cover density: max of i(X) / (2|X| - 3) over |X| >= 2."""
    return _density_max(G, *DENSITY_COUNTS["gamma2"])


def denser_set(G: Multigraph, a: int, b: int, value: Fraction) -> frozenset | None:
    """A vertex set X with i(X) > value (a|X| - b), or None when there is
    none: with value = p/q, the closure of the first edge that one
    (ap, bp) pebble game rejects at weight q."""
    p, q = value.numerator, value.denominator
    return next((X for _, X in pebble_rejections(G, a * p, b * p, q)), None)


def _density_max(G: Multigraph, a: int, b: int) -> GammaResult:
    # Dinkelbach's iteration: the density of V is a first guess, and each
    # denser set's density the next, until no set is denser.  The last
    # set reaches the value.
    if G.n < 2:
        raise GraphInputError("density parameters need at least 2 vertices")
    X = frozenset(range(G.n))
    value = Fraction(G.m, a * G.n - b)
    while (denser := denser_set(G, a, b, value)) is not None:
        X = denser
        value = Fraction(induced_edge_count(G, X), a * len(X) - b)
    return GammaResult(value, X)


def _cut_below(adj: dict[int, dict[int, int]], lam: int, charge) -> bool:
    """Has a weighted graph, given as vertex -> neighbour -> weight, a cut
    below lam >= 1?  It consumes adj, and charges r^2 steps before each
    phase on r vertices.

    Nagamochi-Ibaraki contraction (SIAM J. Discrete Math. 5, 1992).
    Degrees are checked once: a vertex of degree below lam is a cut.  A
    phase then adds the most tightly connected vertex until all are in.
    One reached at key 0 starts a second component.  No cut below lam
    separates the ends of an edge whose later end's key reaches lam as it
    is scanned, so all such pairs are merged into adj in place, each
    absorbed vertex's row moved into its group's vertex.  A merged group of
    degree below lam, with other vertices left, is a cut; otherwise every
    degree is at least lam, and the last vertex's key is its degree, so
    the next phase merges at least one pair."""
    deg = {v: sum(row.values()) for v, row in adj.items()}
    if len(adj) > 1 and min(deg.values()) < lam:
        return True
    while len(adj) > 1:
        charge(len(adj) ** 2)
        key = dict.fromkeys(adj, 0)
        pairs = []
        while key:
            z = max(key, key=key.get)
            if key.pop(z) == 0 and len(key) < len(adj) - 1:
                return True
            for v, w in adj[z].items():
                if v in key:
                    key[v] += w
                    if key[v] >= lam:
                        pairs.append((z, v))
        group: dict[int, int] = {}
        for a, b in pairs:
            while a in group:
                a = group[a]
            while b in group:
                b = group[b]
            if a != b:
                group[b] = a
                row = adj.pop(b)
                deg[a] += deg.pop(b) - 2 * row.pop(a)
                del adj[a][b]
                for v, w in row.items():
                    adj[a][v] = adj[v][a] = adj[a].get(v, 0) + w
                    del adj[v][b]
                if deg[a] < lam and len(adj) > 1:
                    return True
    return False


def _flow_below(net: list[dict[int, int]], s: int, t: int, lam: int, charge) -> bool:
    """Is the maximum flow from node s to node t below lam?  net is node ->
    node -> residual capacity, each arc's reverse present; it is consumed.
    Each breadth-first augmenting path carries its bottleneck, until the
    flow reaches lam or t is cut off.  Each search is charged half the
    arcs of net first: on a split multigraph, n + arcs."""
    flow, steps = 0, sum(map(len, net)) // 2
    while flow < lam:
        charge(steps)
        parent = {s: s}
        queue = [s]
        for x in queue:
            for y, c in net[x].items():
                if c and y not in parent:
                    parent[y] = x
                    queue.append(y)
            if t in parent:
                break
        else:
            return True
        arcs, y = [], t
        while y != s:
            arcs.append((parent[y], y))
            y = parent[y]
        push = min(net[x][y] for x, y in arcs)
        for x, y in arcs:
            net[x][y] -= push
            net[y][x] += push
        flow += push
    return False


def is_pq_connected(G: Multigraph, p: int, q: int) -> bool:
    """|V| > p/q and G - X is (p - q|X|)-edge-connected for every proper X.

    That is, no mixed cut (X, F) has q|X| + |F| < p, F a set of edges that
    separates G - X.  A least one keeps in X only vertices with q + 1 edges
    into each side: moving any other x out costs at most q and saves q.
    One threshold cut decides X = {}.  Max flows stopped at p decide the
    rest (Even, SIAM J. Comput. 4, 1975): each vertex is split into an
    entry and an exit, joined by capacity q at a degree of 2q + 2 or more
    and by p, no bound, below; an edge's capacity is its multiplicity.
    They run to every other vertex from one uncapped vertex if there is
    one, else from each of the first (p - 1) // q + 1, one of which lies
    outside X; and not at all when p <= q or no vertex is capped.  The
    cut and the flows charge their steps to one total, each phase and
    each search before it runs; past ``PQ_STEP_LIMIT`` it raises
    LimitExceededError."""
    if p < 1 or q < 1:
        raise GraphInputError("need p >= 1 and q >= 1")
    n = G.n
    if n * q <= p:
        return False
    spent = 0

    def charge(steps: int) -> None:
        nonlocal spent
        spent += steps
        if spent > PQ_STEP_LIMIT:
            raise LimitExceededError(f"(p,q)-connectivity is limited to {PQ_STEP_LIMIT} steps "
                                     f"(charged {spent})")

    mult = multiplicities(G)
    if _cut_below({v: row.copy() for v, row in enumerate(mult)}, p, charge):
        return False
    capped = [sum(row.values()) >= 2 * q + 2 for row in mult]
    if p <= q or not any(capped):
        return True
    sources = [capped.index(False)] if not all(capped) else range((p - 1) // q + 1)
    net: list[dict[int, int]] = [{} for _ in range(2 * n)]  # v enters at 2v, leaves at 2v + 1
    for v, row in enumerate(mult):
        net[2 * v][2 * v + 1], net[2 * v + 1][2 * v] = q if capped[v] else p, 0
        for u, c in row.items():
            net[2 * v + 1][2 * u], net[2 * u][2 * v + 1] = c, 0
    return not any(_flow_below([row.copy() for row in net], 2 * s + 1, 2 * t, p, charge)
                   for s in sources for t in range(n) if t != s)


def is_bracket_partition_connected(G: Multigraph, p: int, q: int) -> bool:
    """|V| > p/q and cross_{G-Z}(pi) >= p(|pi| - 1) - q*nZ(pi) for every
    proper subset Z and partition pi of V - Z."""
    if p < 1 or q < 1:
        raise GraphInputError("need p >= 1 and q >= 1")
    if G.n * q <= p:
        return False
    return first_short_partition(G, masks_by_size(G.n, range(G.n)),
                                 *_PARTITION_WEIGHTS["bracket-partition"](p, q)) is None
