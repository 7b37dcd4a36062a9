"""Degree-bounded forest covering.

Pipeline: a graph whose sparse-cover density is at most k+1
splits into k+1 sparse classes; each class then either splits into two
forests (always possible for sparse sets) or into one forest plus a
remainder of maximum degree at most floor((2n-5)/3).  The forest-plus-
bounded split is decided exactly, by a few matroid intersections; the
guarantee that it exists only kicks in for n >= 6, so smaller inputs may
legitimately come back empty (a triangle has no such split: the bound is
0 and a triangle is not a forest).  At k = 0 the pipeline is the two
splits of one sparse graph: ``ndt_decompose(H, 0, 2)`` gives its two
forests and ``ndt_decompose(H, 0, 1)`` its forest and bounded part, and
either reports a violating X when H is not (2,3)-sparse.
"""

from __future__ import annotations

from collections import deque, namedtuple
from fractions import Fraction

from .conditions import ConditionReport, count_condition_report
from .errors import GraphInputError
from .matroids import UnionFind, graphic_rank
from .multigraph import Multigraph, edge_parts_error
from .union import decompose, union_rank


# l forests plus degree-bounded remainder parts covering all edges.
BoundedCover = namedtuple("BoundedCover", "forests bounded_parts degree_bound")


def degree_bound(n: int) -> Fraction:
    return Fraction(2 * n - 5, 3)


def degree_bound_floor(n: int) -> int:
    # Degrees are integers; a negative bound only occurs for n <= 2 where
    # the remainder is forced empty anyway.
    return max(0, (2 * n - 5) // 3)


def check_kwz_condition(G: Multigraph, k: int, d) -> ConditionReport:
    """Does every nonempty X satisfy
    (k+1)(k+d)|X| - (k+d+1) i(X) - k^2 >= 0?

    ``d`` may be an integer or an exact fraction; the hypothesis requires
    d >= k + 1.  With d = r/s the condition reads
    (sk+r+s) i(X) <= (k+1)(sk+r)|X| - sk^2, which every X without an edge
    meets, so one pebble game at weight sk+r+s decides it; a failure's
    witness is the closure of the first rejected edge.
    """
    if k < 0:
        raise GraphInputError("need k >= 0")
    d = Fraction(d)
    if d < k + 1:
        raise GraphInputError(f"the degree bound requires d >= k + 1 (got d={d}, k={k})")
    r, s = d.numerator, d.denominator
    return count_condition_report(G, "kwz", {"k": k, "d": str(d)},
                                  (k + 1) * (s * k + r), s * k * k, s * k + r + s)


def _forest_plus_bounded(H: Multigraph) -> tuple[frozenset, frozenset] | None:
    """Only a vertex of degree above b needs forest edges, deg - b of them;
    call it high.  Degrees of a sparse graph sum to at most 4n - 6, so from
    n = 6 on there are at most six high vertices and at most nine edges
    among them.  For each acyclic choice S of those edges, the rest of the
    forest is a common independent set of two matroids on the high-low
    edges: the graphic matroid with S contracted, and the partition matroid
    that takes at each high end what S leaves it needing.
    """
    bound = degree_bound_floor(H.n)
    need = [max(0, d - bound) for d in H.degrees()]
    high_high, head = [], {}
    for e, (u, v) in enumerate(H.edges):
        if need[u] and need[v]:
            high_high.append(e)
        elif need[u] or need[v]:
            head[e] = u if need[u] else v
    for mask in range(1 << len(high_high)):
        S = [e for i, e in enumerate(high_high) if mask >> i & 1]
        if graphic_rank(H, S).rank < len(S):
            continue
        cap = need[:]
        for e in S:
            for x in H.edges[e]:
                cap[x] = max(0, cap[x] - 1)
        rest = _capped_forest(H, S, head, cap)
        if rest is not None:
            forest = frozenset(S) | rest
            return forest, frozenset(range(H.m)) - forest
    return None


def _capped_forest(H: Multigraph, S: list, head: dict, cap: list) -> frozenset | None:
    """A set I of the edges in ``head`` with exactly cap[v] of them at each
    high end v = head[e] and S + I a forest, or None if there is none.

    Matroid intersection by shortest augmenting paths (Edmonds, 1970): from
    an edge z that S + I + z keeps acyclic, to an edge y of I at z's full
    high end, to an edge z' that S + I - y + z' keeps acyclic, and so on,
    until an edge whose high end has room.
    """
    inside: set[int] = set()

    def joins(skip=None):  # the edges z outside I with S + I - skip + z acyclic
        uf = UnionFind(H.n)
        for e in {*S, *inside} - {skip}:
            uf.union(*H.edges[e])
        return [z for z in head if z not in inside
                and uf.find(H.edges[z][0]) != uf.find(H.edges[z][1])]

    while len(inside) < sum(cap):
        pred = dict.fromkeys(joins())
        queue, found = deque(pred), None
        while queue:
            x = queue.popleft()
            if x in inside:
                step = joins(x)
            else:
                step = [y for y in sorted(inside) if head[y] == head[x]]
                if len(step) < cap[head[x]]:
                    found = x
                    break
            for y in step:
                if y not in pred:
                    pred[y] = x
                    queue.append(y)
        if found is None:
            return None
        while found is not None:
            inside ^= {found}
            found = pred[found]
    return frozenset(inside)


def ndt_decompose(G: Multigraph, k: int, l: int) -> BoundedCover | ConditionReport:
    """Cover a graph by l forests and 2k+2-l degree-bounded parts.

    The union held its k+1 classes sparse, so they are split unchecked.
    Requires 0 <= k <= m and k+1 <= l <= 2k+2.  Returns a ConditionReport when
    the sparse-cover density exceeds k+1 (with a violating vertex set), or
    when a class admits no forest-plus-bounded split (possible only below
    the n >= 6 guarantee).
    """
    if k < 0:
        raise GraphInputError("need k >= 0")
    if not (k + 1 <= l <= 2 * k + 2):
        raise GraphInputError(f"need k + 1 <= l <= 2k + 2 (got k={k}, l={l})")
    if k > G.m:
        raise GraphInputError(f"need k <= m = {G.m}: every sparse class past the m-th is empty")
    result = decompose(G, k + 1, 0)
    if isinstance(result, ConditionReport):
        return result
    # The first l - k - 1 classes split into two forests, the rest into a
    # forest and a bounded part.
    forests: list[frozenset] = []
    bounded: list[frozenset] = []
    for i, cls in enumerate(result.sparse_classes()):
        ids = sorted(cls)
        H = G.subgraph_of(ids)
        two = i < l - k - 1
        if two:
            # i(X) <= 2|X| - 3 <= 2(|X| - 1): two forests cover a sparse class.
            ur = union_rank(H, 0, 2)
            if ur.rank != H.m:
                raise RuntimeError("two forests do not cover a sparse class")
            split = ur.decomposition.forest_classes()
        elif (split := _forest_plus_bounded(H)) is None:
            return ConditionReport("forest-plus-bounded", {"k": k, "l": l}, False, frozenset(ids))
        forest, rest = (frozenset(ids[e] for e in part) for part in split)
        forests.append(forest)
        (forests if two else bounded).append(rest)
    return BoundedCover(tuple(forests), tuple(bounded), degree_bound(G.n))


def verify_bounded_cover(G: Multigraph, cover: BoundedCover) -> tuple[bool, str | None]:
    """Re-check a bounded cover from scratch."""
    if cover.degree_bound != degree_bound(G.n):
        return False, "stated degree bound does not match the graph"
    parts = cover.forests + cover.bounded_parts
    if error := edge_parts_error(G, parts):
        return False, error
    if sum(map(len, parts)) != G.m:
        return False, "parts do not cover every edge"
    for i, part in enumerate(cover.forests):
        if graphic_rank(G, part).rank < len(part):
            return False, f"forest part {i} has a cycle"
    bound = degree_bound_floor(G.n)
    for i, part in enumerate(cover.bounded_parts):
        if max(G.subgraph_of(part).degrees(), default=0) > bound:
            return False, f"bounded part {i} exceeds max degree {bound}"
    return True, None
