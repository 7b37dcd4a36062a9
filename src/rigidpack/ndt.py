"""Degree-bounded forest covering.

Pipeline: a connected graph whose sparse-cover density is at most k+1
splits into k+1 sparse classes; each class then either splits into two
forests (always possible for sparse sets) or into one forest plus a
remainder of maximum degree at most floor((2n-5)/3).  The forest-plus-
bounded split is found by exhaustive backtracking under a node budget;
the guarantee behind it only kicks in for n >= 6, so smaller inputs run
in best-effort mode and may legitimately come back empty (a triangle has
no such split: the bound is 0 and a triangle is not a forest).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .conditions import ConditionReport
from .enumeration import first_dense_set
from .errors import GraphInputError, SearchBudgetExceededError
from .matroids import graphic_independent, sparse_independent
from .multigraph import Multigraph
from .union import decompose_sparse, union_rank

DEFAULT_SEARCH_BUDGET = 10_000_000


@dataclass(frozen=True)
class BoundedCover:
    """l forests plus degree-bounded remainder parts covering all edges."""

    forests: tuple[frozenset, ...]
    bounded_parts: tuple[frozenset, ...]
    degree_bound: Fraction


def degree_bound(n: int) -> Fraction:
    return Fraction(2 * n - 5, 3)


def degree_bound_floor(n: int) -> int:
    # Degrees are integers; a negative bound only occurs for n <= 2 where
    # the remainder is forced empty anyway.
    return max(0, (2 * n - 5) // 3)


def check_kwz_condition(
    G: Multigraph, k: int, d, *, max_n: int | None = None
) -> ConditionReport:
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
    # lhs < 0 exactly when i(X) exceeds the floor of
    # ((k+1)(k+d)|X| - k^2) / (k+d+1), the denominator being positive.
    caps = [G.m] + [
        math.floor(((k + 1) * (k + d) * x - k * k) / (k + d + 1)) for x in range(1, G.n + 1)
    ]
    found = first_dense_set(G, caps, max_n=max_n)
    if found is not None:
        X, count = found
        lhs = (k + 1) * (k + d) * len(X) - (k + d + 1) * count - k * k
        return ConditionReport("kwz", params, False, X, "vertex-set", lhs, 0)
    return ConditionReport("kwz", params, True)


def _require_sparse(H: Multigraph) -> None:
    ok, witness = sparse_independent(H, range(H.m))
    if not ok:
        raise GraphInputError(f"input graph is not (2,3)-sparse (violating X = {sorted(witness)})")


def sparse_to_two_forests(H: Multigraph) -> tuple[frozenset, frozenset]:
    """Split a sparse graph's edges into two forests.

    Sparse sets satisfy i(X) <= 2|X| - 3 <= 2(|X| - 1) on every component,
    so the two-forest union always covers everything; connectivity is not
    required.
    """
    _require_sparse(H)
    ur = union_rank(H, 0, 2)
    if ur.rank != H.m:
        raise RuntimeError("two-forest split failed on a sparse graph")
    first, second = ur.decomposition.forest_classes()
    return first, second


def sparse_to_forest_plus_bounded(
    H: Multigraph, *, budget: int = DEFAULT_SEARCH_BUDGET
) -> tuple[frozenset, frozenset] | None:
    """Split a sparse graph into a forest and a remainder of maximum degree
    at most floor((2n-5)/3).

    Exhaustive backtracking over the edge list in id order, branching
    forest-first; returns None when the completed search proves no split
    exists (possible only below n = 6), and raises when the node budget
    runs out first.
    """
    _require_sparse(H)
    bound = degree_bound_floor(H.n)
    m, edges = H.m, H.edges
    rem_degree = [0] * H.n
    # Union-find without path compression: the forest branch at a depth
    # links one root under another, and backtracking unlinks it.
    parent, size = list(range(H.n)), [1] * H.n
    linked = [0] * m

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    # The nodes of the recursive search in its order, iteratively: step[d]
    # is 0 on entering depth d, then 1 while edge d is in the forest and 2
    # while it is in the remainder.
    step = [0] * (m + 1)
    nodes = depth = 0
    while True:
        s = step[depth]
        if s == 0:
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceededError(
                    f"forest-plus-bounded search exceeded {budget} nodes"
                )
            if depth == m:
                break
        u, v = edges[depth]
        if s == 1:  # the forest branch failed below: unlink its root
            rv = linked[depth]
            size[parent[rv]] -= size[rv]
            parent[rv] = rv
        elif s == 2:
            rem_degree[u] -= 1
            rem_degree[v] -= 1
        if s == 0 and (ru := find(u)) != (rv := find(v)):
            if size[ru] < size[rv]:
                ru, rv = rv, ru
            parent[rv] = ru
            size[ru] += size[rv]
            linked[depth], step[depth] = rv, 1
        elif s < 2 and rem_degree[u] < bound and rem_degree[v] < bound:
            rem_degree[u] += 1
            rem_degree[v] += 1
            step[depth] = 2
        elif depth == 0:
            return None
        else:
            depth -= 1
            continue
        depth += 1
        step[depth] = 0
    forest = frozenset(e for e in range(m) if step[e] == 1)
    return forest, frozenset(range(m)) - forest


def ndt_decompose(
    G: Multigraph,
    k: int,
    l: int,
    *,
    budget: int = DEFAULT_SEARCH_BUDGET,
    max_n: int | None = None,
) -> BoundedCover | ConditionReport:
    """Cover a connected graph by l forests and 2k+2-l degree-bounded parts.

    Requires k >= 0 and k+1 <= l <= 2k+2.  Returns a ConditionReport when
    the sparse-cover density exceeds k+1 (with a violating vertex set), or
    when a class provably admits no forest-plus-bounded split (below the
    n >= 6 guarantee).  Raises SearchBudgetExceededError when undecided.
    """
    if k < 0:
        raise GraphInputError("need k >= 0")
    if not (k + 1 <= l <= 2 * k + 2):
        raise GraphInputError(f"need k + 1 <= l <= 2k + 2 (got k={k}, l={l})")
    result = decompose_sparse(G, k + 1, max_n=max_n)
    if isinstance(result, ConditionReport):
        return result
    classes = result.sparse_classes()
    two_forest_classes = classes[: l - k - 1]
    bounded_classes = classes[l - k - 1 :]
    forests: list[frozenset] = []
    bounded: list[frozenset] = []
    for cls in two_forest_classes:
        ids = sorted(cls)
        H = G.subgraph_of(ids)
        f1, f2 = sparse_to_two_forests(H)
        forests.append(frozenset(ids[e] for e in f1))
        forests.append(frozenset(ids[e] for e in f2))
    for cls in bounded_classes:
        ids = sorted(cls)
        H = G.subgraph_of(ids)
        split = sparse_to_forest_plus_bounded(H, budget=budget)
        if split is None:
            return ConditionReport(
                "forest-plus-bounded",
                {"k": k, "l": l},
                False,
                frozenset(ids),
                "deficiency-edges",
                note="a sparse class admits no forest-plus-bounded split "
                "(instance below the n >= 6 guarantee)",
            )
        forest, rest = split
        forests.append(frozenset(ids[e] for e in forest))
        bounded.append(frozenset(ids[e] for e in rest))
    return BoundedCover(tuple(forests), tuple(bounded), degree_bound(G.n))


def verify_bounded_cover(G: Multigraph, cover: BoundedCover) -> tuple[bool, str | None]:
    """Re-check a bounded cover from scratch."""
    if cover.degree_bound != degree_bound(G.n):
        return False, "stated degree bound does not match the graph"
    seen: set[int] = set()
    for part in cover.forests + cover.bounded_parts:
        for e in part:
            if not (isinstance(e, int) and 0 <= e < G.m):
                return False, f"invalid edge id {e!r}"
            if e in seen:
                return False, f"edge {e} appears in two parts"
            seen.add(e)
    if len(seen) != G.m:
        return False, "parts do not cover every edge"
    for i, part in enumerate(cover.forests):
        if not graphic_independent(G, part):
            return False, f"forest part {i} has a cycle"
    bound = degree_bound_floor(G.n)
    for i, part in enumerate(cover.bounded_parts):
        deg = [0] * G.n
        for e in part:
            u, v = G.edges[e]
            deg[u] += 1
            deg[v] += 1
        if deg and max(deg) > bound:
            return False, f"bounded part {i} exceeds max degree {bound}"
    return True, None
