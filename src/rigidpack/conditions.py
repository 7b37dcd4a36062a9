"""Subset and partition condition checkers, plus the fractional density
parameters and connectivity notions built from them.

Every checker scans its full quantifier range exhaustively (under the
enumeration guardrails) and reports the first violator in enumeration
order, together with the two sides of the violated inequality.  The scans
run on the bitmask kernel of ``enumeration``: one induced-edge table per
subset scan, one incremental walk per partition scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .enumeration import (
    check_partition_limit,
    check_subset_limit,
    degree_sum_table,
    first_dense_set,
    first_short_partition,
    induced_table,
    mask_vertices,
    masks_by_size,
)
from .errors import GraphInputError
from .multigraph import Multigraph


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a condition check.

    ``witness_kind`` is one of ``vertex-set``, ``partition``,
    ``z-partition``, ``deficiency-edges`` or None; ``lhs``/``rhs`` record
    the two sides of the checked inequality at the witness.
    """

    condition: str
    parameters: tuple[tuple[str, object], ...]
    holds: bool
    witness: object = None
    witness_kind: str | None = None
    lhs: object = None
    rhs: object = None
    note: str | None = None

    def __post_init__(self) -> None:
        params = self.parameters
        if isinstance(params, dict):
            params = sorted(params.items())
        object.__setattr__(self, "parameters", tuple(params))


class GammaResult(NamedTuple):
    value: Fraction
    argmax: frozenset


def check_cover_condition(
    G: Multigraph, k: int, *, max_n: int | None = None
) -> ConditionReport:
    """Does every X with |X| >= 2 satisfy i(X) <= k(2|X| - 3)?"""
    if k < 0:
        raise GraphInputError("need k >= 0")
    caps = [G.m, G.m] + [k * (2 * x - 3) for x in range(2, G.n + 1)]
    found = first_dense_set(G, caps, max_n=max_n)
    if found is not None:
        X, lhs = found
        return ConditionReport("cover", {"k": k}, False, X, "vertex-set", lhs, caps[len(X)])
    return ConditionReport("cover", {"k": k}, True)


def check_tree_packing_condition(
    G: Multigraph, l: int, *, max_partition_n: int | None = None
) -> ConditionReport:
    """Does every partition p of V satisfy cross(p) >= l(|p| - 1)?"""
    if l < 0:
        raise GraphInputError("need l >= 0")
    check_partition_limit(G.n, max_partition_n)
    found = first_short_partition(G, 0, l, 0, 0)
    if found is not None:
        return ConditionReport("tree-packing", {"l": l}, False, found[0], "partition", *found[1:])
    return ConditionReport("tree-packing", {"l": l}, True)


def _first_short_z_partition(
    G: Multigraph, slope: int, per_singleton: int, per_touch: int, max_partition_n: int | None
):
    # Z runs over the proper subsets of V, smallest first so the Z = empty
    # set cases are scanned before any vertex deletions.
    check_subset_limit(G.n, max_partition_n)
    check_partition_limit(G.n, max_partition_n)
    for z in masks_by_size(G.n, range(G.n)):
        found = first_short_partition(G, z, slope, per_singleton, per_touch)
        if found is not None:
            return (mask_vertices(G.n, z), found[0]), found[1], found[2]
    return None


def check_parthm_condition(
    G: Multigraph, k: int, l: int, *, max_partition_n: int | None = None
) -> ConditionReport:
    """Sufficient packing condition: for every proper subset Z and every
    partition p of V - Z,

        cross_{G-Z}(p) >= (3k + l)(|p| - 1) - k*n0 - k*nZ

    where n0 counts trivial parts and nZ is the adjacent number of p with
    respect to Z.
    """
    if k < 0 or l < 0:
        raise GraphInputError("need k >= 0 and l >= 0")
    params = {"k": k, "l": l}
    found = _first_short_z_partition(G, 3 * k + l, k, k, max_partition_n)
    if found is not None:
        return ConditionReport("parthm", params, False, found[0], "z-partition", *found[1:])
    return ConditionReport("parthm", params, True)


def check_necessary_condition(
    G: Multigraph, k: int, l: int, *, max_partition_n: int | None = None
) -> ConditionReport:
    """Necessary packing condition: every partition p of V satisfies
    cross(p) >= (3k + l)(|p| - 1) - k*n0."""
    if k < 0 or l < 0:
        raise GraphInputError("need k >= 0 and l >= 0")
    params = {"k": k, "l": l}
    check_partition_limit(G.n, max_partition_n)
    found = first_short_partition(G, 0, 3 * k + l, k, 0)
    if found is not None:
        return ConditionReport("necessary", params, False, found[0], "partition", *found[1:])
    return ConditionReport("necessary", params, True)


def gamma(G: Multigraph, *, max_n: int | None = None) -> GammaResult:
    """Fractional arboricity: max of i(X) / (|X| - 1) over |X| >= 2,
    as an exact fraction with the first maximizer in enumeration order."""
    return _density_max(G, lambda x: x - 1, max_n=max_n)


def gamma2(G: Multigraph, *, max_n: int | None = None) -> GammaResult:
    """Sparse-cover density: max of i(X) / (2|X| - 3) over |X| >= 2."""
    return _density_max(G, lambda x: 2 * x - 3, max_n=max_n)


def _density_max(G: Multigraph, denominator, *, max_n: int | None) -> GammaResult:
    if G.n < 2:
        raise GraphInputError("density parameters need at least 2 vertices")
    check_subset_limit(G.n, max_n)
    # Per size, the largest count and the last mask reaching it, which is
    # the lexicographically first set; then the first size in enumeration
    # order (largest first) whose ratio is the maximum.
    top = [-1] * (G.n + 1)
    arg = [0] * (G.n + 1)
    for mask, count in enumerate(induced_table(G)):
        size = mask.bit_count()
        if count >= top[size]:
            top[size] = count
            arg[size] = mask
    best = max(range(G.n, 1, -1), key=lambda x: Fraction(top[x], denominator(x)))
    return GammaResult(Fraction(top[best], denominator(best)), mask_vertices(G.n, arg[best]))


def _min_cut_within(ind: list[int], dsum: list[int], W: int, X: int) -> int | None:
    """Edge connectivity of G[W] for the vertex mask W = V - X, from the
    induced-edge and degree-sum tables; None when |W| <= 1 (vacuously as
    connected as required)."""
    anchor = 1 << (W.bit_length() - 1) if W else 0
    sides = [anchor]
    for v in range(W.bit_length() - 1):
        if W >> v & 1:
            sides += [side | 1 << v for side in sides]
    sides.pop()  # the whole of W
    if not sides:
        return None
    # Edges from S to W - S: all edges at S, less those inside S and those
    # from S to X.
    return min([dsum[S] - ind[S | X] - ind[S] for S in sides]) + ind[X]


def edge_connectivity(G: Multigraph, *, max_n: int | None = None) -> int | None:
    """Global edge connectivity by scanning all bipartitions; None for
    graphs with fewer than 2 vertices."""
    check_subset_limit(G.n, max_n, "edge connectivity scan")
    return _min_cut_within(induced_table(G), degree_sum_table(G), (1 << G.n) - 1, 0)


def is_pq_connected(G: Multigraph, p: int, q: int, *, max_n: int | None = None) -> bool:
    """|V| > p/q and G - X is (p - q|X|)-edge-connected for every proper X."""
    if p < 1 or q < 1:
        raise GraphInputError("need p >= 1 and q >= 1")
    if G.n * q <= p:
        return False
    check_subset_limit(G.n, max_n)
    ind, dsum = induced_table(G), degree_sum_table(G)
    full = (1 << G.n) - 1
    # Only |X| < p/q asks for any connectivity; n > p/q keeps X proper.
    for X in masks_by_size(G.n, range((p - 1) // q + 1)):
        cut = _min_cut_within(ind, dsum, full ^ X, X)
        if cut is not None and cut < p - q * X.bit_count():
            return False
    return True


def is_bracket_partition_connected(
    G: Multigraph, p: int, q: int, *, max_partition_n: int | None = None
) -> bool:
    """|V| > p/q and cross_{G-Z}(pi) >= p(|pi| - 1) - q*nZ(pi) for every
    proper subset Z and partition pi of V - Z."""
    if p < 1 or q < 1:
        raise GraphInputError("need p >= 1 and q >= 1")
    if G.n * q <= p:
        return False
    return _first_short_z_partition(G, p, 0, q, max_partition_n) is None


def essential_edge_connectivity(G: Multigraph, *, max_n: int | None = None) -> int | None:
    """Minimum number of edges crossing a bipartition with both sides of
    size >= 2; None ("unbounded") when no such bipartition exists."""
    check_subset_limit(G.n, max_n, "essential connectivity scan")
    if G.n <= 3:
        return None
    ind, dsum = induced_table(G), degree_sum_table(G)
    full = (1 << G.n) - 1
    # Sides holding vertex 0 (the top bit) and leaving two vertices out.
    return min(
        dsum[S] - 2 * ind[S]
        for S in range(1 << (G.n - 1), full)
        if 2 <= S.bit_count() <= G.n - 2
    )


def is_essentially_edge_connected(G: Multigraph, p: int, *, max_n: int | None = None) -> bool:
    cut = essential_edge_connectivity(G, max_n=max_n)
    return cut is None or cut >= p
