"""Packing of edge-disjoint spanning structures.

A successful pack of k spanning rigid subgraphs and l spanning trees is a
matroid-union independent set hitting the full rank k(2n-3) + l(n-1); the
size count then forces every rigidity class to be a base (a spanning
minimally rigid subgraph) and every graphic class a spanning tree.  So a
packing is the union's ``Decomposition`` at that rank, checked by
``verify_decomposition`` and the count; uncovered edges keep colour 0.

``pack_rigid_and_trees`` decides, then splits.  With k = 0 the packing
exists iff the (l,l) count game accepts l(n - 1) edges (Nash-Williams and
Tutte), so that game answers before the union runs, and the union runs
only to build trees that exist.
"""

from __future__ import annotations

from .conditions import ConditionReport, check_tree_packing_condition
from .errors import GraphInputError
from .multigraph import Multigraph
from .union import Decomposition, _check_split, union_rank


def packing_size(G: Multigraph, k: int, l: int) -> int:
    """The edges of k spanning rigid subgraphs and l spanning trees."""
    return k * (2 * G.n - 3) + l * (G.n - 1)


def _check_pack(G: Multigraph, k: int, l: int) -> None:
    """The rule on ``pack``'s parameters: a split, on at least two vertices."""
    _check_split(k, l)
    if G.n < 2:
        raise GraphInputError("need at least two vertices")


def pack_rigid_and_trees(G: Multigraph, k: int, l: int) -> Decomposition | ConditionReport:
    """Extract k spanning minimally rigid subgraphs and l spanning trees,
    all pairwise edge-disjoint, or say why not: with k = 0 a partition pi
    with fewer than l(|pi| - 1) crossing edges, found by one count game
    before the union runs; otherwise an edge set F with
    m - |F| + k r_rig(F) + l r_gr(F) < k(2n - 3) + l(n - 1), which bounds
    the union rank below the packing's size."""
    _check_pack(G, k, l)
    if k == 0:
        report = check_tree_packing_condition(G, l)
        if not report.holds:
            return report
    ur = union_rank(G, k, l)
    if ur.rank == packing_size(G, k, l):
        return ur.decomposition
    if k == 0:
        raise RuntimeError("tree packing failed but every partition satisfies the bound")
    return ConditionReport("packing", {"k": k, "l": l}, False, ur.closed)
