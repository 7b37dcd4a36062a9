"""Packing of edge-disjoint spanning structures.

A successful pack of k spanning rigid subgraphs and l spanning trees is a
matroid-union independent set hitting the full rank k(2n-3) + l(n-1); the
size count then forces every rigidity class to be a base (a spanning
minimally rigid subgraph) and every graphic class a spanning tree.

``pack_rigid_and_trees`` decides, then splits.  With k = 0 the packing
exists iff the (l,l) count game accepts l(n - 1) edges (Nash-Williams and
Tutte), so that game answers before the union runs, and the union runs
only to build trees that exist.
"""

from __future__ import annotations

from collections import namedtuple

from .conditions import ConditionReport, check_tree_packing_condition
from .errors import GraphInputError
from .matroids import graphic_rank, rigidity_rank
from .multigraph import Multigraph, edge_parts_error
from .union import _check_split, union_rank


Packing = namedtuple("Packing", "rigid_parts tree_parts")


def pack_rigid_and_trees(G: Multigraph, k: int, l: int) -> Packing | ConditionReport:
    """Extract k spanning minimally rigid subgraphs and l spanning trees,
    all pairwise edge-disjoint, or say why not: with k = 0 a partition pi
    with fewer than l(|pi| - 1) crossing edges, found by one count game
    before the union runs; otherwise an edge set F with
    m - |F| + k r_rig(F) + l r_gr(F) < k(2n - 3) + l(n - 1), which bounds
    the union rank below the packing's size."""
    _check_split(k, l)
    if G.n < 2:
        raise GraphInputError("need at least two vertices")
    if k == 0:
        report = check_tree_packing_condition(G, l)
        if not report.holds:
            return report
    ur = union_rank(G, k, l)
    if ur.rank == k * (2 * G.n - 3) + l * (G.n - 1):
        return Packing(ur.decomposition.sparse_classes(), ur.decomposition.forest_classes())
    if k == 0:
        raise RuntimeError("tree packing failed but every partition satisfies the bound")
    return ConditionReport("packing", {"k": k, "l": l}, False, ur.closed)


def verify_packing(G: Multigraph, packing: Packing) -> tuple[bool, str | None]:
    """Re-check every packing invariant from scratch.

    The sizes settle spanning: a (2,3)-sparse set of 2n - 3 edges is a
    rigidity basis, hence spanning and connected, and a forest of n - 1
    edges is a spanning tree.
    """
    n = G.n
    if error := edge_parts_error(G, packing.rigid_parts + packing.tree_parts):
        return False, error
    for i, part in enumerate(packing.rigid_parts):
        if len(part) != 2 * n - 3:
            return False, f"rigid part {i} has {len(part)} edges, expected {2 * n - 3}"
        if rigidity_rank(G, part).rank < len(part):
            return False, f"rigid part {i} is not (2,3)-sparse"
    for i, part in enumerate(packing.tree_parts):
        if len(part) != n - 1:
            return False, f"tree part {i} has {len(part)} edges, expected {n - 1}"
        if graphic_rank(G, part).rank < len(part):
            return False, f"tree part {i} is not a spanning tree"
    return True, None
