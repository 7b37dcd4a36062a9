"""Matroid union of k rigidity copies and l graphic copies.

An edge set is independent in the union iff it splits into k sparse sets
and l forests.  ``union_rank`` finds a maximum independent set greedily:
each edge is offered once and absorbed if an augmenting path exists in the
exchange digraph (nodes are edges, an arc y -> x labelled j means "y could
take x's slot in class j").  Breadth-first search guarantees a shortest
path, which keeps the chain of exchanges simultaneously valid; skipping an
edge that has no path is safe because the union is itself a matroid.

The class oracles stay live: each class is one (a,b) pebble game, (2,3)
for a sparse class and (1,1) for a forest (Lee & Streinu, "Pebble game
algorithms and sparse graphs", 2008).  They are opened one at a time: an
empty class takes any edge (there are no loops), so no search reaches a
class past the first empty one, and class j + 1 opens once class j holds
an edge.  No class empties again: an augmenting path swaps one edge in and
one out of each class it passes, and adds one to the last.  After
an augmenting path, each class it touched deletes its outgoing edges from
its game and then inserts its incoming ones.  An offered edge is kept by
the first class that accepts it, with no separate probe.  A fundamental
circuit is read off the live game that rejected the edge, with no pebble
moved: the reach closure X of the edge's endpoints is then the smallest
tight set holding them, since X holds exactly a|X| - b edges and no arc
leaves it, so the circuit is the edge plus every class edge inside X.  In
a forest's (1,1) game, X is the vertex set of the tree path between the
endpoints.

No pebble search runs whose answer is known.  A class of a|V| - b edges
rejects every edge (one more breaks the count on V), so it is asked only
once a search starts.  A (1,1) game's orientation is a rooted forest (a
vertex holds its pebble or one out-arc), so a forest probe walks u and v
to their roots.  A search skips class j for an edge inside a closure X
that j gave earlier in it: X is tight, tight sets sharing two vertices
(one, in a forest) meet in a tight set, so the edge's closure lies in X,
whose members are all reached or dead.  No verdict, closure or circuit
depends on the orientations this leaves.

The edges a failed search reaches are closed for good (Edmonds, "Minimum
partition of a matroid into independent subsets", 1965): each is spanned,
in every class but its own, by reached edges, and later paths recolour
only unreached ones.  So they are marked dead and never expanded again;
the search over the live edges, its order and its result are unchanged.
The closed set F is also the union theorem's dual: every class spans F
with its own edges inside F, and every uncovered edge is in F, so the
rank is m - |F| + k r_rig(F) + l r_gr(F).  ``UnionRank.closed`` hands it
out (all of E when the rank cap stopped the offers, which is tight then
too), and a union failure's certificate is checked by those two ranks.

``decompose`` decides, then splits.  With l = 0 or k = 0 the union is a
count matroid, (2k,3k) by the paper's cover theorem and (l,l) by
Nash-Williams', so one pebble game answers before the union runs, and
the union runs only to build a split that exists.
"""

from __future__ import annotations

from bisect import insort
from collections import deque, namedtuple
from itertools import count

from .conditions import ConditionReport, count_condition_report
from .errors import GraphInputError
from .matroids import PebbleGame, graphic_rank, rigidity_rank
from .multigraph import Multigraph


def _colour_groups(assignment) -> dict[int, list[int]]:
    """Each colour but 0 that ``assignment`` uses -> its edge ids in
    ascending order, in one pass."""
    groups: dict[int, list[int]] = {}
    for e, c in enumerate(assignment):
        if c:
            groups.setdefault(c, []).append(e)
    return groups


class Decomposition(namedtuple("Decomposition", "k l assignment")):
    """Edge colouring produced by the union: colours ``1..k`` are sparse
    classes, ``k+1..k+l`` forest classes, ``0`` marks uncovered edges."""

    __slots__ = ()

    def _classes(self, first: int, count: int) -> tuple[frozenset, ...]:
        groups = _colour_groups(self.assignment)
        return tuple(frozenset(groups.get(c, ())) for c in range(first, first + count))

    def sparse_classes(self) -> tuple[frozenset, ...]:
        return self._classes(1, self.k)

    def forest_classes(self) -> tuple[frozenset, ...]:
        return self._classes(self.k + 1, self.l)

    def covered(self) -> frozenset:
        return frozenset(e for e, c in enumerate(self.assignment) if c != 0)

    def is_complete(self) -> bool:
        return all(c != 0 for c in self.assignment)


# ``closed``: an edge set F with rank = m - |F| + k r_rig(F) + l r_gr(F).
UnionRank = namedtuple("UnionRank", "rank independent_set decomposition closed")


class _CountClass:
    """Live oracle for one class: an (a,b) pebble game, (2,3) for a sparse
    class and (1,1) for a forest, that holds the class's edges and is kept
    up to date across augmentations."""

    def __init__(self, G: Multigraph, a: int, b: int) -> None:
        self.G = G
        self.members: list[int] = []  # ascending edge ids
        self.full = a * G.n - b  # this many members reject every edge
        self.forest = a == 1
        self.game = PebbleGame(G.n, a, b)

    def take(self, e: int) -> tuple[bool, frozenset | None]:
        """Keep edge ``e`` if the class stays independent with it;
        otherwise leave the class as it was and return the rejection's
        witness."""
        if self.game.try_insert(*self.G.edges[e]):
            insort(self.members, e)
            return True, None
        return False, self.game.last_witness()

    def probe(self, u: int, v: int) -> tuple[bool, frozenset | None]:
        """Would the class take a u-v edge, and if not, the closure a
        rejected insert leaves?  A forest moves no pebble: u and v walk to
        their roots, and a common root closes the tree path between them."""
        game = self.game
        if self.forest:
            out, up = game.out, [u]
            while out[up[-1]]:
                up += out[up[-1]]  # the one out-arc's head
            on_up, walk = set(up), [v]
            while walk[-1] not in on_up:
                if not out[walk[-1]]:
                    return True, None
                walk += out[walk[-1]]
            return False, frozenset(walk + up[:up.index(walk[-1])])
        if game.try_insert(u, v):
            game.remove(u, v)
            return True, None
        return False, game.last_witness()

    def circuit(self, eid: int, witness: frozenset) -> list[int]:
        # After the failed insert, ``witness`` (the reach closure of the
        # edge's endpoints) is the smallest tight set holding them, so the
        # fundamental circuit is the edge plus every member inside it.  In
        # a (1,1) game each tree's arcs point to its one free pebble, so
        # the closure is the tree path's vertices and the members inside
        # it are the path's edges.
        edges = self.G.edges
        return [x for x in self.members if edges[x][0] in witness and edges[x][1] in witness]

    def update(self, removed: list[int], added: list[int]) -> None:
        # All removals first: only the final set is known to be independent.
        for e in removed:
            self.members.remove(e)
            self.game.remove(*self.G.edges[e])
        for e in added:
            if not self.game.try_insert(*self.G.edges[e]):
                raise RuntimeError("union invariant broken: class not independent")
            insort(self.members, e)


def _augment(G: Multigraph, classes: dict, color: list[int], start: int, dead: set) -> bool:
    """Try to absorb edge ``start``; on success the colouring and the live
    class oracles are updated.  ``dead`` holds the edges reached by earlier
    failed searches, which are never expanded again; a failed search adds
    the edges it reached."""
    # The first class that accepts the offered edge keeps it; a search
    # from the edge would stop at that class too.  A full class is passed
    # by, and asked for its witness only if the search starts.
    rejections = []
    for j, oracle in classes.items():
        ok, witness = (False, None) if len(oracle.members) == oracle.full else oracle.take(start)
        if ok:
            color[start] = j
            return True
        rejections.append((j, witness))
    pred: dict[int, tuple[int, int] | None] = {start: None}
    queue: deque[int] = deque()
    # Per class: vertex -> the closures of this search holding it, as bits.
    labels: dict[int, dict[int, int]] = {j: {} for j in classes}
    bits = count()

    def expand(y: int, j: int, witness) -> None:
        label, bit = labels[j], 1 << next(bits)
        for x in witness:
            label[x] = label.get(x, 0) | bit
        for x in classes[j].circuit(y, witness):
            if x not in pred and x not in dead:
                pred[x] = (y, j)
                queue.append(x)

    u, v = G.edges[start]
    for j, witness in rejections:
        expand(start, j, witness or classes[j].probe(u, v)[1])
    found = None
    while queue and found is None:
        y = queue.popleft()
        u, v = G.edges[y]
        for j, oracle in classes.items():
            # y inside a closure that class j gave in this search adds nothing.
            label = labels[j]
            if color[y] == j or label.get(u, 0) & label.get(v, 0):
                continue
            ok, witness = oracle.probe(u, v)
            if ok:
                found = (y, j)
                break
            expand(y, j, witness)
    if found is None:
        dead.update(pred)
        return False
    # Walk the path back to ``start``, recolouring and collecting each
    # touched class's removals and insertions.
    changes: dict[int, tuple[list[int], list[int]]] = {}
    cur, new_color = found
    while True:
        info = pred[cur]
        vacated = color[cur]
        color[cur] = new_color
        changes.setdefault(new_color, ([], []))[1].append(cur)
        if vacated:
            changes.setdefault(vacated, ([], []))[0].append(cur)
        if info is None:
            break
        cur, new_color = info[0], vacated
    for j, (removed, added) in changes.items():
        classes[j].update(removed, added)
    return True


def _check_split(k: int, l: int) -> None:
    """The one rule on a split into k sparse classes and l forests."""
    if k < 0 or l < 0 or k + l < 1:
        raise GraphInputError("need k >= 0, l >= 0, and k + l >= 1")


def union_rank(G: Multigraph, k: int, l: int) -> UnionRank:
    """Maximum edge set splittable into k sparse sets and l forests,
    together with the split."""
    _check_split(k, l)
    cap = k * max(0, 2 * G.n - 3) + l * max(0, G.n - 1)
    color = [0] * G.m
    classes: dict[int, _CountClass] = {}
    dead: set[int] = set()
    rank = 0
    for e in range(G.m):
        if rank >= cap:
            # Edges left unoffered: all of E is the dual, as rank = cap.
            dead = range(G.m)
            break
        j = len(classes)  # one empty class open, while any is left
        if j < k + l and (j == 0 or classes[j].members):
            classes[j + 1] = _CountClass(G, *((2, 3) if j < k else (1, 1)))
        if _augment(G, classes, color, e, dead):
            rank += 1
    dec = Decomposition(k, l, tuple(color))
    return UnionRank(rank, dec.covered(), dec, frozenset(dead))


def verify_decomposition(G: Multigraph, dec: Decomposition) -> tuple[bool, str | None]:
    """Re-check a decomposition from scratch against the matroid oracles."""
    if len(dec.assignment) != G.m:
        return False, "assignment length does not match edge count"
    # A colour that is not an int (NaN, 1.5) would count as covering its
    # edge while putting it in no class.
    if any(type(c) is not int or not 0 <= c <= dec.k + dec.l for c in dec.assignment):
        return False, "assignment uses an out-of-range colour"
    # An unused colour is an empty class, independent in both matroids, so
    # only used colours are checked.
    classes = _colour_groups(dec.assignment)
    for j in sorted(classes):
        if j <= dec.k:
            if rigidity_rank(G, classes[j]).rank < len(classes[j]):
                return False, f"class {j} is not (2,3)-sparse"
        elif graphic_rank(G, classes[j]).rank < len(classes[j]):
            return False, f"class {j} is not a forest"
    return True, None


def decompose(G: Multigraph, k: int, l: int) -> Decomposition | ConditionReport:
    """Split G into k sparse classes and l forests, or say why not: with
    l = 0 or k = 0 a vertex set X with i(X) > k(2|X| - 3) or
    i(X) > l(|X| - 1), found by one count game before the union runs;
    otherwise the union's closed set F."""
    _check_split(k, l)
    counted = k == 0 or l == 0
    if counted:
        report = (count_condition_report(G, "sparse-cover", {"k": k}, 2 * k, 3 * k) if l == 0
                  else count_condition_report(G, "forest-cover", {"l": l}, l, l))
        if not report.holds:
            return report
    ur = union_rank(G, k, l)
    if ur.rank == G.m:
        return ur.decomposition
    if counted:
        raise RuntimeError("the count matroid accepts every edge but the union does not")
    return ConditionReport("union-cover", {"k": k, "l": l}, False, ur.closed)
