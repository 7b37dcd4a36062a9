"""Layer tracing from outside the program.

The tracer wraps rigidpack functions where their callers look them up:
``cli``, ``packing``, ``certificates`` and ``ndt`` bind ``union_rank`` and
others with ``from ... import``, so every module attribute that holds the
original function object is replaced, not just the defining module's.
Coarse layer calls become spans kept in memory; the hot counting
primitives only add to per-layer totals, and ``PebbleGame`` and
``UnionFind`` methods get count-only wrappers on the class.  A layer's self
time is its duration minus the time of the traced calls made inside it.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, layer key, keep a span for each call)
TIMED = (
    ("rigidpack.cli", "main", "cli.main", True),
    ("rigidpack.multigraph", "load_graph", "multigraph.load", True),
    ("rigidpack.multigraph", "induced_edge_count", "multigraph.count", False),
    ("rigidpack.multigraph", "cross_edge_count", "multigraph.count", False),
    ("rigidpack.multigraph", "adjacent_number", "multigraph.count", False),
    ("rigidpack.union", "union_rank", "union.rank", True),
    ("rigidpack.packing", "pack_spanning_trees", "packing.pack", True),
    ("rigidpack.packing", "pack_rigid_and_trees", "packing.pack", True),
    ("rigidpack.ndt", "ndt_decompose", "ndt.decompose", True),
    ("rigidpack.ndt", "sparse_to_forest_plus_bounded", "ndt.search", True),
    ("rigidpack.ndt", "check_kwz_condition", "conditions.check", True),
    ("rigidpack.conditions", "check_cover_condition", "conditions.check", True),
    ("rigidpack.conditions", "check_tree_packing_condition", "conditions.check", True),
    ("rigidpack.conditions", "check_parthm_condition", "conditions.check", True),
    ("rigidpack.conditions", "check_necessary_condition", "conditions.check", True),
    ("rigidpack.conditions", "gamma", "conditions.check", True),
    ("rigidpack.conditions", "gamma2", "conditions.check", True),
    ("rigidpack.conditions", "is_pq_connected", "conditions.check", True),
    ("rigidpack.conditions", "is_bracket_partition_connected", "conditions.check", True),
    ("rigidpack.certificates", "build_certificate", "certificates.build", True),
    ("rigidpack.certificates", "verify_certificate", "certificates.verify", True),
)

# Generators: time is charged while an item is drawn, not at the call.
GENERATORS = (
    ("rigidpack.enumeration", "enumerate_vertex_subsets", "enumeration.subsets"),
    ("rigidpack.enumeration", "enumerate_partitions", "enumeration.partitions"),
    # A private copy of the subset scan that parthm, pq-connected and
    # bracket-partition use.
    ("rigidpack.conditions", "_proper_subsets", "enumeration.subsets"),
)


class Tracer:
    """Installs the wrappers, collects spans and totals, and removes them."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, request, name, start, end)
        self.request = 0
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.active: Counter[str] = Counter()
        self.missing: list[str] = []
        self._stack: list[list] = []  # [child time, enclosing span id] per open call
        self._next_id = 0
        self._undo: list[tuple] = []

    # ----------------------------------------------------------- wrappers

    def _timed(self, key: str, fn, keep_span: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][1] if stack else None
            span_id = parent
            if keep_span:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            tracer.active[key] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.active[key] -= 1
                tracer._account(key, start, end, frame[0])
                if keep_span:
                    tracer.spans.append((span_id, parent, tracer.request, key, start, end))
            if key == "union.rank":
                tracer._union_rank_done(args[0] if args else kwargs["G"], result)
            return result

        return wrapper

    def _account(self, key: str, start: float, end: float, child: float) -> None:
        dur = end - start
        self.total[key] += dur
        self.self_time[key] += dur - child
        self.counts[key + ".calls"] += 1
        if self._stack:
            self._stack[-1][0] += dur
        if key == "certificates.verify" and self.active["certificates.build"]:
            self.total["certificates.selfcheck"] += dur

    def _union_rank_done(self, G, result) -> None:
        dec = result.decomposition
        cap = dec.k * max(0, 2 * G.n - 3) + dec.l * max(0, G.n - 1)
        # union_rank offers edges in id order and stops once the rank
        # reaches the cap; an absorbed edge stays covered.
        offered = G.m if result.rank < cap else max(result.independent_set, default=-1) + 1
        self.counts["union.edges_offered"] += offered
        self.counts["union.absorbed"] += result.rank

    def _generator(self, key: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def drawn():
                while True:
                    stack = tracer._stack
                    stack.append([0.0, stack[-1][1] if stack else None])
                    start = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        end = perf_counter()
                        stack.pop()
                        tracer._account("enumeration.draw", start, end, 0.0)
                    tracer.counts[key] += 1
                    yield item

            return drawn()

        return wrapper

    # ------------------------------------------------------- installation

    def _rebind(self, module: str, attr: str, make) -> None:
        mod = sys.modules.get(module)
        orig = getattr(mod, attr, None) if mod is not None else None
        if orig is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapper = make(orig)
        for name, other in list(sys.modules.items()):
            if other is None or not name.startswith("rigidpack"):
                continue
            for binding, value in list(vars(other).items()):
                if value is orig:
                    setattr(other, binding, wrapper)
                    self._undo.append((other, binding, orig))

    def _patch_method(self, cls, attr: str, make) -> None:
        orig = cls.__dict__.get(attr)
        if orig is None:
            self.missing.append(f"{cls.__module__}.{cls.__name__}.{attr}")
            return
        setattr(cls, attr, make(orig))
        self._undo.append((cls, attr, orig))

    def install(self) -> None:
        import rigidpack.cli  # noqa: F401  (loads every module to patch)
        from rigidpack.matroids import PebbleGame, UnionFind

        for module, attr, key, keep_span in TIMED:
            self._rebind(module, attr, lambda fn, k=key, s=keep_span: self._timed(k, fn, s))
        for module, attr, key in GENERATORS:
            self._rebind(module, attr, lambda fn, k=key: self._generator(k, fn))

        counts, active = self.counts, self.active

        def count_game(orig):
            def wrapper(game, *args):
                counts["matroids.games"] += 1
                if active["union.rank"]:
                    counts["union.games"] += 1
                return orig(game, *args)
            return wrapper

        def count_insert(orig):
            def try_insert(game, u, v):
                accepted = orig(game, u, v)
                counts["matroids.inserts"] += 1
                if accepted:
                    counts["matroids.accepted"] += 1
                return accepted
            return try_insert

        def count_union(orig):
            def union(uf, a, b):
                counts["matroids.uf_unions"] += 1
                return orig(uf, a, b)
            return union

        self._patch_method(PebbleGame, "__init__", count_game)
        self._patch_method(PebbleGame, "copy", count_game)
        self._patch_method(PebbleGame, "try_insert", count_insert)
        self._patch_method(UnionFind, "union", count_union)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, request, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "request": request,
                                     "name": name, "start": start, "end": end}) + "\n")


def layer_metrics(tracer: Tracer, requests: int, cert_bytes: list[int],
                  untraced_s: float) -> dict[str, tuple[float, str]]:
    """Per-request means of the layer counts and times, plus the ratios.
    ``untraced_s`` is the untraced time of the same requests."""
    t, s, c = tracer.total, tracer.self_time, tracer.counts
    per = 1.0 / requests
    request_s = t["cli.main"]
    draw_s = t["enumeration.draw"]
    items = c["enumeration.subsets"] + c["enumeration.partitions"]
    offered = c["union.edges_offered"]

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "request_s": (request_s * per, "s/req"),
        "matroids.games": (c["matroids.games"] * per, "count/req"),
        "matroids.inserts": (c["matroids.inserts"] * per, "count/req"),
        "matroids.insert_accept_ratio": (ratio(c["matroids.accepted"], c["matroids.inserts"]), "ratio"),
        "matroids.uf_unions": (c["matroids.uf_unions"] * per, "count/req"),
        "union.rank_calls": (c["union.rank.calls"] * per, "count/req"),
        "union.rank_s": (t["union.rank"] * per, "s/req"),
        "union.rank_share": (ratio(t["union.rank"], request_s), "ratio"),
        "union.edges_offered": (offered * per, "count/req"),
        "union.rank_ratio": (ratio(c["union.absorbed"], offered), "ratio"),
        "union.games_per_edge": (ratio(c["union.games"], offered), "ratio"),
        "enumeration.subsets": (c["enumeration.subsets"] * per, "count/req"),
        "enumeration.partitions": (c["enumeration.partitions"] * per, "count/req"),
        "enumeration.draw_s": (draw_s * per, "s/req"),
        "enumeration.items_per_s": (ratio(items, draw_s), "1/s"),
        "multigraph.count_calls": (c["multigraph.count.calls"] * per, "count/req"),
        "multigraph.count_s": (t["multigraph.count"] * per, "s/req"),
        "multigraph.load_s": (t["multigraph.load"] * per, "s/req"),
        "conditions.check_calls": (c["conditions.check.calls"] * per, "count/req"),
        "conditions.check_s": (s["conditions.check"] * per, "s/req"),
        "scan.share": (ratio(draw_s + s["conditions.check"] + t["multigraph.count"], request_s), "ratio"),
        "packing.pack_s": (s["packing.pack"] * per, "s/req"),
        "ndt.search_calls": (c["ndt.search.calls"] * per, "count/req"),
        "ndt.search_s": (t["ndt.search"] * per, "s/req"),
        "ndt.decompose_s": (s["ndt.decompose"] * per, "s/req"),
        "certificates.build_s": (t["certificates.build"] * per, "s/req"),
        "certificates.verify_calls": (c["certificates.verify.calls"] * per, "count/req"),
        "certificates.verify_s": (t["certificates.verify"] * per, "s/req"),
        "certificates.selfcheck_share": (ratio(t["certificates.selfcheck"], request_s), "ratio"),
        "certificates.bytes": (ratio(sum(cert_bytes), len(cert_bytes)), "B"),
        "cli.self_s": (s["cli.main"] * per, "s/req"),
        "tracing.overhead": (ratio(request_s, untraced_s), "ratio"),
    }
