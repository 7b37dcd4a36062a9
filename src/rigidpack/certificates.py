"""Certificates: JSON records binding a command's result to a graph.

A certificate stores the graph's content hash rather than the graph, so
verification needs the original input file.  ``cert_hash`` covers every
field except itself and the timestamp, making any single-field tamper
detectable; semantic verification then re-checks the claimed result from
scratch against the graph.
"""

from __future__ import annotations

import hashlib
import json
from datetime import datetime, timezone
from fractions import Fraction

from .conditions import (
    ConditionReport,
    check_cover_condition,
    check_necessary_condition,
    check_parthm_condition,
    check_tree_packing_condition,
    gamma,
    gamma2,
    is_bracket_partition_connected,
    is_pq_connected,
)
from .errors import GraphInputError
from .matroids import sparse_independent
from .multigraph import (
    Multigraph,
    Partition,
    adjacent_number,
    check_edge_subset,
    cross_edge_count,
    induced_edge_count,
)
from .ndt import (
    BoundedCover,
    check_kwz_condition,
    sparse_to_forest_plus_bounded,
    verify_bounded_cover,
)
from .packing import Packing, PackingFailure, verify_packing
from .union import Decomposition, union_rank, verify_decomposition

SCHEMA = "rigidpack-cert/1"


def graph_hash(G: Multigraph) -> str:
    """SHA-256 of the canonical edge list (endpoint-sorted, id order)."""
    body = f"{G.n} {G.m}\n" + "".join(f"{u} {v}\n" for u, v in G.edges)
    return hashlib.sha256(body.encode("ascii")).hexdigest()


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def certificate_hash(cert: dict) -> str:
    core = {k: v for k, v in cert.items() if k not in ("cert_hash", "created")}
    return hashlib.sha256(canonical_json(core).encode("utf-8")).hexdigest()


def build_certificate(command: str, parameters: dict, G: Multigraph, payload: dict) -> dict:
    cert = {
        "schema": SCHEMA,
        "command": command,
        "parameters": parameters,
        "graph_hash": graph_hash(G),
        "payload": payload,
        "verified": True,
    }
    ok, reason = verify_certificate(cert, G, check_hash=False)
    if not ok:
        raise RuntimeError(f"refusing to emit a certificate that fails self-check: {reason}")
    cert["cert_hash"] = certificate_hash(cert)
    cert["created"] = datetime.now(timezone.utc).isoformat()
    return cert


def write_certificate(path, cert: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cert, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_certificate(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cert = json.load(fh)
    except OSError as exc:
        raise GraphInputError(f"cannot read certificate {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise GraphInputError(f"malformed certificate {path}: {exc}") from None
    if not isinstance(cert, dict):
        raise GraphInputError(f"malformed certificate {path}: expected a JSON object")
    return cert


# ---------------------------------------------------------------- encoding

def _num(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return x


def _witness_json(kind: str | None, witness) -> dict | None:
    if kind is None or witness is None:
        return None
    if kind == "vertex-set":
        return {"kind": kind, "vertices": sorted(witness)}
    if kind == "partition":
        return {"kind": kind, "blocks": [sorted(b) for b in witness.blocks]}
    if kind == "z-partition":
        Z, pi = witness
        return {"kind": kind, "z": sorted(Z), "blocks": [sorted(b) for b in pi.blocks]}
    if kind == "deficiency-edges":
        return {"kind": kind, "edges": sorted(witness)}
    raise ValueError(f"unknown witness kind {kind!r}")


def report_payload(report: ConditionReport) -> dict:
    return {
        "kind": "report",
        "condition": report.condition,
        "parameters": {k: _num(v) for k, v in report.parameters},
        "holds": report.holds,
        "witness": _witness_json(report.witness_kind, report.witness),
        "lhs": _num(report.lhs),
        "rhs": _num(report.rhs),
        "note": report.note,
    }


def decomposition_payload(dec: Decomposition) -> dict:
    return {
        "kind": "decomposition",
        "k": dec.k,
        "l": dec.l,
        "rank": len(dec.covered()),
        "assignment": list(dec.assignment),
        "complete": dec.is_complete(),
    }


def packing_payload(packing: Packing) -> dict:
    return {
        "kind": "packing",
        "rigid_parts": [sorted(p) for p in packing.rigid_parts],
        "tree_parts": [sorted(p) for p in packing.tree_parts],
    }


def packing_failure_payload(failure: PackingFailure) -> dict:
    return {
        "kind": "packing-failure",
        "target": failure.target,
        "achieved": failure.achieved,
        "decomposition": decomposition_payload(failure.union.decomposition),
        "note": failure.note,
    }


def bounded_cover_payload(cover: BoundedCover) -> dict:
    return {
        "kind": "bounded-cover",
        "degree_bound": _num(cover.degree_bound),
        "forests": [sorted(p) for p in cover.forests],
        "bounded_parts": [sorted(p) for p in cover.bounded_parts],
    }


def density_payload(
    which: str, value: Fraction, argmax: frozenset, *, max_n: int | None = None
) -> dict:
    payload = {
        "kind": "density",
        "which": which,
        "value": _num(value),
        "argmax": sorted(argmax),
    }
    if max_n is not None:
        payload["max_n"] = max_n
    return payload


# ------------------------------------------------------------ verification

def verify_certificate(cert: dict, G: Multigraph, *, check_hash: bool = True) -> tuple[bool, str | None]:
    """Recompute the certificate's claims from scratch against ``G``."""
    try:
        if cert.get("schema") != SCHEMA:
            return False, f"unknown schema {cert.get('schema')!r}"
        if check_hash:
            if cert.get("cert_hash") != certificate_hash(cert):
                return False, "certificate hash mismatch"
        if cert.get("graph_hash") != graph_hash(G):
            return False, "graph hash mismatch"
        if cert.get("verified") is not True:
            return False, "certificate does not claim verification"
        payload = cert.get("payload")
        if not isinstance(payload, dict):
            return False, "missing payload"
        command = cert.get("command")
        params = _json_object(cert.get("parameters", {}), "parameters")
        kind = payload.get("kind")
        if kind == "decomposition":
            return _verify_decomposition_payload(G, payload)
        if kind == "packing":
            return _verify_packing_payload(G, command, params, payload)
        if kind == "packing-failure":
            return _verify_packing_failure_payload(G, params, payload)
        if kind == "bounded-cover":
            return _verify_bounded_cover_payload(G, params, payload)
        if kind == "density":
            return _verify_density_payload(G, payload)
        if kind == "report":
            return _verify_report_payload(G, payload)
        return False, f"unknown payload kind {kind!r}"
    except (KeyError, TypeError, ValueError, GraphInputError) as exc:
        return False, f"malformed certificate: {exc}"


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"{what} must be a JSON object")
    return value


def _verify_decomposition_payload(G, payload):
    dec = Decomposition(payload["k"], payload["l"], tuple(payload["assignment"]))
    ok, reason = verify_decomposition(G, dec, require_complete=payload["complete"])
    if not ok:
        return False, reason
    if payload["complete"] != dec.is_complete():
        return False, "completeness flag does not match assignment"
    if payload["rank"] != len(dec.covered()):
        return False, "stated rank does not match the assignment"
    return True, None


def _verify_packing_payload(G, command, params, payload):
    packing = Packing(
        tuple(frozenset(p) for p in payload["rigid_parts"]),
        tuple(frozenset(p) for p in payload["tree_parts"]),
    )
    ok, reason = verify_packing(G, packing)
    if not ok:
        return False, reason
    k = params.get("k", 0)
    l = params.get("l", 0)
    if len(packing.rigid_parts) != k or len(packing.tree_parts) != l:
        return False, "part counts do not match parameters"
    return True, None


def _verify_packing_failure_payload(G, params, payload):
    k, l = params["k"], params["l"]
    target = k * (2 * G.n - 3) + l * (G.n - 1)
    if payload["target"] != target:
        return False, "stated target does not match k(2n-3) + l(n-1)"
    ur = union_rank(G, k, l)
    if ur.rank != payload["achieved"]:
        return False, "stated rank does not match a recomputed union rank"
    if ur.rank >= target:
        return False, "union rank reaches the packing target"
    dec = Decomposition(k, l, tuple(payload["decomposition"]["assignment"]))
    ok, reason = verify_decomposition(G, dec)
    if not ok:
        return False, reason
    return True, None


def _verify_bounded_cover_payload(G, params, payload):
    cover = BoundedCover(
        tuple(frozenset(p) for p in payload["forests"]),
        tuple(frozenset(p) for p in payload["bounded_parts"]),
        Fraction(payload["degree_bound"]),
    )
    ok, reason = verify_bounded_cover(G, cover)
    if not ok:
        return False, reason
    k, l = params["k"], params["l"]
    if len(cover.forests) != l:
        return False, f"expected {l} forests"
    if len(cover.bounded_parts) != 2 * k + 2 - l:
        return False, f"expected {2 * k + 2 - l} bounded parts"
    return True, None


def _verify_density_payload(G, payload):
    which = payload["which"]
    max_n = payload.get("max_n")
    if which == "gamma":
        result = gamma(G, max_n=max_n)
    elif which == "gamma2":
        result = gamma2(G, max_n=max_n)
    else:
        return False, f"unknown density parameter {which!r}"
    if _num(result.value) != payload["value"]:
        return False, "stated value does not match a recomputed maximum"
    if sorted(result.argmax) != payload["argmax"]:
        return False, "stated argmax does not match"
    X = frozenset(payload["argmax"])
    denom = (len(X) - 1) if which == "gamma" else (2 * len(X) - 3)
    if Fraction(induced_edge_count(G, X), denom) != result.value:
        return False, "argmax does not achieve the stated value"
    return True, None


_CHECKERS = {
    "cover": lambda G, p, mn, mp: check_cover_condition(G, p["k"], max_n=mn),
    "tree-packing": lambda G, p, mn, mp: check_tree_packing_condition(
        G, p["l"], max_partition_n=mp
    ),
    "parthm": lambda G, p, mn, mp: check_parthm_condition(
        G, p["k"], p["l"], max_partition_n=mp
    ),
    "necessary": lambda G, p, mn, mp: check_necessary_condition(
        G, p["k"], p["l"], max_partition_n=mp
    ),
    "kwz": lambda G, p, mn, mp: check_kwz_condition(G, p["k"], Fraction(p["d"]), max_n=mn),
}


def _verify_report_payload(G, payload):
    condition = payload["condition"]
    params = _json_object(payload["parameters"], "report parameters")
    if payload["holds"]:
        return _verify_positive_report(G, condition, params)
    witness = payload["witness"]
    if witness is None:
        if condition == "tree-packing" and "l" in params:
            # Unwitnessed packing failure (partition scan was above its
            # guardrail): the union rank settles it without enumeration.
            target = params["l"] * (G.n - 1)
            if union_rank(G, 0, params["l"]).rank >= target:
                return False, "graph does pack the stated number of spanning trees"
            return True, None
        # Failure without a witness: re-run and compare the verdict.
        return _verify_positive_report(G, condition, params, expect=False)
    witness = _json_object(witness, "witness")
    return _verify_witnessed_failure(G, condition, params, witness, payload)


def _verify_positive_report(G, condition, params, expect=True):
    # Guardrails travel with the certificate so verification can re-run
    # the same scan the producer ran.
    max_n = params.get("max_n")
    max_partitions = params.get("max_partitions")
    if condition == "pq-connected":
        holds = is_pq_connected(G, params["p"], params["q"], max_n=max_n)
    elif condition == "bracket-partition":
        holds = is_bracket_partition_connected(
            G, params["p"], params["q"], max_partition_n=max_partitions
        )
    elif condition in _CHECKERS:
        holds = _CHECKERS[condition](G, params, max_n, max_partitions).holds
    elif condition == "union-cover":
        holds = union_rank(G, params["k"], params["l"]).rank == G.m
    elif condition in ("sparse-cover", "forest-cover", "forest-plus-bounded"):
        # These conditions only appear on failure paths with a witness.
        return False, f"condition {condition!r} cannot be certified as holding"
    else:
        return False, f"unknown condition {condition!r}"
    if holds != expect:
        return False, "recomputed verdict disagrees with the certificate"
    return True, None


def _witness_partition(blocks) -> Partition:
    return Partition(tuple(frozenset(b) for b in blocks))


def _verify_witnessed_failure(G, condition, params, witness, payload):
    """Check that the stated witness really violates the stated inequality."""
    lhs, rhs = payload["lhs"], payload["rhs"]
    vertices = frozenset(G.vertices())
    if witness.get("kind") == "deficiency-edges" and condition in (
        "sparse-cover",
        "forest-cover",
        "union-cover",
    ):
        k = params.get("k", 0)
        l = params.get("l", 0)
        if condition == "sparse-cover":
            k, l = params["k"], 0
        elif condition == "forest-cover":
            k, l = 0, params["l"]
        ur = union_rank(G, k, l)
        if ur.rank >= G.m:
            return False, "graph decomposes fully; deficiency witness is wrong"
        if sorted(ur.decomposition.uncovered()) != witness["edges"]:
            return False, "deficiency edge set does not match a recomputed run"
        return True, None
    if condition in ("cover", "sparse-cover"):
        X = frozenset(witness["vertices"])
        got_lhs = induced_edge_count(G, X)
        got_rhs = params["k"] * (2 * len(X) - 3)
        ok = len(X) >= 2 and got_lhs > got_rhs
    elif condition == "forest-cover":
        X = frozenset(witness["vertices"])
        got_lhs = induced_edge_count(G, X)
        got_rhs = params["l"] * (len(X) - 1)
        ok = len(X) >= 1 and got_lhs > got_rhs
    elif condition == "tree-packing":
        pi = _witness_partition(witness["blocks"])
        if pi.ground != vertices:
            return False, "witness partition does not cover V"
        got_lhs = cross_edge_count(G, pi)
        got_rhs = params["l"] * (len(pi) - 1)
        ok = got_lhs < got_rhs
    elif condition == "necessary":
        pi = _witness_partition(witness["blocks"])
        if pi.ground != vertices:
            return False, "witness partition does not cover V"
        got_lhs = cross_edge_count(G, pi)
        got_rhs = (3 * params["k"] + params["l"]) * (len(pi) - 1) - params["k"] * pi.trivial_count
        ok = got_lhs < got_rhs
    elif condition == "parthm":
        Z = frozenset(witness["z"])
        pi = _witness_partition(witness["blocks"])
        if Z | pi.ground != vertices or (Z & pi.ground):
            return False, "witness does not split V into Z and a partition of V - Z"
        got_lhs = cross_edge_count(G, pi)
        got_rhs = (
            (3 * params["k"] + params["l"]) * (len(pi) - 1)
            - params["k"] * pi.trivial_count
            - params["k"] * adjacent_number(G, Z, pi)
        )
        ok = got_lhs < got_rhs
    elif condition == "kwz":
        X = frozenset(witness["vertices"])
        k = params["k"]
        d = Fraction(params["d"])
        got_lhs = (k + 1) * (k + d) * len(X) - (k + d + 1) * induced_edge_count(G, X) - k * k
        got_rhs = 0
        ok = len(X) >= 1 and got_lhs < 0
    elif condition == "forest-plus-bounded":
        # Every sparse class splits once n >= 6; below that the class has
        # at most 7 edges, so re-running the exhaustive search is cheap.
        if G.n >= 6:
            return False, "every sparse class has a forest-plus-bounded split when n >= 6"
        ids = check_edge_subset(G, witness["edges"])
        if not sparse_independent(G, ids)[0]:
            return False, "witness class is not (2,3)-sparse"
        H = Multigraph(G.n, tuple(G.edges[e] for e in ids))
        ok = sparse_to_forest_plus_bounded(H) is None
        got_lhs, got_rhs = lhs, rhs
    else:
        return False, f"unknown condition {condition!r}"
    if not ok:
        return False, "witness does not violate the stated inequality"
    if _num(got_lhs) != lhs or _num(got_rhs) != rhs:
        return False, "stated lhs/rhs do not match recomputed values"
    return True, None
