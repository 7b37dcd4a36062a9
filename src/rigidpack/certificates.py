"""Certificates: JSON records binding a command's result to a graph.

A certificate stores the graph's content hash rather than the graph, so
verification needs the original input file.  It is one line of
``canonical_json``: the text ``cert_hash`` covers (every field except the
hash and the timestamp), plus those two.  The hash is unkeyed, so it
catches corruption, not forgery.  A certificate is emitted only after
passing ``verify_certificate``, the call ``rigidpack verify`` makes on the
file.  Semantic verification re-checks the claim from scratch against
the graph and binds it to the command: the payload kind and the
top-level parameters must be the ones that command gives, within its
producer's parameter rules, which a witnessed ``check`` claim's
producer checks on no vertices.  Each kind's encoder is the one
statement of its format: a payload verifies only if every field its
encoder writes is, as canonical JSON, what the encoder writes for the
claim the verifier decoded and checked.  So no list out of order,
repeated id, ``{}`` for ``[]`` or ``true`` for 1 passes, a missing
field is malformed, and a field that no encoder writes is hashed but
not read.  No verifier re-runs the matroid union: a union
failure (``union-cover``, ``packing``) carries an edge set F, and two
matroid ranks give Edmonds' bound m - |F| + k r_rig(F) + l r_gr(F) on
every split into k sparse classes and l forests.  Nor does it re-run the
density iteration: one weighted pebble game at the stated value must
accept every edge, and the stated argmax must reach it.  A claim that
only a scan or a cut can re-check is re-checked under the guardrail its
producer ran under, charged alike (``PARTITION_BUDGET`` for a partition
walk, ``PQ_STEP_LIMIT`` for pq-connected), so every certificate that a
command writes can be re-checked.  A certificate states no guardrails,
so a forged claim costs the verifier no more than an honest one.
Certificates of another schema, earlier ones included, are rejected.

``CONDITIONS`` is the one table of the conditions a report can name: its
parameters, its producer, its witness kind and the inequality a failure's
witness violates.  A report payload's two sides are that inequality's, at
the report's witness, so producer and verifier compute them alike.
"""

from __future__ import annotations

import json
import re
import time
from collections import namedtuple
from fractions import Fraction

# The interpreter's built-in SHA-256, not hashlib's: hashlib loads OpenSSL,
# which adds megabytes of memory and milliseconds to every start-up.
try:
    from _sha2 import sha256  # Python 3.12 on
except ImportError:
    from _sha256 import sha256

from .conditions import (
    _PARTITION_WEIGHTS,
    DENSITY_COUNTS,
    ConditionReport,
    check_cover_condition,
    check_necessary_condition,
    check_parthm_condition,
    check_tree_packing_condition,
    denser_set,
    is_bracket_partition_connected,
    is_pq_connected,
)
from .errors import GraphInputError, RigidpackError
from .matroids import graphic_rank, rigidity_rank
from .multigraph import (
    Multigraph,
    Partition,
    adjacent_number,
    check_edge_subset,
    check_vertex_subset,
    cross_edge_count,
    format_graph,
    induced_edge_count,
)
from .ndt import (
    BoundedCover,
    _forest_plus_bounded,
    check_kwz_condition,
    verify_bounded_cover,
)
from .packing import Packing, verify_packing
from .union import Decomposition, _check_split, verify_decomposition

SCHEMA = "rigidpack-cert/2"


def graph_hash(G: Multigraph) -> str:
    """SHA-256 of the canonical edge list (endpoint-sorted, id order)."""
    return sha256(format_graph(G).encode("ascii")).hexdigest()


# json.dumps with these options, without building an encoder per call.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def certificate_hash(cert: dict) -> str:
    core = {k: v for k, v in cert.items() if k not in ("cert_hash", "created")}
    return sha256(canonical_json(core).encode("utf-8")).hexdigest()


def build_certificate(command: str, parameters: dict, G: Multigraph, payload: dict) -> dict:
    """The certificate, after it passes ``verify_certificate``."""
    cert = {
        "schema": SCHEMA,
        "command": command,
        "parameters": parameters,
        "graph_hash": graph_hash(G),
        "payload": payload,
        "verified": True,
    }
    cert["cert_hash"] = certificate_hash(cert)
    ok, reason = verify_certificate(cert, G)
    if not ok:
        raise RuntimeError(f"refusing to emit a certificate that fails self-check: {reason}")
    us = time.time_ns() // 1000
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(us // 1_000_000))
    cert["created"] = f"{stamp}.{us % 1_000_000:06d}+00:00"
    return cert


def write_certificate(path, cert: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(cert) + "\n")


def load_certificate(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cert = json.load(fh)
    except OSError as exc:
        raise GraphInputError(f"cannot read certificate {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # undecodable bytes; RecursionError: deep nesting
        raise GraphInputError(f"malformed certificate {path}: {exc}") from None
    if not isinstance(cert, dict):
        raise GraphInputError(f"malformed certificate {path}: expected a JSON object")
    return cert


# ---------------------------------------------------------------- encoding

def _num(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return x


def read_number(x) -> Fraction:
    """``x`` in a form that certificates and ``--d`` are written in: an int
    (not a bool), a Fraction, or a string "n" or "p/q" with q > 0, in ASCII
    digits only.  Anything else, exponents included, raises ValueError
    before a Fraction is built, so a forged number costs no more than its
    text."""
    if type(x) is int or isinstance(x, Fraction) or (
            isinstance(x, str) and re.fullmatch(r"-?[0-9]+(/0*[1-9][0-9]*)?", x)):
        return Fraction(x)
    raise ValueError(f"not an integer or p/q fraction: {x!r}")


# Each witness kind's JSON fields.  A z-partition witness is the pair
# (Z, partition); vertex and edge sets are sorted lists, a partition its
# blocks in order.  Each field has a label for summaries and a decoder.
_WITNESS_FIELDS = {
    "vertex-set": ("vertices",),
    "partition": ("blocks",),
    "z-partition": ("z", "blocks"),
    "edge-set": ("edges",),
}
_FIELDS = {
    "vertices": ("X", check_vertex_subset),
    "z": ("Z", check_vertex_subset),
    "blocks": ("pi", lambda G, raw: Partition(tuple(check_vertex_subset(G, b) for b in raw))),
    "edges": ("F", lambda G, raw: frozenset(check_edge_subset(G, raw))),
}


def encode_witness(kind: str | None, witness) -> dict | None:
    if kind is None or witness is None:
        return None
    fields = _WITNESS_FIELDS[kind]
    out = {"kind": kind}
    for field, value in zip(fields, witness if len(fields) > 1 else (witness,)):
        out[field] = [sorted(b) for b in value.blocks] if field == "blocks" else sorted(value)
    return out


def decode_witness(G: Multigraph, witness: dict) -> tuple[str, object]:
    """(kind, witness) from its JSON, checked against G."""
    kind = witness.get("kind")
    if kind not in _WITNESS_FIELDS:
        raise ValueError(f"unknown witness kind {kind!r}")
    values = tuple(_FIELDS[f][1](G, witness[f]) for f in _WITNESS_FIELDS[kind])
    return kind, values if len(values) > 1 else values[0]


def summarize_witness(witness: dict | None) -> str:
    """The witness in one line, for the CLI's summary."""
    if not witness:
        return ""
    fields = _WITNESS_FIELDS[witness["kind"]]
    return " witness " + " ".join(f"{_FIELDS[f][0]}={witness[f]}" for f in fields)


def report_payload(G: Multigraph, report: ConditionReport) -> dict:
    """The report's payload; a witness's kind and both sides are those its
    condition gives it on G, and the witness must violate them."""
    cond, witness = CONDITIONS[report.condition], report.witness
    lhs = rhs = None
    if witness is not None:
        violated, lhs, rhs = cond.violated(G, dict(report.parameters), witness)
        if not violated:
            raise _Rejected("witness does not violate the stated inequality")
    return {
        "kind": "report",
        "condition": report.condition,
        "parameters": {k: _num(v) for k, v in report.parameters},
        "holds": report.holds,
        "witness": encode_witness(cond.kind, witness),
        "lhs": _num(lhs),
        "rhs": _num(rhs),
    }


def check_parameters(condition: str, params: dict) -> dict:
    """Top-level parameters of a ``check`` certificate: the condition and
    the parameters it takes, each an int, or "p/q" when it is not integral."""
    out = {"condition": condition}
    for name in CONDITIONS[condition].params:
        x = read_number(params[name])
        out[name] = x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return out


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


def bounded_cover_payload(cover: BoundedCover) -> dict:
    return {
        "kind": "bounded-cover",
        "degree_bound": _num(cover.degree_bound),
        "forests": [sorted(p) for p in cover.forests],
        "bounded_parts": [sorted(p) for p in cover.bounded_parts],
    }


def density_payload(which: str, value: Fraction, argmax: frozenset) -> dict:
    return {
        "kind": "density",
        "which": which,
        "value": _num(value),
        "argmax": sorted(argmax),
    }


# -------------------------------------------------------------- conditions

class Condition(namedtuple("Condition", "params run kind violated")):
    """``params``: the names of its report's parameters, which ``check``
    requires.  ``run(G, params)``: its producer, None when it is only ever
    reported failing.  ``kind``: the witness kind a failure carries, and
    ``violated(G, params, witness) -> (violated, lhs, rhs)`` the inequality
    it violates, computed with the counting primitives or two matroid
    ranks; both None when failures carry no witness and the producer's
    verdict is re-run."""

    __slots__ = ()


def _dense_set(min_size: int, cap):
    """i(X) > cap(params, |X|) at a vertex set X of at least min_size vertices."""
    def violated(G, p, X):
        lhs, rhs = induced_edge_count(G, X), cap(p, len(X))
        return len(X) >= min_size and lhs > rhs, lhs, rhs
    return violated


def _short_partition(name):
    """cross(pi) < slope(|pi| - 1) - single*n0 - touch*nZ at a partition pi of V - Z
    (Z = {} unless the witness is (Z, pi)); nZ, even at touch 0, refuses a pi not of V - Z."""
    def violated(G, p, witness):
        Z, pi = witness if isinstance(witness, tuple) else (frozenset(), witness)
        slope, single, touch = _PARTITION_WEIGHTS[name](**p)
        lhs = cross_edge_count(G, pi)
        rhs = slope * (len(pi) - 1) - single * pi.trivial_count - touch * adjacent_number(G, Z, pi)
        return lhs < rhs, lhs, rhs
    return violated


def _kwz_violated(G, p, X):
    k, d = p["k"], read_number(p["d"])
    lhs = (k + 1) * (k + d) * len(X) - (k + d + 1) * induced_edge_count(G, X) - k * k
    return len(X) >= 1 and lhs < 0, lhs, 0


def _union_bound(target):
    """m - |F| + k r_rig(F) + l r_gr(F) < target(G, params) at an edge set
    F: the left side bounds every split into k sparse classes and l forests
    (Edmonds' matroid union theorem), so none reaches the target."""
    def violated(G, p, F):
        lhs = G.m - len(F) + p["k"] * rigidity_rank(G, F).rank + p["l"] * graphic_rank(G, F).rank
        rhs = target(G, p)
        return lhs < rhs, lhs, rhs
    return violated


def _no_split(G, p, F):
    # The split test is exact and polynomial: re-run once this game finds F sparse.
    if rigidity_rank(G, F).rank < len(F):
        raise _Rejected("witness class is not (2,3)-sparse")
    return _forest_plus_bounded(G.subgraph_of(F)) is None, None, None


_OVER_SPARSE = _dense_set(2, lambda p, x: p["k"] * (2 * x - 3))

# The seven conditions ``check`` evaluates come first, in its order.  The
# producers are looked up at call time.
CONDITIONS = {
    "cover": Condition(("k",), lambda G, p: check_cover_condition(G, p["k"]),
                       "vertex-set", _OVER_SPARSE),
    "tree-packing": Condition(("l",), lambda G, p: check_tree_packing_condition(G, p["l"]),
                              "partition", _short_partition("tree-packing")),
    "parthm": Condition(("k", "l"), lambda G, p: check_parthm_condition(G, p["k"], p["l"]),
                        "z-partition", _short_partition("parthm")),
    "necessary": Condition(("k", "l"), lambda G, p: check_necessary_condition(G, p["k"], p["l"]),
                           "partition", _short_partition("necessary")),
    "pq-connected": Condition(("p", "q"), lambda G, p: ConditionReport(
        "pq-connected", p, is_pq_connected(G, p["p"], p["q"])), None, None),
    "bracket-partition": Condition(("p", "q"), lambda G, p: ConditionReport(
        "bracket-partition", p, is_bracket_partition_connected(G, p["p"], p["q"])),
        None, None),
    "kwz": Condition(("k", "d"), lambda G, p: check_kwz_condition(G, p["k"], p["d"]),
                     "vertex-set", _kwz_violated),
    "sparse-cover": Condition(("k",), None, "vertex-set", _OVER_SPARSE),
    "forest-cover": Condition(("l",), None, "vertex-set",
                              _dense_set(1, lambda p, x: p["l"] * (x - 1))),
    "union-cover": Condition(("k", "l"), None, "edge-set", _union_bound(lambda G, p: G.m)),
    "packing": Condition(("k", "l"), None, "edge-set", _union_bound(
        lambda G, p: p["k"] * (2 * G.n - 3) + p["l"] * (G.n - 1))),
    "forest-plus-bounded": Condition(("k", "l"), None, "edge-set", _no_split),
}

# The condition and parameters of the report a command gives on failure,
# for its k and l.
_FAILURES = {
    "decompose": lambda k, l: [
        ("sparse-cover", {"k": k}) if l == 0
        else ("forest-cover", {"l": l}) if k == 0
        else ("union-cover", {"k": k, "l": l})
    ],
    "pack": lambda k, l: [("tree-packing", {"l": l}) if k == 0 else ("packing", {"k": k, "l": l})],
    "ndt": lambda k, l: [("sparse-cover", {"k": k + 1}), ("forest-plus-bounded", {"k": k, "l": l})],
}


# ------------------------------------------------------------ verification

class _Rejected(Exception):
    """A claim that does not hold; the message says why."""


def _ensure(verdict: tuple[bool, str | None]) -> None:
    if not verdict[0]:
        raise _Rejected(verdict[1])


def verify_certificate(cert: dict, G: Multigraph) -> tuple[bool, str | None]:
    """Recompute the certificate's claims from scratch against ``G``.  A
    scan that the check re-runs obeys the guardrails; above them the claim
    cannot be re-checked."""
    try:
        if cert.get("schema") != SCHEMA:
            return False, f"unknown schema {cert.get('schema')!r}"
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
        top = _json_object(cert.get("parameters", {}), "parameters")
        kind = payload.get("kind")
        if kind not in _PAYLOADS:
            return False, f"unknown payload kind {kind!r}"
        commands, verify, encode = _PAYLOADS[kind]
        if command not in commands:
            return False, f"command {command!r} gives no {kind} payload"
        if command in _FAILURES:
            _check_k_l(command, top, G)
        expected = encode(*verify(G, command, top, payload))
        if canonical_json({f: payload[f] for f in expected}) != canonical_json(expected):
            return False, "payload is not the encoding of its claim"
        return True, None
    except _Rejected as exc:
        return False, str(exc)
    except (LookupError, TypeError, ValueError, ArithmeticError, GraphInputError) as exc:
        return False, f"malformed certificate: {exc}"
    except RigidpackError as exc:
        return False, f"cannot re-check the claim: {exc}"


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"{what} must be a JSON object")
    return value


def _check_k_l(command, top, G):
    k, l = top.get("k"), top.get("l")
    if set(top) != {"k", "l"} or type(k) is not int or type(l) is not int:
        raise _Rejected("top-level parameters must be the integers k and l")
    _check_split(k, l)
    # ndt also needs k <= m, as its producer does.
    if command == "ndt" and not (k + 1 <= l <= 2 * k + 2 and k <= G.m):
        raise _Rejected(f"k={k}, l={l} is outside the range of {command}")
    if command == "pack" and G.n < 2:
        raise _Rejected("pack needs at least two vertices")


def _verify_decomposition_payload(G, command, top, payload):
    dec = Decomposition(top["k"], top["l"], tuple(payload["assignment"]))
    if not dec.is_complete():
        raise _Rejected("decomposition leaves edges uncovered")
    _ensure(verify_decomposition(G, dec))
    return (dec,)


def _verify_packing_payload(G, command, top, payload):
    rigid, trees = (tuple(map(frozenset, payload[f])) for f in ("rigid_parts", "tree_parts"))
    packing = Packing(rigid, trees)
    _ensure(verify_packing(G, packing))
    if (len(packing.rigid_parts), len(packing.tree_parts)) != (top["k"], top["l"]):
        raise _Rejected("part counts do not match parameters")
    return (packing,)


def _verify_bounded_cover_payload(G, command, top, payload):
    cover = BoundedCover(tuple(map(frozenset, payload["forests"])),
                         tuple(map(frozenset, payload["bounded_parts"])),
                         read_number(payload["degree_bound"]))
    _ensure(verify_bounded_cover(G, cover))
    k, l = top["k"], top["l"]
    if len(cover.forests) != l:
        raise _Rejected(f"expected {l} forests")
    if len(cover.bounded_parts) != 2 * k + 2 - l:
        raise _Rejected(f"expected {2 * k + 2 - l} bounded parts")
    return (cover,)


def _verify_density_payload(G, command, top, payload):
    # One pebble game at the stated value, not the producer's iteration.
    which = payload["which"]
    if top != {"which": which}:
        raise _Rejected("top-level parameters do not match the payload")
    if which not in DENSITY_COUNTS:
        raise _Rejected(f"unknown density parameter {which!r}")
    value = read_number(payload["value"])
    X = check_vertex_subset(G, payload["argmax"])
    a, b = DENSITY_COUNTS[which]
    if len(X) < 2 or Fraction(induced_edge_count(G, X), a * len(X) - b) != value:
        raise _Rejected("argmax does not achieve the stated value")
    if denser_set(G, a, b, value) is not None:
        raise _Rejected("some vertex set is denser than the stated value")
    return which, value, X


def _verify_report_payload(G, command, top, payload):
    name = payload["condition"]
    cond = CONDITIONS.get(name)
    if cond is None:
        raise _Rejected(f"unknown condition {name!r}")
    params = _json_object(payload["parameters"], "report parameters")
    if sorted(params) != sorted(cond.params):
        raise _Rejected(f"report parameters are not those of {name!r}")
    if any(type(v) not in (int, str) for v in params.values()):
        raise TypeError('report parameters must be integers or "p/q" strings')
    if command == "check":
        bound = cond.run is not None and (
            canonical_json(top) == canonical_json(check_parameters(name, params)))
    else:
        bound = (name, params) in _FAILURES[command](top["k"], top["l"])
    if not bound:
        raise _Rejected("report does not match the command's parameters")
    holds, witness = payload["holds"], payload["witness"]
    if not isinstance(holds, bool):
        raise TypeError("holds must be true or false")
    if holds or cond.kind is None:
        # No witness: the producer's verdict is recomputed.
        if cond.run is None:
            raise _Rejected(f"condition {name!r} cannot be certified as holding")
        if cond.run(G, params).holds != holds:
            raise _Rejected("recomputed verdict disagrees with the certificate")
        return G, ConditionReport(name, params, holds)
    if witness is None:
        raise _Rejected(f"a {name} failure carries no witness")
    if command == "check":  # the producer's parameter rules
        cond.run(Multigraph(0), params)
    kind, value = decode_witness(G, _json_object(witness, "witness"))
    if kind != cond.kind:
        raise _Rejected(f"a {name} failure carries no {kind} witness")
    return G, ConditionReport(name, params, False, value)


# Each payload kind: the commands that give it, its verifier, which checks
# the claim and returns its encoder's arguments, and its encoder, the one
# statement of the kind's format.  The encoders are bound at import, so a
# payload verifies only as this module writes it.
_PAYLOADS = {
    "decomposition": (("decompose",), _verify_decomposition_payload, decomposition_payload),
    "packing": (("pack",), _verify_packing_payload, packing_payload),
    "bounded-cover": (("ndt",), _verify_bounded_cover_payload, bounded_cover_payload),
    "density": (("gamma",), _verify_density_payload, density_payload),
    "report": (("decompose", "pack", "ndt", "check"), _verify_report_payload, report_payload),
}
