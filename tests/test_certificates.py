import copy
import json

import pytest

from rigidpack import GraphInputError, Multigraph
from rigidpack.certificates import (
    build_certificate,
    certificate_hash,
    decomposition_payload,
    graph_hash,
    load_certificate,
    packing_payload,
    report_payload,
    verify_certificate,
    write_certificate,
)
from rigidpack.conditions import check_cover_condition, gamma2
from rigidpack.ndt import ndt_decompose
from rigidpack.packing import pack_spanning_trees
from rigidpack.union import decompose_sparse

import corpus


def test_graph_hash_ignores_endpoint_order_but_not_edge_order():
    a = Multigraph(3, ((0, 1), (1, 2)))
    b = Multigraph(3, ((1, 0), (2, 1)))
    c = Multigraph(3, ((1, 2), (0, 1)))
    assert graph_hash(a) == graph_hash(b)
    assert graph_hash(a) != graph_hash(c)  # ids differ, certificates would not transfer


def test_round_trip_decomposition_certificate(tmp_path):
    G = corpus.k4()
    dec = decompose_sparse(G, 2)
    cert = build_certificate("decompose", {"k": 2, "l": 0}, G, decomposition_payload(dec))
    assert verify_certificate(cert, G) == (True, None)
    path = tmp_path / "cert.json"
    write_certificate(path, cert)
    assert verify_certificate(load_certificate(path), G) == (True, None)


def test_round_trip_report_certificate():
    G = corpus.k4()
    report = check_cover_condition(G, 1)
    cert = build_certificate("check", {"condition": "cover", "k": 1}, G, report_payload(report))
    assert verify_certificate(cert, G) == (True, None)


def test_verify_fails_against_wrong_graph():
    G = corpus.k4()
    cert = build_certificate(
        "decompose", {"k": 2, "l": 0}, G, decomposition_payload(decompose_sparse(G, 2))
    )
    ok, reason = verify_certificate(cert, corpus.k5())
    assert not ok and "graph hash" in reason


@pytest.mark.parametrize("field", ["witness", "parameters"])
@pytest.mark.parametrize("value", [[0, 1, 2, 3], "vertices", 7, True])
def test_non_object_report_fields_rejected_cleanly(field, value):
    G = corpus.k4()
    report = check_cover_condition(G, 1)
    cert = build_certificate("check", {"condition": "cover", "k": 1}, G, report_payload(report))
    cert["payload"][field] = value
    cert["cert_hash"] = certificate_hash(cert)
    ok, reason = verify_certificate(cert, G)
    assert not ok and reason.startswith("malformed certificate")


def test_non_object_parameters_rejected_cleanly():
    G = corpus.k4()
    cert = build_certificate(
        "decompose", {"k": 2, "l": 0}, G, decomposition_payload(decompose_sparse(G, 2))
    )
    cert["parameters"] = [2, 0]
    cert["cert_hash"] = certificate_hash(cert)
    ok, reason = verify_certificate(cert, G)
    assert not ok and reason.startswith("malformed certificate")


def _tamper_leaf_paths(obj, prefix=()):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _tamper_leaf_paths(value, prefix + (key,))
    elif isinstance(obj, list) and obj:
        yield from _tamper_leaf_paths(obj[0], prefix + (0,))
    else:
        yield prefix


def _tamper(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if value is None:
        return 0
    if isinstance(value, list):
        return value + [0]
    return "tampered"


def test_any_single_field_tamper_fails():
    G = corpus.k4()
    packing = pack_spanning_trees(G, 2)
    cert = build_certificate("pack", {"k": 0, "l": 2}, G, packing_payload(packing))
    paths = list(_tamper_leaf_paths(cert))
    assert len(paths) > 5
    for path in paths:
        if path[0] == "created":
            continue  # timestamp is excluded from the hash on purpose
        bad = copy.deepcopy(cert)
        node = bad
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = _tamper(node[path[-1]])
        ok, _ = verify_certificate(bad, G)
        assert not ok, f"tampering {path} went undetected"


def test_byte_determinism_modulo_timestamp(tmp_path):
    G = corpus.k33()
    payload = decomposition_payload(decompose_sparse(G, 1))
    a = build_certificate("decompose", {"k": 1, "l": 0}, G, payload)
    b = build_certificate("decompose", {"k": 1, "l": 0}, G, payload)
    for cert in (a, b):
        cert.pop("created")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert certificate_hash(a) == certificate_hash(b)


def test_emit_refuses_inconsistent_payload():
    G = corpus.k4()
    payload = decomposition_payload(decompose_sparse(G, 2))
    payload["assignment"] = [1] * 6  # all of K4 in one class: not sparse
    with pytest.raises(RuntimeError):
        build_certificate("decompose", {"k": 2, "l": 0}, G, payload)


def test_forged_forest_plus_bounded_failure_rejected():
    # The genuine small-n claim: a triangle is no forest plus a remainder
    # of max degree 0.
    tri = corpus.triangle()
    payload = report_payload(ndt_decompose(tri, 0, 1))
    assert payload["condition"] == "forest-plus-bounded"
    cert = build_certificate("ndt", {"k": 0, "l": 1}, tri, payload)
    assert verify_certificate(cert, tri) == (True, None)

    def forged(G, edges):
        bad = copy.deepcopy(cert)
        bad["graph_hash"] = graph_hash(G)
        bad["payload"]["witness"]["edges"] = edges
        bad["cert_hash"] = certificate_hash(bad)
        return verify_certificate(bad, G)

    # n >= 6: every sparse class splits, so the claim is always false
    ok, reason = forged(corpus.path(8), list(range(7)))
    assert not ok and "n >= 6" in reason
    # n < 6: the class must be sparse and the search must come back empty
    ok, reason = forged(corpus.path(4), [0, 1, 2])
    assert not ok and "does not violate" in reason
    ok, reason = forged(corpus.double_edge(), [0, 1])
    assert not ok and "not (2,3)-sparse" in reason


def test_load_certificate_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(GraphInputError):
        load_certificate(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(GraphInputError):
        load_certificate(bad)


def test_density_certificate_round_trip():
    from rigidpack.certificates import density_payload

    G = corpus.triangle()
    result = gamma2(G)
    cert = build_certificate("gamma", {"which": "gamma2"}, G, density_payload("gamma2", *result))
    assert verify_certificate(cert, G) == (True, None)
    assert cert["payload"]["value"] == "1/1"
    assert cert["payload"]["argmax"] == [0, 1, 2]
