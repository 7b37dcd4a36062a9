import contextlib
import copy
import functools
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timedelta, timezone
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidpack import (
    GraphInputError,
    Multigraph,
    certificates,
    cli,
    conditions,
    enumeration,
    format_graph,
    random_multigraph,
)
from rigidpack.certificates import (
    CONDITIONS,
    _num,
    build_certificate,
    canonical_json,
    certificate_hash,
    check_parameters,
    decomposition_payload,
    density_payload,
    graph_hash,
    load_certificate,
    read_number,
    report_payload,
    verify_certificate,
    write_certificate,
)
from rigidpack.conditions import ConditionReport, check_cover_condition, gamma2
from rigidpack.matroids import PebbleGame, graphic_rank, rigidity_rank
from rigidpack.multigraph import Partition
from rigidpack.ndt import ndt_decompose
from rigidpack.packing import pack_rigid_and_trees
from rigidpack.union import decompose

import corpus
import oracles


def test_graph_hash_ignores_endpoint_order_but_not_edge_order():
    a = Multigraph(3, ((0, 1), (1, 2)))
    b = Multigraph(3, ((1, 0), (2, 1)))
    c = Multigraph(3, ((1, 2), (0, 1)))
    assert graph_hash(a) == graph_hash(b)
    assert graph_hash(a) != graph_hash(c)  # ids differ, certificates would not transfer


def test_round_trip_decomposition_certificate(tmp_path):
    G = corpus.k4()
    dec = decompose(G, 2, 0)
    cert = build_certificate("decompose", {"k": 2, "l": 0}, G, decomposition_payload(dec))
    assert verify_certificate(cert, G) == (True, None)
    path = tmp_path / "cert.json"
    write_certificate(path, cert)
    assert verify_certificate(load_certificate(path), G) == (True, None)


def test_cli_writes_one_line_of_canonical_json(tmp_path):
    # The file is the text cert_hash covers, plus cert_hash and created.
    gfile, out = tmp_path / "k4.txt", tmp_path / "cert.json"
    gfile.write_text(format_graph(corpus.k4()))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["decompose", str(gfile), "--k", "2", "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text == canonical_json(json.loads(text)) + "\n"
    assert text.count("\n") == 1


def test_certificates_in_the_indented_layout_still_verify(tmp_path):
    # Certificates used to be written with indent=2; verify parses JSON, so
    # a certificate already on disk stays checkable.
    gfile, cfile = tmp_path / "graph.txt", tmp_path / "cert.json"
    for case, G, cert in cli_certificates():
        gfile.write_text(format_graph(G))
        with open(cfile, "w", encoding="utf-8") as fh:
            json.dump(cert, fh, sort_keys=True, indent=2)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", str(cfile), str(gfile)]) == 0, case


def test_round_trip_report_certificate():
    G = corpus.k4()
    report = check_cover_condition(G, 1)
    payload = report_payload(G, report)
    cert = build_certificate("check", {"condition": "cover", "k": 1}, G, payload)
    assert verify_certificate(cert, G) == (True, None)


def _failures(G):
    """(command, top-level parameters, result) for each witnessed condition
    a command can report failing on G; the partition scans up to n = 6."""
    checks = [("cover", {"k": 1}), ("tree-packing", {"l": 2}), ("kwz", {"k": 1, "d": 2})]
    if G.n <= 6:
        checks += [("necessary", {"k": 1, "l": 1}), ("parthm", {"k": 1, "l": 1})]
    for name, params in checks:
        yield "check", check_parameters(name, params), CONDITIONS[name].run(G, params)
    for k, l in ((1, 0), (0, 1), (1, 1)):
        yield "decompose", {"k": k, "l": l}, decompose(G, k, l)
    if G.n >= 2:
        yield "pack", {"k": 1, "l": 1}, pack_rigid_and_trees(G, 1, 1)


def test_payload_sides_are_the_definitions():
    # Each witnessed condition's certificate states the two sides that the
    # definitions give at its witness (oracles.violated_def), and they
    # violate the inequality.
    seen = set()
    # The first parthm violator of the last graph has Z = {5}, with an
    # adjacent number of 3 in its rhs.
    graphs = [corpus.k4(), corpus.k5(), corpus.cycle(4), corpus.bowtie(),
              corpus.doubled_triangle(), corpus.two_triangles_disjoint(),
              random_multigraph(6, 15, 3, seed=13)]
    for G in graphs + corpus.random_corpus(40, seed=71, n_range=(2, 6), m_max=10):
        for command, params, report in _failures(G):
            if not isinstance(report, ConditionReport) or report.holds:
                continue
            cert = build_certificate(command, params, G, report_payload(G, report))
            stated = [Fraction(cert["payload"][side]) for side in ("lhs", "rhs")]
            found = oracles.violated_def(G, report.condition, report.parameters, report.witness)
            assert found == (True, *stated), (command, params, G)
            seen.add(report.condition)
    assert seen == {"cover", "tree-packing", "parthm", "necessary", "kwz", "sparse-cover",
                    "forest-cover", "union-cover", "packing"}


def test_verify_fails_against_wrong_graph():
    G = corpus.k4()
    cert = build_certificate(
        "decompose", {"k": 2, "l": 0}, G, decomposition_payload(decompose(G, 2, 0))
    )
    ok, reason = verify_certificate(cert, corpus.k5())
    assert not ok and "graph hash" in reason


@pytest.mark.parametrize("field", ["witness", "parameters"])
@pytest.mark.parametrize("value", [[0, 1, 2, 3], "vertices", 7, True])
def test_non_object_report_fields_rejected_cleanly(field, value):
    G = corpus.k4()
    report = check_cover_condition(G, 1)
    payload = report_payload(G, report)
    cert = build_certificate("check", {"condition": "cover", "k": 1}, G, payload)
    cert["payload"][field] = value
    cert["cert_hash"] = certificate_hash(cert)
    ok, reason = verify_certificate(cert, G)
    assert not ok and reason.startswith("malformed certificate")


def test_non_object_parameters_rejected_cleanly():
    G = corpus.k4()
    cert = build_certificate(
        "decompose", {"k": 2, "l": 0}, G, decomposition_payload(decompose(G, 2, 0))
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


def _rehashed(cert, path, value):
    bad = copy.deepcopy(cert)
    node = bad
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    bad["cert_hash"] = certificate_hash(bad)
    return bad


# One CLI certificate of every payload kind, and a report for every
# condition: holding, failing with each witness kind, and the unwitnessed
# failures (pq-connected, bracket-partition).
CLI_CASES = (
    ("k4", "decompose --k 2"),
    ("k4", "decompose --k 1 --l 1"),
    ("k4", "decompose --k 1"),
    ("dp17", "decompose --k 1"),
    ("k4", "decompose --l 1"),
    ("dp17", "decompose --l 1"),
    ("dtri", "decompose --k 1 --l 1"),
    ("e3", "decompose --k 1"),
    ("k4", "pack --k 0 --l 2"),
    ("dtri", "pack --k 2 --l 0"),
    ("k4", "pack --k 2 --l 0"),
    ("tri", "pack --k 0 --l 2"),
    ("c14", "pack --k 0 --l 2"),
    ("k4", "ndt --k 1 --l 2"),
    ("k4", "ndt --k 0 --l 2"),
    ("tri", "ndt --k 0 --l 2"),
    ("tri", "ndt --k 0 --l 1"),
    ("tri", "gamma gamma2"),
    ("k4", "gamma gamma"),
    ("k4", "check cover --k 2"),
    ("k4", "check cover --k 1"),
    ("k4", "check tree-packing --l 2"),
    ("tri", "check tree-packing --l 2"),
    ("tri", "check parthm --k 1 --l 0"),
    ("bowtie", "check parthm --k 1 --l 0"),
    ("tri", "check necessary --k 1 --l 0"),
    ("p4", "check necessary --k 1 --l 0"),
    ("k4", "check pq-connected --p 3 --q 1"),
    ("p4", "check pq-connected --p 3 --q 1"),
    ("k4", "check bracket-partition --p 1 --q 1"),
    ("p4", "check bracket-partition --p 2 --q 1"),
    ("tri", "check kwz --k 1 --d 2"),
    ("k4", "check kwz --k 1 --d 2"),
    ("k4", "check kwz --k 1 --d 7/3"),
)

GRAPHS = {
    "k4": corpus.k4,
    "tri": corpus.triangle,
    "p4": lambda: corpus.path(4),
    "dtri": corpus.doubled_triangle,
    "c14": lambda: corpus.cycle(14),
    "bowtie": corpus.bowtie,
    "e3": lambda: Multigraph(3),
    # a doubled path above the exhaustive test scans' 16 vertices
    "dp17": lambda: Multigraph(17, tuple(e for i in range(16) for e in [(i, i + 1)] * 2)),
}


@functools.lru_cache(maxsize=None)
def cli_certificates():
    """(case, graph, certificate) for every entry of ``CLI_CASES``."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in CLI_CASES:
            G = GRAPHS[name]()
            gfile = os.path.join(tmp, f"{name}.txt")
            cfile = os.path.join(tmp, "cert.json")
            with open(gfile, "w") as fh:
                fh.write(format_graph(G))
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv.split() + [gfile, "--out", cfile])
            assert code in (0, 1), (name, argv)
            out.append((f"{name}: {argv}", G, load_certificate(cfile)))
    return tuple(out)


# Leaves whose change can leave a true claim: the timestamp is outside the
# hash, and a recoloured edge may give another valid split of the same rank.
FREE_LEAVES = {("created",), ("cert_hash",), ("payload", "assignment", 0)}

# The union failures, and the size their edge-set bound must stay below,
# computed from the top-level parameters alone.
UNION_TARGETS = {
    "decompose": lambda G, top: G.m,
    "pack": lambda G, top: top["k"] * (2 * G.n - 3) + top["l"] * (G.n - 1),
}


def _union_bound(G, top, F):
    """m - |F| + k r_rig(F) + l r_gr(F), from the matroid ranks directly."""
    F = sorted(F)
    return (G.m - len(F) + top["k"] * rigidity_rank(G, F).rank
            + top["l"] * graphic_rank(G, F).rank)


def _cases_cover_every_kind_and_condition():
    kinds, reports = set(), set()
    for _, _, cert in cli_certificates():
        p = cert["payload"]
        kinds.add(p["kind"])
        if p["kind"] == "report":
            reports.add((p["condition"], p["holds"], (p["witness"] or {}).get("kind")))
    assert kinds == {"decomposition", "density", "report"}
    assert {c for c, _, _ in reports} == {
        "cover", "tree-packing", "parthm", "necessary", "pq-connected",
        "bracket-partition", "kwz", "sparse-cover", "forest-cover", "union-cover",
        "packing", "forest-plus-bounded",
    }
    witnesses = {w for _, holds, w in reports if not holds}
    assert witnesses == {"vertex-set", "partition", "z-partition", "edge-set", None}


def test_any_single_field_tamper_fails():
    _cases_cover_every_kind_and_condition()
    for case, G, cert in cli_certificates():
        assert verify_certificate(cert, G) == (True, None), case
        paths = [p for p in _tamper_leaf_paths(cert) if p not in FREE_LEAVES]
        for path in paths:
            node = cert
            for key in path:
                node = node[key]
            # without the hash recomputed, the hash catches it
            unhashed = _rehashed(cert, path, _tamper(node))
            unhashed["cert_hash"] = cert["cert_hash"]
            assert verify_certificate(unhashed, G)[0] is False, (case, path)
            # with it recomputed, the semantic check must
            bad = _rehashed(cert, path, _tamper(node))
            ok, reason = verify_certificate(bad, G)
            edge_set = path == ("payload", "witness", "edges", 0)
            if ok and edge_set and cert["command"] in UNION_TARGETS:
                # Another edge set may bound the union just as well; it
                # passes only if its bound is the stated one and still
                # below the command's target.
                bound = _union_bound(G, cert["parameters"], bad["payload"]["witness"]["edges"])
                assert bound == bad["payload"]["lhs"], case
                assert bound < UNION_TARGETS[cert["command"]](G, cert["parameters"]), case
                continue
            assert not ok, f"{case}: rehashed tamper of {path} went undetected"
            assert isinstance(reason, str)


def test_true_does_not_pass_for_one():
    # JSON true and false equal 1 and 0 in Python; as an id, a count or a
    # parameter they must be rejected all the same.
    for case, G, cert in cli_certificates():
        for path in _node_paths(cert):
            node = cert
            for key in path:
                node = node[key]
            if type(node) is int and node in (0, 1):
                ok, _ = verify_certificate(_rehashed(cert, path, bool(node)), G)
                assert not ok, f"{case}: {path} = {bool(node)} went undetected"


def test_witness_kind_is_bound_to_the_condition():
    kinds = ("vertex-set", "partition", "z-partition", "edge-set")
    for case, G, cert in cli_certificates():
        witness = cert["payload"].get("witness")
        if not witness:
            continue
        for kind in kinds:
            if kind != witness["kind"]:
                bad = _rehashed(cert, ("payload", "witness", "kind"), kind)
                assert not verify_certificate(bad, G)[0], (case, kind)


def _cert(case):
    return next((G, copy.deepcopy(c)) for name, G, c in cli_certificates() if name == case)


def test_a_decompose_pack_or_ndt_report_must_fail(tmp_path, capsys):
    # These commands give a report only on failure.  pack --k 0 never
    # writes a holding tree-packing report, although tree-packing has a
    # producer whose re-run would hold, and no failing report of theirs
    # holds once its flag is flipped.
    G, cert = _cert("k4: pack --k 0 --l 2")
    holding = {"kind": "report", "condition": "tree-packing", "parameters": {"l": 2},
               "holds": True, "witness": None, "lhs": None, "rhs": None}
    forged = [(G, _rehashed(cert, ("payload",), holding))]
    forged += [(G, _rehashed(cert, ("payload", "holds"), True))
               for _, G, cert in cli_certificates()
               if cert["command"] != "check" and cert["payload"]["kind"] == "report"]
    assert len(forged) > 8
    gfile, cfile = tmp_path / "g.txt", tmp_path / "c.json"
    for G, bad in forged:
        assert verify_certificate(bad, G) == (
            False, f"{bad['command']} gives a report only on failure"), bad
        gfile.write_text(format_graph(G))
        write_certificate(cfile, bad)
        assert cli.main(["verify", str(cfile), str(gfile)]) == 1
    capsys.readouterr()


def test_top_level_claim_is_bound_to_the_payload():
    # cover k=1 fails on K4; a payload proving cover k=5 holds is not its proof
    G, cert = _cert("k4: check cover --k 1")
    _, holding = _cert("k4: check cover --k 2")
    cert["payload"] = holding["payload"]
    cert["payload"]["parameters"]["k"] = 5
    cert["cert_hash"] = certificate_hash(cert)
    ok, reason = verify_certificate(cert, G)
    assert not ok and "parameters" in reason

    # check evaluates only the conditions that have a producer
    G, cert = _cert("k4: check cover --k 1")
    cert["parameters"]["condition"] = cert["payload"]["condition"] = "sparse-cover"
    cert["cert_hash"] = certificate_hash(cert)
    assert not verify_certificate(cert, G)[0]

    # a decompose certificate carrying a density payload
    G, cert = _cert("k4: decompose --k 2")
    _, density = _cert("k4: gamma gamma")
    cert["payload"] = density["payload"]
    cert["cert_hash"] = certificate_hash(cert)
    assert not verify_certificate(cert, G)[0]

    # an empty decomposition that says it is incomplete
    G, cert = _cert("k4: decompose --k 2")
    cert["payload"]["assignment"] = [0] * G.m
    cert["payload"]["complete"] = False
    cert["payload"]["rank"] = 0
    cert["cert_hash"] = certificate_hash(cert)
    assert not verify_certificate(cert, G)[0]


def test_an_edge_id_refusal_does_not_depend_on_the_hash_seed(tmp_path):
    # A string among a witness's edge ids is refused as that id, under any
    # string hash seed: the ids are checked in the order written before
    # any two are compared.  Sorting the set {3, "50", 5} first compares a
    # str with an int under seed 0, and an int with a str under seed 1.
    G, cert = _cert("dtri: decompose --k 1 --l 1")
    assert cert["payload"]["witness"]["kind"] == "edge-set"
    bad = _rehashed(cert, ("payload", "witness", "edges"), [3, "50", 5])
    gfile, cfile = tmp_path / "g.txt", tmp_path / "c.json"
    gfile.write_text(format_graph(G))
    write_certificate(cfile, bad)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    outputs = set()
    for seed in ("0", "1"):
        run = subprocess.run(
            [sys.executable, "-m", "rigidpack.cli", "verify", str(cfile), str(gfile)],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": package_root},
            capture_output=True, text=True)
        assert run.returncode == 1, run.stderr
        outputs.add(run.stdout)
    assert outputs == {"certificate verification FAILED: malformed certificate: "
                       "edge id '50' out of range 0..5\n"}


def test_kwz_d_compares_as_a_fraction():
    G, cert = _cert("k4: check kwz --k 1 --d 2")
    assert cert["parameters"]["d"] == 2 and cert["payload"]["parameters"]["d"] == "2"
    assert verify_certificate(cert, G) == (True, None)
    for top in (3, "3", "5/2"):
        bad = _rehashed(cert, ("parameters", "d"), top)
        assert not verify_certificate(bad, G)[0], top


@settings(max_examples=200, deadline=None)
@given(x=st.fractions())
def test_read_number_reads_every_number_certificates_write(x):
    written = (x, _num(x), str(x), check_parameters("kwz", {"k": 1, "d": x})["d"])
    assert [read_number(w) for w in written] == [x] * len(written)
    if x.denominator == 1:
        assert read_number(int(x)) == x


@pytest.mark.parametrize("bad", ["2.5", "1e3", " 3", "+3", "3/-2", "1/0", "", "\u0663", True,
                                 "3\n", "1_000", "0x10", "inf", 2.5, None, [3]])
def test_read_number_refuses_every_other_form(bad):
    with pytest.raises(ValueError):
        read_number(bad)


@pytest.mark.parametrize("case, paths", [
    ("k4: check kwz --k 1 --d 2", (("parameters", "d"), ("payload", "parameters", "d"))),
    ("k4: ndt --k 1 --l 2", (("payload", "bounded"),)),
    ("k4: gamma gamma", (("payload", "value"),)),
])
def test_an_exponent_costs_the_verifier_nothing(case, paths):
    # Fraction("1e10000000") alone takes seconds; the forms written are
    # read without it.  The verifier reads no class count: the command
    # fixes it, and the forged one is not what the encoder writes.
    G, bad = _cert(case)
    for path in paths:
        bad = _rehashed(bad, path, "1e10000000")
    start = time.perf_counter()
    ok, reason = verify_certificate(bad, G)
    assert time.perf_counter() - start < 1.0
    refusal = "payload is not the encoding" if "ndt" in case else "malformed certificate"
    assert not ok and reason.startswith(refusal), reason


# Values that have broken verifiers: zero denominators, an infinite float
# (what a JSON 1e400 parses to), huge and negative counts, the wrong kind.
_SPECIAL = st.sampled_from(["1/0", float("inf"), float("nan"), 10**30, -1, 0, "3", "7/3",
                            "vertex-set", "partition", "z-partition", "edge-set",
                            "report", "cover", "union-cover", "packing", [], {}, [[]], None, True])
_JSON = _SPECIAL | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=3),
    max_leaves=6,
)


def _node_paths(obj, prefix=()):
    yield prefix
    if isinstance(obj, (dict, list)):
        for key in (sorted(obj) if isinstance(obj, dict) else range(len(obj))):
            yield from _node_paths(obj[key], prefix + (key,))


@st.composite
def _payload_mutations(draw):
    case, G, cert = draw(st.sampled_from(cli_certificates()))
    bad = copy.deepcopy(cert)
    path = ("payload",) + draw(st.sampled_from(list(_node_paths(cert["payload"]))))
    node = bad
    for key in path[:-1]:
        node = node[key]
    if isinstance(node, dict) and draw(st.booleans()):
        del node[path[-1]]
    else:
        node[path[-1]] = draw(_JSON)
    bad["cert_hash"] = certificate_hash(bad)
    return case, G, bad


@settings(max_examples=400, deadline=None, database=None)
@given(_payload_mutations())
def test_payload_mutations_never_raise(mutation):
    case, G, bad = mutation
    ok, reason = verify_certificate(bad, G)
    assert isinstance(ok, bool)
    assert reason is None if ok else isinstance(reason, str)


def test_byte_determinism_modulo_timestamp(tmp_path):
    G = corpus.k33()
    payload = decomposition_payload(decompose(G, 1, 0))
    a = build_certificate("decompose", {"k": 1, "l": 0}, G, payload)
    b = build_certificate("decompose", {"k": 1, "l": 0}, G, payload)
    for cert in (a, b):
        cert.pop("created")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert certificate_hash(a) == certificate_hash(b)


def test_created_is_a_utc_timestamp_with_microseconds():
    G = corpus.k4()
    before = datetime.now(timezone.utc)
    created = build_certificate("decompose", {"k": 2, "l": 0}, G,
                                decomposition_payload(decompose(G, 2, 0)))["created"]
    after = datetime.now(timezone.utc)
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{6}\+00:00", created)
    stamp = datetime.fromisoformat(created)
    assert stamp.utcoffset() == timedelta(0)
    assert before - timedelta(seconds=1) <= stamp <= after + timedelta(seconds=1)


def test_emit_refuses_inconsistent_payload():
    G = corpus.k4()
    payload = decomposition_payload(decompose(G, 2, 0))
    payload["assignment"] = [1] * 6  # all of K4 in one class: not sparse
    with pytest.raises(RuntimeError):
        build_certificate("decompose", {"k": 2, "l": 0}, G, payload)


def test_forged_forest_plus_bounded_failure_rejected():
    # The genuine small-n claim: a triangle is no forest plus a remainder
    # of max degree 0.
    tri = corpus.triangle()
    payload = report_payload(tri, ndt_decompose(tri, 0, 1))
    assert payload["condition"] == "forest-plus-bounded"
    cert = build_certificate("ndt", {"k": 0, "l": 1}, tri, payload)
    assert verify_certificate(cert, tri) == (True, None)

    def forged(G, edges):
        bad = copy.deepcopy(cert)
        bad["graph_hash"] = graph_hash(G)
        bad["payload"]["witness"]["edges"] = edges
        bad["cert_hash"] = certificate_hash(bad)
        return verify_certificate(bad, G)

    # At any n the class must be sparse and the exact test must find no
    # split; from n = 6 on every sparse class splits.
    ok, reason = forged(corpus.path(8), list(range(7)))
    assert not ok and "does not violate" in reason
    ok, reason = forged(corpus.path(4), [0, 1, 2])
    assert not ok and "does not violate" in reason
    ok, reason = forged(corpus.double_edge(), [0, 1])
    assert not ok and "not (2,3)-sparse" in reason


@pytest.mark.parametrize("name, params, witness, message", [
    ("cover", {"k": -1}, frozenset({0, 1}), "need k >= 0"),
    ("kwz", {"k": 1, "d": "1"}, frozenset(range(4)),
     "the degree bound requires d >= k + 1 (got d=1, k=1)"),
    ("parthm", {"k": -1, "l": 0}, (frozenset({1, 2, 3}), Partition([{0}])),
     "need k >= 0 and l >= 0"),
], ids=["cover", "kwz", "parthm"])
def test_a_failing_check_claim_obeys_its_producers_parameter_rules(name, params, witness, message):
    # check refuses these parameters (exit 2).  A failing claim's witness
    # is checked without the producer, yet verify applies the producer's
    # own parameter rules to it: each forged witness below violates its
    # inequality at the forged parameters, and is still refused.
    G = corpus.k4()
    with pytest.raises(GraphInputError, match=re.escape(message)):
        CONDITIONS[name].run(G, params)
    payload = report_payload(G, ConditionReport(name, params, False, witness))
    cert = {
        "schema": certificates.SCHEMA, "command": "check", "graph_hash": graph_hash(G),
        "parameters": check_parameters(name, params), "verified": True, "payload": payload,
    }
    cert["cert_hash"] = certificate_hash(cert)
    assert verify_certificate(cert, G) == (False, f"malformed certificate: {message}")


def test_a_forest_plus_bounded_failure_is_verified_with_one_sparsity_game(monkeypatch):
    # The verifier finds the witness class sparse by one (2,3) pebble game,
    # and then runs the exact split test, which checks no sparsity of its
    # own.
    tri = corpus.triangle()
    payload = report_payload(tri, ndt_decompose(tri, 0, 1))
    cert = build_certificate("ndt", {"k": 0, "l": 1}, tri, payload)
    games, init = [], PebbleGame.__init__

    def counted(self, n, a=2, b=3, w=1):
        games.append((a, b))
        init(self, n, a, b, w)

    monkeypatch.setattr(PebbleGame, "__init__", counted)
    assert verify_certificate(cert, tri) == (True, None)
    assert games.count((2, 3)) == 1


def test_full_forest_bounded_cover_still_verifies():
    # The split of the earlier backtracking search, which put every edge it
    # could into the forest: all of path(6) in the forest and an empty
    # bounded part.  The producer now writes the opposite split, but this
    # one is just as valid.
    G = corpus.path(6)
    cert = {
        "command": "ndt",
        "graph_hash": graph_hash(G),
        "parameters": {"k": 0, "l": 1},
        "payload": {"assignment": [1, 1, 1, 1, 1], "bounded": 1, "complete": True, "k": 0,
                    "kind": "decomposition", "l": 1, "rank": 5},
        "schema": certificates.SCHEMA,
        "verified": True,
    }
    cert["cert_hash"] = certificate_hash(cert)
    assert verify_certificate(cert, G) == (True, None)


# K6 packs one spanning rigid subgraph and one spanning tree; the 8-vertex
# fan (a wheel less one rim edge) is one forest plus a part of degree <= 3.
_K6 = Multigraph(6, tuple(itertools.combinations(range(6), 2)))
_FAN8 = Multigraph(8, tuple((0, i) for i in range(1, 8)) + tuple((i, i + 1) for i in range(1, 7)))


def _swap_colours(assignment):
    return [{1: 2, 2: 1}.get(c, c) for c in assignment]


@pytest.mark.parametrize("G, argv, edit, reason", [
    pytest.param(_K6, "pack --k 1 --l 1", _swap_colours, "class 2 is not a forest",
                 id="reversed"),
    pytest.param(_K6, "pack --k 1 --l 1", lambda a: a + a[:1],
                 "assignment length does not match edge count", id="repeated"),
    pytest.param(_FAN8, "ndt --k 0 --l 1", _swap_colours, "class 1 is not a forest",
                 id="reversed-forest"),
])
def test_part_lists_must_be_canonical(tmp_path, capsys, G, argv, edit, reason):
    # The assignment lists each edge's class, in edge id order, and the
    # command fixes which colours are sparse classes, forests and bounded
    # parts.  A certificate with the classes in reverse order, or with an
    # edge listed twice, is refused once rehashed.
    gfile, cfile = tmp_path / "g.txt", tmp_path / "c.json"
    gfile.write_text(format_graph(G))
    assert cli.main(argv.split() + [str(gfile), "--out", str(cfile)]) == 0
    cert = load_certificate(cfile)
    bad = _rehashed(cert, ("payload", "assignment"), edit(cert["payload"]["assignment"]))
    assert verify_certificate(bad, G) == (False, reason)
    write_certificate(cfile, bad)
    capsys.readouterr()
    assert cli.main(["verify", str(cfile), str(gfile)]) == 1


def test_every_payload_is_its_encoders_output():
    # A payload is what its kind's encoder writes for the claim its
    # verifier decodes, field for field and nothing more.
    for case, G, cert in cli_certificates():
        payload = cert["payload"]
        _, verify, encode = certificates._PAYLOADS[payload["kind"]]
        decoded = verify(G, cert["command"], cert["parameters"], payload)
        assert canonical_json(encode(*decoded)) == canonical_json(payload), case


@pytest.mark.parametrize("case, reason", [
    ("k4: pack --k 0 --l 2", "assignment length does not match edge count"),
    ("dtri: pack --k 2 --l 0", "assignment length does not match edge count"),
    ("tri: ndt --k 0 --l 2", "assignment length does not match edge count"),
    ("e3: decompose --k 1", "payload is not the encoding of its claim"),
])
@pytest.mark.parametrize("value", [{}, ""], ids=["object", "string"])
def test_an_empty_list_is_not_an_empty_object_or_string(case, reason, value):
    # Both iterate as no colours.  An assignment of no edges is refused
    # where the graph has edges, and on the edgeless graph it is not what
    # the encoder writes.
    G, cert = _cert(case)
    assert (cert["payload"]["assignment"] == []) == (G.m == 0)
    bad = _rehashed(cert, ("payload", "assignment"), value)
    assert verify_certificate(bad, G) == (False, reason)


@pytest.mark.parametrize("case, field", [
    ("k4: check cover --k 2", "lhs"),
    ("k4: decompose --k 2", "rank"),
])
def test_a_missing_payload_field_is_malformed(case, field):
    # A field the encoder writes is compared, never read as null.
    G, cert = _cert(case)
    del cert["payload"][field]
    cert["cert_hash"] = certificate_hash(cert)
    ok, reason = verify_certificate(cert, G)
    assert not ok and reason.startswith("malformed certificate"), reason


def test_the_verifier_compares_with_the_encoders_bound_at_import(tmp_path, monkeypatch):
    # An encoder patched on the module, as the benchmark's self-test does to
    # make the CLI write a nonce, does not change what verify expects: the
    # honest certificate still verifies, and so does the patched CLI's,
    # whose extra key no encoder writes.
    G, cert = _cert("k4: decompose --k 2")
    encoder = certificates.decomposition_payload
    monkeypatch.setattr(certificates, "decomposition_payload",
                        lambda dec: {**encoder(dec), "nonce": 0})
    assert verify_certificate(cert, G) == (True, None)
    gfile, cfile = tmp_path / "k4.txt", tmp_path / "cert.json"
    gfile.write_text(format_graph(G))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["decompose", str(gfile), "--k", "2", "--out", str(cfile)]) == 0
    assert load_certificate(cfile)["payload"]["nonce"] == 0


def _doubled_path(n):
    return Multigraph(n, tuple(e for i in range(n - 1) for e in [(i, i + 1)] * 2))


# Schema-1 certificates, each with a valid hash: a sparse-cover failure
# witnessed by the uncovered edges of a maximum split, an unwitnessed
# tree-packing failure, a cover failure with a free-text note, and two that
# state the guardrails they were made under.  Later schemas have none of
# these forms, and keep no second path to verify them.
SCHEMA_1_CERTIFICATES = (
    (_doubled_path(17),
     {"cert_hash": "e5df9fb433f1e8986a572f18315c82476f155d1ba5540fa6782e0445c4896c2c",
      "command": "decompose",
      "created": "2026-10-18T11:09:45.640269+00:00",
      "graph_hash": "d379ab022181ff29fd9e6b558f2665379ac8d1ee130f41e623268d9cfb5cf647",
      "parameters": {"k": 1, "l": 0},
      "payload": {"condition": "sparse-cover",
                  "holds": False,
                  "kind": "report",
                  "lhs": 16,
                  "note": "non-definitional witness: uncovered edges of a maximum "
                          "decomposition",
                  "parameters": {"k": 1},
                  "rhs": 32,
                  "witness": {"edges": [1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27,
                                        29, 31],
                              "kind": "deficiency-edges"}},
      "schema": "rigidpack-cert/1",
      "verified": True}),
    (corpus.cycle(14),
     {"cert_hash": "7527737ff055d84a96fbf9e1b4d5e2de50b52112e4b702ad9074d8473a90b551",
      "command": "pack",
      "created": "2026-10-18T11:09:45.641988+00:00",
      "graph_hash": "a28b6b552b39d989b60a4be4c189ceff2bad8dfaf0bae6c5fefc2942e2c6bf03",
      "parameters": {"k": 0, "l": 2},
      "payload": {"condition": "tree-packing",
                  "holds": False,
                  "kind": "report",
                  "lhs": None,
                  "note": "witness unavailable: partition scan above guardrail",
                  "parameters": {"l": 2},
                  "rhs": None,
                  "witness": None},
      "schema": "rigidpack-cert/1",
      "verified": True}),
    (_doubled_path(6),
     {"cert_hash": "a526b7dcc29fc208d01c2e2806b384964e89244ba57a18e5e3cffb55ad4b7049",
      "command": "check",
      "created": "2026-10-18T11:09:45.643613+00:00",
      "graph_hash": "ace237ea5003150788d7ffb8b7545a990596c6e0a9c025e0678f10d2b92d7507",
      "parameters": {"condition": "cover", "k": 1},
      "payload": {"condition": "cover",
                  "holds": False,
                  "kind": "report",
                  "lhs": 10,
                  "note": None,
                  "parameters": {"k": 1},
                  "rhs": 9,
                  "witness": {"kind": "vertex-set", "vertices": [0, 1, 2, 3, 4, 5]}},
      "schema": "rigidpack-cert/1",
      "verified": True}),
    (corpus.k4(),
     {"cert_hash": "7ed79155741105bc5da29d9783876b46f5a734e21a3919b69896c0fa49ed4728",
      "command": "check",
      "created": "2026-10-18T11:58:18.054947+00:00",
      "graph_hash": "9c3528d98663acb8787c1f08381b6591c46b657d1c4c0061ae09a1e908653f00",
      "parameters": {"condition": "cover", "k": 2},
      "payload": {"condition": "cover", "holds": True, "kind": "report", "lhs": None,
                  "note": None, "parameters": {"k": 2, "max_n": 6}, "rhs": None,
                  "witness": None},
      "schema": "rigidpack-cert/1",
      "verified": True}),
    (corpus.k4(),
     {"cert_hash": "88805f64cc283291f14a85eea59536f215bb3790d107502cc3988fbd238ad36c",
      "command": "gamma",
      "created": "2026-10-18T11:58:18.055839+00:00",
      "graph_hash": "9c3528d98663acb8787c1f08381b6591c46b657d1c4c0061ae09a1e908653f00",
      "parameters": {"which": "gamma"},
      "payload": {"argmax": [0, 1, 2, 3], "kind": "density", "max_n": 6, "value": "2/1",
                  "which": "gamma"},
      "schema": "rigidpack-cert/1",
      "verified": True}),
)


def test_schema_1_certificates_are_rejected(tmp_path, capsys):
    for i, (G, cert) in enumerate(SCHEMA_1_CERTIFICATES):
        assert certificate_hash(cert) == cert["cert_hash"]
        assert verify_certificate(cert, G) == (False, "unknown schema 'rigidpack-cert/1'")
        gfile, cfile = tmp_path / f"g{i}.txt", tmp_path / f"c{i}.json"
        gfile.write_text(format_graph(G))
        write_certificate(cfile, cert)
        capsys.readouterr()
        assert cli.main(["verify", str(cfile), str(gfile)]) == 1
        assert "unknown schema" in capsys.readouterr().out


def test_forged_holding_scan_claim_is_refused_within_the_verifiers_guardrail(
    tmp_path, capsys, monkeypatch
):
    # A holding parthm report on K13, which no check wrote.  A certificate
    # states no guardrail: the verifier re-walks the claim under its own
    # budget, and refuses once the walk charges more.  The claim is true, so
    # under the full budget verify accepts it.
    G = Multigraph(13, tuple(itertools.combinations(range(13), 2)))
    cert = {
        "schema": certificates.SCHEMA, "command": "check", "graph_hash": graph_hash(G),
        "parameters": {"condition": "parthm", "k": 1, "l": 0}, "verified": True,
        "payload": {"kind": "report", "condition": "parthm", "holds": True,
                    "parameters": {"k": 1, "l": 0},
                    "witness": None, "lhs": None, "rhs": None},
    }
    cert["cert_hash"] = certificate_hash(cert)
    gfile, cfile = tmp_path / "k13.txt", tmp_path / "forged.json"
    gfile.write_text(format_graph(G))
    write_certificate(cfile, cert)
    monkeypatch.setattr(enumeration, "PARTITION_BUDGET", 10_000)
    start = time.perf_counter()
    assert cli.main(["verify", str(cfile), str(gfile)]) == 1
    assert time.perf_counter() - start < 1.0
    assert "cannot re-check the claim: partition walks are limited to 10000 steps" in (
        capsys.readouterr().out)
    monkeypatch.undo()
    assert cli.main(["verify", str(cfile), str(gfile)]) == 0


def test_holding_z_scan_past_the_budget_is_refused_by_check_and_verify(
    tmp_path, capsys, monkeypatch
):
    # On the 12-cycle a holding bracket-partition walk charges 261,175,
    # more than a budget of 20,000.  The check refuses (exit 3) and
    # writes nothing, and verify of a holding certificate rehashed for that
    # graph refuses within the same budget: a forged claim costs the
    # verifier no more than the producer.
    G = corpus.cycle(12)
    gfile, cfile = tmp_path / "c12.txt", tmp_path / "bracket.json"
    gfile.write_text(format_graph(G))
    monkeypatch.setattr(enumeration, "PARTITION_BUDGET", 20_000)
    start = time.perf_counter()
    assert cli.main(["check", "bracket-partition", str(gfile), "--p", "1", "--q", "1",
                     "--out", str(cfile)]) == 3
    assert time.perf_counter() - start < 1.0
    assert "partition walks are limited to 20000 steps (charged 20001)" in capsys.readouterr().err
    assert not cfile.exists()
    cert = {
        "schema": certificates.SCHEMA, "command": "check", "graph_hash": graph_hash(G),
        "parameters": {"condition": "bracket-partition", "p": 1, "q": 1}, "verified": True,
        "payload": {"kind": "report", "condition": "bracket-partition", "holds": True,
                    "parameters": {"p": 1, "q": 1},
                    "witness": None, "lhs": None, "rhs": None},
    }
    cert["cert_hash"] = certificate_hash(cert)
    write_certificate(cfile, cert)
    start = time.perf_counter()
    assert cli.main(["verify", str(cfile), str(gfile)]) == 1
    assert time.perf_counter() - start < 1.0
    assert "cannot re-check the claim: partition walks are limited to 20000 steps" in (
        capsys.readouterr().out)


def test_forged_holding_pq_claim_is_refused_within_the_verifiers_guardrail(
    tmp_path, capsys, monkeypatch
):
    # A holding (2,1)-connectivity report on a cycle is true, and verify
    # re-runs the check under the producer's step limit: the cut charges
    # r^2 before each phase on r vertices, 9,454 steps on the 30-cycle.
    # With the limit at 10,000 the claim on the 40-cycle passes it, and
    # verify refuses to re-check it: a forged claim costs the verifier no
    # more than the producer.  At the real limit it verifies.
    monkeypatch.setattr(conditions, "PQ_STEP_LIMIT", 10_000)
    for n, code in ((30, 0), (40, 1)):
        G = corpus.cycle(n)
        cert = {
            "schema": certificates.SCHEMA, "command": "check", "graph_hash": graph_hash(G),
            "parameters": {"condition": "pq-connected", "p": 2, "q": 1}, "verified": True,
            "payload": {"kind": "report", "condition": "pq-connected", "holds": True,
                        "parameters": {"p": 2, "q": 1},
                        "witness": None, "lhs": None, "rhs": None},
        }
        cert["cert_hash"] = certificate_hash(cert)
        gfile, cfile = tmp_path / f"c{n}.txt", tmp_path / "forged.json"
        gfile.write_text(format_graph(G))
        write_certificate(cfile, cert)
        start = time.perf_counter()
        assert cli.main(["verify", str(cfile), str(gfile)]) == code
        assert time.perf_counter() - start < 1.0
    assert ("cannot re-check the claim: (p,q)-connectivity is limited to 10000 steps "
            "(charged ") in capsys.readouterr().out
    monkeypatch.undo()
    assert cli.main(["verify", str(cfile), str(gfile)]) == 0


def test_pack_certificate_on_one_vertex_is_refused():
    # Any number of empty trees spans one vertex, but pack needs two
    # vertices, and so does its certificate.
    G = Multigraph(1)
    cert = {
        "schema": certificates.SCHEMA, "command": "pack", "graph_hash": graph_hash(G),
        "parameters": {"k": 0, "l": 3}, "verified": True,
        "payload": {"kind": "decomposition", "k": 0, "l": 3, "bounded": 0, "rank": 0,
                    "assignment": [], "complete": True},
    }
    cert["cert_hash"] = certificate_hash(cert)
    assert verify_certificate(cert, G) == (
        False, "malformed certificate: need at least two vertices")
    cert["parameters"]["l"] = cert["payload"]["l"] = 0
    cert["cert_hash"] = certificate_hash(cert)
    assert verify_certificate(cert, G) == (
        False, "malformed certificate: need k >= 0, l >= 0, and k + l >= 1")


def test_load_certificate_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(GraphInputError):
        load_certificate(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(GraphInputError):
        load_certificate(bad)
    bad.write_text("[" * 100_000)  # nested deeper than the JSON decoder recurses
    with pytest.raises(GraphInputError):
        load_certificate(bad)
    bad.write_text("[1]")  # JSON, but not an object
    with pytest.raises(GraphInputError, match="expected a JSON object"):
        load_certificate(bad)
    gfile = tmp_path / "k4.txt"
    gfile.write_text(format_graph(corpus.k4()))
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert cli.main(["verify", str(bad), str(gfile)]) == 2
    assert "expected a JSON object" in err.getvalue()


def test_density_certificate_round_trip():
    from rigidpack.certificates import density_payload

    G = corpus.triangle()
    result = gamma2(G)
    cert = build_certificate("gamma", {"which": "gamma2"}, G, density_payload("gamma2", *result))
    assert verify_certificate(cert, G) == (True, None)
    assert cert["payload"]["value"] == "1/1"
    assert cert["payload"]["argmax"] == [0, 1, 2]
    # a density parameter no encoder writes, stated at both levels
    unknown = _rehashed(_rehashed(cert, ("parameters", "which"), "gamma3"),
                        ("payload", "which"), "gamma3")
    assert verify_certificate(unknown, G) == (False, "unknown density parameter 'gamma3'")


# A density certificate as written when the argmax was the first maximizer
# in subset enumeration order; the pebble-game iteration now stops at {0, 1}.
EARLIER_DENSITY = (
    Multigraph(5, ((0, 1), (0, 2), (0, 3), (1, 3), (2, 4), (3, 4))),
    {"command": "gamma",
     "graph_hash": "4ea4ec286d144a8412766d3fe6734dd36d9d755290a361ba27141248563a9b9f",
     "parameters": {"which": "gamma2"},
     "payload": {"argmax": [0, 1, 3], "kind": "density", "value": "1/1", "which": "gamma2"},
     "schema": certificates.SCHEMA,
     "verified": True},
)


def test_density_certificates_accept_any_maximizer():
    G, cert = EARLIER_DENSITY
    cert = {**cert, "cert_hash": certificate_hash(cert)}
    assert gamma2(G).argmax == {0, 1}
    assert verify_certificate(cert, G) == (True, None)
    # Not a maximizer: {0, 1, 2} holds two edges, 2/3 < 1.
    bad = _rehashed(cert, ("payload", "argmax"), [0, 1, 2])
    assert verify_certificate(bad, G) == (False, "argmax does not achieve the stated value")
    # A value below the maximum that a set reaches: {0, 1, 2} again.
    bad["payload"]["value"] = "2/3"
    bad["cert_hash"] = certificate_hash(bad)
    assert verify_certificate(bad, G) == (
        False, "some vertex set is denser than the stated value")
    # The value is a canonical "p/q" string.
    for value in ("1", "2/2", 1):
        bad = _rehashed(cert, ("payload", "value"), value)
        assert verify_certificate(bad, G) == (
            False, "payload is not the encoding of its claim"), value


@settings(max_examples=60, deadline=None)
@given(G=corpus.small_multigraphs(max_n=8).filter(lambda G: G.n >= 2))
def test_first_maximizer_density_certificates_verify(G):
    # Every maximizer is accepted, the scan's first one included.
    for which, reference in (("gamma", oracles.gamma_reference),
                             ("gamma2", oracles.gamma2_reference)):
        cert = build_certificate("gamma", {"which": which}, G,
                                 density_payload(which, *reference(G)))
        assert verify_certificate(cert, G) == (True, None)
