import contextlib
import io
import itertools
import json
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidpack import (
    PARTITION_BUDGET,
    VERTEX_LIMIT,
    Multigraph,
    format_graph,
    induced_edge_count,
    parse_graph,
    random_multigraph,
)
from rigidpack import conditions, enumeration
from rigidpack.certificates import certificate_hash
from rigidpack.cli import build_parser, main

import corpus


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text(format_graph(corpus.k4()))
    return path


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_text(format_graph(corpus.triangle()))
    return path


def test_decompose_success_and_failure(k4_file, tmp_path, capsys):
    out = tmp_path / "ok.json"
    assert main(["decompose", str(k4_file), "--k", "2", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    assert cert["payload"]["kind"] == "decomposition"
    assert cert["payload"]["complete"] is True

    out2 = tmp_path / "fail.json"
    assert main(["decompose", str(k4_file), "--k", "1", "--out", str(out2)]) == 1
    cert = json.loads(out2.read_text())
    assert cert["payload"]["witness"]["vertices"] == [0, 1, 2, 3]


def test_decompose_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 5\n0 1\n")
    assert main(["decompose", str(bad), "--k", "1"]) == 2
    err = capsys.readouterr().err
    assert "line" in err


def test_decompose_missing_input():
    assert main(["decompose", "--k", "1"]) == 2


def test_pack_trees_exit_codes(k4_file, tmp_path):
    out = tmp_path / "pack.json"
    assert main(["pack", str(k4_file), "--k", "0", "--l", "2", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())["payload"]
    assert (payload["kind"], payload["k"], payload["l"]) == ("decomposition", 0, 2)
    assert sorted(set(payload["assignment"])) == [1, 2]  # two trees cover K4

    assert main(["pack", str(k4_file), "--k", "2", "--l", "0"]) == 1  # rank 6 < 10


def test_check_conditions_and_exit_codes(k4_file, triangle_file):
    assert main(["check", "cover", str(k4_file), "--k", "2"]) == 0
    assert main(["check", "cover", str(k4_file), "--k", "1"]) == 1
    assert main(["check", "tree-packing", str(k4_file), "--l", "2"]) == 0
    assert main(["check", "parthm", str(triangle_file), "--k", "1", "--l", "0"]) == 0
    assert main(["check", "necessary", str(triangle_file), "--k", "1", "--l", "0"]) == 0
    assert main(["check", "pq-connected", str(k4_file), "--p", "3", "--q", "1"]) == 0
    assert main(["check", "bracket-partition", str(k4_file), "--p", "1", "--q", "1"]) == 0
    assert main(["check", "kwz", str(triangle_file), "--k", "1", "--d", "2"]) == 0
    # missing a required parameter
    assert main(["check", "cover", str(k4_file)]) == 2


def test_check_kwz_takes_exact_fraction_d(triangle_file, tmp_path, capsys):
    out = tmp_path / "kwz.json"
    assert main(["check", "kwz", str(triangle_file), "--k", "1", "--d", "7/3",
                 "--out", str(out)]) in (0, 1)
    cert = json.loads(out.read_text())
    assert cert["parameters"]["d"] == "7/3"
    assert cert["payload"]["parameters"]["d"] == "7/3"
    assert main(["verify", str(out), str(triangle_file)]) == 0
    # an integral d keeps its integer encoding
    assert main(["check", "kwz", str(triangle_file), "--k", "1", "--d", "2",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["parameters"]["d"] == 2
    # Only the forms written: Fraction() also reads decimals and exponents,
    # and 1e5000 once ended in a traceback (a number of over 4300 digits).
    capsys.readouterr()
    for bad in ("x/3", "1/0", "1e5000", "1e3", "2.5", "+3", "3/-2"):
        assert main(["check", "kwz", str(triangle_file), "--k", "1", "--d", bad]) == 2, bad
        err = capsys.readouterr().err
        assert "invalid fraction value" in err and "Traceback" not in err, bad


def test_check_unknown_condition_lists_names(k4_file, capsys):
    assert main(["check", "no-such-condition", str(k4_file)]) == 2
    err = capsys.readouterr().err
    assert "cover" in err and "kwz" in err


def test_gamma_output(triangle_file, capsys):
    assert main(["gamma", "gamma2", str(triangle_file)]) == 0
    out = capsys.readouterr().out
    assert "1/1" in out and "[0, 1, 2]" in out


def test_input_file_after_the_options(k4_file, triangle_file, tmp_path, capsys):
    # check and gamma take the input file before or after their options.
    for before, after in (
        (["check", "cover", str(k4_file), "--k", "1"], ["check", "cover", "--k", "1", str(k4_file)]),
        (["check", "kwz", str(triangle_file), "--k", "1", "--d", "2"],
         ["check", "kwz", "--k", "1", "--d", "2", str(triangle_file)]),
        (["check", "necessary", str(triangle_file), "--k", "1", "--l", "0"],
         ["check", "necessary", "--k", "1", "--l", "0", str(triangle_file)]),
        (["gamma", "gamma", str(k4_file)], ["gamma", "gamma", str(k4_file)]),
    ):
        outs = []
        for argv in (before, after):
            out = tmp_path / "cert.json"
            code = main(argv + ["--out", str(out)])
            cert = json.loads(out.read_text())
            cert.pop("created")
            outs.append((code, capsys.readouterr().out, cert))
        assert outs[0] == outs[1]
        assert outs[0][0] in (0, 1)
    # A second stray positional is still an error, in either place.
    for argv in (
        ["check", "cover", "--k", "1", str(k4_file), str(k4_file)],
        ["check", "cover", str(k4_file), "--k", "1", str(k4_file)],
        ["gamma", "gamma2", "--out", str(tmp_path / "stray.json"), str(k4_file), "extra"],
        ["gamma", "gamma2", str(k4_file), "extra"],
        ["check", "cover", "--k", "1", "--bogus", str(k4_file)],
        ["decompose", "--k", "1", str(k4_file), "extra"],
    ):
        assert main(argv) == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


def test_ndt_exit_codes(k4_file, triangle_file, tmp_path):
    out = tmp_path / "ndt.json"
    assert main(["ndt", str(k4_file), "--k", "1", "--l", "2", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())["payload"]
    assert payload["kind"] == "decomposition"
    assert (payload["k"], payload["l"], payload["bounded"]) == (0, 2, 2)

    assert main(["ndt", str(k4_file), "--k", "0", "--l", "1"]) == 1  # gamma2 > 1

    # The split is exact, so there is no search budget to run out of.
    big = tmp_path / "sparse8.txt"
    big.write_text(format_graph(corpus.random_sparse_graph(8, seed=3)))
    assert main(["ndt", str(big), "--k", "0", "--l", "1"]) == 0
    assert main(["ndt", str(big), "--k", "0", "--l", "1", "--search-budget", "1"]) == 2


def test_ndt_refuses_more_sparse_classes_than_edges(tmp_path, capsys):
    # Every sparse class past the m-th is empty, so k > m is an input
    # error: at k = 10^9 on five edges ndt answers at once, with no
    # colouring.  A certificate that states k > m is refused too, although
    # its extra classes, all empty, would cover and bound nothing wrong.
    gfile, out = tmp_path / "g.txt", tmp_path / "ndt.json"
    gfile.write_text("4 5\n0 1\n1 2\n2 3\n3 0\n0 2\n")
    start = time.perf_counter()
    assert main(["ndt", str(gfile), "--k", "1000000000", "--l", "1000000001"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "need k <= m = 5" in capsys.readouterr().err
    assert main(["ndt", str(gfile), "--k", "5", "--l", "6", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    cert["parameters"] = {"k": 6, "l": 7}
    cert["payload"]["l"] = cert["payload"]["bounded"] = 7
    cert["cert_hash"] = certificate_hash(cert)
    out.write_text(json.dumps(cert))
    capsys.readouterr()
    assert main(["verify", str(out), str(gfile)]) == 1
    assert "malformed certificate: need k <= m = 5" in capsys.readouterr().out


def test_parameter_guardrail_exit(tmp_path, capsys, monkeypatch):
    # The partition scans still walk (kwz and cover run a pebble game and
    # answer at any n), under a budget that counts the walk's work, not the
    # vertices.  A path fails each scan at its second partition (at Z = {}
    # for the Z scans), so each fails at any size, and verify accepts its
    # certificate.
    out = tmp_path / "cert.json"
    scans = (["necessary", "--k", "1", "--l", "0"], ["parthm", "--k", "1", "--l", "0"],
             ["bracket-partition", "--p", "2", "--q", "1"])
    for n in (12, 13, 40):
        gfile = tmp_path / f"p{n}.txt"
        gfile.write_text(format_graph(corpus.path(n)))
        for name, *options in scans:
            assert main(["check", name, str(gfile), *options, "--out", str(out)]) == 1, (n, name)
            assert main(["verify", str(out), str(gfile)]) == 0, (n, name)
        assert main(["check", "kwz", str(gfile), "--k", "1", "--d", "2"]) == 0
    # The walk charges n + C(n, 2) for the set-up of Z = {} and places
    # n + 1 vertices.  One unit less, and necessary refuses (exit 3),
    # stating the charge and the budget; kwz still answers.
    charge = 40 + 40 * 39 // 2 + 41
    monkeypatch.setattr(enumeration, "PARTITION_BUDGET", charge - 1)
    capsys.readouterr()
    assert main(["check", "necessary", str(gfile), "--k", "1", "--l", "0"]) == 3
    assert main(["check", "kwz", str(gfile), "--k", "1", "--d", "2"]) == 0
    assert (f"partition walks are limited to {charge - 1} steps (charged {charge})"
            in capsys.readouterr().err)


def test_a_walk_whose_every_z_is_dropped_at_once_is_refused_by_its_set_up(tmp_path, capsys):
    # On K_40 bracket-partition --p 1 --q 1 drops each Z at its first
    # placement, so placements alone would admit millions of Z.  Each Z's
    # set-up charges r + C(r, 2), r = |V - Z|, 820 at Z = {}, so the walk
    # is refused after a few thousand Z.
    gfile = tmp_path / "k40.txt"
    gfile.write_text(format_graph(Multigraph(40, tuple(itertools.combinations(range(40), 2)))))
    start = time.perf_counter()
    assert main(["check", "bracket-partition", str(gfile), "--p", "1", "--q", "1"]) == 3
    assert time.perf_counter() - start < 5.0
    assert f"limited to {PARTITION_BUDGET} steps (charged " in capsys.readouterr().err


def test_negative_guardrails_are_input_errors(k4_file, capsys):
    # The guardrails are fixed, so a guardrail option, whatever its value,
    # is an unrecognized argument.
    for flag in ("--max-n", "--max-partitions"):
        for value in ("-5", "x", "0", "13"):
            argv = ["check", "necessary", "--k", "1", "--l", "0", flag, value, str(k4_file)]
            assert main(argv) == 2, argv
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_guardrail_flags_on_no_command(k4_file, tmp_path):
    # No command takes a guardrail, and certificates record none.
    for argv in (["decompose", "--k", "1"], ["pack", "--k", "0", "--l", "1"],
                 ["ndt", "--k", "0", "--l", "1"], ["gamma", "gamma"], ["gamma", "gamma2"],
                 ["check", "cover", "--k", "2"], ["check", "pq-connected", "--p", "3", "--q", "1"],
                 ["check", "bracket-partition", "--p", "3", "--q", "1"]):
        for flag in ("--max-n", "--max-partitions"):
            assert main(argv + [str(k4_file), flag, "5"]) == 2, (argv, flag)
    out = tmp_path / "cert.json"
    for argv in (["check", "cover", "--k", "2"], ["check", "parthm", "--k", "1", "--l", "0"],
                 ["gamma", "gamma"]):
        assert main(argv + [str(k4_file), "--out", str(out)]) in (0, 1), argv
        payload = json.loads(out.read_text())["payload"]
        assert not {"max_n", "max_partitions"} & (set(payload) | set(
            payload.get("parameters", {}))), argv


def test_every_certificate_check_writes_verifies_at_the_bounds(tmp_path, capsys, monkeypatch):
    # Producer and verifier charge the walk budget alike.  A 40-vertex path
    # fails each partition scan at its second partition, at Z = {} for the
    # Z scans: n + C(n, 2) for the set-up and n + 1 placements.  With the
    # budget at that charge each check writes a certificate that verify
    # accepts; the bracket-partition failure carries no witness, so verify
    # re-runs its walk.  One unit less, and each check refuses, writing
    # nothing.
    out = tmp_path / "cert.json"
    gfile = tmp_path / "p40.txt"
    gfile.write_text(format_graph(corpus.path(40)))
    charge = 40 + 40 * 39 // 2 + 41
    for budget, code in ((charge, 1), (charge - 1, 3)):
        monkeypatch.setattr(enumeration, "PARTITION_BUDGET", budget)
        for name, *options in (["necessary", "--k", "1", "--l", "0"],
                               ["parthm", "--k", "1", "--l", "0"],
                               ["bracket-partition", "--p", "2", "--q", "1"]):
            assert main(["check", name, str(gfile), *options, "--out", str(out)]) == code, name
            if code == 1:
                assert main(["verify", str(out), str(gfile)]) == 0, name
                out.unlink()
            assert not out.exists(), name
    # pq-connected charges each cut phase and augmenting search as it
    # runs, against 2^28 steps.  A random graph on 20 vertices fails --p 7
    # --q 1 at its cut; a path fails --p 2 --q 1 at a vertex of degree 1,
    # before any phase, on 646 vertices as on 645.  The failure carries no
    # witness, so verify re-runs the check.  With the limit one step below
    # the first phase of the 20-cycle, 20^2, check refuses and writes
    # nothing.
    gfile = tmp_path / "g20.txt"
    assert main(["random", "--n", "20", "--m", "40", "--seed", "1", "--out", str(gfile)]) == 0
    cases = [(gfile, "7", 1)]
    for n in (645, 646):
        cases.append((tmp_path / f"p{n}.txt", "2", 1))
        cases[-1][0].write_text(format_graph(corpus.path(n)))
    cases.append((tmp_path / "c20.txt", "2", 3))
    cases[-1][0].write_text(format_graph(corpus.cycle(20)))
    monkeypatch.setattr(conditions, "PQ_STEP_LIMIT", 20**2 - 1)
    for gfile, p, code in cases:
        argv = ["check", "pq-connected", str(gfile), "--p", p, "--q", "1", "--out", str(out)]
        assert main(argv) == code, argv
        if code == 1:
            assert main(["verify", str(out), str(gfile)]) == 0, argv
            out.unlink()
        assert not out.exists(), argv
    assert f"limited to {20**2 - 1} steps (charged {20**2})" in capsys.readouterr().err


def test_pq_fails_a_20000_vertex_path_with_a_certificate_verify_accepts(tmp_path, capsys):
    # A vertex of degree 1 is a cut below 2, found before any cut phase is
    # charged, so the failure answers at any size.
    gfile, out = tmp_path / "p20000.txt", tmp_path / "pq.json"
    gfile.write_text(format_graph(corpus.path(20_000)))
    start = time.perf_counter()
    assert main(["check", "pq-connected", str(gfile), "--p", "2", "--q", "1",
                 "--out", str(out)]) == 1
    assert main(["verify", str(out), str(gfile)]) == 0
    assert time.perf_counter() - start < 5.0
    capsys.readouterr()


def test_verify_round_trip_and_tamper(k4_file, tmp_path):
    out = tmp_path / "dec.json"
    assert main(["decompose", str(k4_file), "--k", "2", "--out", str(out)]) == 0
    assert main(["verify", str(out), str(k4_file)]) == 0

    cert = json.loads(out.read_text())
    cert["payload"]["assignment"][0] = 2  # recolour one edge
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(cert))
    assert main(["verify", str(tampered), str(k4_file)]) == 1

    assert main(["verify", str(tmp_path / "missing.json"), str(k4_file)]) == 2


def test_verify_rejects_non_object_witness(k4_file, tmp_path, capsys):
    out = tmp_path / "fail.json"
    assert main(["decompose", str(k4_file), "--k", "1", "--out", str(out)]) == 1
    cert = json.loads(out.read_text())
    cert["payload"]["witness"] = cert["payload"]["witness"]["vertices"]
    cert["cert_hash"] = certificate_hash(cert)  # only the shape is wrong
    bad = tmp_path / "list-witness.json"
    bad.write_text(json.dumps(cert))
    capsys.readouterr()
    assert main(["verify", str(bad), str(k4_file)]) == 1
    assert "witness must be a JSON object" in capsys.readouterr().out


def _rehashed_file(path, edit, tmp_path):
    cert = json.loads(path.read_text())
    edit(cert)
    cert["cert_hash"] = certificate_hash(cert)
    bad = tmp_path / "edited.json"
    # json writes an infinite float as Infinity; a hostile file may say 1e400
    bad.write_text(json.dumps(cert).replace("Infinity", "1e400"))
    return bad


def test_verify_rejects_arithmetic_garbage_cleanly(k4_file, triangle_file, tmp_path, capsys):
    def set_d(value):
        return lambda cert: cert["payload"]["parameters"].__setitem__("d", value)

    def set_bounded(cert):
        cert["payload"]["bounded"] = "1/0"

    cases = []
    for graph, code in ((triangle_file, 0), (k4_file, 1)):  # kwz holds, then fails
        out = tmp_path / f"kwz{code}.json"
        assert main(["check", "kwz", str(graph), "--k", "1", "--d", "2", "--out", str(out)]) == code
        cases += [(out, graph, set_d(x), "malformed certificate") for x in ("1/0", float("inf"))]
    # The verifier reads no class count: the command fixes it.
    out = tmp_path / "ndt.json"
    assert main(["ndt", str(k4_file), "--k", "1", "--l", "2", "--out", str(out)]) == 0
    cases.append((out, k4_file, set_bounded, "payload is not the encoding of its claim"))
    for out, graph, edit, reason in cases:
        bad = _rehashed_file(out, edit, tmp_path)
        capsys.readouterr()
        assert main(["verify", str(bad), str(graph)]) == 1
        assert reason in capsys.readouterr().out


def test_verify_rejects_non_integer_colours(k4_file, tmp_path, capsys):
    # K4 splits into two sparse classes with edge 0 in neither; a colour
    # that is not an integer must not count as covering it.
    out = tmp_path / "dec.json"
    assert main(["decompose", str(k4_file), "--k", "2", "--out", str(out)]) == 0
    for colour in (float("nan"), 1.5, 1e-300):
        bad = _rehashed_file(
            out, lambda cert: cert["payload"]["assignment"].__setitem__(0, colour), tmp_path
        )
        capsys.readouterr()
        assert main(["verify", str(bad), str(k4_file)]) == 1, colour
        assert "colour" in capsys.readouterr().out


def test_ndt_on_a_long_edge_list(tmp_path):
    # A Laman graph on 760 vertices (each vertex joined to the two before
    # it), m = 1517.
    n = 760
    edges = [(0, 1)] + [(i - j, i) for i in range(2, n) for j in (2, 1)]
    gfile = tmp_path / "laman760.txt"
    gfile.write_text(format_graph(Multigraph(n, tuple(edges))))
    out = tmp_path / "ndt.json"
    assert main(["ndt", str(gfile), "--k", "0", "--l", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["payload"]["kind"] == "decomposition"
    assert main(["verify", str(out), str(gfile)]) == 0


def test_ndt_on_wheels_with_the_spokes_last(tmp_path):
    # Hub 0 joined to a path 1..n-1, spokes listed after the path: the hub
    # needs about a third of its spokes in the forest.
    for n in (48, 200):
        edges = [(i, i + 1) for i in range(1, n - 1)] + [(0, i) for i in range(1, n)]
        gfile = tmp_path / f"wheel{n}.txt"
        gfile.write_text(format_graph(Multigraph(n, tuple(edges))))
        out = tmp_path / f"wheel{n}.json"
        assert main(["ndt", str(gfile), "--k", "0", "--l", "1", "--out", str(out)]) == 0
        assert main(["verify", str(out), str(gfile)]) == 0


def test_pack_failure_above_partition_guardrail(tmp_path):
    # C14 is above the partition guardrail, but no partition is scanned:
    # the (2,2) pebble game rejects no edge of a cycle, so the witness is
    # the all-singletons partition, with 14 crossing edges < 2(14 - 1).
    gfile = tmp_path / "c14.txt"
    gfile.write_text(format_graph(corpus.cycle(14)))
    out = tmp_path / "cert.json"
    assert main(["pack", str(gfile), "--k", "0", "--l", "2", "--out", str(out)]) == 1
    payload = json.loads(out.read_text())["payload"]
    assert payload["witness"] == {"kind": "partition", "blocks": [[v] for v in range(14)]}
    assert (payload["lhs"], payload["rhs"]) == (14, 26) and "note" not in payload
    assert main(["verify", str(out), str(gfile)]) == 0


def test_decompose_failure_above_subset_guardrail(tmp_path):
    # doubled path on 17 vertices: k=1 fails on every parallel pair.  No
    # subset is scanned: the (2,3) pebble game rejects the second 0-1 edge,
    # and the closure {0, 1} holds 2 > 2*2 - 3 edges.
    edges = []
    for i in range(16):
        edges += [(i, i + 1), (i, i + 1)]
    gfile = tmp_path / "dp17.txt"
    gfile.write_text(format_graph(Multigraph(17, tuple(edges))))
    out = tmp_path / "cert.json"
    assert main(["decompose", str(gfile), "--k", "1", "--out", str(out)]) == 1
    payload = json.loads(out.read_text())["payload"]
    assert payload["witness"] == {"kind": "vertex-set", "vertices": [0, 1]}
    assert (payload["lhs"], payload["rhs"]) == (2, 1) and "note" not in payload
    assert main(["verify", str(out), str(gfile)]) == 0


def test_random_stdout_is_format_graph(capsys):
    for n, m, mult, seed in ((5, 8, 2, 42), (4, 0, 1, 0), (1, 0, 1, 3)):
        argv = ["random", "--n", str(n), "--m", str(m), "--mult", str(mult), "--seed", str(seed)]
        assert main(argv) == 0
        assert capsys.readouterr().out == format_graph(random_multigraph(n, m, mult, seed))


def test_random_command_deterministic(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert main(["random", "--n", "5", "--m", "8", "--mult", "2", "--seed", "42", "--out", str(a)]) == 0
    assert main(["random", "--n", "5", "--m", "8", "--mult", "2", "--seed", "42", "--out", str(b)]) == 0
    assert a.read_text() == b.read_text()
    assert main(["random", "--n", "2", "--m", "3", "--mult", "2"]) == 2  # infeasible


def test_random_command_cost_follows_m(tmp_path):
    # One edge among many slots: only the sampled slots are decoded, so
    # neither n^2 nor the multiplicity shows in memory.
    out = tmp_path / "g.txt"
    for argv in (["--n", "1500", "--m", "1"], ["--n", "3", "--m", "1", "--mult", "3000000"]):
        tracemalloc.start()
        try:
            assert main(["random", *argv, "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, (argv, peak)
        assert out.read_text().splitlines()[0].endswith(" 1")


def test_random_command_refuses_more_slots_than_it_can_sample(capsys):
    # 5 * 10^19 vertex pairs: more than random.sample can index.  Refused
    # before anything n-sized is built.
    assert main(["random", "--n", "10000000000", "--m", "1"]) == 2
    assert "too many edge slots" in capsys.readouterr().err


def test_certificates_byte_identical_modulo_timestamp(tmp_path):
    gfile = tmp_path / "dtri.txt"
    gfile.write_text(format_graph(corpus.doubled_triangle()))
    out1 = tmp_path / "c1.json"
    out2 = tmp_path / "c2.json"
    for out in (out1, out2):
        assert main(["pack", str(gfile), "--k", "2", "--l", "0", "--out", str(out)]) == 0

    def strip(path):
        cert = json.loads(path.read_text())
        cert.pop("created")
        return json.dumps(cert, sort_keys=True)

    assert strip(out1) == strip(out2)


def test_batch_mode(tmp_path, capsys):
    # There is no batch mode: one request per call, and a shell loop over
    # the files writes one certificate each.  --batch is a usage error that
    # writes nothing.
    gdir = tmp_path / "graphs"
    gdir.mkdir()
    (gdir / "k4.txt").write_text(format_graph(corpus.k4()))
    out_dir = tmp_path / "certs"
    for argv in (["decompose", "--batch", str(gdir), "--k", "2", "--out", str(out_dir)],
                 ["decompose", str(gdir / "k4.txt"), "--batch", str(gdir), "--k", "2"]):
        assert main(argv) == 2, argv
        assert "unrecognized arguments: --batch" in capsys.readouterr().err
    assert not out_dir.exists()
    assert sorted(p.name for p in gdir.iterdir()) == ["k4.txt"]


@pytest.mark.parametrize("words", [
    ["check", "cover", "--k", "1"],
    ["check", "kwz", "--k", "1", "--d", "7/3", "--out", "c.json"],
    ["check", "pq-connected", "--p", "3", "--q", "1"],
    ["gamma", "gamma2"],
    ["gamma", "gamma", "--out", "c.json"],
])
def test_input_parses_before_or_after_the_options(words):
    # input is a required positional: argparse places it wherever it stands
    # after the command words, and a missing one is a usage error.
    parser = build_parser()
    before = parser.parse_args(words[:2] + ["g.txt"] + words[2:])
    assert vars(before)["input"] == "g.txt"
    assert parser.parse_args(words + ["g.txt"]) == before
    if words[0] == "check":
        assert parser.parse_args(words[:1] + words[2:] + [words[1], "g.txt"]) == before
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(words) == 2
    assert "the following arguments are required: input" in err.getvalue()


def test_vertex_bound_refuses_before_any_vertex_list(tmp_path, capsys):
    # A 23-byte file whose header promises 10^15 vertices is refused (exit 3)
    # before any per-vertex list is built, by every command and by verify.
    k4, cert = tmp_path / "k4.txt", tmp_path / "k4.json"
    k4.write_text(format_graph(corpus.k4()))
    assert main(["decompose", str(k4), "--k", "2", "--out", str(cert)]) == 0
    capsys.readouterr()
    for n in (VERTEX_LIMIT + 1, 10**15):
        gfile = tmp_path / f"v{n}.txt"
        gfile.write_text(f"{n} 1\n0 1\n")
        for argv in (["check", "cover", str(gfile), "--k", "1"],
                     ["decompose", str(gfile), "--k", "1"],
                     ["gamma", "gamma", str(gfile)],
                     ["verify", str(cert), str(gfile)]):
            assert main(argv) == 3, argv
            err = capsys.readouterr().err
            assert err == f"refused: graphs are limited to {VERTEX_LIMIT} vertices (got n={n})\n"
    G = parse_graph(f"{VERTEX_LIMIT} 1\n0 1\n")
    assert G.n == VERTEX_LIMIT and G.edges == ((0, 1),)


def test_repeated_main_calls_keep_no_parser_state(k4_file, tmp_path):
    # Options given in one call are not kept for the next.
    out = tmp_path / "cert.json"
    argv = ["check", "necessary", str(k4_file), "--k", "1"]
    assert main(argv + ["--l", "0", "--out", str(out)]) == 0
    out.unlink()
    assert main(argv) == 2  # --l is required
    assert not out.exists()

    assert main(["decompose", str(k4_file), "--k", "two"]) == 2
    assert main(["decompose", str(k4_file), "--k", "1"]) == 1
    assert main(["decompose", str(k4_file), "--k", "2"]) == 0


def test_build_parser_returns_a_fresh_parser():
    assert build_parser() is not build_parser()


def test_help_exits_zero():
    assert main(["--help"]) == 0


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """Inputs for random command lines: good graphs, garbage, a missing
    file, a directory, a certificate, and output paths good and bad."""
    d = tmp_path_factory.mktemp("argv")
    files = {
        "k4": format_graph(corpus.k4()),
        "triangle": format_graph(corpus.triangle()),
        "disconnected": format_graph(corpus.two_triangles_disjoint()),
        "empty": "0 0\n",
        "garbage": "3 2\n0 1\nnot an edge\n",
        "loop": "2 1\n1 1\n",
    }
    for name, text in files.items():
        (d / f"{name}.txt").write_text(text)
    (d / "binary.txt").write_bytes(b"\xff\xfe\x00garbage\x80")
    batch = d / "batch"
    batch.mkdir()
    (batch / "k4.txt").write_text(files["k4"])
    (batch / "bad.txt").write_text(files["garbage"])
    cert = d / "k4.cert.json"
    assert main(["decompose", str(d / "k4.txt"), "--k", "2", "--out", str(cert)]) == 0
    inputs = [str(p) for p in sorted(d.glob("*.txt"))] + [
        str(cert), str(d / "missing.txt"), str(batch), str(d)]
    outs = [str(d / "out.json"), str(d / "no-such-dir" / "out.json"), str(batch), str(cert)]
    return inputs, outs, str(batch)


_NUMBERS = ["-2", "-1", "0", "1", "2", "3", "5", "40", "1.5", "2/3", "1/0", "x", ""]
_FLAGS = ["--k", "--l", "--p", "--q", "--d", "--n", "--m", "--mult", "--seed"]
# Each command with the options it needs, so that most command lines get
# past the parser; extra items then add bad values, files and options.
_SKELETONS = {
    "decompose": ["--k", "--l"],
    "pack": ["--k", "--l"],
    "ndt": ["--k", "--l"],
    "check cover": ["--k"],
    "check kwz": ["--k", "--d"],
    "check parthm": ["--k", "--l"],
    "check tree-packing": ["--l"],
    "check pq-connected": ["--p", "--q"],
    "check nope": [],
    "gamma gamma2": [],
    "gamma gamma3": [],
    "verify": [],
    "random": ["--n", "--m", "--mult"],
    "bogus": [],
}


@st.composite
def _argvs(draw, inputs, outs, batch):
    skeleton = draw(st.sampled_from(sorted(_SKELETONS)))
    argv = skeleton.split()
    if skeleton == "verify":
        argv += [draw(st.sampled_from(inputs)), draw(st.sampled_from(inputs))]
    elif skeleton != "random":
        argv.append(draw(st.sampled_from(inputs)))
    for flag in _SKELETONS[skeleton]:
        # A huge k or l must not make any command build that many parts;
        # random's --n and --m stay small.
        values = st.integers(0, 4)
        if flag in ("--k", "--l"):
            values = st.one_of(values, st.just(10**9))
        argv += [flag, str(draw(values))]
    if draw(st.booleans()):
        argv += ["--out", draw(st.sampled_from(outs))]
    items = st.one_of(
        st.sampled_from(inputs).map(lambda p: [p]),
        st.tuples(st.sampled_from(_FLAGS), st.sampled_from(_NUMBERS)).map(list),
        st.sampled_from(outs).map(lambda p: ["--out", p]),
        st.just(["--batch", batch]),
        st.sampled_from([["--help"], ["--bogus"], ["--k"]]),
    )
    for item in draw(st.lists(items, max_size=3)):
        argv.extend(item)
    return argv


@settings(max_examples=400, deadline=None, database=None)
@given(data=st.data())
def test_cli_exit_codes_are_always_0_to_3(argv_files, data):
    # Whatever the command line, main returns one of the four documented
    # exit codes and never raises.
    argv = data.draw(_argvs(*argv_files))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv


def test_polynomial_checks_certify_at_n_40(tmp_path, capsys):
    # Far above both guardrails, cover, tree-packing, pq-connected and the
    # cover and tree-packing failures of decompose and pack answer with a
    # certificate that ``verify`` accepts, each in well under a second.
    import itertools
    import time

    n = 40
    laman = corpus.random_sparse_graph(n, seed=3).edges
    order = [(7 * i) % n for i in range(n)]  # a second Hamiltonian cycle
    k4 = tuple(itertools.combinations(range(4), 2))
    cases = (
        ("check cover --k 1", laman + laman[:1], "vertex-set"),
        ("check cover --k 1", laman, None),
        ("check tree-packing --l 2", laman, "partition"),
        ("check pq-connected --p 4 --q 2",
         corpus.cycle(n).edges + tuple(zip(order, order[1:] + order[:1])), None),
        ("decompose --k 2", corpus.random_sparse_graph(n, seed=4).edges + laman + k4 + k4,
         "vertex-set"),
        ("pack --k 0 --l 2", corpus.cycle(n).edges, "partition"),
    )
    for i, (argv, edges, witness_kind) in enumerate(cases):
        gfile, out = tmp_path / f"g{i}.txt", tmp_path / f"g{i}.json"
        gfile.write_text(format_graph(Multigraph(n, edges)))
        words = argv.split()
        at = 2 if words[0] == "check" else 1
        start = time.perf_counter()
        code = main(words[:at] + [str(gfile)] + words[at:] + ["--out", str(out)])
        assert main(["verify", str(out), str(gfile)]) == 0, argv
        assert time.perf_counter() - start < 1.0, argv
        witness = json.loads(out.read_text())["payload"]["witness"]
        assert code == (0 if witness_kind is None else 1), argv
        assert (witness or {}).get("kind") == witness_kind, argv
    capsys.readouterr()


def test_density_certificates_verify_at_n_40(tmp_path, capsys):
    # One pebble game at the stated value re-checks a density at any n.  An
    # argmax less one vertex still verifies exactly when the smaller set
    # reaches the value: in a Laman graph, dropping a vertex of degree 2.
    for name, G in (("random", random_multigraph(40, 130, 1, seed=0)),
                    ("laman", corpus.random_sparse_graph(40, seed=3))):
        gfile, out = tmp_path / f"{name}.txt", tmp_path / f"{name}.json"
        gfile.write_text(format_graph(G))
        assert main(["gamma", "gamma2", str(gfile), "--out", str(out)]) == 0
        assert main(["verify", str(out), str(gfile)]) == 0
        payload = json.loads(out.read_text())["payload"]
        value, argmax = Fraction(payload["value"]), payload["argmax"]
        codes = set()
        for v in argmax:
            X = [x for x in argmax if x != v]
            reaches = len(X) >= 2 and Fraction(induced_edge_count(G, X), 2 * len(X) - 3) == value
            bad = _rehashed_file(out, lambda cert: cert["payload"].__setitem__("argmax", X),
                                 tmp_path)
            code = main(["verify", str(bad), str(gfile)])
            assert code == (0 if reaches else 1), (name, v)
            codes.add(code)
        assert 1 in codes and (name == "random" or 0 in codes), name
    capsys.readouterr()


def test_kwz_with_a_huge_degree_bound_answers_at_once(tmp_path, capsys):
    # d = 1000000007/1000000 weighs each edge about 10^9 pebbles; a pull
    # moves as many as its path carries, so the game takes no longer.
    gfile, out = tmp_path / "g200.txt", tmp_path / "kwz.json"
    gfile.write_text(format_graph(random_multigraph(200, 900, 2, seed=1)))
    start = time.perf_counter()
    code = main(["check", "kwz", str(gfile), "--k", "1", "--d", "1000000007/1000000",
                 "--out", str(out)])
    assert time.perf_counter() - start < 1.0
    assert code in (0, 1)
    assert main(["verify", str(out), str(gfile)]) == 0
    capsys.readouterr()
