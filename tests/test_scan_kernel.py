"""The bitmask scan kernel against the frozenset scans it replaced.

Every condition checker that still scans must return the same whole report
as its ``oracles.*_reference`` copy (verdict, witness, and the witness kind
and both sides its certificate states) wherever the reference answers.
The reference refuses above a vertex count; the scans then answer or
refuse under their walk budget, and a witness they report violates its
definition.  The checkers that no longer scan (cover, tree-packing,
kwz, gamma, gamma2, pq-connected, and the cover failures of ``decompose``)
must give the reference's verdict or value wherever the reference answers,
refuse nothing it answered, and report failure witnesses whose
certificates state the sides the definitions give, and maximizers that
reach the value.
"""

import importlib
import itertools
import pkgutil
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rigidpack
from rigidpack import (
    Multigraph,
    RigidpackError,
    check_cover_condition,
    check_kwz_condition,
    check_necessary_condition,
    check_parthm_condition,
    check_tree_packing_condition,
    format_graph,
    gamma,
    gamma2,
    induced_edge_count,
    is_bracket_partition_connected,
    is_pq_connected,
    pack_rigid_and_trees,
    union_rank,
)
from rigidpack import conditions, enumeration
from rigidpack.cli import main
from rigidpack.conditions import count_condition_report
from rigidpack.enumeration import mask_partition, mask_vertices, short_partitions

import corpus
import oracles
from oracles import enumerate_partitions, enumerate_vertex_subsets


def outcome(fn, *args, **kwargs):
    try:
        return "value", fn(*args, **kwargs)
    except (RigidpackError, RuntimeError) as exc:
        return type(exc), str(exc)


def assert_witness_violates(G, report):
    """A failing report's witness violates its inequality, and its
    certificate states the two sides the definitions give there."""
    if report.holds:
        return
    stated = oracles.certified(G, report)
    found = oracles.violated_def(G, report.condition, report.parameters, report.witness)
    assert found == (True, stated.lhs, stated.rhs), report


def assert_polynomial_checks_agree(G):
    """The checks that no longer scan against the reference scans: the same
    verdict wherever the reference answers, and a refusal only where the
    reference refuses too."""
    def agree(report, ref):
        if ref[0] == "value":
            assert report.holds == ref[1].holds, (report, ref)
        assert_witness_violates(G, report)

    for k in range(4):
        agree(check_cover_condition(G, k),
              outcome(oracles.check_cover_condition_reference, G, k))
    for l in range(4):
        agree(check_tree_packing_condition(G, l),
              outcome(oracles.check_tree_packing_condition_reference, G, l))
    for l in (1, 2):
        new = outcome(pack_rigid_and_trees, G, 0, l)
        ref = outcome(oracles.pack_spanning_trees_reference, G, l)
        if new[0] == "value" and not isinstance(new[1], rigidpack.Decomposition):
            assert ref[0] == "value" and not isinstance(ref[1], rigidpack.Decomposition)
            assert_witness_violates(G, new[1])
        else:
            assert new == ref
    # The union's cover failures: the count matroid is the union's.
    for name, params, a, b, k, l in (
        ("sparse-cover", {"k": 1}, 2, 3, 1, 0),
        ("sparse-cover", {"k": 2}, 4, 6, 2, 0),
        ("forest-cover", {"l": 1}, 1, 1, 0, 1),
        ("forest-cover", {"l": 2}, 2, 2, 0, 2),
    ):
        report = count_condition_report(G, name, params, a, b)
        assert report.holds == (union_rank(G, k, l).rank == G.m), (name, params)
        assert_witness_violates(G, report)
    for k, d in ((0, 1), (0, Fraction(5, 2)), (1, 2), (1, Fraction(7, 3)), (1, 3),
                 (2, Fraction(10, 3))):
        agree(check_kwz_condition(G, k, d),
              outcome(oracles.check_kwz_condition_reference, G, k, d))
    for density, ref, denominator in ((gamma, oracles.gamma_reference, lambda x: x - 1),
                                      (gamma2, oracles.gamma2_reference, lambda x: 2 * x - 3)):
        new = outcome(density, G)
        expected = outcome(ref, G)
        if expected[0] == "value":
            assert new[0] == "value" and new[1].value == expected[1].value, (new, expected)
        elif new[0] == "value":
            assert expected[0] is rigidpack.LimitExceededError
        else:
            assert new == expected
        if new[0] == "value":
            X = new[1].argmax
            assert len(X) >= 2
            assert Fraction(induced_edge_count(G, X), denominator(len(X))) == new[1].value
    for p, q in ((1, 1), (2, 1), (3, 1), (4, 2), (5, 2), (2, 3)):
        new = outcome(is_pq_connected, G, p, q)
        ref = outcome(oracles.is_pq_connected_reference, G, p, q)
        if ref[0] is rigidpack.LimitExceededError:
            assert new[0] in ("value", rigidpack.LimitExceededError), (p, q)
        else:
            assert new == ref, (p, q)
    if 2 <= G.n <= 16:
        # The threshold cut through pq-connected at p = q: one whole-graph cut.
        lam = oracles.edge_connectivity_reference(G)
        if lam:
            assert is_pq_connected(G, lam, lam)
        assert not is_pq_connected(G, lam + 1, lam + 1)


def partition_scans(G, z_scans, cases=None):
    # cases: the (k, l) of necessary and parthm and the (p, q) of
    # bracket-partition, when not all of them.
    kls, pqs = cases or (((0, 0), (0, 1), (1, 0), (1, 1), (2, 1)), ((1, 1), (2, 1), (3, 2)))
    for k, l in kls:
        yield (check_necessary_condition, oracles.check_necessary_condition_reference,
               (G, k, l))
        if z_scans:
            yield (check_parthm_condition, oracles.check_parthm_condition_reference, (G, k, l))
    if z_scans:
        for p, q in pqs:
            yield (is_bracket_partition_connected,
                   oracles.is_bracket_partition_connected_reference, (G, p, q))


def assert_partition_scans_match(G, z_scans=None, cases=None):
    # Scans over every (Z, partition) pair are kept to n <= 6 for time.
    for new, ref, args in partition_scans(G, G.n <= 6 if z_scans is None else z_scans, cases):
        got = outcome(new, *args)
        if got[0] == "value" and not isinstance(got[1], bool):
            assert_witness_violates(G, got[1])
            got = ("value", oracles.certified(G, got[1]))
        expected = outcome(ref, *args)
        if expected[0] is rigidpack.LimitExceededError:
            assert got[0] in ("value", rigidpack.LimitExceededError), (new.__name__, args)
        else:
            assert got == expected, (new.__name__, args)


def named_graphs():
    yield from (Multigraph(0), Multigraph(1), Multigraph(2), corpus.single_edge(),
                corpus.double_edge(), corpus.triangle(), corpus.doubled_triangle(),
                corpus.k4(), corpus.k4_minus_edge(), corpus.bowtie(), corpus.k5(),
                corpus.k33(), corpus.two_triangles_disjoint(), corpus.path(7),
                corpus.cycle(6), corpus.star(5))


def test_named_and_seeded_corpus_reports_match_reference():
    graphs = list(named_graphs()) + corpus.random_corpus(80, seed=61, n_range=(0, 8), m_max=30)
    for G in graphs:
        assert_partition_scans_match(G)
        assert_polynomial_checks_agree(G)


@settings(max_examples=120, deadline=None)
@given(G=corpus.small_multigraphs(max_n=8))
def test_subset_scans_match_reference(G):
    assert_polynomial_checks_agree(G)


@settings(max_examples=60, deadline=None)
@given(G=corpus.small_multigraphs(max_n=8))
def test_partition_scans_match_reference(G):
    assert_partition_scans_match(G)
    assert_polynomial_checks_agree(G)


def test_refusal_points_match_reference(monkeypatch):
    # The reference scans refuse above 12 vertices (necessary) and 11 (the
    # Z scans of parthm and bracket-partition, over Bell(n + 1) - 1
    # partitions).  The walk budget counts work instead: a path fails each
    # scan at its second partition, so each answers at every size with the
    # reference's report where the reference answers.
    failing = (((1, 0), (1, 1), (2, 1)), ((2, 1), (3, 2)))
    for n in (11, 12, 13, 17):
        assert_partition_scans_match(corpus.path(n), z_scans=True, cases=failing)
        for scan, args in ((check_necessary_condition, (1, 0)),
                           (check_parthm_condition, (1, 0)),
                           (is_bracket_partition_connected, (2, 1))):
            assert outcome(scan, corpus.path(n), *args)[0] == "value", (scan.__name__, n)
    # A walk past the budget is refused where the reference refuses too,
    # with the charge and the budget in the message: the path's Z = {}
    # set-up alone charges n + C(n, 2).
    monkeypatch.setattr(enumeration, "PARTITION_BUDGET", 50)
    for n in (13, 17):
        for scan, args in ((check_necessary_condition, (1, 0)),
                           (check_parthm_condition, (1, 0)),
                           (is_bracket_partition_connected, (2, 1))):
            assert outcome(scan, corpus.path(n), *args) == (
                rigidpack.LimitExceededError,
                f"partition walks are limited to 50 steps (charged {n + n * (n - 1) // 2})")
    # The polynomial checks answer where the reference scans refuse.
    for n in (13, 17):
        assert_polynomial_checks_agree(corpus.path(n))


def test_mask_order_is_subset_enumeration_order():
    for n in range(11):
        order = sorted(range(1 << n), key=lambda m: (m.bit_count(), m), reverse=True)
        assert [mask_vertices(n, m) for m in order] == list(
            enumerate_vertex_subsets(Multigraph(n), 0, max_n=n))


def test_walk_order_is_partition_enumeration_order():
    # With no edges every partition but the single block is short under
    # slope 1, and no prefix can be dropped: the walk reports them all, in
    # enumeration order.
    for n in range(11):
        bit = [1 << (n - 1 - v) for v in range(n)]
        want = [tuple(sum(bit[v] for v in b) for b in pi)
                for pi in enumerate_partitions(range(n), max_size=n)]
        got = [blocks for _, blocks, _, _ in short_partitions(Multigraph(n), (0,), 1, 0, 0)]
        assert got == want[1:]


def z_masks(data, n):
    """A drawn proper subset Z of range(n), as a vertex mask and a set."""
    z = data.draw(st.integers(0, (1 << n) - 1)) & ~(1 << data.draw(st.integers(0, max(n - 1, 0))))
    return z, mask_vertices(n, z)


@settings(max_examples=80, deadline=None)
@given(G=corpus.small_multigraphs(max_n=7), data=st.data())
def test_walk_counts_match_partition_counts(G, data):
    # Every short partition, with both sides, under any weights the bound
    # allows: a dropped prefix never held one.
    z, Z = z_masks(data, G.n)
    per_singleton = data.draw(st.integers(0, 3))
    slope = data.draw(st.integers(2 * per_singleton, 2 * per_singleton + 4))
    per_touch = data.draw(st.integers(0, 3))
    got = [(mask_partition(G.n, blocks), lhs, rhs)
           for _, blocks, lhs, rhs in short_partitions(G, (z,), slope, per_singleton, per_touch)]
    assert got == list(oracles.short_partitions_reference(G, Z, slope, per_singleton, per_touch))


# The weights (slope, per_singleton, per_touch) of necessary and parthm,
# (3k + l, k, 0) and (3k + l, k, k) for k, l in 0..2, and of
# bracket-partition, (p, 0, q) for p, q in 1..3.
SCAN_WEIGHTS = sorted({(3 * k + l, k, t) for k in range(3) for l in range(3) for t in (0, k)}
                      | {(p, 0, q) for p in range(1, 4) for q in range(1, 4)})


@settings(max_examples=150, deadline=None)
@given(G=corpus.small_multigraphs(max_n=7), data=st.data(), weights=st.sampled_from(SCAN_WEIGHTS))
def test_pruned_scan_finds_the_reference_first_violator(G, data, weights):
    z, Z = z_masks(data, G.n)
    want = next(oracles.short_partitions_reference(G, Z, *weights), None)
    assert enumeration.first_short_partition(G, (z,), *weights) == (want and (Z, want[0]))


def test_short_partitions_need_the_bound_weights():
    # The bound holds for slope >= 2 per_singleton >= 0 and per_touch >= 0.
    G = corpus.cycle(4)
    for weights in ((3, 2, 0), (1, 1, 1), (-1, 0, 0), (2, -1, 0), (3, 1, -1)):
        with pytest.raises(ValueError, match=r"slope >= 2\*per_singleton >= 0 and per_touch >= 0"):
            enumeration.first_short_partition(G, (0,), *weights)
    assert enumeration.first_short_partition(G, (0,), 2, 1, 0) is None


def test_no_subset_table_in_the_library():
    # Every scan left in the library is one that a command certifies.
    # Essential edge connectivity, the one quantity that needed a table over
    # all 2^n vertex sets, is an oracle only (oracles.essential_def), and
    # connectivity is oracles.connected_def.
    modules = [importlib.import_module(f"rigidpack.{info.name}")
               for info in pkgutil.iter_modules(rigidpack.__path__)]
    for module in [rigidpack] + modules:
        for name in ("induced_table", "degree_sum_table", "essential_edge_connectivity",
                     "is_essentially_edge_connected"):
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(Multigraph, "is_connected")


def _with_input(argv, path):
    """The argument list with the graph file after the command words."""
    at = 2 if argv[0] in ("check", "gamma") else 1
    return argv[:at] + [str(path)] + argv[at:]


def test_check_and_gamma_runs_call_no_enumerator(tmp_path):
    # The set-at-a-time enumerators and the subset tables live only in the
    # oracles, so no check or gamma run can build one.
    for name in ("enumerate_vertex_subsets", "enumerate_partitions", "bell_number",
                 "first_dense_set", "induced_table", "degree_sum_table"):
        assert not hasattr(enumeration, name) and not hasattr(rigidpack, name), name
    runs = {
        "k4.txt": (corpus.k4(), [
            (["check", "cover", "--k", "1"], 1), (["check", "cover", "--k", "2"], 0),
            (["check", "kwz", "--k", "1", "--d", "7/3"], 1),
            (["check", "pq-connected", "--p", "3", "--q", "1"], 0),
            (["check", "tree-packing", "--l", "2"], 0),
            (["gamma", "gamma"], 0), (["gamma", "gamma2"], 0),
        ]),
        "c5.txt": (corpus.cycle(5), [
            (["check", "tree-packing", "--l", "2"], 1),
            (["check", "necessary", "--k", "1", "--l", "0"], 1),
            (["check", "parthm", "--k", "1", "--l", "0"], 1),
            (["check", "bracket-partition", "--p", "1", "--q", "1"], 0),
            (["check", "bracket-partition", "--p", "2", "--q", "1"], 1),
            (["pack", "--k", "0", "--l", "2"], 1),
        ]),
    }
    for name, (G, cases) in runs.items():
        gfile = tmp_path / name
        gfile.write_text(format_graph(G))
        for argv, code in cases:
            out = tmp_path / "cert.json"
            assert main(_with_input(argv, gfile) + ["--out", str(out)]) == code, argv
            assert main(["verify", str(out), str(gfile)]) == 0, argv


def test_guardrails_refuse_before_any_table(tmp_path, capsys, monkeypatch):
    # A failing decompose, cover, pq-connected, kwz and gamma answer at
    # n = 17 with no table: pebble games and minimum cuts, not a scan.
    doubled_path = Multigraph(17, tuple(e for i in range(16) for e in [(i, i + 1)] * 2))
    gfile = tmp_path / "dp17.txt"
    gfile.write_text(format_graph(doubled_path))
    assert main(["decompose", str(gfile), "--k", "1"]) == 1
    assert "witness X=[0, 1]" in capsys.readouterr().out
    assert main(["check", "cover", str(gfile), "--k", "1"]) == 1
    assert main(["check", "pq-connected", str(gfile), "--p", "1", "--q", "1"]) == 0
    assert main(["check", "pq-connected", str(gfile), "--p", "9", "--q", "1"]) == 1
    # kwz fails on V, 6*17 - 4*32 - 1 < 0; every subpath has density 2.
    for argv, code in ((["check", "kwz", "--k", "1", "--d", "2"], 1), (["gamma", "gamma"], 0)):
        assert main(_with_input(argv, gfile)) == code, argv
    assert "gamma = 2/1" in capsys.readouterr().out
    # pq-connected charges its steps as it runs: K_50 passes its cut at
    # --p 49 --q 1 and then runs flows, each augmenting search charged
    # n + arcs = 2,500 steps before it runs, until the total passes the
    # limit (here 10^6, to keep the test short).
    k50 = tmp_path / "k50.txt"
    k50.write_text(format_graph(Multigraph(50, tuple(itertools.combinations(range(50), 2)))))
    monkeypatch.setattr(conditions, "PQ_STEP_LIMIT", 10**6)
    assert main(["check", "pq-connected", str(k50), "--p", "49", "--q", "1"]) == 3
    charged = re.search(r"limited to 1000000 steps \(charged (\d+)\)", capsys.readouterr().err)
    assert 10**6 < int(charged[1]) <= 10**6 + 2_500
    # A partition walk charges each Z's set-up, r + C(r, 2), before it builds
    # the graph's tables of n^2 bits: on a 20,000-vertex path necessary is
    # refused at Z = {} with nothing built.
    G = corpus.path(20_000)
    tracemalloc.start()
    try:
        assert outcome(check_necessary_condition, G, 1, 0) == (
            rigidpack.LimitExceededError,
            f"partition walks are limited to {enumeration.PARTITION_BUDGET} steps "
            f"(charged {20_000 + 20_000 * 19_999 // 2})")
        assert tracemalloc.get_traced_memory()[1] < 100_000
    finally:
        tracemalloc.stop()


def test_subset_guardrail_bounds_memory_at_n_23(tmp_path, capsys):
    gfile = tmp_path / "p23.txt"
    gfile.write_text(format_graph(corpus.path(23)))
    tracemalloc.start()
    try:
        # kwz, gamma2, cover and pq-connected build no table at all.
        for argv in (["check", "kwz", "--k", "1", "--d", "2"], ["gamma", "gamma2"]):
            assert main(_with_input(argv, gfile)) == 0, argv
        for argv in (["check", "cover", "--k", "1"], ["check", "pq-connected", "--p", "2",
                                                      "--q", "1"]):
            assert main(_with_input(argv, gfile)) in (0, 1), argv
        # pq-connected at --p 12 --q 1, where |X| <= 11 would be 4.2M sets
        # X, takes one cut: an end of the path has degree 1.
        argv = ["check", "pq-connected", "--p", "12", "--q", "1"]
        assert main(_with_input(argv, gfile)) == 1
        assert "fails" in capsys.readouterr().out
        # A 2^23-entry table would take tens of MB.
        assert tracemalloc.get_traced_memory()[1] < 2_000_000
    finally:
        tracemalloc.stop()


def test_partition_walk_is_linear_without_recursion(tmp_path, capsys):
    # A long path fails every partition scan at its second partition,
    # {V - {n-1}, {n-1}}.  The walk finds that witness at once, with state
    # linear in n, whatever the ground set's size: the scans' budget
    # bounds their time, not their memory or recursion depth.
    # tree-packing and pack --k 0 scan nothing: a pebble game finds their
    # witness at any n.
    out = tmp_path / "cert.json"
    for n, argv in ((1500, ["check", "tree-packing", "--l", "2"]),
                    (60, ["pack", "--k", "0", "--l", "2"])):
        gfile = tmp_path / f"path{n}.txt"
        gfile.write_text(format_graph(corpus.path(n)))
        tracemalloc.start()
        try:
            code = main(_with_input(argv, gfile) + ["--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1, argv
        assert peak < 8_000_000, (argv, peak)  # an n-by-n table at n = 1500 is 18 MB
        assert main(["verify", str(out), str(gfile)]) == 0
    capsys.readouterr()
    # The walk of necessary, parthm (at Z = empty) and bracket-partition,
    # driven directly.
    G = corpus.path(1500)
    for weights in ((3, 1, 0), (3, 1, 1), (2, 0, 1)):
        tracemalloc.start()
        try:
            found = enumeration.first_short_partition(G, (0,), *weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert found is not None and found[1].blocks[1] == {1499}, weights
        assert peak < 8_000_000, (weights, peak)
    # The short partitions come one at a time, each where the walk finds it.
    short = short_partitions(corpus.path(60), (0,), 3, 1, 0)
    assert len(list(itertools.islice(short, 1000))) == 1000
