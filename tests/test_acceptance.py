"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Everything is exact;
the corpora are seeded and deterministic.
"""

import itertools
import json

from rigidpack import (
    Decomposition,
    GraphInputError,
    check_cover_condition,
    check_necessary_condition,
    check_parthm_condition,
    decompose,
    format_graph,
    gamma2,
    is_bracket_partition_connected,
    is_pq_connected,
    pack_rigid_and_trees,
    rigidity_rank,
    union_rank,
)
from rigidpack.cli import main
from rigidpack.ndt import ndt_decompose
from rigidpack.union import degree_bound_floor

import corpus
import oracles


def _report(num: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else f"FAIL ({len(failures)} counterexamples)"
    print(f"ACCEPTANCE {num} ({name}): {status}")
    assert not failures, failures[:3]


def _subsets_up_to(m: int, cap: int):
    for r in range(min(m, cap) + 1):
        yield from itertools.combinations(range(m), r)


def test_criterion_01_pebble_oracle_equivalence():
    failures = []
    # every simple graph on up to 5 vertices, every edge subset
    for n in range(6):
        for G in corpus.all_simple_graphs(n):
            for F in _subsets_up_to(G.m, 10):
                if (rigidity_rank(G, F).rank == len(F)) != oracles.sparse_by_def(G, F):
                    failures.append((G, F))
    # 500 random multigraphs, every F with |F| <= 10
    for G in corpus.random_corpus(500, seed=101, n_range=(2, 6), m_max=12, mult_max=3):
        for F in _subsets_up_to(G.m, 10):
            if (rigidity_rank(G, F).rank == len(F)) != oracles.sparse_independent_bruteforce(G, F):
                failures.append((G, F))
    _report(1, "pebble game vs definitional oracle", failures)


def test_criterion_02_union_rank_matches_rank_formula():
    failures = []
    pairs = [(k, l) for k in (0, 1, 2) for l in (0, 1, 2) if (k, l) != (0, 0)]
    for G in corpus.random_corpus(300, seed=102, n_range=(2, 6), m_max=12, mult_max=3):
        for k, l in pairs:
            if union_rank(G, k, l).rank != oracles.union_rank_bruteforce(G, k, l):
                failures.append((G, k, l))
    _report(2, "augmenting paths vs rank formula", failures)


def test_criterion_03_sparse_cover_iff():
    failures = []
    for G in corpus.connected_corpus(500, seed=103, n_range=(2, 6), m_max=12, mult_max=3):
        density = gamma2(G).value
        for k in (1, 2, 3):
            result = decompose(G, k, 0)
            decomposed = isinstance(result, Decomposition)
            condition = check_cover_condition(G, k).holds
            if not (decomposed == condition == (density <= k)):
                failures.append((G, k))
                continue
            if decomposed and not result.is_complete():
                failures.append((G, k, "incomplete"))
            if not decomposed:
                X = result.witness
                if not (oracles.induced(G, range(G.m), X) > k * (2 * len(X) - 3)):
                    failures.append((G, k, "bad witness"))
    _report(3, "k-sparse cover iff subset condition iff density bound", failures)


def test_criterion_04_forest_cover_and_tree_packing_iff():
    failures = []
    connected = corpus.connected_corpus(500, seed=104, n_range=(2, 6), m_max=12, mult_max=3)
    mixed = corpus.random_corpus(250, seed=105, n_range=(1, 6), m_max=12, mult_max=3)
    for G in connected:
        for l in (1, 2, 3):
            decomposed = isinstance(decompose(G, 0, l), Decomposition)
            if decomposed != oracles.forest_cover_def(G, l):
                failures.append(("forest-cover", G, l))
    for G in connected + mixed:
        for l in (1, 2, 3):
            if G.n < 2:  # pack needs two vertices, for every k
                try:
                    pack_rigid_and_trees(G, 0, l)
                    failures.append(("tree-packing-one-vertex", G, l))
                except GraphInputError:
                    pass
                continue
            result = pack_rigid_and_trees(G, 0, l)
            packed = isinstance(result, Decomposition)
            if packed != oracles.tree_packing_def(G, l):
                failures.append(("tree-packing", G, l))
            if packed:
                ok, _ = oracles.packing_verdict(G, result)
                if not ok:
                    failures.append(("tree-packing-verify", G, l))
    _report(4, "forest cover / tree packing iff conditions", failures)


def _packing_corpus():
    graphs = corpus.connected_corpus(150, seed=106, n_range=(3, 6), m_max=12, mult_max=2)
    graphs += [
        corpus.triangle(),
        corpus.k4(),
        corpus.k5(),
        corpus.k33(),
        corpus.bowtie(),
        corpus.doubled_triangle(),
        corpus.cycle(5),
    ]
    return graphs


def test_criterion_05_sufficient_condition_yields_packings():
    failures = []
    satisfied = 0
    for G in _packing_corpus():
        for k, l in ((1, 0), (1, 1), (2, 0)):
            if oracles.multiplicity(G) > k:
                continue
            if not check_parthm_condition(G, k, l).holds:
                continue
            satisfied += 1
            result = pack_rigid_and_trees(G, k, l)
            if not isinstance(result, Decomposition):
                failures.append((G, k, l, "no packing"))
                continue
            ok, reason = oracles.packing_verdict(G, result)
            if not ok:
                failures.append((G, k, l, reason))
            if (result.k, result.l) != (k, l):
                failures.append((G, k, l, "wrong part counts"))
    assert satisfied > 0, "corpus never satisfied the sufficient condition"
    _report(5, f"sufficient partition condition => packing ({satisfied} instances)", failures)


def test_criterion_06_packings_satisfy_necessary_condition():
    failures = []
    packed = 0
    for G in _packing_corpus():
        for k, l in ((1, 0), (1, 1), (2, 0)):
            result = pack_rigid_and_trees(G, k, l)
            if isinstance(result, Decomposition):
                packed += 1
                if not check_necessary_condition(G, k, l).holds:
                    failures.append((G, k, l))
    assert packed > 0
    _report(6, f"packing => necessary partition condition ({packed} instances)", failures)


def test_criterion_07_connectivity_implication_chain():
    failures = []
    hits = 0
    for G in corpus.connected_corpus(120, seed=107, n_range=(2, 6), m_max=14, mult_max=2):
        for p, q in ((1, 1), (2, 1), (3, 1)):
            if is_pq_connected(G, 2 * p, 2 * q):
                hits += 1
                if not is_bracket_partition_connected(G, p, q):
                    failures.append((G, p, q, "remark-2"))
            if is_bracket_partition_connected(G, p, q):
                if not is_pq_connected(G, p, 2 * q):
                    failures.append((G, p, q, "remark-1"))
    assert hits > 0
    _report(7, "(2p,2q)-connected => [p,q]-pc => (p,2q)-connected", failures)


def test_criterion_08_known_instances():
    failures = []
    expected = [
        (corpus.triangle(), 3, True, True),
        (corpus.k33(), 9, True, True),
        (corpus.k4(), 5, True, False),
        (corpus.bowtie(), 6, False, False),
        (corpus.cycle(4), 4, False, False),
    ]
    for G, brute_rank, rigid, minimal in expected:
        # derive independently first...
        if oracles.max_sparse_subset_size(G, range(G.m)) != brute_rank:
            failures.append((G, "oracle rank"))
        # ...then demand the pebble-game path agrees
        if rigidity_rank(G, range(G.m)).rank != brute_rank:
            failures.append((G, "pebble rank"))
        pebble_rigid = rigidity_rank(G, range(G.m)).rank == 2 * G.n - 3
        if pebble_rigid != rigid or (rigid and (G.m == 2 * G.n - 3) != minimal):
            failures.append((G, "rigidity flags"))
    _report(8, "known instances by brute force and pebble game", failures)


def test_criterion_09_rigid_graph_corollaries():
    failures = []
    rigid_count = 0
    graphs = corpus.connected_corpus(150, seed=109, n_range=(3, 7), m_max=16, mult_max=2)
    graphs += [corpus.k4(), corpus.k5(), corpus.k33(), corpus.triangle()]
    for G in graphs:
        if rigidity_rank(G, range(G.m)).rank != 2 * G.n - 3:
            continue
        rigid_count += 1
        cut = oracles.essential_def(G)
        if cut is not None and cut < 3:
            failures.append((G, "essential connectivity", cut))
        if G.m >= 2 * (G.n - 1):
            result = pack_rigid_and_trees(G, 0, 2)
            if not isinstance(result, Decomposition) or not oracles.packing_verdict(G, result)[0]:
                failures.append((G, "two spanning trees"))
    assert rigid_count > 0
    _report(9, f"rigid graphs: essential 3-edge-conn + 2 trees ({rigid_count} rigid)", failures)


def test_criterion_10_bounded_cover_pipeline():
    failures = []
    cases = 0
    for k in (0, 1):
        for G in corpus.connected_gamma2_bounded(50, k + 1, seed=110 + k, n_range=(6, 8)):
            for l in range(k + 1, 2 * k + 3):
                cases += 1
                result = ndt_decompose(G, k, l)
                if not isinstance(result, Decomposition):
                    failures.append((G, k, l, "no cover"))
                    continue
                ok, reason = oracles.cover_verdict(G, result)
                if not ok:
                    failures.append((G, k, l, reason))
                if (result.l, result.bounded) != (l, 2 * k + 2 - l):
                    failures.append((G, k, l, "part counts"))
                bound = degree_bound_floor(G.n)
                for part in result.bounded_classes():
                    deg = [0] * G.n
                    for e in part:
                        u, v = G.edges[e]
                        deg[u] += 1
                        deg[v] += 1
                    if deg and max(deg) > bound:
                        failures.append((G, k, l, "degree bound"))
    _report(10, f"bounded forest-cover pipeline ({cases} runs)", failures)


def test_criterion_11_certificate_round_trip(tmp_path):
    failures = []
    jobs = [
        (corpus.k4(), ["decompose"], ["--k", "2"]),
        (corpus.k4(), ["decompose"], ["--k", "1"]),          # witnessed failure
        (corpus.k4(), ["decompose"], ["--k", "1", "--l", "1"]),
        (corpus.triangle(), ["decompose"], ["--l", "1"]),    # forest-cover failure
        (corpus.k4(), ["pack"], ["--k", "0", "--l", "2"]),
        (corpus.k5(), ["pack"], ["--k", "1", "--l", "0"]),
        (corpus.bowtie(), ["pack"], ["--k", "1", "--l", "0"]),  # packing failure
        (corpus.cycle(4), ["pack"], ["--k", "0", "--l", "2"]),  # witnessed failure
        (corpus.k4(), ["check", "cover"], ["--k", "2"]),
        (corpus.k4(), ["check", "cover"], ["--k", "1"]),
        (corpus.cycle(4), ["check", "parthm"], ["--k", "1", "--l", "0"]),
        (corpus.k4(), ["check", "necessary"], ["--k", "1", "--l", "0"]),
        (corpus.k4(), ["check", "tree-packing"], ["--l", "2"]),
        (corpus.k4(), ["check", "pq-connected"], ["--p", "3", "--q", "1"]),
        (corpus.k4(), ["check", "bracket-partition"], ["--p", "1", "--q", "1"]),
        (corpus.triangle(), ["check", "kwz"], ["--k", "1", "--d", "2"]),
        (corpus.triangle(), ["gamma", "gamma2"], []),
        (corpus.k4(), ["gamma", "gamma"], []),
        (corpus.k4(), ["ndt"], ["--k", "1", "--l", "2"]),
        (corpus.k4(), ["ndt"], ["--k", "0", "--l", "1"]),    # density failure
    ]
    emitted = []
    for idx, (G, positional, flags) in enumerate(jobs):
        gfile = tmp_path / f"g{idx}.txt"
        gfile.write_text(format_graph(G))
        cert_file = tmp_path / f"c{idx}.json"
        command = positional + [str(gfile)] + flags + ["--out", str(cert_file)]
        code = main(command)
        if code not in (0, 1):
            failures.append((command, f"unexpected exit {code}"))
            continue
        if main(["verify", str(cert_file), str(gfile)]) != 0:
            failures.append((command, "round trip failed"))
        emitted.append((cert_file, gfile))
    # single-field tampers must all be rejected
    cert_file, gfile = emitted[0]
    cert = json.loads(cert_file.read_text())
    for field in cert:
        if field == "created":
            continue
        bad = dict(cert)
        if isinstance(bad[field], str):
            bad[field] = bad[field] + "x"
        elif isinstance(bad[field], bool):
            bad[field] = not bad[field]
        elif isinstance(bad[field], dict):
            bad[field] = dict(bad[field], extra=1)
        tampered = cert_file.with_suffix(".tampered.json")
        tampered.write_text(json.dumps(bad))
        if main(["verify", str(tampered), str(gfile)]) != 1:
            failures.append((field, "tamper accepted"))
    _report(11, f"certificate round trip ({len(emitted)} certificates)", failures)
