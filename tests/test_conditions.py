import copy
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rigidpack import (
    ConditionReport,
    GraphInputError,
    LimitExceededError,
    Multigraph,
    Partition,
    check_cover_condition,
    check_kwz_condition,
    check_necessary_condition,
    check_parthm_condition,
    check_tree_packing_condition,
    gamma,
    gamma2,
    is_bracket_partition_connected,
    is_pq_connected,
    ndt_decompose,
)
from rigidpack import conditions, enumeration, format_graph
from rigidpack.cli import main
from rigidpack.multigraph import multiplicities

import corpus
import oracles


def test_condition_report_sorts_dict_parameters_into_a_tuple():
    by_dict = ConditionReport("kwz", {"k": 1, "d": "2"}, True)
    by_tuple = ConditionReport("kwz", (("d", "2"), ("k", 1)), True, None)
    assert by_dict == by_tuple and hash(by_dict) == hash(by_tuple)
    assert by_dict.parameters == (("d", "2"), ("k", 1))
    assert ConditionReport("cover", {"k": 1}, True) == ConditionReport("cover", (("k", 1),), True)
    report = ConditionReport(condition="cover", parameters={"k": 1}, holds=False,
                             witness=frozenset({0, 1}))
    assert ConditionReport._fields == ("condition", "parameters", "holds", "witness")
    assert report.witness == frozenset({0, 1})
    assert repr(report) == ("ConditionReport(condition='cover', parameters=(('k', 1),), "
                            "holds=False, witness=frozenset({0, 1}))")
    with pytest.raises(AttributeError):
        report.holds = True


def test_cover_condition_k4():
    report = check_cover_condition(corpus.k4(), 1)
    assert not report.holds
    assert report.witness == frozenset(range(4))
    assert oracles.certified(corpus.k4(), report)[4:] == ("vertex-set", 6, 5)
    assert check_cover_condition(corpus.k4(), 2).holds
    assert check_cover_condition(corpus.path(5), 1).holds


def test_tree_packing_condition():
    assert check_tree_packing_condition(corpus.k4(), 2).holds
    report = check_tree_packing_condition(corpus.cycle(4), 2)
    assert not report.holds
    # the all-singletons partition is among the violators: 4 < 6
    singles = Partition(tuple(frozenset({v}) for v in range(4)))
    from rigidpack import cross_edge_count

    assert cross_edge_count(corpus.cycle(4), singles) == 4 < 6
    assert check_tree_packing_condition(Multigraph(1), 5).holds


def test_parthm_condition_examples():
    assert check_parthm_condition(corpus.triangle(), 1, 0).holds
    report = check_parthm_condition(corpus.cycle(4), 1, 0)
    assert not report.holds
    Z, pi = report.witness
    stated = oracles.certified(corpus.cycle(4), report)
    assert stated.witness_kind == "z-partition" and stated.lhs < stated.rhs
    # independently recompute the violated inequality
    blocks = [sorted(b) for b in pi.blocks]
    lhs = oracles.cross(corpus.cycle(4), blocks)
    n0 = sum(1 for b in blocks if len(b) == 1)
    nz = oracles.adjacent_number_def(corpus.cycle(4), Z, blocks)
    assert lhs == stated.lhs
    assert 3 * (len(blocks) - 1) - n0 - nz == stated.rhs
    # k = l = 0 makes the right side nonpositive everywhere
    assert check_parthm_condition(corpus.cycle(4), 0, 0).holds


def test_necessary_condition_examples():
    assert check_necessary_condition(corpus.triangle(), 1, 0).holds
    report = check_necessary_condition(corpus.cycle(4), 1, 0)
    assert not report.holds
    # with k=0 this is exactly the tree-packing condition
    for G in corpus.random_corpus(20, seed=41, n_range=(2, 5)):
        assert (
            check_necessary_condition(G, 0, 1).holds
            == check_tree_packing_condition(G, 1).holds
        )


# The holding necessary --k 1 --l 0 walk on the 12-vertex Henneberg strip
# places 35,594 vertices, and its one Z's set-up charges 12 + C(12, 2).
STRIP12_CHARGE = 35_594 + 78


def test_a_holding_walk_answers_at_its_exact_charge(tmp_path, capsys, monkeypatch):
    # At a budget of exactly its charge the walk holds, and check writes a
    # certificate that verify, charging the same, accepts.  One unit less
    # and both refuse, stating the charge and the budget.
    G = corpus.henneberg_strip(12)
    gfile, out = tmp_path / "strip12.txt", tmp_path / "cert.json"
    gfile.write_text(format_graph(G))
    monkeypatch.setattr(enumeration, "PARTITION_BUDGET", STRIP12_CHARGE)
    assert check_necessary_condition(G, 1, 0).holds
    assert main(["check", "necessary", str(gfile), "--k", "1", "--l", "0",
                 "--out", str(out)]) == 0
    assert main(["verify", str(out), str(gfile)]) == 0
    monkeypatch.setattr(enumeration, "PARTITION_BUDGET", STRIP12_CHARGE - 1)
    message = (f"partition walks are limited to {STRIP12_CHARGE - 1} steps "
               f"(charged {STRIP12_CHARGE})")
    with pytest.raises(LimitExceededError) as exc:
        check_necessary_condition(G, 1, 0)
    assert str(exc.value) == message
    capsys.readouterr()
    assert main(["verify", str(out), str(gfile)]) == 1
    assert f"cannot re-check the claim: {message}" in capsys.readouterr().out


# Each checker's parameter guard: the call, its command line, and the message.
_NEGATIVE = (
    (lambda G: check_cover_condition(G, -1), "check cover --k -1", "need k >= 0"),
    (lambda G: check_tree_packing_condition(G, -1), "check tree-packing --l -1", "need l >= 0"),
    (lambda G: check_parthm_condition(G, -1, 0), "check parthm --k -1 --l 0",
     "need k >= 0 and l >= 0"),
    (lambda G: check_necessary_condition(G, 0, -1), "check necessary --k 0 --l -1",
     "need k >= 0 and l >= 0"),
    (lambda G: is_pq_connected(G, 0, 1), "check pq-connected --p 0 --q 1",
     "need p >= 1 and q >= 1"),
    (lambda G: is_bracket_partition_connected(G, 1, 0), "check bracket-partition --p 1 --q 0",
     "need p >= 1 and q >= 1"),
    (lambda G: check_kwz_condition(G, -1, 2), "check kwz --k -1 --d 2", "need k >= 0"),
    (lambda G: ndt_decompose(G, -1, 0), "ndt --k -1 --l 0", "need k >= 0"),
)


def test_negative_parameters_are_input_errors(tmp_path, capsys):
    G = corpus.k4()
    gfile = tmp_path / "k4.txt"
    gfile.write_text(format_graph(G))
    for call, argv, message in _NEGATIVE:
        with pytest.raises(GraphInputError) as exc:
            call(G)
        assert str(exc.value) == message, argv
        capsys.readouterr()
        assert main([*argv.split(), str(gfile)]) == 2, argv
        assert capsys.readouterr().err == f"input error: {message}\n", argv


def test_condition_checkers_match_oracles():
    for G in corpus.random_corpus(25, seed=42, n_range=(2, 5), m_max=10):
        for k in (1, 2):
            assert check_cover_condition(G, k).holds == oracles.sparse_cover_def(G, k)
            assert check_parthm_condition(G, k, 1).holds == oracles.parthm_def(G, k, 1)
            assert check_necessary_condition(G, k, 1).holds == oracles.necessary_def(G, k, 1)
        for l in (1, 2):
            assert check_tree_packing_condition(G, l).holds == oracles.tree_packing_def(G, l)


def test_gamma_values():
    assert gamma(corpus.triangle()).value == Fraction(3, 2)
    assert gamma2(corpus.triangle()).value == 1
    assert gamma2(corpus.triangle()).argmax == frozenset(range(3))
    assert gamma(corpus.k4()).value == 2
    assert gamma2(corpus.k4()).value == Fraction(6, 5)
    assert gamma2(corpus.k33()).value == 1
    assert gamma2(corpus.k33()).argmax == frozenset(range(6))
    with pytest.raises(GraphInputError):
        gamma(Multigraph(1))


def test_gamma_matches_oracles():
    for G in corpus.random_corpus(30, seed=43, n_range=(2, 6), m_max=12):
        assert gamma(G).value == oracles.gamma_def(G)
        assert gamma2(G).value == oracles.gamma2_def(G)
        # the reported argmax achieves the maximum
        res = gamma(G)
        assert Fraction(oracles.induced(G, range(G.m), res.argmax), len(res.argmax) - 1) == res.value


def test_pq_connected_examples():
    assert is_pq_connected(corpus.k4(), 3, 1)
    assert not is_pq_connected(corpus.cycle(4), 3, 1)
    # size clause: n <= p/q fails outright
    assert not is_pq_connected(corpus.triangle(), 3, 1)
    assert not is_pq_connected(corpus.triangle(), 6, 2)
    # p-edge-connectivity == (p,p)-connectivity
    assert is_pq_connected(corpus.cycle(5), 2, 2)
    # Two K5s joined by one edge, and a vertex x with three neighbours in
    # each: G is 4-edge-connected, but G - x has a bridge.  x has degree
    # 2q + 2 = 6, so its cut must run at (4, 2).
    k5s = [pair for part in (range(5), range(5, 10)) for pair in itertools.combinations(part, 2)]
    G = Multigraph(11, (*k5s, (0, 5), *((10, v) for v in (1, 2, 3, 6, 7, 8))))
    assert not is_pq_connected(G, 4, 2)
    assert not oracles.is_pq_connected_reference(G, 4, 2)


def near_regular_corpus(count, seed):
    """Unions of 2-3 Hamiltonian cycles on 5-8 vertices, 0-2 edges removed:
    every degree is 2-6, below 2q + 2 for every vertex at q = 3 and for
    every vertex of a two-cycle union at q = 2, so many X skip their cut."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(5, 8)
        coprime = [c for c in range(1, n) if math.gcd(c, n) == 1]
        G = hamiltonian_cycles(n, rng.choices(coprime, k=rng.randint(2, 3)))
        edges = list(G.edges)
        for _ in range(rng.randint(0, 2)):
            edges.pop(rng.randrange(len(edges)))
        yield Multigraph(n, tuple(edges))


def test_pq_connected_matches_oracle():
    # Multigraphs up to n = 7 at every (p, q) in 1..8 x 1..3, (8, 2) the
    # k = l = 1 corollary: thresholds p - q|X| up to 8, and some holding at
    # 3 or more after a deletion.  The near-regular unions of Hamiltonian
    # cycles skip the cut of many X by a vertex degree.
    deleted = 0
    graphs = itertools.chain(corpus.random_corpus(150, seed=44, n_range=(2, 7), m_max=42),
                             near_regular_corpus(30, seed=49))
    for G in graphs:
        for p, q in itertools.product(range(1, 9), range(1, 4)):
            holds = is_pq_connected(G, p, q)
            assert holds == oracles.is_pq_connected_reference(G, p, q), (G, p, q)
            deleted += holds and p - q >= 3
    assert deleted > 0


@st.composite
def joined_blocks(draw):
    """Two multigraphs, each pair inside one joined by 0-3 edges, and up to
    three edges between them: the minimum cut often separates the two and
    falls below every vertex degree."""
    a, b = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    pairs = itertools.chain(itertools.combinations(range(a), 2),
                            itertools.combinations(range(a, a + b), 2))
    edges = [pair for pair in pairs for _ in range(draw(st.integers(0, 3)))]
    edges += draw(st.lists(st.tuples(st.integers(0, a - 1), st.integers(a, a + b - 1)),
                           max_size=3))
    return Multigraph(a + b, tuple(edges))


TRIANGLES = ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5))


@settings(max_examples=200, deadline=None)
@given(G=st.one_of(corpus.small_multigraphs(max_n=9), joined_blocks()))
@example(G=Multigraph(6, TRIANGLES + ((2, 3), (2, 3))))  # a double edge is no bridge
@example(G=Multigraph(6, TRIANGLES + ((2, 3),)))  # a bridge
@example(G=Multigraph(4, ((0, 1), (1, 2), (0, 2))))  # an isolated vertex
# one phase merges 0 with 1 and then 1 with 2, so 1's group is looked up
@example(G=Multigraph(3, ((0, 1),) * 3 + ((1, 2),) * 3))
# one phase merges 0 with 2 and 0 with 1, then meets the pair (1, 2) again
@example(G=Multigraph(3, ((0, 2),) * 3 + ((0, 1),) * 3 + ((1, 2),)))
# every degree is 4 or 5, but {0, 1} has degree 2 once it is merged
@example(G=Multigraph(4, ((0, 1),) * 4 + ((0, 2), (1, 3)) + ((2, 3),) * 3))
def test_cut_below_matches_reference_cut(G):
    # At every threshold from 1 to two past the minimum cut; a graph with
    # at most one vertex has no cut.  Its phases charge at most n^3 steps.
    cut = oracles.min_cut_within_reference(G, frozenset(G.vertices()))
    for lam in range(1, (cut or 0) + 3):
        adj = {v: row.copy() for v, row in enumerate(multiplicities(G))}
        charges = []
        assert conditions._cut_below(adj, lam, charges.append) == (
            cut is not None and cut < lam), (G, lam)
        assert sum(charges) <= G.n**3, (G, lam)


def hamiltonian_cycles(n, multipliers):
    """The closed walks 0, c, 2c, ... mod n, one for each multiplier c: a
    Hamiltonian cycle when c is prime to n."""
    edges = ()
    for c in multipliers:
        order = [c * i % n for i in range(n)]
        edges += tuple(zip(order, order[1:] + order[:1]))
    return Multigraph(n, edges)


def test_pq_skips_each_x_a_smaller_x_decides(monkeypatch):
    # A 4-regular graph at (4, 2): once G is 4-edge-connected, G - x has no
    # cut below 2, since x has fewer than 2q + 2 = 6 edges.  Only X = {}
    # takes a cut, and no flow runs.  The 11- to 14-vertex graphs are the
    # shape of the benchmark's holding pq requests.
    def no_flow(*args):
        raise AssertionError("a flow ran")

    cut, lams = conditions._cut_below, []
    monkeypatch.setattr(conditions, "_cut_below",
                        lambda adj, lam, charge: lams.append(lam) or cut(adj, lam, charge))
    monkeypatch.setattr(conditions, "_flow_below", no_flow)
    for n, c in ((20, 3), (11, 3), (12, 5), (13, 5), (14, 3)):
        lams.clear()
        assert math.gcd(n, c) == 1
        assert is_pq_connected(hamiltonian_cycles(n, (1, c)), 4, 2), n
        assert lams == [4], n


def charge_log(monkeypatch):
    """Wrap the cut and the flows so that each charge is logged as (steps,
    the graph or network it is charged on, a copy of that taken then)."""
    log = []
    cut, flow = conditions._cut_below, conditions._flow_below

    def logged(state, charge):
        def logged_charge(steps):
            log.append((steps, state, copy.deepcopy(state)))
            charge(steps)
        return logged_charge

    monkeypatch.setattr(conditions, "_cut_below",
                        lambda adj, lam, charge: cut(adj, lam, logged(adj, charge)))
    monkeypatch.setattr(conditions, "_flow_below",
                        lambda net, s, t, lam, charge: flow(net, s, t, lam, logged(net, charge)))
    return log


def test_pq_guardrail_is_checked_before_any_cut(monkeypatch):
    # The cut charges r^2 steps before each phase on r vertices, against
    # 2^28 steps in all.  On a cycle (2, 1) runs no flow, and the 646-cycle
    # holds after 645 phases.  Below its first phase's 646^2 steps the
    # refusal comes before any phase: the graph the cut was given is
    # untouched.
    assert conditions.PQ_STEP_LIMIT == 1 << 28
    assert is_pq_connected(corpus.cycle(646), 2, 1)
    log = charge_log(monkeypatch)
    monkeypatch.setattr(conditions, "PQ_STEP_LIMIT", 646**2 - 1)
    with pytest.raises(LimitExceededError,
                       match=f"limited to {646**2 - 1} steps \\(charged {646**2}\\)"):
        is_pq_connected(corpus.cycle(646), 2, 1)
    [(steps, adj, before)] = log
    assert adj == before == {v: {(v - 1) % 646: 1, (v + 1) % 646: 1} for v in range(646)}
    # A vertex of degree below p is a cut found before any phase, so the
    # 20,000-vertex path fails (2, 1) with nothing charged.
    monkeypatch.setattr(conditions, "PQ_STEP_LIMIT", 0)
    assert not is_pq_connected(corpus.path(20_000), 2, 1)


def complete(n, mult=1):
    return Multigraph(n, tuple(pair for pair in itertools.combinations(range(n), 2)
                               for _ in range(mult)))


@st.composite
def capped_complete(draw):
    """K_n with 1-3 edges per pair and q in 1..2, every degree at least
    2q + 2, so every vertex is capped and (p - 1) // q + 1 sources run."""
    n, q = draw(st.integers(2, 7)), draw(st.integers(1, 2))
    edges = [pair for pair in itertools.combinations(range(n), 2)
             for _ in range(draw(st.integers(1, 3)))]
    G = Multigraph(n, tuple(edges))
    assume(all(sum(row.values()) >= 2 * q + 2 for row in multiplicities(G)))
    return G, draw(st.integers(q + 1, 9)), q


@settings(max_examples=150, deadline=None)
@given(case=capped_complete())
# X = {0, 1, 2} and the single edge between 3 and 4 cut at 3 + 1 < 5,
# below every vertex degree
@example(case=(Multigraph(5, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3),
                              (2, 4), (3, 4)) + ((0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)) * 2),
               5, 1))
# Only X = {0, 1} cuts below p = 6, at 2q + 1: the third source finds it.
@example(case=(Multigraph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)) * 3 + ((2, 3),)), 6, 2))
# Only X = {0} cuts below p = 6, at q + 3 edges around 4: the second
# source finds it.
@example(case=(Multigraph(5, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 3)) * 3
                           + ((1, 4), (2, 4), (3, 4))), 6, 2))
def test_pq_flows_from_several_sources_match_reference(case):
    G, p, q = case
    assert is_pq_connected(G, p, q) == oracles.is_pq_connected_reference(G, p, q), case


@settings(max_examples=200, deadline=None)
@given(case=st.one_of(
    st.tuples(corpus.small_multigraphs(max_n=10, max_mult=4), st.integers(1, 12),
              st.integers(1, 3)),
    capped_complete()))
def test_pq_charge_never_passes_the_up_front_count(case):
    # The charge stays within what an up-front count of n^3 for the cut
    # and p (n + arcs) for each flow allows: a phase merges at least one
    # pair, and a flow stopped at p takes at most p searches.  So every
    # request such a count admits is answered under the same limit.
    G, p, q = case
    mult = multiplicities(G)
    n, arcs = G.n, sum(map(len, mult))
    capped = [sum(row.values()) >= 2 * q + 2 for row in mult]
    sources = 0 if p <= q or not any(capped) else (p - 1) // q + 1 if all(capped) else 1
    with pytest.MonkeyPatch.context() as mp:
        log = charge_log(mp)
        is_pq_connected(G, p, q)
    assert sum(steps for steps, *_ in log) <= n**3 + sources * (n - 1) * p * (n + arcs), case


@pytest.mark.parametrize("G, p, q, flows", [
    (corpus.cycle(40), 2, 1, 0),  # the last charge is a cut phase's
    (hamiltonian_cycles(31, (1, 2, 3)), 6, 2, 3 * 30),  # and here an augmenting search's
])
def test_pq_refused_one_step_below_its_exact_charge(monkeypatch, G, p, q, flows):
    # Each phase and search is charged before it runs.  A request holds
    # at a limit equal to its exact charge; one step below, the last
    # charge raises, and the graph or network it was charged on is left as
    # it was then.  At the full limit the same phase or search goes on to
    # change it.  On the three cycles every augmenting path carries one
    # unit, so each flow charges p searches of n + arcs = n + 2m steps.
    log = charge_log(monkeypatch)
    assert is_pq_connected(G, p, q)
    searches = [steps for steps, state, _ in log if isinstance(state, list)]
    assert searches == [G.n + 2 * G.m] * (p * flows)
    charges = [steps for steps, *_ in log]
    _, state, before = log[-1]
    assert state != before
    total = sum(charges)
    monkeypatch.setattr(conditions, "PQ_STEP_LIMIT", total)
    assert is_pq_connected(G, p, q)
    log.clear()
    monkeypatch.setattr(conditions, "PQ_STEP_LIMIT", total - 1)
    with pytest.raises(LimitExceededError,
                       match=f"limited to {total - 1} steps \\(charged {total}\\)"):
        is_pq_connected(G, p, q)
    assert [steps for steps, *_ in log] == charges
    _, state, before = log[-1]
    assert state == before


def test_pq_holds_on_k16_with_600_edges_per_pair():
    # Every vertex is capped at (6000, 400), so 16 sources run 240 flows.
    # One augmenting path carries a bundle of parallel edges, so each flow
    # takes far fewer than p searches: an up-front count of p (n + arcs)
    # per flow passes the limit, the charge stays well within it.
    G = complete(16, 600)
    assert 16**3 + 16 * 15 * 6000 * (16 + 16 * 15) > conditions.PQ_STEP_LIMIT
    assert is_pq_connected(G, 6000, 400)


def test_pq_runs_no_flow_when_p_is_at_most_q(monkeypatch):
    # Only X = {} has q|X| < p, so the one cut decides, capped vertices
    # or not.
    def no_flow(*args):
        raise AssertionError("a flow ran with p <= q")

    monkeypatch.setattr(conditions, "_flow_below", no_flow)
    assert is_pq_connected(complete(7), 2, 2)  # degree 6 = 2q + 2
    assert is_pq_connected(complete(5), 1, 1)
    # every vertex of the doubled K_7 is capped; vertex 7 has degree 2
    assert not is_pq_connected(Multigraph(8, complete(7, 2).edges + ((7, 0), (7, 1))), 3, 3)


def test_pq_k5_k5_plus_x_fails_through_a_flow(monkeypatch):
    # G is 4-edge-connected, so the cut at X = {} passes; x = 10 has
    # degree 2q + 2 = 6 and is the one capped vertex, and the flow from
    # vertex 0 (exit node 1) to vertex 5 (entry node 10) meets the bridge
    # and x: 1 + q < 4.
    k5s = [pair for part in (range(5), range(5, 10)) for pair in itertools.combinations(part, 2)]
    G = Multigraph(11, (*k5s, (0, 5), *((10, v) for v in (1, 2, 3, 6, 7, 8))))
    cut, flow, cuts, below = conditions._cut_below, conditions._flow_below, [], []
    monkeypatch.setattr(conditions, "_cut_below",
                        lambda adj, lam, charge: cuts.append(cut(adj, lam, charge)) or cuts[-1])
    monkeypatch.setattr(conditions, "_flow_below",
                        lambda net, s, t, lam, charge: below.append(
                            (s, t, flow(net, s, t, lam, charge))) or below[-1][2])
    assert not is_pq_connected(G, 4, 2)
    assert cuts == [False]
    assert below[-1] == (1, 2 * 5, True) and not any(b for *_, b in below[:-1])


def test_pq_matches_per_x_enumeration_beyond_the_exhaustive_reference():
    # Unions of 2-3 Hamiltonian cycles on 17-24 vertices, 0-2 edges
    # removed: every degree is 2q + 2 or more in some, and a removed edge
    # leaves one uncapped source in others.
    rng = random.Random(50)
    holds = fails = 0
    for n in range(17, 25):
        coprime = [c for c in range(1, n // 2 + 1) if math.gcd(c, n) == 1]
        G = hamiltonian_cycles(n, rng.sample(coprime, rng.randint(2, 3)))
        edges = list(G.edges)
        for _ in range(rng.randint(0, 2)):
            edges.pop(rng.randrange(len(edges)))
        G = Multigraph(n, tuple(edges))
        with pytest.raises(LimitExceededError):
            oracles.is_pq_connected_reference(G, 4, 2)
        for p, q in ((4, 2), (6, 2), (3, 1), (5, 1), (6, 3)):
            answer = is_pq_connected(G, p, q)
            assert answer == oracles.is_pq_connected_per_x_reference(G, p, q), (G, p, q)
            holds += answer
            fails += not answer
    assert holds and fails


def test_bracket_partition_connected_examples():
    assert is_bracket_partition_connected(corpus.k4(), 1, 1)
    assert is_bracket_partition_connected(corpus.single_edge(), 1, 1)
    assert not is_bracket_partition_connected(corpus.path(3), 2, 1)


def test_bracket_matches_oracle():
    for G in corpus.random_corpus(20, seed=45, n_range=(2, 5), m_max=10):
        for p, q in ((1, 1), (2, 1)):
            assert is_bracket_partition_connected(G, p, q) == oracles.bracket_pc_def(G, p, q)


def test_remark_chain_partition_and_pq_connectivity():
    # (2p,2q)-connected => [p,q]-partition-connected => (p,2q)-connected
    hits = 0
    for G in corpus.connected_corpus(40, seed=46, n_range=(2, 6), m_max=12):
        for p, q in ((1, 1), (2, 1)):
            if is_pq_connected(G, 2 * p, 2 * q):
                hits += 1
                assert is_bracket_partition_connected(G, p, q)
            if is_bracket_partition_connected(G, p, q):
                assert is_pq_connected(G, p, 2 * q)
    assert hits > 0


def test_essential_edge_connectivity():
    # Essential edge connectivity is no library function; acceptance
    # criterion 9 reads it from the definitional oracle, pinned here
    # against the regression oracle's bipartition scan.
    assert oracles.essential_def(corpus.path(4)) == 1
    assert oracles.essential_def(corpus.k4()) == 4
    assert oracles.essential_def(corpus.triangle()) is None
    for G in corpus.random_corpus(20, seed=47, n_range=(4, 6), m_max=12):
        assert oracles.essential_def(G) == oracles.essential_edge_connectivity_reference(G)


def assert_min_cut(G, lam):
    """The cut through pq-connected: with p = q only X = {} asks for
    a cut, so (p,p)-connected means a whole-graph cut of at least p."""
    if lam:
        assert is_pq_connected(G, lam, lam)
    assert not is_pq_connected(G, lam + 1, lam + 1)


def test_edge_connectivity_helper():
    for G, lam in ((corpus.cycle(5), 2), (corpus.k4(), 3),
                   (corpus.two_triangles_disjoint(), 0), (corpus.double_edge(), 2)):
        assert oracles.edge_connectivity_reference(G) == lam
        assert_min_cut(G, lam)
    assert oracles.edge_connectivity_reference(Multigraph(1)) is None


def test_forest_count_matches_gamma_ceiling():
    from math import ceil

    from rigidpack import Decomposition, decompose

    for G in corpus.connected_corpus(25, seed=48, n_range=(2, 6), m_max=12):
        if G.m == 0:
            continue
        need = ceil(gamma(G).value)
        assert isinstance(decompose(G, 0, need), Decomposition)
        if need > 1:
            assert not isinstance(decompose(G, 0, need - 1), Decomposition)


@settings(max_examples=100, deadline=None)
@given(G=corpus.small_multigraphs(max_n=9), k=st.integers(0, 3), l=st.integers(1, 3),
       extra=st.fractions(0, 4, max_denominator=7))
def test_polynomial_checks_match_definitions_up_to_n_9(G, k, l, extra):
    # cover, tree-packing and kwz (at a fractional d) are pebble games,
    # gamma and gamma2 a few, pq-connected and edge connectivity minimum
    # cuts; each failure's witness passes the verifier's counting check,
    # and each density's argmax reaches its value.
    kwz = (check_kwz_condition(G, k, k + 1 + extra),
           oracles.check_kwz_condition_reference(G, k, k + 1 + extra).holds)
    for report, holds in ((check_cover_condition(G, k), oracles.sparse_cover_def(G, k)),
                          (check_tree_packing_condition(G, l), oracles.tree_packing_def(G, l)),
                          kwz):
        assert report.holds == holds, report
        if not holds:
            stated = oracles.certified(G, report)
            assert oracles.violated_def(G, report.condition, report.parameters,
                                        report.witness) == (True, stated.lhs, stated.rhs)
    for p, q in ((l, 1), (4, 2), (2 * l + 1, 2)):
        assert is_pq_connected(G, p, q) == oracles.pq_connected_def(G, p, q), (p, q)
    if G.n >= 2:
        assert_min_cut(G, oracles.edge_conn_within_def(G, range(G.n)))
    for density, reference, denominator in (
        (gamma, oracles.gamma_reference, lambda x: x - 1),
        (gamma2, oracles.gamma2_reference, lambda x: 2 * x - 3),
    ):
        if G.n >= 2:
            value, X = density(G)
            assert value == reference(G).value
            assert len(X) >= 2
            assert Fraction(oracles.induced(G, range(G.m), X), denominator(len(X))) == value
