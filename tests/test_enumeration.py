import pytest

from rigidpack import LimitExceededError, Multigraph

from oracles import bell_number, enumerate_partitions, enumerate_vertex_subsets


def test_subset_counts():
    assert sum(1 for _ in enumerate_vertex_subsets(Multigraph(3), 2)) == 4
    assert sum(1 for _ in enumerate_vertex_subsets(Multigraph(2), 2)) == 1
    assert sum(1 for _ in enumerate_vertex_subsets(Multigraph(4), 0)) == 16


def test_subsets_largest_first():
    sizes = [len(X) for X in enumerate_vertex_subsets(Multigraph(4), 1)]
    assert sizes == sorted(sizes, reverse=True)
    first = next(enumerate_vertex_subsets(Multigraph(4), 1))
    assert first == frozenset(range(4))


def test_subset_guardrail():
    with pytest.raises(LimitExceededError) as exc:
        list(enumerate_vertex_subsets(Multigraph(17), 0))
    assert "16" in str(exc.value)
    # guardrail is adjustable
    assert sum(1 for _ in enumerate_vertex_subsets(Multigraph(17), 17, max_n=17)) == 1


@pytest.mark.parametrize("n,count", [(1, 1), (3, 5), (4, 15), (5, 52), (6, 203)])
def test_partition_counts_match_bell(n, count):
    assert bell_number(n) == count
    parts = list(enumerate_partitions(range(n)))
    assert len(parts) == count
    assert len(set(tuple(sorted(tuple(sorted(b)) for b in p)) for p in parts)) == count


def test_partition_order_rgs():
    parts = list(enumerate_partitions(range(3)))
    # single block first, all singletons last
    assert parts[0].blocks == (frozenset({0, 1, 2}),)
    assert parts[-1].blocks == (frozenset({0}), frozenset({1}), frozenset({2}))


def test_partition_ground_sets():
    for pi in enumerate_partitions({3, 5, 7}):
        assert pi.ground == frozenset({3, 5, 7})


def test_partition_guardrail():
    with pytest.raises(LimitExceededError):
        list(enumerate_partitions(range(13)))
    assert sum(1 for _ in enumerate_partitions(range(4), max_size=4)) == 15


def test_matches_recursive_oracle():
    import oracles

    got = [tuple(sorted(tuple(sorted(b)) for b in p)) for p in enumerate_partitions(range(5))]
    want = [tuple(sorted(tuple(sorted(b)) for b in p)) for p in oracles.set_partitions(range(5))]
    assert sorted(got) == sorted(want)
    assert len(got) == len(set(got))
