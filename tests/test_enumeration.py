from math import comb

import pytest

from rigidpack import PARTITION_BUDGET, LimitExceededError, Multigraph, enumeration
from rigidpack.enumeration import masks_by_size, short_partitions

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


def unpruned_z_walk_charge(n):
    """The placements and the set-up of the walk over every proper Z of n
    vertices that drops no prefix: each prefix of each partition of V - Z
    is placed once, and each Z's set-up is r + C(r, 2), r = |V - Z|."""
    placements = sum(comb(n, s) * sum(bell_number(i) for i in range(1, n - s + 1))
                     for s in range(n))
    setup = sum(comb(n, s) * (n - s + comb(n - s, 2)) for s in range(n))
    return placements, setup


def test_partition_budget_is_the_unpruned_z_walk_at_11_vertices():
    assert unpruned_z_walk_charge(11) == (5_268_881, 39_424)
    assert PARTITION_BUDGET == sum(unpruned_z_walk_charge(11))
    # necessary walks Z = {} alone: at n = 12 it charges less.
    necessary12 = sum(bell_number(i) for i in range(1, 13)) + 12 + comb(12, 2)
    assert necessary12 == 5_034_584 + 78 <= PARTITION_BUDGET


def test_the_walk_charges_every_placement_and_each_z_set_up(monkeypatch):
    # With no edges and slope 1, every partition but the single block is
    # short and no prefix is dropped: the walk charges exactly the
    # unpruned count.  One unit less and it raises, stating both numbers.
    n = 7
    charge = sum(unpruned_z_walk_charge(n))

    def walk():
        return sum(1 for _ in short_partitions(Multigraph(n), masks_by_size(n, range(n)), 1, 0, 0))

    monkeypatch.setattr(enumeration, "PARTITION_BUDGET", charge)
    walked = walk()
    monkeypatch.setattr(enumeration, "PARTITION_BUDGET", charge - 1)
    with pytest.raises(LimitExceededError) as exc:
        walk()
    assert str(exc.value) == (
        f"partition walks are limited to {charge - 1} steps (charged {charge})")
    assert walked == sum(comb(n, s) * (bell_number(n - s) - 1) for s in range(n))
