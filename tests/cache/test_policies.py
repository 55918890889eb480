"""Replacement policies: LRU ordering, FIFO ordering, seeded random."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.policies import (
    FifoPolicy,
    LruPolicy,
    RandomPolicy,
    make_policy,
)


def test_lru_evicts_least_recent():
    lru = LruPolicy(num_sets=1, associativity=3)
    for way in (0, 1, 2):
        lru.on_access(0, way)
    assert lru.victim(0) == 0
    lru.on_access(0, 0)  # 0 becomes most recent
    assert lru.victim(0) == 1


def test_lru_untouched_set_victims_way_zero():
    assert LruPolicy(4, 2).victim(3) == 0


def test_lru_reset_forgets():
    lru = LruPolicy(1, 2)
    lru.on_access(0, 1)
    lru.reset()
    assert lru.victim(0) == 0


def test_fifo_ignores_rehits():
    fifo = FifoPolicy(1, 3)
    for way in (0, 1, 2):
        fifo.on_access(0, way)
    fifo.on_access(0, 0)  # re-hit must NOT move 0 to the back
    assert fifo.victim(0) == 0
    assert fifo.victim(0) == 1  # rotates


def test_random_is_seeded_and_reproducible():
    a = RandomPolicy(1, 8, seed=42)
    b = RandomPolicy(1, 8, seed=42)
    seq_a = [a.victim(0) for _ in range(20)]
    seq_b = [b.victim(0) for _ in range(20)]
    assert seq_a == seq_b
    assert all(0 <= v < 8 for v in seq_a)


def test_random_reset_restarts_stream():
    p = RandomPolicy(1, 8, seed=7)
    first = [p.victim(0) for _ in range(5)]
    p.reset()
    assert [p.victim(0) for _ in range(5)] == first


def test_make_policy_by_name():
    assert isinstance(make_policy("lru", 4, 2), LruPolicy)
    assert isinstance(make_policy("fifo", 4, 2), FifoPolicy)
    assert isinstance(make_policy("random", 4, 2), RandomPolicy)


def test_make_policy_unknown_name():
    with pytest.raises(ValueError, match="unknown replacement policy"):
        make_policy("clock", 4, 2)


def test_sets_are_independent():
    lru = LruPolicy(2, 2)
    lru.on_access(0, 1)
    lru.on_access(1, 0)
    assert lru.victim(0) == 1  # only way 1 known in set 0? most-recent=1 -> victim is stack[0]==1
    # set 1 has its own stack
    assert lru.victim(1) == 0


@st.composite
def lru_trace(draw):
    associativity = draw(st.integers(1, 8))
    accesses = draw(st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, associativity - 1)),
        max_size=80))
    return associativity, accesses


@given(lru_trace())
@settings(max_examples=200, deadline=None)
def test_lru_victims_match_a_list_reference(trace):
    """After every access, each set's victim is the least recently used
    way of a plain list model (most recent last, way 0 when untouched)."""
    associativity, accesses = trace
    lru = LruPolicy(num_sets=3, associativity=associativity)
    reference = {set_index: [] for set_index in range(3)}
    for set_index, way in accesses:
        lru.on_access(set_index, way)
        order = reference[set_index]
        if way in order:
            order.remove(way)
        order.append(way)
        for probe, order in reference.items():
            assert lru.victim(probe) == (order[0] if order else 0)
