"""Unit tests for hierarchical RNG streams and draw-identical decisions."""

import random

from hypothesis import given, settings, strategies as st

from repro.apps.brake.scenario import StageTiming
from repro.sim import RngTree
from tests.draw_equivalence import (
    OPS,
    check_draws,
    check_empty_ranges,
    main as check_all_edges,
)

#: Range sizes: anything up to 2**70, weighted towards the rejection
#: loop's edges (1, powers of two and their neighbours).
sizes = st.one_of(
    st.integers(min_value=1, max_value=2**70),
    st.integers(min_value=0, max_value=70).flatmap(
        lambda k: st.sampled_from([max(1, 2**k - 1), 2**k, 2**k + 1])
    ),
)


class TestStreams:
    def test_same_name_same_stream_object(self):
        tree = RngTree(1)
        assert tree.stream("a") is tree.stream("a")

    def test_different_names_independent(self):
        tree = RngTree(1)
        a = [tree.stream("a").random() for _ in range(5)]
        b = [tree.stream("b").random() for _ in range(5)]
        assert a != b

    def test_same_seed_reproducible(self):
        first = [RngTree(7).stream("x").random() for _ in range(3)]
        second = [RngTree(7).stream("x").random() for _ in range(3)]
        assert first == second

    def test_different_seeds_differ(self):
        a = RngTree(1).stream("x").random()
        b = RngTree(2).stream("x").random()
        assert a != b

    def test_stream_isolation_from_creation_order(self):
        """Creating extra streams must not perturb existing ones."""
        tree1 = RngTree(3)
        value1 = tree1.stream("target").random()

        tree2 = RngTree(3)
        tree2.stream("other1").random()
        tree2.stream("other2").random()
        value2 = tree2.stream("target").random()
        assert value1 == value2


class TestChildTrees:
    def test_child_is_namespaced(self):
        tree = RngTree(5)
        child_a = tree.child("a")
        child_b = tree.child("b")
        assert child_a.seed != child_b.seed
        assert child_a.stream("s").random() != child_b.stream("s").random()

    def test_child_reproducible(self):
        assert RngTree(5).child("p").seed == RngTree(5).child("p").seed

    def test_repr_contains_seed(self):
        assert "seed=9" in repr(RngTree(9))


class TestDrawEquivalence:
    """``randbelow`` and the decision source draw exactly like randrange."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        ops=st.lists(st.tuples(st.sampled_from(OPS), sizes), max_size=40),
    )
    def test_interleaved_draws_match_random(self, seed, ops):
        check_draws(seed, ops)

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        low=st.integers(min_value=0, max_value=2**40),
        width=sizes,
    )
    def test_stage_timing_draws_like_randint(self, seed, low, width):
        reference = random.Random(seed)
        helper = random.Random(seed)
        timing = StageTiming(low, low + width - 1)
        assert timing.sample(helper) == reference.randint(low, low + width - 1)
        assert helper.getstate() == reference.getstate()

    def test_edge_sizes_in_every_operation(self):
        assert check_all_edges(seeds=20, length=40) == 0

    def test_empty_ranges_raise_without_drawing(self):
        check_empty_ranges()
