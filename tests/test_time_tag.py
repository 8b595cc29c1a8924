"""Unit tests for superdense time tags."""

import pytest
from hypothesis import given, strategies as st

from repro.time import FOREVER, MS, NEVER, Tag

tags = st.builds(
    Tag,
    st.integers(min_value=0, max_value=10**15),
    st.integers(min_value=0, max_value=1000),
)


class TestOrdering:
    def test_lexicographic(self):
        assert Tag(1, 0) < Tag(2, 0)
        assert Tag(1, 5) < Tag(2, 0)
        assert Tag(1, 0) < Tag(1, 1)

    def test_equality(self):
        assert Tag(5, 2) == Tag(5, 2)
        assert Tag(5, 2) != Tag(5, 3)

    def test_sentinels(self):
        assert NEVER < Tag(0, 0) < FOREVER

    @given(tags, tags)
    def test_total_order(self, a, b):
        assert (a < b) + (a == b) + (a > b) == 1


class TestDelay:
    def test_positive_delay_resets_microstep(self):
        assert Tag(10 * MS, 7).delay(5 * MS) == Tag(15 * MS, 0)

    def test_zero_delay_bumps_microstep(self):
        assert Tag(10, 3).delay(0) == Tag(10, 4)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Tag(0, 0).delay(-1)

    @given(tags, st.integers(min_value=0, max_value=10**12))
    def test_delay_strictly_increases(self, tag, d):
        assert tag.delay(d) > tag

    def test_negative_microstep_rejected(self):
        with pytest.raises(ValueError):
            Tag(0, -1)


class TestAdvance:
    def test_advance_to_later_time(self):
        assert Tag(5, 9).advance_to(8) == Tag(8, 0)

    def test_advance_to_same_time(self):
        assert Tag(5, 9).advance_to(5) == Tag(5, 10)

    def test_advance_backwards_rejected(self):
        with pytest.raises(ValueError):
            Tag(5, 0).advance_to(4)


class TestSerialization:
    @given(tags)
    def test_tuple_roundtrip(self, tag):
        assert Tag.from_tuple(tag.as_tuple()) == tag

    def test_str(self):
        assert str(Tag(50 * MS, 2)) == "(50ms, 2)"


class TestTupleTag:
    """A tag is a tuple ``(time, microstep)`` with its own rendering."""

    def test_repr_and_str(self):
        assert repr(Tag(50 * MS, 2)) == "Tag(time=50000000, microstep=2)"
        assert str(Tag(50 * MS, 2)) == "(50ms, 2)"
        assert repr(Tag(7)) == "Tag(time=7, microstep=0)"

    @given(tags)
    def test_pickle_round_trip(self, tag):
        import copy
        import pickle

        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(tag, protocol))
            assert back == tag and type(back) is Tag
            assert (back.time, back.microstep) == (tag.time, tag.microstep)
        assert type(copy.deepcopy(tag)) is Tag

    @given(tags)
    def test_hash_and_equality_are_the_plain_tuples(self, tag):
        plain = (tag.time, tag.microstep)
        assert hash(tag) == hash(plain)
        assert tag == plain and tag.as_tuple() == plain

    @given(tags, tags)
    def test_order_is_the_plain_tuples(self, a, b):
        assert (a < b) == ((a.time, a.microstep) < (b.time, b.microstep))
        assert NEVER < a < FOREVER

    def test_sentinels_order_against_every_microstep(self):
        assert NEVER < Tag(-(2**62), 1) < Tag(0, 0)
        assert Tag(2**62 - 1, 10**6) < FOREVER < Tag(2**62, 1)
        assert sorted([FOREVER, Tag(3, 1), NEVER, Tag(3, 0)]) == [
            NEVER,
            Tag(3, 0),
            Tag(3, 1),
            FOREVER,
        ]

    def test_fields_cannot_be_assigned(self):
        tag = Tag(5, 1)
        with pytest.raises(AttributeError):
            tag.time = 6
        with pytest.raises(AttributeError):
            tag.microstep = 2
        with pytest.raises(AttributeError):
            tag.extra = 0
        assert tag == Tag(5, 1)

    def test_negative_microstep_rejected_by_keyword(self):
        with pytest.raises(ValueError):
            Tag(time=0, microstep=-1)
        assert Tag(time=3, microstep=1) == Tag(3, 1)
