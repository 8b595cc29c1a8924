"""Unit tests for the tagged-message extension and timestamp bypass."""

import pytest
from hypothesis import given, strategies as st

from repro.someip import SomeIpEndpoint, TimestampBypass, attach_tag, extract_tag
from repro.someip.sd import ServiceEntry
from repro.time import MS, Tag

from tests.conftest import build_ap_world


class TestTrailer:
    def test_roundtrip(self):
        payload, tag = extract_tag(attach_tag(b"hello", Tag(50 * MS, 3)))
        assert payload == b"hello"
        assert tag == Tag(50 * MS, 3)

    def test_untagged_passthrough(self):
        payload, tag = extract_tag(b"plain old payload")
        assert payload == b"plain old payload"
        assert tag is None

    def test_short_payload_untagged(self):
        payload, tag = extract_tag(b"tiny")
        assert payload == b"tiny"
        assert tag is None

    def test_empty_payload_tagged(self):
        payload, tag = extract_tag(attach_tag(b"", Tag(0, 0)))
        assert payload == b""
        assert tag == Tag(0, 0)

    @given(
        st.binary(max_size=300),
        st.integers(min_value=0, max_value=10**15),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_roundtrip_property(self, payload, time, microstep):
        tag = Tag(time, microstep)
        recovered_payload, recovered_tag = extract_tag(attach_tag(payload, tag))
        assert recovered_payload == payload
        assert recovered_tag == tag

    def test_stock_receiver_sees_longer_payload(self):
        """The trailer only appends bytes: a SOME/IP stack without the
        extension sees the payload followed by 20 opaque bytes — the
        standard-compatibility property the paper relies on.  (This
        binding's own endpoints strip a valid trailer whether or not
        they are tag-aware; see :class:`TestStockEndpointReceivesTaggedEvent`.)
        """
        tagged = attach_tag(b"data", Tag(1, 0))
        assert tagged.startswith(b"data")
        assert len(tagged) == len(b"data") + 20


class TestStockEndpointReceivesTaggedEvent:
    """Every endpoint strips a valid tag and hands it to the handler; only
    a tag-aware endpoint also deposits it in its RX bypass."""

    @pytest.mark.parametrize("tag_aware", [False, True], ids=["stock", "tag-aware"])
    @pytest.mark.parametrize("transport", ["trailer", "native"])
    def test_tag_reaches_handler_bypass_only_if_aware(self, transport, tag_aware):
        world = build_ap_world()
        p1, p2 = world.platform("p1"), world.platform("p2")
        sender = SomeIpEndpoint(
            p1, p1.attachments["sd"], "sender", tag_aware=True, tag_transport=transport
        )
        sender.provide_service(0x6100, 1, 1, lambda request: None)
        receiver = SomeIpEndpoint(
            p2, p2.attachments["sd"], "receiver", tag_aware=tag_aware
        )
        received = []
        receiver.subscribe_event(
            ServiceEntry(0x6100, 1, 1, "p1", sender.port),
            0x8001,
            lambda payload, tag: received.append((payload, tag)),
        )
        world.run_for(50 * MS)
        tag = Tag(7 * MS, 2)
        assert sender.send_event(0x6100, 1, 0x8001, b"frame", tag) == 1
        world.run_for(10 * MS)
        assert received == [(b"frame", tag)]
        assert receiver.malformed_count == 0
        if tag_aware:
            assert receiver.rx_bypass.collect() == tag
        assert len(receiver.rx_bypass) == 0


class TestBypass:
    def test_fifo_order(self):
        bypass = TimestampBypass()
        bypass.deposit(Tag(1, 0))
        bypass.deposit(Tag(2, 0))
        assert bypass.collect() == Tag(1, 0)
        assert bypass.collect() == Tag(2, 0)

    def test_empty_collect_returns_none(self):
        assert TimestampBypass().collect() is None

    def test_len(self):
        bypass = TimestampBypass()
        assert len(bypass) == 0
        bypass.deposit(Tag(0, 0))
        assert len(bypass) == 1
        bypass.collect()
        assert len(bypass) == 0
