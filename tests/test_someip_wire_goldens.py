"""SOME/IP wire goldens: what the binding sends and what it makes of input.

The endpoint runtime (:mod:`repro.someip.runtime`) and the message
framing (:mod:`repro.someip.wire`) are pinned here byte for byte and
error text for error text:

* ``send/*``: every ``socket.send`` a :class:`SomeIpEndpoint` makes for
  a notification, a request, a response and an error reply, untagged,
  trailer-tagged and native-tagged (explicit tag or collected from the
  TX bypass), as ``[host, port, hex bytes, size]``.
* ``parse/*``: the fields :meth:`SomeIpMessage.unpack` returns for
  crafted input, or ``[type(exc).__name__, str(exc)]`` when it rejects
  it.  :func:`repro.someip.wire.parse` must return the same fields.
* ``receive/*``: what a stock and a tag-aware endpoint do with the same
  crafted datagrams: notification handler calls, request and response
  dispatch, replies sent, RX bypass deposits and the malformed count.

To refresh after an *intentional* wire change, run
``PYTHONPATH=src python tests/test_someip_wire_goldens.py --capture``
and explain the change in the commit message.
"""

from __future__ import annotations

import json
import struct
import sys
from pathlib import Path
from typing import Any, Callable

import pytest

from repro.ara import build_world
from repro.errors import MalformedMessageError
from repro.sim.platform import CALM
from repro.someip import MessageType, ReturnCode, SomeIpHeader, SomeIpMessage
from repro.someip.runtime import IncomingRequest, SomeIpEndpoint
from repro.someip.sd import ServiceEntry
from repro.someip.tagging import attach_tag
from repro.time import MS
from repro.time.tag import Tag

GOLDEN_PATH = Path(__file__).parent / "data" / "someip_wire_goldens.json"
FORMAT = "someip-wire-goldens/v1"

_HEADER = struct.Struct(">HHIHHBBBB")
_TAG = Tag(850_000_000, 3)
_OTHER_TAG = Tag(-7, 0xFFFFFFFF)
_PAYLOAD = bytes(range(37))
_SERVICE = 0x0101
_EVENT = 0x8001
_CLIENT = 0x0042


class _StubSd:
    """Just enough of :class:`SdDaemon` for one endpoint, no network."""

    def __init__(self, subscribers: list[tuple[str, int]]) -> None:
        self._subscribers = subscribers

    def offer(self, *args: Any) -> None:
        pass

    def stop_offer(self, *args: Any) -> None:
        pass

    def subscribe(self, *args: Any) -> None:
        pass

    def subscribers(self, *args: Any) -> list[tuple[str, int]]:
        return list(self._subscribers)


def _endpoint(world, host, subscribers=(), **kwargs) -> tuple[SomeIpEndpoint, list]:
    """An endpoint on *host* whose sends are recorded, not transmitted."""
    endpoint = SomeIpEndpoint(
        world.platform(host), _StubSd(list(subscribers)), f"{host}.ep", **kwargs
    )
    endpoint.client_id = _CLIENT
    sent: list = []

    def send(host: str, port: int, data: bytes, size: int) -> None:
        sent.append([host, port, data.hex(), size])

    endpoint.socket.send = send
    return endpoint, sent


def _tag_json(tag: Tag | None):
    return None if tag is None else [tag.time, tag.microstep]


def _world():
    return build_world(0, [("p1", CALM), ("p2", CALM)])


# -- send side ----------------------------------------------------------------

_TWO_SUBSCRIBERS = [("p2", 40001), ("p3", 40002)]


def _send_event(
    tag: Tag | None = None,
    bypass: tuple[Tag, ...] = (),
    subscribers=_TWO_SUBSCRIBERS,
    major: int | None = None,
    before: int = 0,
    **kwargs,
) -> list:
    endpoint, sent = _endpoint(_world(), "p1", subscribers, **kwargs)
    if major is not None:
        endpoint.provide_service(_SERVICE, 1, major, lambda request: None)
    # Sends with no live subscriber still consume a session id.
    endpoint.sd = _StubSd([])
    for _ in range(before):
        endpoint.send_event(_SERVICE, 1, _EVENT, _PAYLOAD)
    endpoint.sd = _StubSd(list(subscribers))
    for bypass_tag in bypass:
        endpoint.tx_bypass.deposit(bypass_tag)
    count = endpoint.send_event(_SERVICE, 1, _EVENT, _PAYLOAD, tag)
    return [count, sent]


def _send_request(
    tag: Tag | None = None, fire_and_forget: bool = False, **kwargs
) -> list:
    endpoint, sent = _endpoint(_world(), "p1", **kwargs)
    entry = ServiceEntry(_SERVICE, 1, 2, "p2", 40100)
    completions: list = []

    def completion(code: ReturnCode, data: bytes, reply_tag: Tag | None) -> None:
        completions.append([code.name, data.hex(), _tag_json(reply_tag)])

    for method_id in (0x0001, 0x0002):
        endpoint.send_request(
            entry,
            method_id,
            _PAYLOAD,
            completion,
            tag=tag,
            fire_and_forget=fire_and_forget,
        )
    return [sent, completions]


def _incoming(endpoint, message_type=MessageType.REQUEST) -> IncomingRequest:
    header = SomeIpHeader(
        service_id=_SERVICE,
        method_id=0x0003,
        client_id=0x0777,
        session_id=0xBEEF,
        interface_version=5,
        message_type=message_type,
    )
    return IncomingRequest(endpoint, header, b"", None, "p2", 40200)


def _reply(tag: Tag | None = None, bypass: tuple[Tag, ...] = (), **kwargs) -> list:
    endpoint, sent = _endpoint(_world(), "p1", **kwargs)
    for bypass_tag in bypass:
        endpoint.tx_bypass.deposit(bypass_tag)
    _incoming(endpoint).reply(_PAYLOAD, tag)
    return sent


def _reply_error(code: ReturnCode, **kwargs) -> list:
    endpoint, sent = _endpoint(_world(), "p1", **kwargs)
    _incoming(endpoint).reply_error(code)
    _incoming(endpoint, MessageType.REQUEST_NO_RETURN).reply_error(code)
    return sent


_TRAILER = {"tag_aware": True, "tag_transport": "trailer"}
_NATIVE = {"tag_aware": True, "tag_transport": "native"}

SEND: dict[str, Callable[[], Any]] = {
    "notification": lambda: _send_event(),
    "notification-no-subscribers": lambda: _send_event(subscribers=[]),
    "notification-session-after-unheard-sends": lambda: _send_event(before=3),
    "notification-session-wraps": lambda: _send_event(before=0xFFFF),
    "notification-offered-major-3": lambda: _send_event(major=3),
    "notification-stock-explicit-tag": lambda: _send_event(tag=_TAG),
    "notification-trailer": lambda: _send_event(tag=_TAG, **_TRAILER),
    "notification-trailer-bypass": lambda: _send_event(
        bypass=(_TAG, _OTHER_TAG), **_TRAILER
    ),
    "notification-trailer-empty-bypass": lambda: _send_event(**_TRAILER),
    "notification-native": lambda: _send_event(tag=_TAG, **_NATIVE),
    "notification-native-bypass": lambda: _send_event(
        bypass=(_TAG, _OTHER_TAG), **_NATIVE
    ),
    "notification-native-stock-endpoint": lambda: _send_event(
        tag=_OTHER_TAG, tag_transport="native"
    ),
    "request": lambda: _send_request(),
    "request-fire-and-forget": lambda: _send_request(fire_and_forget=True),
    "request-trailer": lambda: _send_request(tag=_TAG, **_TRAILER),
    "request-native": lambda: _send_request(tag=_TAG, **_NATIVE),
    "response": lambda: _reply(),
    "response-trailer": lambda: _reply(tag=_TAG, **_TRAILER),
    "response-trailer-bypass": lambda: _reply(bypass=(_OTHER_TAG,), **_TRAILER),
    "response-native": lambda: _reply(tag=_TAG, **_NATIVE),
    "error-not-ok": lambda: _reply_error(ReturnCode.E_NOT_OK),
    "error-malformed-native": lambda: _reply_error(
        ReturnCode.E_MALFORMED_MESSAGE, **_NATIVE
    ),
}


# -- parse side ----------------------------------------------------------------


def _raw(
    message_type: int = 0x02,
    return_code: int = 0x00,
    protocol: int = 0x01,
    payload: bytes = _PAYLOAD,
    length_delta: int = 0,
    client_id: int = 0,
    session_id: int = 9,
    method_id: int = _EVENT,
    interface_version: int = 1,
    service_id: int = _SERVICE,
) -> bytes:
    length = len(payload) + 8 + length_delta
    header = _HEADER.pack(
        service_id,
        method_id,
        length,
        client_id,
        session_id,
        protocol,
        interface_version,
        message_type,
        return_code,
    )
    return header + payload


def _native(payload: bytes = _PAYLOAD, tag: Tag = _TAG, **kwargs) -> bytes:
    return _raw(
        protocol=0x02,
        payload=struct.pack(">qI", tag.time, tag.microstep) + payload,
        **kwargs,
    )


def _fields(message: SomeIpMessage) -> list:
    header = message.header
    tag = message.native_tag
    return [
        header.service_id,
        header.method_id,
        header.client_id,
        header.session_id,
        header.interface_version,
        header.message_type.name,
        header.return_code.name,
        header.protocol_version,
        message.payload.hex(),
        None if tag is None else [tag.time, tag.microstep],
    ]


INPUTS: dict[str, Callable[[], bytes]] = {
    "empty": lambda: b"",
    "truncated-header": lambda: _raw()[:15],
    "header-only-length-8": lambda: _raw(payload=b""),
    "length-too-long": lambda: _raw(length_delta=5),
    "length-too-short": lambda: _raw(length_delta=-1),
    "length-below-overhead": lambda: _raw(payload=b"", length_delta=-8),
    "protocol-0": lambda: _raw(protocol=0x00),
    "protocol-3": lambda: _raw(protocol=0x03),
    "v2-without-tag": lambda: _raw(protocol=0x02, payload=b"\x00" * 11),
    "v2-tag-only": lambda: _native(payload=b""),
    "unknown-message-type": lambda: _raw(message_type=0x42),
    "unknown-return-code": lambda: _raw(return_code=0x77),
    "unknown-type-and-code": lambda: _raw(message_type=0x03, return_code=0x0B),
    "v2-unknown-message-type": lambda: _native(message_type=0x42),
    "notification": lambda: _raw(),
    "notification-trailer": lambda: _raw(payload=attach_tag(_PAYLOAD, _TAG)),
    "notification-trailer-only": lambda: _raw(payload=attach_tag(b"", _TAG)),
    "notification-bad-magic": lambda: _raw(
        payload=b"DEARtag!" + attach_tag(b"", _TAG)[8:]
    ),
    "notification-native": lambda: _native(),
    "notification-native-and-trailer": lambda: _native(
        payload=attach_tag(_PAYLOAD, _OTHER_TAG)
    ),
    "notification-unknown-event": lambda: _raw(method_id=0x8009),
    "request": lambda: _raw(message_type=0x00, client_id=0x0777),
    "request-trailer": lambda: _raw(
        message_type=0x00, client_id=0x0777, payload=attach_tag(_PAYLOAD, _TAG)
    ),
    "request-native-no-return": lambda: _native(message_type=0x01, client_id=0x777),
    "request-wrong-version": lambda: _raw(message_type=0x00, interface_version=2),
    "request-unknown-service": lambda: _raw(message_type=0x00, service_id=0x0202),
    "response": lambda: _raw(message_type=0x80, client_id=_CLIENT, session_id=1),
    "response-native": lambda: _native(
        message_type=0x80, client_id=_CLIENT, session_id=1
    ),
    "response-other-client": lambda: _raw(
        message_type=0x80, client_id=_CLIENT + 1, session_id=1
    ),
    "response-unknown-session": lambda: _raw(
        message_type=0x80, client_id=_CLIENT, session_id=2
    ),
    "error-response": lambda: _raw(
        message_type=0x81,
        return_code=0x03,
        client_id=_CLIENT,
        session_id=1,
        payload=b"",
    ),
}


def _parsed(data: bytes) -> list:
    try:
        return _fields(SomeIpMessage.unpack(data))
    except MalformedMessageError as exc:
        return [type(exc).__name__, str(exc)]


# -- receive side ---------------------------------------------------------------


def _receive(data: bytes, tag_aware: bool) -> dict:
    """Deliver *data* to a fresh endpoint on p1 from a bare socket on p2."""
    world = _world()
    endpoint, sent = _endpoint(world, "p1", tag_aware=tag_aware)
    log: dict[str, list] = {"events": [], "requests": [], "completions": []}
    endpoint.subscribe_event(
        ServiceEntry(_SERVICE, 1, 1, "p2", 40300),
        _EVENT,
        lambda payload, tag: log["events"].append([payload.hex(), _tag_json(tag)]),
    )

    def on_request(request: IncomingRequest) -> None:
        header = request.header
        log["requests"].append(
            [
                header.service_id,
                header.method_id,
                header.client_id,
                header.session_id,
                header.interface_version,
                header.message_type.name,
                header.return_code.name,
                header.protocol_version,
                request.payload.hex(),
                _tag_json(request.tag),
                request.src_host,
                request.fire_and_forget,
            ]
        )

    endpoint.provide_service(_SERVICE, 1, 1, on_request)
    endpoint.send_request(
        ServiceEntry(_SERVICE, 1, 1, "p2", 40300),
        0x0001,
        b"",
        lambda code, payload, tag: log["completions"].append(
            [code.name, payload.hex(), _tag_json(tag)]
        ),
    )
    del sent[:]
    source = world.platform("p2").attachments["nic"].bind()
    source.send("p1", endpoint.port, data, len(data))
    world.run_for(5 * MS)
    log["sent"] = [[h, data_hex] for h, _port, data_hex, _size in sent]
    bypass = endpoint.rx_bypass
    log["rx_bypass"] = [_tag_json(bypass.collect()) for _ in range(len(bypass))]
    log["malformed"] = endpoint.malformed_count
    return log


def _cases() -> dict[str, Callable[[], Any]]:
    cases: dict[str, Callable[[], Any]] = {}
    for name, call in SEND.items():
        cases[f"send/{name}"] = call
    for name, make in INPUTS.items():
        cases[f"parse/{name}"] = lambda m=make: _parsed(m())
        cases[f"receive/stock/{name}"] = lambda m=make: _receive(m(), False)
        cases[f"receive/tag-aware/{name}"] = lambda m=make: _receive(m(), True)
    return cases


CASES = _cases()


def _collect() -> dict[str, Any]:
    return {name: CASES[name]() for name in sorted(CASES)}


def _load_goldens() -> dict[str, Any]:
    with GOLDEN_PATH.open() as fh:
        data = json.load(fh)
    assert data["format"] == FORMAT
    return data["cases"]


def test_every_case_has_a_golden():
    assert sorted(_load_goldens()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_wire_golden(name):
    assert CASES[name]() == _load_goldens()[name]


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_parse_matches_the_unpack_golden(name):
    """``wire.parse`` is the one parser: the same fields, the same errors."""
    # Imported here so the other cases also run against a tree without it.
    from repro.someip.wire import parse

    golden = _load_goldens()[f"parse/{name}"]
    try:
        fields = parse(INPUTS[name]())
    except MalformedMessageError as exc:
        assert golden == [type(exc).__name__, str(exc)]
        return
    *head, message_type, return_code, version, payload, tag = fields
    assert isinstance(message_type, MessageType)
    assert isinstance(return_code, ReturnCode)
    assert type(payload) is bytes
    parsed = [*head, message_type.name, return_code.name, version]
    assert parsed + [payload.hex(), _tag_json(tag)] == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit("usage: python tests/test_someip_wire_goldens.py --capture")
    payload = {"format": FORMAT, "cases": _collect()}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(payload['cases'])} cases to {GOLDEN_PATH}")
