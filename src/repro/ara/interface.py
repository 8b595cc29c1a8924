"""Service interface descriptions.

AP service interfaces are fully specified at design time and composed of
**methods**, **events** and **fields** (Section II.A of the paper).  A
:class:`ServiceInterface` is that design-time artifact; proxies,
skeletons and DEAR transactors are generated from it.

Fields expand into up to three elements, as the standard defines: a
``get`` method, a ``set`` method and a change-notification event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.someip.serialization import Struct, TypeSpec

#: Method ids below this bound are user methods; field accessors are
#: allocated downward from the top of the method id space.
_FIELD_METHOD_BASE = 0x7F00
#: Event ids must have the MSB set; field notifiers are allocated from here.
_FIELD_EVENT_BASE = 0xFF00
_EVENT_FLAG = 0x8000


@dataclass(frozen=True)
class Method:
    """One service method: typed arguments and a typed (struct) result."""

    name: str
    method_id: int
    arguments: Sequence[tuple[str, TypeSpec]] = ()
    returns: Sequence[tuple[str, TypeSpec]] = ()
    fire_and_forget: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.method_id < _EVENT_FLAG:
            raise ValueError(
                f"method id 0x{self.method_id:04x} out of range (MSB reserved)"
            )
        if self.fire_and_forget and self.returns:
            raise ValueError(f"fire-and-forget method {self.name!r} cannot return")
        object.__setattr__(
            self, "request_spec", Struct(list(self.arguments), f"{self.name}.req")
        )
        object.__setattr__(
            self, "response_spec", Struct(list(self.returns), f"{self.name}.res")
        )
        # Argument and result field names in wire order, their key sets
        # and the error label, for wrap_payload/unwrap_payload.
        argument_names = [name for name, _ in self.arguments]
        return_names = [name for name, _ in self.returns]
        object.__setattr__(self, "argument_names", argument_names)
        object.__setattr__(self, "argument_keys", frozenset(argument_names))
        object.__setattr__(self, "return_names", return_names)
        object.__setattr__(self, "return_keys", frozenset(return_names))
        object.__setattr__(self, "label", f"method {self.name!r}")


@dataclass(frozen=True)
class Event:
    """One service event: a one-way server-to-client message."""

    name: str
    event_id: int
    data: Sequence[tuple[str, TypeSpec]] = ()

    def __post_init__(self) -> None:
        if not self.event_id & _EVENT_FLAG:
            raise ValueError(
                f"event id 0x{self.event_id:04x} must have the MSB set"
            )
        object.__setattr__(
            self, "data_spec", Struct(list(self.data), f"{self.name}.data")
        )
        # Data field names in wire order, their key set and the error
        # label, for wrap_payload/unwrap_payload.
        data_names = [name for name, _ in self.data]
        object.__setattr__(self, "data_names", data_names)
        object.__setattr__(self, "data_keys", frozenset(data_names))
        object.__setattr__(self, "label", f"event {self.name!r}")


@dataclass(frozen=True)
class Field:
    """A state variable exposed by the server.

    Expands into a get method, a set method and a notifier event, each of
    which can be disabled (a field must have at least a getter or a
    notifier to be observable, which we require).
    """

    name: str
    value_type: TypeSpec
    has_getter: bool = True
    has_setter: bool = True
    has_notifier: bool = True

    def __post_init__(self) -> None:
        if not (self.has_getter or self.has_notifier):
            raise ValueError(f"field {self.name!r} would be write-only")


class ServiceInterface:
    """A complete design-time service description."""

    def __init__(
        self,
        name: str,
        service_id: int,
        major_version: int = 1,
        minor_version: int = 0,
        methods: Sequence[Method] = (),
        events: Sequence[Event] = (),
        fields: Sequence[Field] = (),
    ) -> None:
        if not 0 < service_id < 0xFFFF:
            raise ValueError(f"service id 0x{service_id:04x} out of range")
        self.name = name
        self.service_id = service_id
        self.major_version = major_version
        self.minor_version = minor_version
        self.fields = list(fields)
        self.methods: list[Method] = list(methods)
        self.events: list[Event] = list(events)
        self._field_elements: dict[str, dict[str, Method | Event | None]] = {}
        self._expand_fields()
        self._index()

    def _expand_fields(self) -> None:
        method_id = _FIELD_METHOD_BASE
        event_id = _FIELD_EVENT_BASE
        for field_def in self.fields:
            elements: dict[str, Method | Event | None] = {
                "get": None,
                "set": None,
                "notify": None,
            }
            if field_def.has_getter:
                getter = Method(
                    f"get_{field_def.name}",
                    method_id,
                    arguments=[],
                    returns=[("value", field_def.value_type)],
                )
                self.methods.append(getter)
                elements["get"] = getter
                method_id += 1
            if field_def.has_setter:
                setter = Method(
                    f"set_{field_def.name}",
                    method_id,
                    arguments=[("value", field_def.value_type)],
                    returns=[("value", field_def.value_type)],
                )
                self.methods.append(setter)
                elements["set"] = setter
                method_id += 1
            if field_def.has_notifier:
                notifier = Event(
                    f"{field_def.name}_changed",
                    event_id,
                    data=[("value", field_def.value_type)],
                )
                self.events.append(notifier)
                elements["notify"] = notifier
                event_id += 1
            self._field_elements[field_def.name] = elements

    def _index(self) -> None:
        self._methods_by_name: dict[str, Method] = {}
        self._methods_by_id: dict[int, Method] = {}
        self._events_by_name: dict[str, Event] = {}
        self._events_by_id: dict[int, Event] = {}
        for method in self.methods:
            if method.name in self._methods_by_name:
                raise ValueError(f"duplicate method name {method.name!r}")
            if method.method_id in self._methods_by_id:
                raise ValueError(f"duplicate method id 0x{method.method_id:04x}")
            self._methods_by_name[method.name] = method
            self._methods_by_id[method.method_id] = method
        for event in self.events:
            if event.name in self._events_by_name:
                raise ValueError(f"duplicate event name {event.name!r}")
            if event.event_id in self._events_by_id:
                raise ValueError(f"duplicate event id 0x{event.event_id:04x}")
            self._events_by_name[event.name] = event
            self._events_by_id[event.event_id] = event

    # -- lookup -----------------------------------------------------------

    def method(self, name: str) -> Method:
        """Look up a method by name (includes field accessors)."""
        return self._methods_by_name[name]

    def method_by_id(self, method_id: int) -> Method | None:
        """Look up a method by wire id."""
        return self._methods_by_id.get(method_id)

    def event(self, name: str) -> Event:
        """Look up an event by name (includes field notifiers)."""
        return self._events_by_name[name]

    def event_by_id(self, event_id: int) -> Event | None:
        """Look up an event by wire id."""
        return self._events_by_id.get(event_id)

    def field(self, name: str) -> Field:
        """Look up a field definition by name."""
        for field_def in self.fields:
            if field_def.name == name:
                return field_def
        raise KeyError(name)

    def field_elements(self, name: str) -> dict[str, Method | Event | None]:
        """The expanded get/set/notify elements of a field."""
        return self._field_elements[name]

    def __repr__(self) -> str:
        return (
            f"ServiceInterface({self.name!r}, id=0x{self.service_id:04x}, "
            f"methods={len(self.methods)}, events={len(self.events)}, "
            f"fields={len(self.fields)})"
        )
