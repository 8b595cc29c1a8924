"""Service proxies — the client side of Figure 2.

A :class:`ServiceProxy` is "generated" from a :class:`ServiceInterface`
at construction: every interface method becomes a callable attribute
that serializes its arguments, hands the request to the SOME/IP binding
and immediately returns an ``ara::core::Future`` — the non-blocking call
style whose misuse the paper's Figure 1 demonstrates.

Event subscription handlers are, by default, dispatched through the
process's worker pool (middleware threads), so the *order* in which
handlers for different events run is up to the thread scheduler.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.errors import AraError
from repro.ara.future import Future, Promise
from repro.ara.interface import Method, ServiceInterface
from repro.someip.runtime import SomeIpEndpoint
from repro.someip.sd import ServiceEntry
from repro.someip.wire import ReturnCode
from repro.time.tag import Tag


def unwrap_payload(names: list[str], data: dict) -> Any:
    """Collapse a wire struct into a friendly Python value.

    Zero fields -> ``None``; one field -> its bare value; otherwise the
    dict itself.
    """
    if not names:
        return None
    if len(names) == 1:
        return data[names[0]]
    return data


def wrap_payload(names: list[str], keys: frozenset[str], value: Any, what: str) -> dict:
    """Inverse of :func:`unwrap_payload`, with validation.

    *keys* is ``frozenset(names)`` and *what* the error label, both
    precomputed on the spec (``Event.data_keys``/``Event.label``,
    ``Method.argument_keys``/``Method.return_keys``/``Method.label``).
    """
    if not names:
        if value is not None:
            raise AraError(f"{what} takes no data, got {value!r}")
        return {}
    if isinstance(value, dict) and value.keys() == keys:
        return value
    if len(names) == 1:
        return {names[0]: value}
    raise AraError(f"{what} needs fields {names}, got {value!r}")


class MethodCallError(AraError):
    """A method call failed middleware-side (non-OK SOME/IP return code)."""

    def __init__(self, method_name: str, return_code: ReturnCode) -> None:
        super().__init__(f"call to {method_name!r} failed: {return_code.name}")
        self.method_name = method_name
        self.return_code = return_code


class ProxyMethod:
    """A bound, callable proxy method returning a future."""

    def __init__(self, proxy: "ServiceProxy", method: Method) -> None:
        self._proxy = proxy
        self.method = method

    def __call__(
        self, *args: Any, timeout_ns: int | None = None, **kwargs: Any
    ) -> Future:
        method = self.method
        names = method.argument_names
        if args:
            if len(args) > len(names):
                raise AraError(f"too many arguments for {method.name!r}")
            for name, value in zip(names, args):
                if name in kwargs:
                    raise AraError(f"duplicate argument {name!r}")
                kwargs[name] = value
        payload = method.request_spec.to_bytes(kwargs)
        proxy = self._proxy
        promise = Promise(proxy.platform, f"{method.name}.result")

        def completion(code: ReturnCode, data: bytes, _tag: Tag | None) -> None:
            if code is not ReturnCode.E_OK:
                promise.set_error(MethodCallError(method.name, code))
                return
            result = method.response_spec.from_bytes(data)
            promise.set_value(unwrap_payload(method.return_names, result))

        proxy.endpoint.send_request(
            proxy.entry,
            method.method_id,
            payload,
            completion,
            fire_and_forget=method.fire_and_forget,
            timeout_ns=timeout_ns,
        )
        return promise.future

    def __repr__(self) -> str:
        return f"ProxyMethod({self.method.name!r})"


class ProxyField:
    """Client-side accessor for a service field."""

    def __init__(self, proxy: "ServiceProxy", name: str) -> None:
        self._proxy = proxy
        self.name = name
        elements = proxy.interface.field_elements(name)
        self._get = elements["get"]
        self._set = elements["set"]
        self._notify = elements["notify"]

    def get(self) -> Future:
        """Request the current value; returns a future."""
        if self._get is None:
            raise AraError(f"field {self.name!r} has no getter")
        return self._proxy.call(self._get.name)

    def set(self, value: Any) -> Future:
        """Request a value change; the future resolves to the new value."""
        if self._set is None:
            raise AraError(f"field {self.name!r} has no setter")
        return self._proxy.call(self._set.name, value=value)

    def subscribe(self, handler: Callable, via_pool: bool = True) -> None:
        """Subscribe to change notifications."""
        if self._notify is None:
            raise AraError(f"field {self.name!r} has no notifier")
        self._proxy.subscribe(self._notify.name, handler, via_pool=via_pool)


class ServiceProxy:
    """The client's view of one remote service instance."""

    def __init__(
        self,
        process: "AraProcess",  # noqa: F821 - circular type, see ara.process
        interface: ServiceInterface,
        entry: ServiceEntry,
    ) -> None:
        if entry.service_id != interface.service_id:
            raise AraError(
                f"entry service 0x{entry.service_id:04x} does not match "
                f"interface 0x{interface.service_id:04x}"
            )
        if entry.major_version != interface.major_version:
            raise AraError(
                f"major version mismatch: offered {entry.major_version}, "
                f"interface wants {interface.major_version}"
            )
        self.process = process
        self.interface = interface
        self.entry = entry
        self._methods: dict[str, ProxyMethod] = {}
        for method in interface.methods:
            bound = ProxyMethod(self, method)
            self._methods[method.name] = bound
            if not hasattr(self, method.name):
                setattr(self, method.name, bound)

    # -- plumbing ------------------------------------------------------------

    @property
    def platform(self):
        """The platform the owning process runs on."""
        return self.process.platform

    @property
    def endpoint(self) -> SomeIpEndpoint:
        """The owning process's SOME/IP endpoint."""
        return self.process.endpoint

    # -- methods ----------------------------------------------------------------

    def call(self, method_name: str, *args: Any, **kwargs: Any) -> Future:
        """Invoke a method by name (explicit form of the attribute call)."""
        return self._methods[method_name](*args, **kwargs)

    def method(self, method_name: str) -> ProxyMethod:
        """The bound proxy method object for *method_name*."""
        return self._methods[method_name]

    # -- events ------------------------------------------------------------------

    def subscribe(
        self, event_name: str, handler: Callable, via_pool: bool = True
    ) -> None:
        """Subscribe to an event.

        With ``via_pool`` (the default, matching AP), *handler* runs on a
        middleware worker thread and may be a plain function or a
        generator function (simulated work).  With ``via_pool=False`` the
        handler runs synchronously in the receive path (kernel context)
        and must not block — this is what DEAR transactors use.
        """
        event = self.interface.event(event_name)
        names = event.data_names
        process = self.process

        def on_notification(payload: bytes, _tag: Tag | None) -> None:
            data = event.data_spec.from_bytes(payload)
            value = unwrap_payload(names, data)
            if via_pool:
                process.pool.submit(lambda: _as_generator(handler, value))
            else:
                handler(value)

        self.endpoint.subscribe_event(self.entry, event.event_id, on_notification)

    def subscribe_raw(
        self, event_name: str, handler: Callable[[dict, Tag | None], None]
    ) -> None:
        """Subscribe with a kernel-context handler that also receives the tag.

        Used by DEAR's client event transactor, which needs the tag that
        the modified binding extracted from the notification.
        """
        event = self.interface.event(event_name)

        def on_notification(payload: bytes, tag: Tag | None) -> None:
            handler(event.data_spec.from_bytes(payload), tag)

        self.endpoint.subscribe_event(self.entry, event.event_id, on_notification)

    # -- fields ---------------------------------------------------------------------

    def field(self, name: str) -> ProxyField:
        """Accessor for field *name*."""
        return ProxyField(self, name)

    def __repr__(self) -> str:
        return (
            f"ServiceProxy({self.interface.name!r} @ "
            f"{self.entry.host}:{self.entry.port})"
        )


def _as_generator(handler: Callable, value: Any) -> Generator[Any, Any, None]:
    """Run *handler(value)*, supporting plain and generator functions."""
    result = handler(value)
    if result is not None and hasattr(result, "__next__"):
        yield from result
