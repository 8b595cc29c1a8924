"""Service skeletons — the server side of Figure 2.

A :class:`ServiceSkeleton` is generated from a :class:`ServiceInterface`
and dispatches incoming method calls to the application's
implementations according to its *method-call processing mode* (from the
communication-management specification):

* ``EVENT`` (the AP default): every invocation becomes a job on the
  middleware worker pool — "the runtime maps each invocation to a
  different thread", the behaviour behind the paper's Figure 1;
* ``EVENT_SINGLE_THREAD``: invocations are serialized on one dedicated
  thread (mutual exclusion, but *arrival order* still decides execution
  order, so cross-client nondeterminism remains);
* ``POLL``: the application thread explicitly pumps
  :meth:`ServiceSkeleton.process_next_method_call`.

Implementations may be plain functions, generator functions (simulated
work), or may return an ``ara::core::Future`` to resolve later — the
"non-blocking fashion" the paper's server example uses.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Generator

from repro.errors import AraError
from repro.ara.future import Future
from repro.ara.interface import Method, ServiceInterface
from repro.ara.pool import DispatchPool
from repro.ara.proxy import wrap_payload
from repro.obs import context as obs_context
from repro.obs.flows import LAYER_SOMEIP, flow_id_of
from repro.someip.runtime import IncomingRequest, SomeIpEndpoint
from repro.someip.wire import ReturnCode
from repro.time.tag import Tag


class MethodCallProcessingMode(enum.Enum):
    """How incoming method calls are mapped to execution contexts."""

    EVENT = "event"
    EVENT_SINGLE_THREAD = "event-single-thread"
    POLL = "poll"


class ServiceSkeleton:
    """The server's communication endpoint for one service instance."""

    def __init__(
        self,
        process: "AraProcess",  # noqa: F821 - circular type, see ara.process
        interface: ServiceInterface,
        instance_id: int,
        processing_mode: MethodCallProcessingMode = MethodCallProcessingMode.EVENT,
        field_defaults: dict[str, Any] | None = None,
    ) -> None:
        self.process = process
        self.interface = interface
        self.instance_id = instance_id
        self.processing_mode = processing_mode
        self._impls: dict[str, Callable] = {}
        self._request_interceptor: Callable[[IncomingRequest], bool] | None = None
        self._offered = False
        self._poll_queue = process.platform.queue(
            f"{interface.name}.poll", overflow="error"
        )
        self._serial_pool: DispatchPool | None = None
        if processing_mode is MethodCallProcessingMode.EVENT_SINGLE_THREAD:
            self._serial_pool = DispatchPool(
                process.platform, f"{process.name}.{interface.name}.serial", workers=1
            )
        self._field_values: dict[str, Any] = dict(field_defaults or {})
        self._install_field_impls()

    # -- implementation registration --------------------------------------------

    def implement(self, method_name: str, impl: Callable) -> None:
        """Provide the implementation for *method_name*.

        *impl* receives the request arguments as keyword arguments and
        returns the result (value, dict, ``Future``), or is a generator
        function whose return value is the result.
        """
        self.interface.method(method_name)  # validates the name
        self._impls[method_name] = impl

    def intercept_requests(
        self, interceptor: Callable[[IncomingRequest], bool]
    ) -> None:
        """Install a raw request hook (kernel context).

        The interceptor sees every incoming request *before* normal
        dispatch and returns ``True`` to consume it.  DEAR's server
        method transactor uses this to take over method handling while
        the skeleton still owns the service registration.
        """
        self._request_interceptor = interceptor

    def _install_field_impls(self) -> None:
        for field_def in self.interface.fields:
            elements = self.interface.field_elements(field_def.name)
            if elements["get"] is not None:
                self._impls.setdefault(
                    elements["get"].name,
                    lambda name=field_def.name: self._field_values.get(name),
                )
            if elements["set"] is not None:
                self._impls.setdefault(
                    elements["set"].name,
                    lambda value, name=field_def.name: self._apply_field(name, value),
                )

    def _apply_field(self, name: str, value: Any) -> Any:
        self.update_field(name, value)
        return value

    # -- offering ----------------------------------------------------------------

    def offer(self) -> None:
        """Validate implementations and offer the service via SD."""
        missing = [
            method.name
            for method in self.interface.methods
            if method.name not in self._impls
        ]
        if missing and self._request_interceptor is None:
            raise AraError(
                f"skeleton for {self.interface.name!r} lacks implementations "
                f"for: {', '.join(sorted(missing))}"
            )
        self.endpoint.provide_service(
            self.interface.service_id,
            self.instance_id,
            self.interface.major_version,
            self._on_request,
        )
        self._offered = True

    def stop_offer(self) -> None:
        """Withdraw the service offer."""
        if self._offered:
            self.endpoint.withdraw_service(self.interface.service_id)
            self._offered = False

    @property
    def endpoint(self) -> SomeIpEndpoint:
        """The owning process's SOME/IP endpoint."""
        return self.process.endpoint

    # -- events and fields -----------------------------------------------------------

    def send_event(
        self, event_name: str, data: Any = None, tag: Tag | None = None
    ) -> int:
        """Publish an event to all subscribers; returns the receiver count."""
        event = self.interface.event(event_name)
        o = obs_context.ACTIVE
        flows = o.flows if o.enabled else None
        swapped = False
        previous = None
        if flows is not None:
            # Reaction bodies publish from worker/reactor context where
            # no current flow is set; the wire dict self-correlates via
            # its frame sequence, re-establishing the flow for the
            # synchronous serialize -> switch chain below.
            flow = flow_id_of(data)
            if flow is not None and flows.known(flow):
                previous = flows.swap_current(flow)
                swapped = True
                flows.hop(
                    flow,
                    LAYER_SOMEIP,
                    f"tx {event_name}",
                    self.process.platform.sim.now,
                )
        try:
            payload = event.data_spec.to_bytes(
                wrap_payload(event.data_names, event.data_keys, data, event.label)
            )
            return self.endpoint.send_event(
                self.interface.service_id,
                self.instance_id,
                event.event_id,
                payload,
                tag,
            )
        finally:
            if swapped:
                flows.restore_current(previous)

    def update_field(self, name: str, value: Any) -> None:
        """Set a field value and send its change notification."""
        self.interface.field(name)  # validates
        self._field_values[name] = value
        notifier = self.interface.field_elements(name)["notify"]
        if notifier is not None:
            self.send_event(notifier.name, value)

    def field_value(self, name: str) -> Any:
        """Current value of field *name*."""
        return self._field_values.get(name)

    # -- request dispatch --------------------------------------------------------------

    def _on_request(self, request: IncomingRequest) -> None:
        """Kernel context: route one incoming invocation."""
        if self._request_interceptor is not None:
            if self._request_interceptor(request):
                return
        method = self.interface.method_by_id(request.header.method_id)
        if method is None:
            request.reply_error(ReturnCode.E_UNKNOWN_METHOD)
            return
        impl = self._impls.get(method.name)
        if impl is None:
            request.reply_error(ReturnCode.E_NOT_OK)
            return
        job = self._make_job(method, impl, request)
        if self.processing_mode is MethodCallProcessingMode.EVENT:
            self.process.pool.submit(job)
        elif self.processing_mode is MethodCallProcessingMode.EVENT_SINGLE_THREAD:
            self._serial_pool.submit(job)
        else:
            self._poll_queue.post(job)

    def _make_job(
        self, method: Method, impl: Callable, request: IncomingRequest
    ) -> Callable[[], Generator[Any, Any, None]]:
        def job() -> Generator[Any, Any, None]:
            try:
                kwargs = method.request_spec.from_bytes(request.payload)
            except Exception:
                request.reply_error(ReturnCode.E_MALFORMED_MESSAGE)
                return
            try:
                result = impl(**kwargs)
                if result is not None and hasattr(result, "__next__"):
                    result = yield from result
                if isinstance(result, Future):
                    result = yield from result.get()
            except Exception:
                request.reply_error(ReturnCode.E_NOT_OK)
                return
            payload = method.response_spec.to_bytes(
                wrap_payload(
                    method.return_names, method.return_keys, result, method.label
                )
            )
            request.reply(payload)

        return job

    # -- poll mode ---------------------------------------------------------------------

    def process_next_method_call(self) -> Generator[Any, Any, bool]:
        """Thread context (POLL mode): run one queued invocation.

        Returns ``True`` if a call was processed, ``False`` if the queue
        was empty.
        """
        if self.processing_mode is not MethodCallProcessingMode.POLL:
            raise AraError("process_next_method_call requires POLL mode")
        job = yield from self._poll_queue.try_get()
        if job is None:
            return False
        yield from job()
        return True

    def __repr__(self) -> str:
        return (
            f"ServiceSkeleton({self.interface.name!r}, instance={self.instance_id}, "
            f"mode={self.processing_mode.value})"
        )
