"""The server method transactor (Figure 3, right).

Bridges incoming method invocations into the server's reactor network:

* the modified binding extracts the tag of an incoming request and
  deposits it in the RX bypass (step 7); the transactor's interceptor
  (the "interrupt" of step 9) collects it (step 10) and schedules the
  arrival action at ``tc + Dc + L + E``;
* the arrival reaction forwards a :class:`MethodCall` on the
  ``request_out`` port to the server-logic reactor (step 11);
* the logic eventually produces a reply on the ``response_in`` port
  (step 12); the sending reaction (deadline ``Ds``) deposits
  ``ts + Ds`` in the TX bypass and returns the value through the
  skeleton (steps 13-17).

Several transactors can serve methods of the same skeleton; a shared
router installed as the skeleton's request interceptor dispatches by
method id (methods without a transactor fall through to the skeleton's
normal processing mode).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.ara.proxy import unwrap_payload, wrap_payload
from repro.ara.skeleton import ServiceSkeleton
from repro.dear.stp import TransactorConfig
from repro.dear.transactor import Transactor
from repro.errors import DearError
from repro.reactors.base import Reactor
from repro.reactors.environment import Environment
from repro.someip.runtime import IncomingRequest


@dataclass(frozen=True, slots=True)
class MethodCall:
    """The value forwarded to the server logic for one invocation."""

    call_id: int
    arguments: Any


@dataclass(frozen=True, slots=True)
class MethodReturn:
    """Optional explicit-correlation reply value for ``response_in``.

    Plain (non-``MethodReturn``) values on ``response_in`` reply to the
    oldest outstanding call (FIFO correlation).
    """

    call_id: int
    value: Any = None


class _DearRequestRouter:
    """Routes intercepted skeleton requests to per-method transactors."""

    def __init__(self, skeleton: ServiceSkeleton) -> None:
        self._by_method_id: dict[int, "ServerMethodTransactor"] = {}
        skeleton.intercept_requests(self)

    def register(self, method_id: int, transactor: "ServerMethodTransactor") -> None:
        if method_id in self._by_method_id:
            raise DearError(
                f"method id 0x{method_id:04x} already has a transactor"
            )
        self._by_method_id[method_id] = transactor

    def __call__(self, request: IncomingRequest) -> bool:
        transactor = self._by_method_id.get(request.header.method_id)
        if transactor is None:
            return False
        transactor._on_request(request)
        return True


def _router_for(skeleton: ServiceSkeleton) -> _DearRequestRouter:
    router = getattr(skeleton, "_dear_router", None)
    if router is None:
        router = _DearRequestRouter(skeleton)
        skeleton._dear_router = router
    return router


class ServerMethodTransactor(Transactor):
    """Interacts with one method of a service interface, as the server."""

    def __init__(
        self,
        name: str,
        owner: Environment | Reactor,
        process,
        skeleton: ServiceSkeleton,
        method_name: str,
        config: TransactorConfig,
    ) -> None:
        super().__init__(name, owner, process, config)
        self.skeleton = skeleton
        self.method = skeleton.interface.method(method_name)
        #: Forwards :class:`MethodCall` values to the server logic.
        self.request_out = self.output("request_out")
        #: The server logic's replies enter here.
        self.response_in = self.input("response_in")
        self._arrival_action = self.physical_action("request_arrival")
        self._pending: dict[int, IncomingRequest] = {}
        self._pending_order: list[int] = []
        self._next_call_id = 1
        _router_for(skeleton).register(self.method.method_id, self)
        self.reaction(
            "forward",
            triggers=[self._arrival_action],
            effects=[self.request_out],
            body=self._forward,
        )
        self.reaction(
            "reply",
            triggers=[self.response_in],
            body=self._send_body,
            deadline=self._sending_deadline(),
        )

    # -- receiving (middleware -> reactor) ------------------------------------

    def _on_request(self, request: IncomingRequest) -> None:
        """Kernel context: the 'interrupt' of Figure 3, step (9)."""
        bypass_tag = self.process.endpoint.rx_bypass.collect()  # step (10)
        tag = request.tag if request.tag is not None else bypass_tag
        arguments = unwrap_payload(
            self.method.argument_names,
            self.method.request_spec.from_bytes(request.payload),
        )
        call_id = self._next_call_id
        self._next_call_id += 1
        if not request.fire_and_forget:
            # Fire-and-forget calls expect no reply, so nothing to track.
            self._pending[call_id] = request
            self._pending_order.append(call_id)
        self._deliver(self._arrival_action, MethodCall(call_id, arguments), tag)

    def _forward(self, ctx) -> None:
        ctx.set(self.request_out, ctx.get(self._arrival_action))

    # -- sending the reply (reactor -> middleware) ---------------------------------

    def _send_body(self, ctx, late: bool = False) -> None:
        value = self.response_in.get()
        if isinstance(value, MethodReturn):
            call_id, result = value.call_id, value.value
        else:
            if not self._pending_order:
                raise DearError(
                    f"{self.fqn}: reply produced with no outstanding call"
                )
            call_id, result = self._pending_order[0], value
        request = self._pending.pop(call_id, None)
        if request is None:
            raise DearError(f"{self.fqn}: unknown call id {call_id}")
        self._pending_order.remove(call_id)
        tag_out = self._outgoing_tag(ctx, late)
        payload = self.method.response_spec.to_bytes(
            wrap_payload(
                self.method.return_names,
                self.method.return_keys,
                result,
                self.method.label,
            )
        )
        # Steps (13)-(17): tag via the bypass path (reply carries it
        # explicitly through the binding), response over the network.
        request.reply(payload, tag=tag_out)
