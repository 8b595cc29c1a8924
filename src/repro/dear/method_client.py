"""The client method transactor (Figure 3, left).

Bridges a reactor-side method invocation onto a regular service proxy:

* an event with tag ``tc`` on the ``request`` input port triggers the
  sending reaction (deadline ``Dc``), which deposits ``tc + Dc`` in the
  TX timestamp bypass (step 2) and invokes the proxy method (step 3);
* when the response arrives, the modified binding deposits its tag into
  the RX bypass (step 18); the transactor's completion hook collects it
  (step 21) and schedules the arrival action at ``ts + Ds + L + E``
  (step 20 with the safe-to-process offset), whose reaction finally
  produces the result on the ``response`` output port (step 22).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.ara.proxy import ServiceProxy, wrap_payload
from repro.dear.stp import TransactorConfig
from repro.dear.transactor import Transactor
from repro.reactors.base import Reactor
from repro.reactors.environment import Environment


@dataclass(frozen=True, slots=True)
class MethodReply:
    """The value delivered on the ``response`` port."""

    value: Any = None
    error: BaseException | None = None

    @property
    def ok(self) -> bool:
        """Whether the call succeeded."""
        return self.error is None


class ClientMethodTransactor(Transactor):
    """Interacts with one method of a service interface, as a client."""

    def __init__(
        self,
        name: str,
        owner: Environment | Reactor,
        process,
        proxy: ServiceProxy,
        method_name: str,
        config: TransactorConfig,
    ) -> None:
        super().__init__(name, owner, process, config)
        self.proxy = proxy
        self.method = proxy.interface.method(method_name)
        #: Reactor-side call trigger: set this port to invoke the method.
        self.request = self.input("request")
        #: Reactor-side result: a :class:`MethodReply` appears here.
        self.response = self.output("response")
        self._reply_action = self.physical_action("reply_arrival")
        self.reaction(
            "send",
            triggers=[self.request],
            body=self._send_body,
            deadline=self._sending_deadline(),
        )
        self.reaction(
            "deliver",
            triggers=[self._reply_action],
            effects=[self.response],
            body=self._deliver_reply,
        )

    # -- sending (reactor -> middleware) ------------------------------------

    def _send_body(self, ctx, late: bool = False) -> None:
        tag_out = self._outgoing_tag(ctx, late)
        arguments = wrap_payload(
            self.method.argument_names,
            self.method.argument_keys,
            self.request.get(),
            self.method.label,
        )
        # Step (2): tag into the bypass; steps (3)-(5): the proxy call,
        # during which the modified binding collects and attaches the tag.
        self.process.endpoint.tx_bypass.deposit(tag_out)
        future = self.proxy.call(self.method.name, **arguments)
        if not self.method.fire_and_forget:
            # Fire-and-forget methods have no response message, hence no
            # arrival event; everything else loops back via _on_reply.
            future.then(self._on_reply)

    # -- receiving (middleware -> reactor) -------------------------------------

    def _on_reply(self, future) -> None:
        """Kernel context, synchronously after the binding's RX deposit."""
        tag = self.process.endpoint.rx_bypass.collect()  # step (21)
        try:
            reply = MethodReply(value=future.result())
        except BaseException as error:  # noqa: BLE001 - forwarded, not hidden
            reply = MethodReply(error=error)
        self._deliver(self._reply_action, reply, tag)

    def _deliver_reply(self, ctx) -> None:
        ctx.set(self.response, ctx.get(self._reply_action))
