"""The client event transactor (subscriber side).

Subscribes to an AP event and forwards each notification into the
reactor network at its safe-to-process tag.  With the
``PHYSICAL_TIME`` untagged policy it doubles as the paper's
backward-compatibility mechanism: notifications from non-DEAR
publishers are treated like sporadic sensor readings and tagged with
their physical arrival time.
"""

from __future__ import annotations

from repro.ara.proxy import ServiceProxy, unwrap_payload
from repro.dear.stp import TransactorConfig
from repro.dear.transactor import Transactor
from repro.reactors.base import Reactor
from repro.reactors.environment import Environment
from repro.time.tag import Tag


class ClientEventTransactor(Transactor):
    """Receives one AP event for the reactor network."""

    def __init__(
        self,
        name: str,
        owner: Environment | Reactor,
        process,
        proxy: ServiceProxy,
        event_name: str,
        config: TransactorConfig,
    ) -> None:
        super().__init__(name, owner, process, config)
        self.proxy = proxy
        self.event = proxy.interface.event(event_name)
        #: Event data appears here, in tag order.
        self.out = self.output("out")
        self._arrival_action = self.physical_action("event_arrival")
        self.received = 0
        proxy.subscribe_raw(event_name, self._on_notification)
        self.reaction(
            "deliver",
            triggers=[self._arrival_action],
            effects=[self.out],
            body=self._deliver_event,
        )

    def _on_notification(self, data: dict, tag: Tag | None) -> None:
        """Kernel context: one notification from the modified binding."""
        # Drain the RX bypass (the binding deposited the same tag there).
        bypass_tag = self.process.endpoint.rx_bypass.collect()
        if tag is None:
            tag = bypass_tag
        self.received += 1
        value = unwrap_payload(self.event.data_names, data)
        self._deliver(self._arrival_action, value, tag)

    def _deliver_event(self, ctx) -> None:
        ctx.set(self.out, ctx.get(self._arrival_action))
