"""DEAR — Discrete Events for AUTOSAR (the paper's contribution).

DEAR composes deterministic SWCs out of reactors while keeping the
standard AP service interfaces: special reactors called **transactors**
translate between reactor ports and proxies/skeletons, a **timestamp
bypass** smuggles tags past the standard API into the (modified)
SOME/IP binding, and PTIDES-style **safe-to-process** delays
(``t + D + L + E``) preserve tag-order processing across the network
(Section III of the paper).

The four transactors of Figure 3:

* :class:`~repro.dear.method_client.ClientMethodTransactor`
* :class:`~repro.dear.method_server.ServerMethodTransactor`
* :class:`~repro.dear.event_client.ClientEventTransactor`  (subscriber)
* :class:`~repro.dear.event_server.ServerEventTransactor`  (publisher)

Fields combine one event transactor and two method transactors
(:mod:`repro.dear.fields`), and :mod:`repro.dear.codegen` generates the
full transactor set for a service interface — the paper's "can be
automatically generated" claim.
"""

from repro._lazy import lazy_exports
from repro.dear.stp import (
    DeadlineFault,
    LatePolicy,
    StpConfig,
    TransactorConfig,
    UntaggedPolicy,
)

#: The transactors load on first access (:mod:`repro._lazy`): a stock
#: run needs only the STP configuration types above.
_EXPORTS = {
    "Transactor": "transactor",
    "ClientMethodTransactor": "method_client",
    "MethodReply": "method_client",
    "ServerMethodTransactor": "method_server",
    "MethodCall": "method_server",
    "MethodReturn": "method_server",
    "ClientEventTransactor": "event_client",
    "ServerEventTransactor": "event_server",
    "ClientFieldTransactors": "fields",
    "ServerFieldTransactors": "fields",
    "generate_client_transactors": "codegen",
    "generate_server_transactors": "codegen",
}

__all__ = [
    "DeadlineFault",
    "LatePolicy",
    "StpConfig",
    "TransactorConfig",
    "UntaggedPolicy",
    *_EXPORTS,
]

__getattr__ = lazy_exports(__name__, _EXPORTS)
