"""Exception hierarchy for the ``repro`` library.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can distinguish library failures from programming errors in user
code.  A few exceptions double as *observable error events* in the sense of
the paper: for instance :class:`DeadlineViolation` is what the reactor
runtime raises (or reports to a handler) when a reaction is invoked after
physical time exceeded ``tag + deadline``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SimulationError(ReproError):
    """The discrete-event simulation kernel detected an inconsistency."""


class DeadlockError(SimulationError):
    """No runnable process remains although processes are still blocked."""


class NetworkError(ReproError):
    """A network-substrate failure (unknown address, closed endpoint...)."""


class SomeIpError(ReproError):
    """A SOME/IP protocol failure."""


class MalformedMessageError(SomeIpError):
    """A SOME/IP message could not be parsed."""


class SerializationError(SomeIpError):
    """A payload could not be serialized or deserialized."""


class AraError(ReproError):
    """An error in the ARA (Runtime for Adaptive Applications) layer."""


class ServiceNotAvailableError(AraError):
    """``FindService`` could not locate a matching service instance."""


class FutureError(AraError):
    """Misuse of an ``ara.core`` future or promise."""


class ReactorError(ReproError):
    """An error in the reactor runtime."""


class AssemblyError(ReactorError):
    """The reactor program is ill-formed (bad connection, cycle...)."""


class CausalityError(AssemblyError):
    """The reaction graph contains a zero-delay cycle."""


class SchedulingError(ReactorError):
    """An event or action was scheduled in an invalid way."""


class DeadlineViolation(ReactorError):
    """A reaction started after physical time exceeded ``tag + deadline``.

    In the reactor model this is an *observable error* rather than silent
    misbehaviour; the runtime invokes the deadline handler if one is
    registered and raises this exception otherwise.
    """

    def __init__(self, reaction_name: str, lag_ns: int) -> None:
        super().__init__(
            f"deadline violated for reaction {reaction_name!r}: "
            f"physical time lagged the tag by {lag_ns} ns past the deadline"
        )
        self.reaction_name = reaction_name
        self.lag_ns = lag_ns


class DearError(ReproError):
    """An error in the DEAR integration layer."""


class UntaggedMessageError(DearError):
    """A transactor received a message without a tag.

    The paper specifies that the default behaviour of transactors is to
    *fail* when receiving untagged messages, unless explicitly configured
    to fall back to tagging them with the physical arrival time.
    """
