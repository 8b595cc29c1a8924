"""Base class shared by the four DEAR transactors.

A transactor is an ordinary reactor (Section III.B) that bridges one
element of a service interface.  The base class centralizes the pieces
they all need:

* access to the owning :class:`~repro.ara.process.AraProcess`, whose
  endpoint must be *tag-aware* (the modified SOME/IP binding);
* the arrival path: turning a received ``(payload, tag)`` into a
  reactor event at ``tag + L + E`` (or applying the untagged policy);
* the departure path: computing the outgoing tag ``t + D`` and running
  the sending reaction under its deadline;
* error accounting — every violated assumption is an *observable*,
  counted error, never silent misbehaviour.
"""

from __future__ import annotations

from typing import Any

from repro.errors import DearError, UntaggedMessageError
from repro.ara.process import AraProcess
from repro.obs import context as obs_context
from repro.obs.bus import TRACK_DEAR
from repro.obs.flows import (
    CAUSE_DEADLINE,
    CAUSE_LATE,
    LAYER_DEAR,
    attribute_drop,
    flow_id_of,
)
from repro.reactors.action import PhysicalAction
from repro.reactors.base import Reactor
from repro.reactors.environment import Environment
from repro.reactors.reaction import Deadline
from repro.dear.stp import DeadlineFault, LatePolicy, TransactorConfig, UntaggedPolicy
from repro.time.tag import Tag

#: Sentinel: no in-bound value received yet (LAST_KNOWN policy).
_NO_VALUE = object()


class Transactor(Reactor):
    """Common machinery for DEAR transactors."""

    def __init__(
        self,
        name: str,
        owner: Environment | Reactor,
        process: AraProcess,
        config: TransactorConfig,
    ) -> None:
        super().__init__(name, owner)
        if not process.endpoint.tag_aware:
            raise DearError(
                f"transactor {name!r} needs a tag-aware endpoint; create "
                f"the AraProcess with tag_aware=True"
            )
        self.process = process
        self.config = config
        #: Messages received with a tag that was no longer safe to process
        #: (latency/clock assumptions violated).
        self.stp_violations = 0
        #: Messages dropped (or force-tagged) due to a sending deadline miss.
        self.deadline_misses = 0
        #: Untagged messages rejected under the FAIL policy.
        self.untagged_rejected = 0
        #: Late messages discarded / replaced under a non-PROCESS policy.
        self.late_handled = 0
        self._last_in_bound: Any = _NO_VALUE

    # -- arrival path -----------------------------------------------------------

    def _arrival_tag(self, tag: Tag | None) -> Tag | None:
        """Compute the safe-to-process tag for a received message.

        Returns ``None`` when the message must be handled by the
        untagged policy instead (caller dispatches accordingly).
        """
        if tag is None:
            return None
        return Tag(tag.time + self.config.stp.release_delay_ns, tag.microstep)

    def _deliver(self, action: PhysicalAction, value: Any, tag: Tag | None) -> None:
        """Kernel context: inject a received message into the program.

        Tagged messages are inserted at ``tag + L + E``; the scheduler's
        wait-until-physical-time rule supplies the safe-to-process delay.
        Untagged messages either fail (default) or fall back to
        physical-time tagging, which treats them like sporadic sensor
        input (the paper's backward-compatibility mode).
        """
        arrival = self._arrival_tag(tag)
        o = obs_context.ACTIVE
        if arrival is None:
            if self.config.untagged is UntaggedPolicy.FAIL:
                self.untagged_rejected += 1
                if o is not None:
                    o.metrics.counter("dear.untagged_rejected").inc()
                raise UntaggedMessageError(
                    f"transactor {self.fqn} received an untagged message"
                )
            if o is not None:
                o.metrics.counter("dear.untagged_fallback").inc()
            action.schedule(value)
            return
        if o is not None:
            scheduler = self.environment.scheduler
            now = scheduler._obs_now()
            wait = self.config.stp.stp_wait_ns(
                arrival.time, scheduler.physical_time()
            )
            o.metrics.counter("dear.messages_delivered").inc()
            o.metrics.histogram("dear.stp_wait_ns").observe(wait)
            o.bus.span(
                TRACK_DEAR,
                f"stp-wait {self.fqn}",
                now,
                now + wait,
                o.wall_ns(),
                release_time=arrival.time,
            )
            flows = o.flows
            if flows is not None and flows.current is not None:
                # Still on the NIC-deliver kernel chain: the frame's flow
                # is current.  The hop timestamp is ingress; the STP wait
                # until ``arrival`` shows up in the dear->reactor segment.
                flows.hop(flows.current, LAYER_DEAR, f"ingress {self.fqn}", now)
        scheduler = self.environment.scheduler
        policy = self.config.late_policy
        if policy is not LatePolicy.PROCESS and arrival <= scheduler.current_tag:
            # Same lateness condition schedule_at_tag would apply; the
            # graceful-degradation policies intercept before scheduling.
            self._handle_late(action, value, tag, arrival)
            return
        _tag, late = scheduler.schedule_at_tag(action, value, arrival)
        if late:
            self.stp_violations += 1
            self.environment.trace.record(
                self.environment.scheduler.current_tag, "stp-violation", self.fqn
            )
            if o is not None:
                o.metrics.counter("dear.stp_violations").inc()
                o.bus.instant(
                    TRACK_DEAR,
                    f"stp-violation {self.fqn}",
                    self.environment.scheduler._obs_now(),
                    o.wall_ns(),
                )
        elif policy is LatePolicy.LAST_KNOWN:
            self._last_in_bound = value

    def _handle_late(
        self, action: PhysicalAction, value: Any, tag: Tag | None, arrival: Tag
    ) -> None:
        """Apply the configured non-PROCESS late-message policy.

        Always counts the STP violation (the bound *was* broken); what
        changes per policy is the fate of the payload.  Every branch
        leaves a policy-specific record in the environment trace, so a
        degradation decision is part of the run's fingerprint — explicit
        fault handling, never silent nondeterminism.
        """
        scheduler = self.environment.scheduler
        current = scheduler.current_tag
        self.stp_violations += 1
        self.late_handled += 1
        self.environment.trace.record(current, "stp-violation", self.fqn)
        policy = self.config.late_policy
        o = obs_context.ACTIVE
        if o is not None:
            o.metrics.counter("dear.stp_violations").inc()
            o.metrics.counter(f"dear.late_{policy.value}").inc()
            o.bus.instant(
                TRACK_DEAR,
                f"stp-violation {self.fqn} ({policy.value})",
                scheduler._obs_now(),
                o.wall_ns(),
            )
        if policy is LatePolicy.DROP:
            self.environment.trace.record(current, "late-dropped", self.fqn)
            if o is not None:
                attribute_drop(o, LAYER_DEAR, CAUSE_LATE, scheduler._obs_now())
            return
        if policy is LatePolicy.LAST_KNOWN:
            if self._last_in_bound is _NO_VALUE:
                self.environment.trace.record(current, "late-dropped", self.fqn)
                if o is not None:
                    attribute_drop(o, LAYER_DEAR, CAUSE_LATE, scheduler._obs_now())
                return
            self.environment.trace.record(current, "late-substituted", self.fqn)
            if o is not None:
                # The late payload itself is discarded (an older value is
                # substituted), so the late frame's flow ends here.
                attribute_drop(o, LAYER_DEAR, CAUSE_LATE, scheduler._obs_now())
            scheduler.schedule_at_tag(action, self._last_in_bound, arrival)
            return
        self.environment.trace.record(current, "deadline-fault", self.fqn)
        scheduler.schedule_at_tag(
            action, DeadlineFault(tag=tag, value=value), arrival
        )

    # -- departure path ------------------------------------------------------------

    def _departure_tag(self, tag: Tag) -> Tag:
        """The tag attached to an outgoing message: ``t + D``."""
        return Tag(tag.time + self.config.deadline_ns, tag.microstep)

    def _sending_deadline(self) -> Deadline:
        """The deadline guarding a sending reaction.

        On violation the handler counts the miss; the message is dropped
        (default) or the subclass's ``_send_late`` fallback runs.
        """
        return Deadline(self.config.deadline_ns, handler=self._on_deadline_miss)

    def _on_deadline_miss(self, ctx) -> None:
        self.deadline_misses += 1
        self.environment.trace.record(ctx.tag, "send-deadline-miss", self.fqn)
        o = obs_context.ACTIVE
        if o is not None:
            o.metrics.counter("dear.send_deadline_misses").inc()
            o.bus.instant(
                TRACK_DEAR,
                f"send-deadline-miss {self.fqn}",
                self.environment.scheduler._obs_now(),
                o.wall_ns(),
                dropped=self.config.drop_on_deadline_miss,
            )
        if not self.config.drop_on_deadline_miss:
            self._send_body(ctx, late=True)
        elif o is not None:
            # The outgoing message is dropped; reaction context has no
            # current flow, but the transactor's input port still holds
            # the value that would have been sent — self-correlate.
            flow = None
            inp = getattr(self, "inp", None)
            if inp is not None:
                try:
                    flow = flow_id_of(inp.get())
                except Exception:
                    flow = None
            attribute_drop(
                o,
                LAYER_DEAR,
                CAUSE_DEADLINE,
                self.environment.scheduler._obs_now(),
                flow_id=flow,
            )

    def _outgoing_tag(self, ctx, late: bool) -> Tag:
        """Tag for an outgoing message.

        Normally ``t + D``.  After a deadline miss (``late=True``, only
        reachable with ``drop_on_deadline_miss=False``) the message is
        tagged from current physical time instead, which keeps the
        receiver's safe-to-process reasoning sound at the price of a
        physically-determined (hence nondeterministic) tag — the
        deliberate trade-off of Section IV.B.
        """
        if late:
            return Tag(ctx.physical_time(), 0)
        return self._departure_tag(ctx.tag)

    def _send_body(self, ctx, late: bool = False) -> None:
        """Subclass hook: the actual sending logic."""
        raise NotImplementedError
