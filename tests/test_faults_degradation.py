"""Graceful degradation under injected faults.

The acceptance criterion for the fault subsystem: an *out-of-bound*
fault (a partition longer than the assumed latency bound ``L``) must
surface as an explicit, counted STP violation — never as silent
nondeterminism — and the :class:`LatePolicy` degradation modes must do
what they promise with the late payloads.

The STP-violation tests use a two-ECU pulse chain with a *ticking*
subscriber (its 1 ms local timer keeps logical time advancing, so a
deferred frame's release tag really is in the past on arrival); the
brake pipeline is purely event-driven, where the same fault manifests
as counted send-deadline misses instead.
"""

import pytest

from repro.apps.brake import BrakeScenario
from repro.apps.brake.det import run_det_brake_assistant
from repro.apps.brake.nondet import run_nondet_brake_assistant
from repro.ara import AraProcess, build_world
from repro.dear import (
    ClientEventTransactor,
    DeadlineFault,
    LatePolicy,
    ServerEventTransactor,
    StpConfig,
    TransactorConfig,
)
from repro.faults import ClockFault, FaultPlan, NodeOutage, Partition
from repro.harness.extensions import (
    _PULSE_LAN,
    _Publisher,
    _pulse_interface,
    _Subscriber,
)
from repro.reactors import Environment
from repro.sim.platform import CALM
from repro.time import MS, SEC

#: Pulses leave at 400, 420, ... ms; the partition swallows the last four.
PULSES = 6
PARTITION = Partition(start_ns=430 * MS, end_ns=520 * MS)
LATENCY_BOUND_NS = 2 * MS


def _pulse_chain(
    plan: FaultPlan | None = None,
    late_policy: LatePolicy = LatePolicy.PROCESS,
    seed: int = 0,
):
    """Publisher on one ECU, ticking subscriber on the other.

    Returns ``(received, rx_transactor, injector)`` after the run.
    """
    interface = _pulse_interface(0x5600, "FaultPulse")
    world = build_world(
        seed, [("pub-ecu", CALM), ("sub-ecu", CALM)], _PULSE_LAN, fault_plan=plan
    )
    injector = world.fault_injector
    config = TransactorConfig(
        deadline_ns=5 * MS,
        stp=StpConfig(latency_bound_ns=LATENCY_BOUND_NS),
        late_policy=late_policy,
    )

    server_process = AraProcess(world.platform("pub-ecu"), "pub", tag_aware=True)
    server_env = Environment(name="pub", timeout=2 * SEC)
    publisher = _Publisher("publisher", server_env, PULSES)
    skeleton = server_process.create_skeleton(interface, 1)
    skeleton.implement("noop", lambda: None)
    tx = ServerEventTransactor(
        "tx", server_env, server_process, skeleton, "pulse", config
    )
    server_env.connect(publisher.out, tx.inp)
    skeleton.offer()
    server_env.start(world.platform("pub-ecu"))

    client_process = AraProcess(world.platform("sub-ecu"), "sub", tag_aware=True)
    client_env = Environment(name="sub", timeout=3 * SEC)
    subscriber = _Subscriber("subscriber", client_env)
    holder = {}

    def setup():
        proxy = yield from client_process.find_service(interface, 1)
        rx = ClientEventTransactor(
            "rx", client_env, client_process, proxy, "pulse", config
        )
        client_env.connect(rx.out, subscriber.inp)
        client_env.start(world.platform("sub-ecu"))
        holder["rx"] = rx

    client_process.spawn("setup", setup())
    world.run_for(3 * SEC)
    return subscriber.received, holder["rx"], injector


class TestOutOfBoundPartition:
    def test_clean_run_has_no_violations(self):
        received, rx, _ = _pulse_chain()
        assert [value for _, value in received] == list(range(1, PULSES + 1))
        assert rx.stp_violations == 0

    def test_partition_longer_than_bound_is_an_explicit_stp_violation(self):
        # A defer partition holds frames for ~90 ms >> L = 2 ms; their
        # release tags are long past on arrival.  Under the paper's
        # PROCESS policy every pulse still comes through, but each
        # out-of-bound one is a counted violation — flagged, not silent.
        plan = FaultPlan(seed=1, partitions=(PARTITION,))
        received, rx, injector = _pulse_chain(plan)
        assert rx.stp_violations >= 3
        assert [value for _, value in received] == list(range(1, PULSES + 1))
        assert injector.counters["partition-defer"] >= 3

    def test_drop_policy_discards_late_messages(self):
        plan = FaultPlan(seed=1, partitions=(PARTITION,))
        received, rx, _ = _pulse_chain(plan, late_policy=LatePolicy.DROP)
        values = [value for _, value in received]
        assert rx.late_handled >= 3
        assert rx.stp_violations == rx.late_handled
        # Downstream sees a gap: the in-bound prefix only.
        assert values == list(range(1, PULSES + 1 - rx.late_handled))

    def test_last_known_policy_substitutes_the_previous_value(self):
        plan = FaultPlan(seed=1, partitions=(PARTITION,))
        received, rx, _ = _pulse_chain(plan, late_policy=LatePolicy.LAST_KNOWN)
        values = [value for _, value in received]
        assert rx.late_handled >= 3
        last_in_bound = PULSES - rx.late_handled
        assert values[:last_in_bound] == list(range(1, last_in_bound + 1))
        assert values[last_in_bound:] == [last_in_bound] * rx.late_handled

    def test_fault_signal_policy_delivers_fault_objects(self):
        plan = FaultPlan(seed=1, partitions=(PARTITION,))
        received, rx, _ = _pulse_chain(plan, late_policy=LatePolicy.FAULT_SIGNAL)
        faults = [value for _, value in received if isinstance(value, DeadlineFault)]
        clean = [value for _, value in received if not isinstance(value, DeadlineFault)]
        assert len(faults) == rx.late_handled >= 3
        # The application sees *which* values were late, with their tags.
        assert [fault.value for fault in faults] == list(
            range(len(clean) + 1, PULSES + 1)
        )
        assert all(fault.tag is not None for fault in faults)


class TestBrakePipelineDegradation:
    SCENARIO = BrakeScenario(n_frames=40, deterministic_camera=True)

    def test_inbound_drops_keep_dear_deterministic_while_stock_diverges(self):
        # The central claim: the same fault schedule hits every run, and
        # the DEAR pipeline's *reaction* to it is seed-independent while
        # the stock pipeline's is not.
        plan = FaultPlan.camera_faults(seed=3, drop=0.1, label="divergence")
        det = [
            run_det_brake_assistant(seed, self.SCENARIO, fault_plan=plan)
            for seed in (0, 1, 2)
        ]
        assert len({repr(sorted(r.commands.items())) for r in det}) == 1
        assert det[0].fault_summary["fired"] > 0

        nondet = [
            run_nondet_brake_assistant(
                seed, BrakeScenario(n_frames=40), fault_plan=plan
            )
            for seed in (0, 1, 2)
        ]
        assert len({repr(sorted(r.commands.items())) for r in nondet}) > 1

    def test_out_of_bound_partition_is_flagged_in_the_brake_pipeline(self):
        # The event-driven brake pipeline has no ticking receiver, so a
        # partition > L surfaces as counted send-deadline misses rather
        # than arrival-side STP violations — still explicit, never silent.
        partition = Partition(start_ns=700 * MS, end_ns=900 * MS)
        plan = FaultPlan(seed=1, partitions=(partition,))
        result = run_det_brake_assistant(0, self.SCENARIO, fault_plan=plan)
        assert result.fault_summary["counters"]["partition-defer"] > 0
        assert result.deadline_misses + result.stp_violations > 0

    def test_node_outage_freezes_and_recovers(self):
        plan = FaultPlan(
            seed=1,
            outages=(
                NodeOutage(host="vision-ecu", start_ns=200 * MS, end_ns=260 * MS),
            ),
        )
        result = run_det_brake_assistant(0, self.SCENARIO, fault_plan=plan)
        counters = result.fault_summary["counters"]
        assert counters["crash"] == 1
        assert counters["restart"] == 1
        # The pipeline resumes after the thaw and keeps producing.
        assert len(result.commands) > 0

    def test_clock_fault_is_applied_and_recorded(self):
        plan = FaultPlan(
            seed=1,
            clock_faults=(
                ClockFault(host="fusion-ecu", at_ns=150 * MS, step_ns=3 * MS),
            ),
        )
        result = run_det_brake_assistant(0, self.SCENARIO, fault_plan=plan)
        assert result.fault_summary["counters"]["clock-fault"] == 1

    def test_outage_on_unknown_host_fails_fast(self):
        plan = FaultPlan(outages=(NodeOutage(host="ghost", start_ns=0, end_ns=1),))
        with pytest.raises(Exception):
            run_det_brake_assistant(0, self.SCENARIO, fault_plan=plan)
