"""Unit tests for :class:`repro.apps.lib.common.RunLedger`.

The ledger is how every app runner measures its outcome: send stamps
at the source, commands, latencies and the latency-deadline count at
the sink, and the one result record.  The end-to-end behaviour is
pinned by the world and observability goldens; these tests pin the
bookkeeping rules on their own.
"""

from repro import obs
from repro.apps.lib import MixedCriticalityScenario, PipelineErrors, SinkCommand
from repro.apps.lib.common import RunLedger
from repro.dear import LatePolicy
from repro.obs.flows import flow_report
from repro.sim import World

SCENARIO = MixedCriticalityScenario(n_frames=4)


def _ledger(latency_deadline_ns=None, seed=7) -> RunLedger:
    return RunLedger(World(seed), SCENARIO, PipelineErrors(), latency_deadline_ns)


def _command(seq: int) -> SinkCommand:
    return SinkCommand(seq, True, float(seq))


class _FakeTransactor:
    """Stands in for an event transactor: keeps its config, fixed counters."""

    def __init__(self, name, env, process, endpoint, event, config):
        self.name = name
        self.config = config
        self.deadline_misses = 2
        self.stp_violations = 3


class TestSourceAndSink:
    def test_sink_without_send_stamp_records_command_but_no_latency(self):
        ledger = _ledger()
        ledger.sink(5, _command(5))
        assert ledger.commands == {5: _command(5)}
        assert ledger.latencies == {}

    def test_latency_runs_from_first_send_stamp(self):
        ledger = _ledger()
        world = ledger.world
        world.run_until(100)
        assert ledger.source(1, lambda value: value * 2, 21) == 42
        world.run_until(150)
        ledger.source(1, lambda: None)  # a second producer of seq 1
        world.run_until(400)
        ledger.sink(1, _command(1))
        assert ledger.latencies == {1: 300}

    def test_later_sink_replaces_the_command(self):
        ledger = _ledger()
        ledger.sink(1, SinkCommand(1, False, 0.0))
        ledger.sink(1, _command(1))
        assert ledger.commands[1] == _command(1)

    def test_latency_deadline_counts_only_latencies_over_it(self):
        ledger = _ledger(latency_deadline_ns=100)
        world = ledger.world
        for seq in (0, 1, 2):
            ledger.source(seq, lambda: None)
        world.run_until(100)
        ledger.sink(0, _command(0))  # exactly at the deadline: a hit
        world.run_until(101)
        ledger.sink(1, _command(1))
        ledger.sink(2, _command(2))
        ledger.sink(3, _command(3))  # never stamped: no latency, no miss
        assert ledger.latencies == {0: 100, 1: 101, 2: 101}
        assert ledger.deadline_misses == 2
        assert _ledger().deadline_misses == 0

    def test_flow_opened_at_source_is_delivered_at_sink(self):
        with obs.capture(flows=True) as observation:
            ledger = _ledger()
            ledger.source(0, lambda: None)
            assert observation.flows.current is None
            ledger.world.run_until(50)
            ledger.sink(0, _command(0))
            ledger.source(1, lambda: None)
            ledger.drop(1, "app", "buffer-overwrite")
        summary = flow_report(observation.flows)["summary"]
        assert summary["delivered"] == 1
        assert summary["drops_by_cause"] == {"buffer-overwrite": 1}
        assert summary["unattributed"] == 0


class TestUnsent:
    def _sourced(self, *seqs) -> RunLedger:
        ledger = _ledger()
        for seq in seqs:
            ledger.source(seq, lambda: None)
        return ledger

    def test_unsent_readings_become_lost_flows_at_their_birth(self):
        with obs.capture(flows=True) as observation:
            ledger = self._sourced(0, 2)
            ledger.unsent(lambda seq: 10 * seq, "app", "no-producer")
        assert observation.flows.current is None
        report = flow_report(observation.flows)
        assert sorted(report["flows"], key=int) == ["0", "1", "2", "3"]
        for seq in ("1", "3"):
            entry = report["flows"][seq]
            assert entry["born_ns"] == 10 * int(seq)
            assert entry["drop"] == ["app", "no-producer", 10 * int(seq)]
        assert report["summary"]["drops_by_cause"]["no-producer"] == 2

    def test_unsent_counts_drops_without_flows(self):
        with obs.capture() as observation:
            self._sourced(1).unsent(lambda seq: seq, "app", "no-producer")
        counters = observation.metrics.snapshot()["counters"]
        assert counters['drops_total{cause="no-producer",layer="app"}'] == 3

    def test_unsent_leaves_the_result_alone(self):
        ledger = self._sourced(0)
        before = ledger.result().outcome_digest()
        with obs.capture(flows=True):
            ledger.unsent(lambda seq: seq, "app", "no-producer")
        ledger.unsent(lambda seq: seq, "app", "no-producer")  # disabled: no-op
        assert ledger.result().outcome_digest() == before
        assert ledger.errors.total() == 0


class TestResult:
    def test_result_sums_transactor_counters_and_own_misses(self):
        ledger = _ledger(latency_deadline_ns=0)
        env = ledger.environment("env")
        for name in ("a", "b"):
            ledger.transactor(_FakeTransactor, name, env, None, None, "e", 9)
        ledger.source(0, lambda: None)
        ledger.world.run_until(10)
        ledger.sink(0, _command(0))
        result = ledger.result()
        assert result.deadline_misses == 2 + 2 + 1
        assert result.stp_violations == 3 + 3
        assert result.seed == 7
        assert result.n_frames == SCENARIO.n_frames
        assert result.errors is ledger.errors
        assert result.commands == {0: _command(0)}
        assert result.latencies_ns == {0: 10}
        assert result.fault_summary is None

    def test_transactor_config_follows_the_scenario(self):
        ledger = _ledger()
        env = ledger.environment("env")
        tx = ledger.transactor(_FakeTransactor, "tx", env, None, None, "e", 9)
        assert tx.config.deadline_ns == 9
        assert tx.config.stp.latency_bound_ns == SCENARIO.latency_bound_ns
        assert tx.config.stp.clock_error_ns == SCENARIO.clock_error_ns
        assert tx.config.late_policy is LatePolicy(SCENARIO.late_policy)

    def test_fingerprints_come_from_environments_in_registration_order(self):
        ledger = _ledger()
        envs = [ledger.environment(name) for name in ("zeta", "alpha", "mid")]
        # The result hands each trace off: hold the traces, not the envs.
        traces = {env.name: env.trace for env in envs}
        fingerprints = ledger.result().trace_fingerprints
        assert list(fingerprints) == ["zeta", "alpha", "mid"]
        assert fingerprints == {name: t.fingerprint() for name, t in traces.items()}
        assert envs[0].timeout_ns == SCENARIO.total_duration_ns()

    def test_no_environments_no_fingerprints(self):
        assert _ledger().result().trace_fingerprints == {}
