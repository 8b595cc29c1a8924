"""Reactor runtime embedded in the platform simulation."""

import pytest

from repro.errors import DeadlineViolation
from repro.reactors import Deadline, Environment, Reactor
from repro.sim import World
from repro.sim.platform import CALM, MINNOWBOARD
from repro.time import MS, SEC


def sim_env(seed=0, config=CALM, **env_kwargs):
    world = World(seed)
    platform = world.add_platform("board", config)
    env = Environment(**env_kwargs)
    return world, platform, env


class TestSimExecution:
    def test_timer_fires_at_physical_time(self):
        world, platform, env = sim_env(timeout=100 * MS)
        reactor = Reactor("r", env)
        tick = reactor.timer("tick", offset=10 * MS, period=20 * MS)
        log = []
        reactor.reaction(
            "note",
            triggers=[tick],
            body=lambda ctx: log.append((ctx.tag.time, platform.local_now())),
        )
        env.start(platform)
        world.run_for(1 * SEC)
        assert env.terminated
        assert len(log) == 5
        for logical, physical in log:
            assert physical >= logical  # never processed early
            assert physical - logical < 1 * MS  # calm platform: tiny lag

    def test_exec_time_consumes_simulated_cpu(self):
        world, platform, env = sim_env(timeout=10 * MS)
        reactor = Reactor("r", env)
        start = reactor.timer("start", offset=0)
        log = []
        reactor.reaction(
            "heavy",
            triggers=[start],
            body=lambda ctx: log.append(platform.local_now()),
            exec_time=7 * MS,
        )
        env.start(platform)
        world.run_for(1 * SEC)
        assert log and log[0] >= 7 * MS

    def test_start_time_anchors_logical_clock(self):
        world, platform, env = sim_env(timeout=10 * MS)
        reactor = Reactor("r", env)
        start = reactor.timer("start", offset=0)
        tags = []
        reactor.reaction(
            "note", triggers=[start], body=lambda ctx: tags.append(ctx.tag)
        )
        world.run_for(500 * MS)  # start the environment late
        env.start(platform)
        world.run_for(1 * SEC)
        assert tags[0].time >= 500 * MS


class TestPhysicalActions:
    def test_external_schedule_is_tagged_with_physical_time(self):
        world, platform, env = sim_env()
        reactor = Reactor("r", env)
        sensor = reactor.physical_action("sensor")
        log = []

        def on_sensor(ctx):
            log.append((ctx.tag.time, ctx.get(sensor)))
            if len(log) >= 2:
                ctx.request_stop()

        reactor.reaction("on_sensor", triggers=[sensor], body=on_sensor)
        env.start(platform)
        world.sim.post_at(30 * MS, lambda: sensor.schedule("a"))
        world.sim.post_at(70 * MS, lambda: sensor.schedule("b"))
        world.run_for(1 * SEC)
        assert [value for _, value in log] == ["a", "b"]
        assert log[0][0] >= 30 * MS
        assert log[1][0] >= 70 * MS
        assert env.terminated

    def test_min_delay_applies_to_physical_action(self):
        world, platform, env = sim_env(timeout=200 * MS)
        reactor = Reactor("r", env)
        sensor = reactor.physical_action("sensor", min_delay=25 * MS)
        log = []
        reactor.reaction(
            "note", triggers=[sensor], body=lambda ctx: log.append(ctx.tag.time)
        )
        env.start(platform)
        world.sim.post_at(10 * MS, lambda: sensor.schedule())
        world.run_for(1 * SEC)
        assert log and log[0] >= 35 * MS

    def test_scheduler_waits_until_tag_before_processing(self):
        """Events in the physical future are not processed early — the
        in-order processing rule for sporadic actions."""
        world, platform, env = sim_env(timeout=500 * MS)
        reactor = Reactor("r", env)
        sensor = reactor.physical_action("sensor", min_delay=100 * MS)
        log = []
        reactor.reaction(
            "note",
            triggers=[sensor],
            body=lambda ctx: log.append((ctx.tag.time, platform.local_now())),
        )
        env.start(platform)
        world.sim.post_at(10 * MS, lambda: sensor.schedule())
        world.run_for(1 * SEC)
        tag_time, processed_at = log[0]
        assert tag_time >= 110 * MS
        assert processed_at >= tag_time


class TestDeadlinesSimMode:
    def _deadline_env(self, exec_before=0, deadline_ns=5 * MS, handler=True):
        world, platform, env = sim_env(timeout=100 * MS)
        reactor = Reactor("r", env)
        first = reactor.timer("first", offset=10 * MS)
        outcome = []
        # A heavy predecessor reaction delays the guarded one past its tag.
        reactor.reaction(
            "heavy", triggers=[first], body=lambda ctx: None, exec_time=exec_before
        )
        reactor.reaction(
            "guarded",
            triggers=[first],
            body=lambda ctx: outcome.append("body"),
            deadline=Deadline(
                deadline_ns,
                handler=(lambda ctx: outcome.append("handler")) if handler else None,
            ),
        )
        env.start(platform)
        return world, env, outcome

    def test_deadline_met_runs_body(self):
        world, env, outcome = self._deadline_env(exec_before=1 * MS)
        world.run_for(1 * SEC)
        assert outcome == ["body"]

    def test_deadline_violated_runs_handler(self):
        world, env, outcome = self._deadline_env(exec_before=20 * MS)
        world.run_for(1 * SEC)
        assert outcome == ["handler"]

    def test_violation_counted_and_traced(self):
        world, env, outcome = self._deadline_env(exec_before=20 * MS)
        world.run_for(1 * SEC)
        guarded = [r for r in env.all_reactions() if r.name == "guarded"][0]
        assert guarded.deadline_violations == 1
        assert any(rec.kind == "deadline-miss" for rec in env.trace.records)

    def test_violation_without_handler_raises(self):
        world, env, outcome = self._deadline_env(exec_before=20 * MS, handler=False)
        with pytest.raises(DeadlineViolation):
            world.run_for(1 * SEC)


class TestDeterminism:
    def _pipeline_trace(self, seed, config=MINNOWBOARD):
        """A three-stage reactor pipeline on a noisy platform."""
        world = World(seed)
        platform = world.add_platform("board", config)
        env = Environment(name="pipeline", timeout=300 * MS)

        class Stage(Reactor):
            def __init__(self, name, owner, cost):
                super().__init__(name, owner)
                self.inp = self.input("inp")
                self.out = self.output("out")
                self.reaction(
                    "work",
                    triggers=[self.inp],
                    effects=[self.out],
                    body=lambda ctx: ctx.set(self.out, ctx.get(self.inp) + 1),
                    exec_time=cost,
                )

        class Source(Reactor):
            def __init__(self, name, owner):
                super().__init__(name, owner)
                self.out = self.output("out")
                tick = self.timer("tick", offset=0, period=50 * MS)
                self.count = 0

                def emit(ctx):
                    self.count += 1
                    ctx.set(self.out, self.count * 100)

                self.reaction("emit", triggers=[tick], effects=[self.out], body=emit)

        source = Source("source", env)
        s1 = Stage("s1", env, cost=3 * MS)
        s2 = Stage("s2", env, cost=5 * MS)
        env.connect(source.out, s1.inp)
        env.connect(s1.out, s2.inp)
        env.start(platform)
        world.run_for(1 * SEC)
        assert env.terminated
        return env.trace.fingerprint()

    def test_identical_trace_across_seeds(self):
        """The logical behaviour must not depend on platform timing noise."""
        fingerprints = {self._pipeline_trace(seed) for seed in range(5)}
        assert len(fingerprints) == 1

    def test_trace_differs_for_different_program(self):
        base = self._pipeline_trace(0)
        calm = self._pipeline_trace(0, config=CALM)
        # Same program on a different platform config: logical trace equal.
        assert base == calm
