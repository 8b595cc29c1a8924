"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro import apps
from repro.cli import build_parser, main
from repro.faults import FaultPlan
from repro.harness import ScenarioSpec
from repro.time import MS


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["fig5"])
        assert args.runs == 20
        assert args.frames == 2_000

    def test_overrides(self):
        args = build_parser().parse_args(["fig5", "--runs", "3", "--frames", "100"])
        assert args.runs == 3
        assert args.frames == 100


class TestExecution:
    def test_fig3_prints_sequence(self, capsys):
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "tc + Dc + L + E" in out

    def test_ablation_small(self, capsys):
        assert main(["ablation", "--seeds", "4"]) == 0
        out = capsys.readouterr().out
        assert "sources of nondeterminism" in out

    def test_det_small(self, capsys):
        assert main(["det", "--seeds", "1", "--frames", "60"]) == 0
        out = capsys.readouterr().out
        assert "deterministic brake assistant" in out

    def test_scaling(self, capsys):
        assert main(["scaling"]) == 0
        assert "EXT-SCALE" in capsys.readouterr().out


class TestExplore:
    def test_explore_defaults(self):
        args = build_parser().parse_args(["explore"])
        assert args.strategy == "pct"
        assert args.budget == 40
        assert not args.shrink

    def test_pct_finds_shrinks_records_and_replays(self, capsys, tmp_path):
        trace_file = str(tmp_path / "trace.json")
        artifact_file = str(tmp_path / "schedule.json")
        assert main([
            "explore", "--budget", "10", "--shrink",
            "--record", trace_file, "--schedule-out", artifact_file,
            "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "failing schedule found" in out
        assert "the failure needs exactly" in out

        artifact = json.loads((tmp_path / "schedule.json").read_text())
        assert artifact["found"] is True
        assert artifact["strategy"] == "pct"
        assert artifact["schedule"]["preemptions"]
        assert sum(artifact["errors"].values()) > 0

        # The recorded trace replays: exit 0 means the error counters
        # reproduced bit-exactly from the decision trace alone.
        assert main(["explore", "--replay", trace_file, "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "errors reproduced" in out

    def test_exhausted_budget_exits_nonzero(self, capsys):
        # depth=0 yields baseline-only schedules: no failure to find.
        assert main([
            "explore", "--budget", "2", "--depth", "0",
            "--frames", "10", "--no-cache",
        ]) == 1
        assert "no failure" in capsys.readouterr().out


class TestFaultsSpec:
    """``faults --spec FILE`` runs the spec's own fault plan."""

    @staticmethod
    def _run(tmp_path, capsys, spec, *flags):
        spec_path = tmp_path / "spec.json"
        report_path = tmp_path / "report.json"
        spec.save(spec_path)
        code = main([
            "faults", "--spec", str(spec_path), "--out", str(report_path),
            "--no-snapshot", "--no-cache", "--workers", "1", *flags,
        ])
        plan_line = capsys.readouterr().out.splitlines()[0]
        return code, plan_line, json.loads(report_path.read_text())

    def test_failover_spec_runs_its_outage(self, tmp_path, capsys):
        scenario = replace(
            apps.get("failover").default_scenario(), n_frames=100
        )
        code, plan_line, report = self._run(
            tmp_path, capsys, ScenarioSpec(app="failover", scenario=scenario)
        )
        assert code == 0
        assert plan_line == "fault plan seed 0: 1 outage(s)"
        assert report["plan"]["outages"] and not report["plan"]["link_faults"]
        # The primary's crash fired inside the 100-frame run.
        assert report["det"]["fault_summaries"]["0"]["counters"]["crash"] == 1

    def _brake_spec(self):
        scenario = replace(
            apps.get("brake").default_scenario(),
            n_frames=30, deterministic_camera=True,
        )
        plan = FaultPlan.camera_faults(seed=3, duplicate=0.2, label="own")
        return ScenarioSpec(scenario=scenario, faults=plan), plan

    def test_brake_spec_keeps_its_plan(self, tmp_path, capsys):
        spec, plan = self._brake_spec()
        code, plan_line, report = self._run(tmp_path, capsys, spec)
        assert code == 0
        assert plan_line == plan.describe()
        assert report["plan"] == plan.to_dict()

    def test_quick_flag_still_overrides_the_spec(self, tmp_path, capsys):
        spec, plan = self._brake_spec()
        code, plan_line, report = self._run(
            tmp_path, capsys, spec, "--drop", "0.1"
        )
        assert code == 0
        assert "[cli-faults]" in plan_line
        assert report["plan"]["label"] == "cli-faults"
        assert report["plan"] != plan.to_dict()


class TestServiceCLI:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8765
        assert args.local_workers == 0
        assert args.campaigns == 0
        assert args.chunk_size == 4
        assert args.max_attempts == 3
        assert args.lease_ttl == 15.0
        assert args.job_timeout == 600.0

    def test_submit_requires_spec(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit"])

    def test_submit_parser(self):
        args = build_parser().parse_args(
            ["submit", "--spec", "spec.json", "--wait", "--timeout", "30"]
        )
        assert args.spec == "spec.json"
        assert args.wait
        assert args.timeout == 30.0
        assert args.coordinator == "http://127.0.0.1:8765"

    def test_worker_parser(self):
        args = build_parser().parse_args(
            ["worker", "--coordinator", "http://host:1", "--idle-exit", "5"]
        )
        assert args.coordinator == "http://host:1"
        assert args.idle_exit == 5.0
        assert args.max_jobs == 0  # 0 means unlimited

    def test_serve_submit_end_to_end(self, tmp_path, capsys):
        """`repro serve` + `repro submit --wait`, fully in process."""
        import socket
        import threading

        from repro.apps.brake import BrakeScenario
        from repro.harness import ScenarioSpec

        with socket.socket() as probe:  # find a free port
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        spec_path = tmp_path / "spec.json"
        ScenarioSpec(
            variant="det",
            seeds=(0, 1, 2),
            scenario=BrakeScenario(n_frames=20),
            label="cli-e2e",
        ).save(spec_path)
        serve_rc = []
        server = threading.Thread(
            target=lambda: serve_rc.append(
                main(
                    [
                        "serve",
                        "--port", str(port),
                        "--store-dir", str(tmp_path / "store"),
                        "--local-workers", "2",
                        "--campaigns", "1",
                        "--chunk-size", "2",
                    ]
                )
            ),
            daemon=True,
        )
        server.start()
        rc = main(
            [
                "submit",
                "--spec", str(spec_path),
                "--coordinator", f"http://127.0.0.1:{port}",
                "--wait",
                "--out", str(tmp_path / "result.json"),
                "--report-out", str(tmp_path / "report.json"),
            ]
        )
        server.join(timeout=30)
        assert rc == 0
        assert serve_rc == [0]
        out = capsys.readouterr().out
        assert "3 seed(s)" in out
        result = json.loads((tmp_path / "result.json").read_text())
        assert result["status"] == "done"
        assert [o["seed"] for o in result["outcomes"]] == [0, 1, 2]
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["format"] == "sweep-service/v1"
        assert report["jobs"]


class TestInputErrors:
    """Bad outside input exits 1 with one line naming the problem."""

    @staticmethod
    def _repro(*argv):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv, "--workers", "1", "--no-cache"],
            env=env, capture_output=True, text=True, timeout=120,
        )

    def test_malformed_partition(self):
        proc = self._repro("faults", "--partition", "5")
        assert proc.returncode == 1
        assert proc.stderr.strip() == (
            "--partition expects START_MS:END_MS, got '5'"
        )
        assert proc.stdout == ""

    def test_partition_ending_before_it_starts(self):
        proc = self._repro("faults", "--partition", "200:100")
        assert proc.returncode == 1
        assert proc.stderr.strip() == (
            "--partition expects START_MS <= END_MS, got '200:100'"
        )
        assert proc.stdout == ""

    def test_camera_drop_on_a_library_app(self):
        proc = self._repro("flows", "--app", "fusion", "--drop", "0.1")
        assert proc.returncode == 1
        assert proc.stderr.strip() == (
            "flows: --drop targets the brake camera flow; use --spec with "
            "a fault plan for library apps"
        )
        assert proc.stdout == ""


class TestLibraryCalls:
    """Each report subcommand prints exactly what its one library call
    returns, so a library caller gets the same verdicts."""

    @staticmethod
    def _cli(capsys, *argv):
        code = main([*argv, "--workers", "1", "--no-cache"])
        return code, capsys.readouterr().out

    @staticmethod
    def _sweep():
        from repro.harness.sweep import SweepRunner

        return SweepRunner(workers=1, use_cache=False)

    def test_faults_is_fault_sweep(self, capsys):
        from repro.faults import fault_sweep

        code, out = self._cli(
            capsys, "faults", "--app", "fusion", "--seeds", "2", "--frames", "20",
            "--no-snapshot",
        )
        definition = apps.get("fusion")
        spec = ScenarioSpec(
            app="fusion",
            seeds=(0, 1),
            scenario=definition.with_fixed_inputs(definition.scenario(20)),
            label="faults-fusion-det",
        )
        report = fault_sweep(spec, self._sweep(), triage=False)
        assert (code, out) == (report.exit_code, report.render() + "\n")
        assert report.to_dict()["format"] == "fault-sweep-report/v1"

    @pytest.mark.parametrize("app", ["brake", "fusion", "mixedcrit", "failover"])
    def test_faults_spec_holds_inputs_fixed(self, app, capsys, tmp_path, monkeypatch):
        # A spec file without the fixed-inputs knob runs like the flag
        # path: no false "silent DEAR divergence" across world seeds.
        definition = apps.get(app)
        spec = ScenarioSpec(app=app, seeds=(0, 1), scenario=definition.scenario(30))
        assert not getattr(spec.scenario, definition.fixed_inputs_knob)
        (tmp_path / "spec.json").write_text(spec.to_json())
        monkeypatch.chdir(tmp_path)
        code, out = self._cli(
            capsys, "faults", "--spec", "spec.json", "--no-snapshot"
        )
        assert code == 0
        assert "DEAR logical traces identical across 2 seeds: True" in out
        assert list(tmp_path.iterdir()) == [tmp_path / "spec.json"]

    def test_flows_and_metrics_are_their_sweeps(self, capsys):
        from repro.obs import flow_sweep, metrics_sweep

        spec = ScenarioSpec(app="fusion", scenario=apps.get("fusion").scenario(20))
        code, out = self._cli(capsys, "flows", "--app", "fusion", "--seeds", "2",
                              "--frames", "20")
        report = flow_sweep(spec, [0, 1], ("det", "nondet"), self._sweep())
        assert (code, out) == (0, report.render() + "\n")
        assert report.to_dict()["diff"]["det_delivered"] > 0

        code, out = self._cli(capsys, "metrics", "nondet", "--app", "fusion",
                              "--seeds", "2", "--frames", "20")
        report = metrics_sweep(replace(spec, variant="nondet"), range(2), self._sweep())
        assert (code, out) == (0, report.render() + "\n")
        assert report.to_dict()["seeds"] == 2

    def test_explore_is_explore_app(self, capsys):
        from repro.explore import explore_app

        code, out = self._cli(capsys, "explore", "--budget", "4", "--frames", "20",
                              "--no-snapshot")
        report = explore_app(
            "brake", strategy="pct", budget=4, frames=20, seed=0, depth=6,
            preempt_ns=25 * MS, sweep=self._sweep(), snapshots=False,
        )
        assert (code, out) == (report.exit_code, report.render() + "\n")
        assert report.to_dict()["found"] == (report.exit_code == 0)
