"""Tests for trace save/load/diff."""

import pytest

from repro.analysis.persistence import diff_trace_files, load_trace, save_trace
from repro.reactors import Environment, Reactor
from repro.reactors.telemetry import Trace
from repro.time import MS, Tag


def small_trace(values):
    trace = Trace()
    for index, value in enumerate(values):
        trace.record(Tag(index * MS, index % 2), "set", f"port{index % 3}", value)
    return trace


class TestRoundTrip:
    def test_save_load_preserves_fingerprint(self, tmp_path):
        trace = small_trace([1, "two", 3.5, None])
        path = tmp_path / "run.trace"
        written = save_trace(trace, path)
        assert written == 4
        loaded = load_trace(path)
        assert loaded.fingerprint() == trace.fingerprint()
        assert loaded.lines() == trace.lines()

    def test_corruption_detected(self, tmp_path):
        trace = small_trace([1, 2, 3])
        path = tmp_path / "run.trace"
        save_trace(trace, path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace('"2"', '"999"')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            load_trace(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "not-a-trace"
        path.write_text('{"something": "else"}\n')
        with pytest.raises(ValueError, match="not a repro-trace"):
            load_trace(path)

    def test_real_environment_trace_roundtrip(self, tmp_path):
        env = Environment(timeout=30 * MS)
        reactor = Reactor("r", env)
        out = reactor.output("out")
        tick = reactor.timer("tick", offset=0, period=10 * MS)
        reactor.reaction("emit", triggers=[tick], effects=[out],
                         body=lambda ctx: ctx.set(out, ctx.logical_time))
        env.execute()
        path = tmp_path / "env.trace"
        save_trace(env.trace, path)
        loaded = load_trace(path)
        assert loaded.fingerprint() == env.trace.fingerprint()
        assert loaded.lines() == env.trace.lines()


class TestDiff:
    def test_identical_files_no_divergence(self, tmp_path):
        trace = small_trace([1, 2])
        a, b = tmp_path / "a", tmp_path / "b"
        save_trace(trace, a)
        save_trace(trace, b)
        assert diff_trace_files(a, b) is None

    def test_divergence_located(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        save_trace(small_trace([1, 2, 3]), a)
        save_trace(small_trace([1, 9, 3]), b)
        divergence = diff_trace_files(a, b)
        assert divergence.index == 1
        assert "2" in divergence.left_line
        assert "9" in divergence.right_line
