"""The logical trace's row storage: render once, read-only records view.

``Trace`` keeps one compact entry per reaction row and per propagated
closure, with the value already rendered: the scheduler renders a
propagated value once for the whole zero-delay closure it reaches, and
equal renderings share one string.  These tests pin that contract and
the API the rest of the package (persistence, trace diffing, fault
shrinking's callers) relies on.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.apps import registry
from repro.reactors import Environment, Reactor, telemetry
from repro.reactors.telemetry import Trace
from repro.time import MS, Tag


class Counted:
    """A value whose ``repr`` counts its calls."""

    calls = 0

    def __repr__(self):
        type(self).calls += 1
        return "Counted()"


def _fan_out(make_values, fan_out=3):
    """One output set once per value at startup, connected to *fan_out* inputs."""
    env = Environment(timeout=1 * MS)
    source = Reactor("source", env)
    out = source.output("out")

    def emit(ctx):
        for value in make_values():
            ctx.set(out, value)

    source.reaction("emit", triggers=[source.startup], effects=[out], body=emit)
    received = []
    for index in range(fan_out):
        sink = Reactor(f"sink{index}", env)
        inp = sink.input("inp")
        sink.reaction(
            "take",
            triggers=[inp],
            body=lambda ctx, inp=inp: received.append(ctx.get(inp)),
        )
        env.connect(out, inp)
    env.execute()
    return env.trace, received


def _set_rows(trace):
    return [record for record in trace.records if record.kind == "set"]


class TestRenderOnce:
    def test_closure_shares_one_repr(self):
        Counted.calls = 0
        trace, received = _fan_out(lambda: [Counted()])
        rows = _set_rows(trace)
        assert Counted.calls == 1
        assert len(rows) == 4
        assert {row.name for row in rows} == {
            "source.out", "sink0.inp", "sink1.inp", "sink2.inp"
        }
        assert {row.value for row in rows} == {"Counted()"}
        assert len(received) == 3
        Trace(enabled=False).port_sets(Tag(0, 0), [], Counted())
        assert Counted.calls == 1  # a disabled trace renders nothing

    def test_each_set_renders_the_value_it_carried(self):
        """No identity memo across propagations: a mutated value re-renders."""
        env = Environment(timeout=1 * MS)
        source = Reactor("source", env)
        out1 = source.output("out1")
        out2 = source.output("out2")

        def emit(ctx):
            payload = {"x": 1}
            ctx.set(out1, payload)
            payload["x"] = 2
            ctx.set(out2, payload)

        source.reaction(
            "emit", triggers=[source.startup], effects=[out1, out2], body=emit
        )
        env.execute()
        values = {row.name: row.value for row in _set_rows(env.trace)}
        assert values == {"source.out1": "{'x': 1}", "source.out2": "{'x': 2}"}

    def test_array_values_fan_out(self):
        array = np.array([1.5, 2.0, 3.25])
        trace, received = _fan_out(lambda: [array])
        rows = _set_rows(trace)
        assert len(rows) == 4
        assert {row.value for row in rows} == {repr(array)}
        assert all(value is array for value in received)

    def test_empty_string_renders_empty(self):
        trace, _ = _fan_out(lambda: ["", np.str_("")])
        assert {row.value for row in _set_rows(trace)} == {""}

    def test_record_builds_no_record_objects(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("TraceRecord built while recording")

        monkeypatch.setattr(telemetry, "TraceRecord", forbidden)
        trace, _ = _fan_out(lambda: [1, 2])
        trace.deadline_miss(Tag(0, 0), "source.emit", 5)
        assert len(trace) == 13  # 4 reactions, 2 x 4 sets, 1 miss
        assert len(trace.fingerprint()) == 64


class TestApiCompatibility:
    def _trace(self):
        trace, _ = _fan_out(lambda: [1, None, "a b", {"k": [1.5]}])
        trace.deadline_miss(Tag(2 * MS, 1), "source.emit", 17)
        return trace

    def test_records_view_matches_lines_and_len(self):
        trace = self._trace()
        assert [record.line() for record in trace.records] == trace.lines()
        assert len(trace) == len(trace.records)
        assert trace.records[-1].tag == Tag(2 * MS, 1)

    def test_fingerprint_hashes_the_lines(self):
        """Cached tag prefixes and heads hash exactly the joined lines,
        across hash batches, tag changes and repeated heads."""
        trace = self._trace()
        for index in range(2 * telemetry._HASH_BATCH + 7):
            tag = Tag(3 * MS + index // 3, index % 2)
            trace.record(tag, "set" if index % 5 else "reaction", f"r{index % 4}", index)
        text = "".join(line + "\n" for line in trace.lines())
        assert trace.fingerprint() == hashlib.sha256(text.encode()).hexdigest()

    def test_records_view_is_read_only(self):
        trace = self._trace()
        with pytest.raises(AttributeError):
            trace.records.append(trace.records[0])
        with pytest.raises(AttributeError):
            trace.records = []


class TestCompactStore:
    def _closure_trace(self):
        """Reactions, two multi-port closures at one tag, a record."""
        trace, _ = _fan_out(lambda: [1, "a b"])
        trace.deadline_miss(Tag(2 * MS, 1), "source.emit", 17)
        return trace

    def test_a_closure_is_one_entry_of_many_rows(self):
        trace = self._closure_trace()
        assert len(trace._entries) // 4 == 4 + 2 + 1  # reactions, closures, miss
        assert len(trace) == 4 + 2 * 4 + 1
        sets = _set_rows(trace)
        assert [row.name for row in sets[:4]] == [
            "source.out", "sink2.inp", "sink1.inp", "sink0.inp"
        ]
        assert [row.value for row in sets] == ["1"] * 4 + ["'a b'"] * 4

    def test_rows_round_trip_through_add_row(self):
        trace = self._closure_trace()
        loaded = Trace()
        for record in trace.records:
            time, microstep = record.tag.time, record.tag.microstep
            loaded.add_row(time, microstep, record.kind, record.name, record.value)
        assert loaded.records == trace.records
        assert loaded.lines() == trace.lines()
        assert len(loaded) == len(trace)
        assert loaded.fingerprint() == trace.fingerprint()

    def test_add_row_keeps_any_integer_time(self):
        trace = Trace()
        rows = [
            (-(2**70), 0, "reaction", "r", ""),
            (2**63, 2**40, "set", "p", "1"),
            (2**63, 2**40, "set", "q", "1"),
        ]
        for row in rows:
            trace.add_row(*row)
        assert trace.lines() == [telemetry._line(*row) for row in rows]
        assert [(r.tag.time, r.tag.microstep) for r in trace.records] == [
            row[:2] for row in rows
        ]
        text = "".join(line + "\n" for line in trace.lines())
        assert trace.fingerprint() == hashlib.sha256(text.encode()).hexdigest()

    def test_a_new_origin_applies_to_the_next_row(self):
        trace = Trace()
        tag = Tag(10 * MS, 0)
        trace.reaction(tag, "r")
        trace.origin = 4 * MS
        trace.reaction(tag, "r")
        assert [record.tag.time for record in trace.records] == [10 * MS, 6 * MS]

    def test_a_dear_run_keeps_one_object_per_distinct_text(self, monkeypatch):
        """Equal renderings in the four traces of one DEAR brake run are
        one ``str`` object (the table starts empty and, at this length,
        is never cleared)."""
        monkeypatch.setattr(telemetry, "_TEXTS", {})
        traces = []
        trace_init = Trace.__init__

        def init_trace(trace, *args, **kwargs):
            trace_init(trace, *args, **kwargs)
            traces.append(trace)

        monkeypatch.setattr(Trace, "__init__", init_trace)
        definition = registry.get("brake")
        definition.runner("det")(3, replace(definition.default_scenario(), n_frames=8))
        assert len(traces) == 4
        texts = [record.value for trace in traces for record in trace.records]
        assert len(set(texts)) > 8
        assert len(telemetry._TEXTS) == len(set(texts) - {""})  # never cleared
        assert len({id(text) for text in texts}) == len(set(texts))

    def test_the_text_table_is_bounded(self):
        for index in range(3 * telemetry._TEXTS_MAX):
            telemetry._render(index)
        assert 0 < len(telemetry._TEXTS) <= telemetry._TEXTS_MAX


class TestRenderTable:
    """``_render`` keys its table on marshal bytes, yet always returns
    exactly ``repr(value)``: values whose bytes could not tell them
    apart from a different ``repr`` are never keyed by bytes."""

    @pytest.fixture(autouse=True)
    def fresh_table(self, monkeypatch):
        monkeypatch.setattr(telemetry, "_TEXTS", {})

    @pytest.mark.parametrize(
        "first,second",
        [
            (True, 1),
            (False, 0),
            (1, 1.0),
            (0.0, -0.0),
            (float("nan"), -float("nan")),
            ((1,), [1]),
            ({1}, frozenset({1})),
            ({1, 9}, {9, 1}),  # equal sets, marshalled alike, printed apart
            (frozenset({1, 9}), frozenset([9, 1])),
            ({"a": 1, "b": 2.5}, {"b": 2.5, "a": 1}),
            ({"k": [1, (2.0,)]}, {"k": [1, [2.0]]}),
            ("x", b"x"),
            (b"ab", bytearray(b"ab")),
            ({"pixels": b"ab"}, {"pixels": bytearray(b"ab")}),
            ((memoryview(b"ab"),), (b"ab",)),
            (np.array([1.0]), np.array([1.0]).view(np.int64)),
        ],
    )
    def test_each_of_a_pair_renders_as_its_repr(self, first, second):
        for _ in range(2):  # misses, then hits
            for value in (first, second, first):
                assert telemetry._render(value) == repr(value)

    def test_equal_values_share_one_text(self):
        first = telemetry._render({"seq": 1, "x": [0.5, 1.5]})
        again = telemetry._render({"seq": 1, "x": [0.5, 1.5]})
        assert first == repr({"seq": 1, "x": [0.5, 1.5]}) and again is first

    def test_equal_values_make_one_repr_call(self, monkeypatch):
        calls = []
        real_repr = repr

        def counting_repr(value):
            calls.append(value)
            return real_repr(value)

        monkeypatch.setattr(telemetry, "repr", counting_repr, raising=False)
        for _ in range(5):
            telemetry._render({"frame_seq": 3, "left_m": -1.25})
            telemetry._render((0.1, 0.2))
        assert len(calls) == 2

    def test_the_empty_string_renders_empty(self):
        assert telemetry._render("") == ""
        assert telemetry._render("") == ""

    def test_subclasses_and_foreign_types_fall_back_to_repr(self):
        import enum

        class Mapping(dict):
            def __repr__(self):
                return f"Mapping({dict.__repr__(self)})"

        class Level(enum.IntEnum):
            HIGH = 1

        values = [Mapping(a=1), {"a": 1}, Level.HIGH, 1, Counted(), (Level.HIGH,)]
        for _ in range(2):
            for value in values:
                assert telemetry._render(value) == repr(value)
        # A custom object is rendered on every call, as before.
        Counted.calls = 0
        value = Counted()
        telemetry._render(value)
        telemetry._render(value)
        assert Counted.calls == 2

    def test_the_table_is_bounded_by_both_keys(self):
        for index in range(3 * telemetry._TEXTS_MAX):
            telemetry._render(float(index))
            telemetry._render(Counted())
            telemetry._render(bytearray(index.to_bytes(2, "big")))
        assert 0 < len(telemetry._TEXTS) <= telemetry._TEXTS_MAX
