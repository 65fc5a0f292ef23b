"""WallProfiler mechanics under a deterministic injected clock.

Wall time itself is not replayable, so every test here swaps the
``perf_counter`` clock for a manually stepped one -- durations become
exact and the profiler's span mechanics (nesting, aggregation, the tee
probe) are assertable to the microsecond.
"""

import time

from repro.obs import Probe, Telemetry, Tracer, WallClock, WallProfiler
from repro.obs.profile import _percentile, render_profile


class ManualClock:
    """A clock the test advances by hand (microseconds, like WallClock)."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _profiler():
    clock = ManualClock()
    return WallProfiler(clock=clock), clock


class TestWallClock:
    def test_reads_perf_counter_in_microseconds(self):
        clock = WallClock()
        before = time.perf_counter() * 1e6
        reading = clock()
        after = time.perf_counter() * 1e6
        assert before <= reading <= after

    def test_is_the_default_profiler_clock(self):
        assert isinstance(WallProfiler()._clock, WallClock)


class TestSpanMechanics:
    def test_nested_spans_carry_exact_wall_durations(self):
        prof, clock = _profiler()
        prof.hour = 3
        with prof.span("advance.hour", mode="volatile"):
            clock.now = 100.0
            with prof.span("advance.open"):
                clock.now = 130.0
            clock.now = 150.0
            with prof.span("session.drive", session="p0"):
                clock.now = 160.0
            clock.now = 400.0
        hour = prof.find_spans("advance.hour")[0]
        assert hour.duration == 400.0
        assert hour.hour == 3 and hour.args == {"mode": "volatile"}
        assert prof.find_spans("advance.open")[0].duration == 30.0
        assert prof.find_spans("session.drive")[0].duration == 10.0
        # Children parent under the hour span; close order holds.
        assert all(
            s.parent_id == hour.span_id
            for s in prof.spans
            if s is not hour
        )
        assert [s.name for s in prof.spans] == [
            "advance.open",
            "session.drive",
            "advance.hour",
        ]


class TestPercentile:
    def test_empty_is_zero(self):
        assert _percentile([], 0.95) == 0.0

    def test_single_value_is_every_percentile(self):
        assert _percentile([7.0], 0.50) == 7.0
        assert _percentile([7.0], 0.95) == 7.0

    def test_nearest_rank(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert _percentile(values, 0.50) == 20.0  # rank ceil(2.0) = 2
        assert _percentile(values, 0.95) == 40.0  # rank ceil(3.8) = 4
        assert _percentile(values, 0.25) == 10.0  # rank ceil(1.0) = 1


class TestAggregate:
    def _drive(self, prof, clock):
        prof.hour = 0
        with prof.span("advance.hour"):
            clock.now = 100.0
            with prof.span("session.drive"):
                clock.now = 130.0
            clock.now = 150.0
            with prof.span("session.drive"):
                clock.now = 160.0
            clock.now = 200.0
            with prof.span("charge.batch"):
                clock.now = 260.0
            clock.now = 400.0

    def test_per_name_stats(self):
        prof, clock = self._setup()
        stats = prof.aggregate()
        drive = stats["session.drive"]
        assert drive.count == 2
        assert drive.total == 40.0
        assert drive.self_time == 40.0
        assert (drive.p50, drive.p95, drive.max) == (10.0, 30.0, 30.0)
        hour = stats["advance.hour"]
        assert hour.count == 1 and hour.total == 400.0
        # self = 400 - (30 + 10 + 60) children.
        assert hour.self_time == 300.0

    def test_render_profile_lists_every_name_and_total(self):
        prof, clock = self._setup()
        text = render_profile(prof)
        for name in ("advance.hour", "session.drive", "charge.batch"):
            assert name in text
        assert "(total self time)" in text
        # Largest self time renders first (after the header).
        assert text.splitlines()[1].startswith("advance.hour")

    def _setup(self):
        prof, clock = _profiler()
        self._drive(prof, clock)
        return prof, clock


class TestProbe:
    def _probe(self):
        tracer = Tracer()
        prof, clock = _profiler()
        return Probe(tracer, prof), tracer, prof, clock

    def test_hour_fans_out_to_both_halves(self):
        probe, tracer, prof, _ = self._probe()
        probe.hour = 7
        assert tracer.hour == 7 and prof.hour == 7
        assert probe.hour == 7

    def test_span_tees_to_both_with_the_tracer_primary(self):
        probe, tracer, prof, clock = self._probe()
        with probe.span("wal.fsync", records=3) as tee:
            clock.now = 500.0
            tee.set(bytes=128)
        assert len(tracer.spans) == 1 and len(prof.spans) == 1
        logical, wall = tracer.spans[0], prof.spans[0]
        # set() forwards to both halves.
        assert logical.args == {"records": 3, "bytes": 128}
        assert wall.args == {"records": 3, "bytes": 128}
        # duration/args delegate to the deterministic half: the tick
        # clock read twice (enter + exit) gives exactly 1 tick.
        assert tee.duration == logical.duration == 1.0
        assert wall.duration == 500.0
        assert tee.args is logical.args

    def test_event_hits_both_and_returns_the_tracer_record(self):
        probe, tracer, prof, _ = self._probe()
        record = probe.event("charge.granted", session="p0")
        assert record is tracer.events[0]
        assert len(prof.events) == 1
        assert prof.events[0].args == {"session": "p0"}

    def test_tracer_ticks_do_not_depend_on_the_profiler(self):
        # The same emission sequence against a bare tracer and a teed
        # probe: the deterministic records must be identical.
        def emit(handle):
            handle.hour = 0
            with handle.span("advance.hour"):
                with handle.span("session.drive"):
                    pass
                handle.event("charge.granted")

        bare = Tracer()
        emit(bare)
        teed_tracer = Tracer()
        emit(Probe(teed_tracer, WallProfiler(clock=ManualClock())))
        key = lambda t: [
            (s.span_id, s.parent_id, s.name, s.start, s.end, s.hour)
            for s in t.spans
        ]
        assert key(bare) == key(teed_tracer)
        assert [(e.event_id, e.ts) for e in bare.events] == [
            (e.event_id, e.ts) for e in teed_tracer.events
        ]


class TestTelemetryWiring:
    def test_probe_is_the_tracer_without_a_profiler(self):
        telemetry = Telemetry()
        assert telemetry.profiler is None
        assert telemetry.probe is telemetry.tracer

    def test_probe_tees_when_a_profiler_attaches(self):
        profiler = WallProfiler()
        telemetry = Telemetry(profiler=profiler)
        assert telemetry.profiler is profiler
        assert isinstance(telemetry.probe, Probe)
        assert telemetry.probe.tracer is telemetry.tracer
        assert telemetry.probe.profiler is profiler
