"""Unit tests for trace recording."""

from repro.distsim.cost import PhaseKind
from repro.distsim.trace import Trace, TraceEvent


def ev(kind=PhaseKind.COMPUTE, label="x", start=0.0, end=1.0, **kw):
    return TraceEvent(kind=kind, label=label, start=start, end=end, **kw)


class TestTraceEvent:
    def test_duration(self):
        assert ev(start=1.0, end=3.5).duration == 2.5


class TestTrace:
    def test_record_and_len(self):
        t = Trace()
        t.record(ev())
        assert len(t) == 1

    def test_disabled_trace_drops(self):
        t = Trace(enabled=False)
        t.record(ev())
        assert len(t) == 0

    def test_time_by_kind(self):
        t = Trace()
        t.record(ev(kind=PhaseKind.COMPUTE, start=0, end=2))
        t.record(ev(kind=PhaseKind.COMPUTE, start=2, end=3))
        t.record(ev(kind=PhaseKind.FAULT, start=3, end=3.5))
        by_kind = t.time_by_kind()
        assert by_kind["compute"] == 3.0
        assert by_kind["fault"] == 0.5

    def test_totals(self):
        t = Trace()
        t.record(ev(flops=10, words=5, messages=2))
        t.record(ev(flops=1, words=1, messages=1))
        totals = t.totals()
        assert totals["flops"] == 11
        assert totals["words"] == 6
        assert totals["messages"] == 3

    def test_iter(self):
        t = Trace()
        t.record(ev())
        assert list(t)[0].label == "x"


class TestTimeline:
    def _trace(self):
        t = Trace()
        t.record(ev(kind=PhaseKind.COMPUTE, start=0.0, end=1.0))
        t.record(ev(kind=PhaseKind.COLLECTIVE, start=1.0, end=1.5))
        t.record(ev(kind=PhaseKind.FAULT, start=1.5, end=1.6))
        return t

    def test_glyphs_present(self):
        out = self._trace().timeline(width=40)
        assert "c" in out and "A" in out and "!" in out

    def test_lanes_labelled(self):
        out = self._trace().timeline(width=40)
        assert "compute" in out and "collective" in out

    def test_empty(self):
        assert Trace().timeline() == "(empty trace)"

    def test_truncation_notice(self):
        t = Trace()
        for i in range(30):
            t.record(ev(start=float(i), end=float(i) + 0.5))
        out = t.timeline(width=40, max_events=10)
        assert "truncated" in out

    def test_zero_duration_events(self):
        t = Trace()
        t.record(ev(start=1.0, end=1.0))
        assert "c" in t.timeline(width=20)
