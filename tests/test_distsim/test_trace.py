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

    def test_iter(self):
        t = Trace()
        t.record(ev())
        assert list(t)[0].label == "x"
