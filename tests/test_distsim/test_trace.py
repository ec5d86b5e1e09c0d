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
