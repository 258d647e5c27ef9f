"""Tests for the Component base class and its advance loop."""

import pytest

from repro.channels.channel import ChannelEnd, connect
from repro.channels.messages import RawMsg
from repro.kernel.component import Component
from repro.kernel.simtime import NS, TIME_INFINITY, US
from repro.parallel.model import WorkRecorder


def test_schedule_into_past_rejected():
    c = Component("c")
    c.now = 100
    with pytest.raises(ValueError):
        c.schedule(50, lambda: None)


def test_call_after_and_cancel():
    c = Component("c")
    fired = []
    ev = c.timer(10, fired.append, 1)
    c.call_after(20, fired.append, 2)
    c.cancel(ev)
    c.advance(100)
    assert fired == [2]


def test_advance_runs_events_and_sets_commit():
    c = Component("c")
    c.call_after(10, lambda: None)
    c.call_after(30, lambda: None)
    commit = c.advance(100)
    assert commit == 100
    assert c.now == 100
    assert c.events_processed == 2


def test_start_called_once():
    calls = []

    class C(Component):
        def start(self):
            calls.append(1)

    c = C("c")
    c.advance(10)
    c.advance(20)
    assert calls == [1]


def test_horizon_blocks_progress():
    a, b = Component("a"), Component("b")
    ea = a.attach_end(ChannelEnd("a.e", latency=10 * NS), lambda m: None)
    eb = b.attach_end(ChannelEnd("b.e", latency=10 * NS), lambda m: None)
    connect(ea, eb)
    a.call_after(50 * NS, lambda: None)
    commit = a.advance(1 * US)
    # no sync from b yet: a cannot execute its 50ns event
    assert commit == 0
    assert a.events_processed == 0
    assert ea in a.blocking_ends()
    # ping-pong sync rounds grow horizons by one latency each; after enough
    # rounds a's 50ns event becomes executable
    for _ in range(10):
        b.advance(1 * US)
        commit = a.advance(1 * US)
    assert a.events_processed == 1
    assert commit > 50 * NS


def test_unsynchronized_in_process_end_neither_blocks_nor_publishes():
    a, b = Component("a"), Component("b")
    ea = a.attach_end(ChannelEnd("a.e", latency=10 * NS), lambda m: None)
    eb = b.attach_end(ChannelEnd("b.e", latency=10 * NS), lambda m: None)
    connect(ea, eb)
    ea.synchronized = False
    a.call_after(50 * NS, lambda: None)
    assert a.advance(1 * US) == 1 * US and a.events_processed == 1
    assert a.blocking_ends() == [] and ea.tx_syncs == 0


def test_component_without_ends_is_unconstrained():
    c = Component("c")
    assert c.input_horizon() == TIME_INFINITY
    assert c.blocking_ends() == []


def test_message_dispatch_to_handler():
    a, b = Component("a"), Component("b")
    got = []
    ea = a.attach_end(ChannelEnd("a.e", latency=5 * NS), lambda m: None)
    eb = b.attach_end(ChannelEnd("b.e", latency=5 * NS),
                      lambda m: got.append((b.now, m.payload)))
    connect(ea, eb)
    ea.send(RawMsg(payload="hello"), now=0)
    for _ in range(5):
        a.advance(1 * US)
        b.advance(1 * US)
    assert got == [(5 * NS, "hello")]


def test_unhandled_message_raises():
    a, b = Component("a"), Component("b")
    ea = a.attach_end(ChannelEnd("a.e", latency=5 * NS))
    eb = b.attach_end(ChannelEnd("b.e", latency=5 * NS))  # no handler
    connect(ea, eb)
    ea.send(RawMsg(), now=0)
    with pytest.raises(NotImplementedError):
        for _ in range(5):
            a.advance(1 * US)
            b.advance(1 * US)


def test_work_recorder_accumulates_per_window():
    rec = WorkRecorder(window_ps=100)
    rec.note_work("c", 50, 10.0)
    rec.note_work("c", 99, 5.0)
    rec.note_work("c", 150, 7.0)
    assert rec.work["c"] == {0: 15.0, 1: 7.0}
    assert rec.total_work("c") == 22.0


def test_work_recorder_rejects_bad_window():
    with pytest.raises(ValueError):
        WorkRecorder(0)


def test_component_records_event_work():
    # per-event work reaches the work probe through its queue hook, and
    # add_work through the probe's shadow on the instance; work_cycles is
    # derived from both, and the component itself knows no recorder
    rec = WorkRecorder(window_ps=1000)
    c = Component("c")
    probe = rec.probe(c)
    c.cycles_per_event = 7.0
    c.call_after(10, lambda: None)
    c.call_after(20, lambda: c.add_work(3.0))
    c.advance(100)
    rec.note_result("c", probe.result())
    assert rec.work == {"c": {0: 2 * 7.0 + 3.0}}
    assert c.work_cycles == pytest.approx(17.0)
    assert c.queue.trace is None and "add_work" not in vars(c)
