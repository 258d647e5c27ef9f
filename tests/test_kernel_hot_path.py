"""One-frame scheduling and derived work: order and accounting unchanged.

``Component.call_after`` is a per-instance partial of
``EventQueue.post_after`` (a post: no handle), ``Component.timer`` its
handle twin, and the drain keeps no modeled work; these tests pin that
none of it moves an event or a cycle:

* ``timer`` draws the same ``(ts, seq)`` as ``schedule_at(owner, now +
  delay)`` would, also across the fast-mode queue swap;
* ``call_after`` returns nothing and builds no ``Event``, and no module of
  the package keeps what it returns;
* handles taken before the run still control their events in fast mode
  (the swap moves events instead of copying them);
* ``work_cycles`` and the work collector's windows equal the running sums
  the drain used to keep, event by event, on two fixed systems;
* a protocol host's delayed receive path follows the swap too.
"""

import ast
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.bench.workloads import TimerWheelComponent, build_mixed_system
from repro.kernel.component import Component
from repro.kernel.simtime import MS, US
from repro.netsim.network import NetworkSim
from repro.orchestration.instantiate import Instantiation
from repro.parallel.simulation import Observer, Simulation

from .test_strict_coordinator import fig9_ci_experiment


# -- call_after == schedule_at(owner, now + delay) ----------------------------

class _Program(Component):
    """Arms timers from a fixed list of delays: some before the run, the
    rest two per fired timer.  Logs every schedule's ``(ts, seq)`` and every
    firing's ``(now, seq)``."""

    def __init__(self, name, pre, delays, via_call_after, log):
        super().__init__(name)
        self.delays = list(delays)
        self.via_call_after = via_call_after
        self.log = log
        self.handles = {}
        for delay in pre:
            self._arm(delay)

    def _arm(self, delay):
        tok = len(self.handles)
        if self.via_call_after:
            ev = self.timer(delay, self._fire, tok)
        else:
            ev = self.queue.schedule_at(self, self.now + delay, self._fire, tok)
        self.handles[tok] = ev
        self.log.append(("arm", self.name, tok, ev.ts, ev.seq))

    def _fire(self, tok):
        self.log.append(("fire", self.name, tok, self.now,
                         self.handles[tok].seq))
        for _ in range(2):
            if self.delays:
                self._arm(self.delays.pop())


def _program_log(mode, programs, via_call_after):
    sim = Simulation(mode=mode)
    log = []
    for i, (pre, delays) in enumerate(programs):
        sim.add(_Program(f"p{i}", pre, delays, via_call_after, log))
    stats = sim.run(10_000)
    return log, stats.events


_delays = st.lists(st.integers(min_value=0, max_value=300), max_size=12)


@given(st.lists(st.tuples(_delays, _delays), min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_call_after_equals_schedule_at_now_plus_delay(programs):
    for mode in ("fast", "strict"):
        ref = _program_log(mode, programs, via_call_after=False)
        assert _program_log(mode, programs, via_call_after=True) == ref


def test_call_after_rejects_a_negative_delay():
    c = Component("c")
    with pytest.raises(ValueError, match="c: scheduling into the past"):
        c.call_after(-1, lambda: None)
    assert len(c.queue) == 0 and c.queue._seq == 0


def test_a_timer_wheel_run_builds_no_event():
    """Every timer of a wheel is a ``call_after`` post: a run of two wheels
    allocates no :class:`Event`, in either mode."""
    for mode in ("fast", "strict"):
        sim = Simulation(mode=mode)
        for k in range(2):
            sim.add(TimerWheelComponent(f"wheel{k}", 16, 2_000 + k))
        stats = sim.run(200_000)
        assert stats.events > 2_000, mode
        assert stats.event_allocations == 0, mode
    c = Component("c")
    assert c.call_after(5, lambda: None) is None
    assert len(c.queue) == 1 and c.queue.allocations == 0


def _kept_call_after_results(source, filename="<src>"):
    """``file:line`` of every ``call_after(...)`` whose result is assigned
    or returned in ``source``."""
    def is_call_after(node):
        return (isinstance(node, ast.Call)
                and isinstance(node.func, (ast.Attribute, ast.Name))
                and getattr(node.func, "attr",
                            getattr(node.func, "id", None)) == "call_after")

    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign,
                             ast.NamedExpr, ast.Return)):
            if node.value is not None and is_call_after(node.value):
                found.append(f"{filename}:{node.lineno}")
    return found


def test_no_module_keeps_a_call_after_result():
    """``call_after`` posts and returns ``None``: a site that needs the
    handle calls ``timer``.  The scan itself flags each way of keeping it."""
    assert len(_kept_call_after_results(
        "a = c.call_after(1, f)\n"
        "b: object = call_after(1, f)\n"
        "d += c.call_after(1, f)\n"
        "if (e := c.call_after(1, f)):\n    pass\n"
        "def g():\n    return c.call_after(1, f)\n"
        "c.call_after(1, f)\n"
        "h = c.timer(1, f)\n")) == 5
    root = pathlib.Path(repro.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        found += _kept_call_after_results(path.read_text(),
                                          str(path.relative_to(root)))
    assert found == []


# -- handles taken before the run ---------------------------------------------

class _PreRun(Component):
    """Schedules three events before the run; ``start`` cancels one and
    postpones another through the handles it kept."""

    def __init__(self, name):
        super().__init__(name)
        self.fired = []
        self.doomed = self.timer(10, self.fired.append, "doomed")
        self.moved = self.timer(20, self._note, "moved")
        self.call_after(30, self._note, "kept")

    def _note(self, tag):
        self.fired.append((tag, self.now))

    def start(self):
        self.cancel(self.doomed)
        assert self.postpone(self.moved, 40)


def test_fast_and_strict_agree_on_pre_run_handles():
    for mode in ("fast", "strict"):
        sim = Simulation(mode=mode)
        comps = [sim.add(_PreRun(n)) for n in ("a", "b")]
        stats = sim.run(100)
        for c in comps:
            assert c.fired == [("kept", 30), ("moved", 40)], mode
            assert len(c.queue) == 0, mode
        assert (stats.events, stats.postponed) == (4, 2), mode
        assert stats.cancelled_ratio == 2 / 6, mode


# -- derived work == the running sums the drain used to keep -----------------

class _RunningSums(Observer):
    """The old accounting, kept beside the new: per executed event (queue
    trace hook, called before the callback as the drain's inline sum was)
    and per ``add_work`` call, in execution order."""

    def __init__(self, monkeypatch, window_ps):
        self.window_ps = window_ps
        self.total = {}
        self.windows = {}
        inner = Component.add_work

        def add_work(comp, cycles):
            self._add(comp.name, comp.now, cycles)
            inner(comp, cycles)

        monkeypatch.setattr(Component, "add_work", add_work)

    def _add(self, name, ts, cycles):
        self.total[name] = self.total.get(name, 0.0) + cycles
        buckets = self.windows.setdefault(name, {})
        win = ts // self.window_ps
        buckets[win] = buckets.get(win, 0.0) + cycles

    def start(self, sim, until_ps):
        for queue in {id(c.queue): c.queue for c in sim.components}.values():
            prev = queue.trace

            def hook(owner, ts, prev=prev):
                self._add(owner.name, ts, owner.cycles_per_event)
                if prev is not None:
                    prev(owner, ts)
            queue.trace = hook


def _mixed(mode, window_ps):
    return Instantiation(build_mixed_system(), mode=mode,
                         work_window_ps=window_ps).build()


WORK_SYSTEMS = {
    "fig9_ci": (lambda w: fig9_ci_experiment(work_window_ps=w), 200 * US),
    "mixed_fast": (lambda w: _mixed("fast", w), 1 * MS),
    "mixed_strict": (lambda w: _mixed("strict", w), 1 * MS),
}


@pytest.mark.parametrize("name", sorted(WORK_SYSTEMS))
def test_derived_work_equals_the_running_sum(name, monkeypatch):
    build, until = WORK_SYSTEMS[name]
    window = 10 * US
    exp = build(window)
    ref = _RunningSums(monkeypatch, window)
    exp.sim.observers.append(ref)
    stats = exp.run(until).stats
    comps = exp.sim.components
    # exact equality: every cost constant is an integer-valued float
    assert stats.per_component_work == {
        c.name: ref.total.get(c.name, 0.0) for c in comps}
    assert exp.recorders["work"].work == ref.windows
    # the qemu hosts report extra work: the derived value is not just a count
    assert any(c.work_cycles != c.events_processed * c.cycles_per_event
               for c in comps)


def test_no_work_hook_without_a_work_window():
    sim = Simulation(mode="fast")
    sim.add(Component("c"))
    sim._wire()
    assert sim._shared_queue.trace is None


# -- protocol host receive delay across the swap ------------------------------

def test_fast_mode_host_with_rx_processing_delay_delivers():
    net = NetworkSim("n")
    a = net.add_host("a", addr=1)
    b = net.add_host("b", addr=2, rx_proc_delay_ps=3 * US)
    net.add_link(a, b, bandwidth_bps=1e9, latency_ps=1 * US)
    got = []
    b.stack.udp_socket(9, lambda pkt: got.append(net.now))
    sock = a.stack.udp_socket(8)
    net.schedule(0, lambda: sock.sendto(2, 9, 1000 - 46))
    sim = Simulation(mode="fast")
    sim.add(net)
    sim.run(100 * US)
    # 8 us serialization + 1 us propagation + 3 us receive processing
    assert got == [12 * US]
