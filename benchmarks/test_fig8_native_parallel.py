"""Fig. 8 — SplitSim decomposition vs native parallelization (ns-3/OMNeT++).

The DONS FatTree8 configuration (k=8: 128 servers) runs a permutation
traffic workload.  The topology is evenly partitioned into 1, 2, 16, and 32
network processes; each partitioning is executed once (recording per-window
work) and the virtual-time model replays it under three synchronization
disciplines:

* ``splitsim``  — peer-to-peer shared-memory channel sync (this system);
* ``barrier``   — ns-3's native MPI grant-window (global barrier) scheme;
* ``nullmsg``   — OMNeT++'s native MPI null-message protocol.

OMNeT++ is modeled by scaling recorded work by the OMNeT/ns-3 per-event
cost ratio (network-simulator work is proportional to event count, so the
scaling is exact).

Paper claim: SplitSim outperforms both native schemes, with up to ~57%
lower simulation time.
"""

import pytest

from repro.kernel.simtime import MS, US
from repro.kernel.rng import make_rng
from repro.netsim.apps.kv import KVClientApp, KVServerApp  # noqa: F401
from repro.netsim.partition import assign_hosts_with_switch
from repro.netsim.topology import fat_tree, instantiate
from repro.orchestration.strategies import partition_fat_tree
from repro.parallel.costmodel import NS3_EVENT_CYCLES, OMNET_EVENT_CYCLES
from repro.obs.recorder import ProbeDriver
from repro.parallel.model import (ParallelExecutionModel, WorkRecorder,
                                  model_channels, scale_recorder)
from repro.parallel.simulation import Simulation

from common import paper_scale, print_table, run_once, save_results

K = 8  # FatTree8: 128 servers
RUN = (20 * MS) if paper_scale() else (5 * MS)
PARTITIONS = (1, 2, 16, 32)
WORK_WINDOW = 50 * US
RATE_RPS = 100_000.0 if paper_scale() else 40_000.0


def traffic(spec):
    """Random permutation request/response traffic across all hosts."""
    hosts = sorted(spec.hosts)
    rng = make_rng(77, "fig8-permutation")
    partners = hosts[:]
    rng.shuffle(partners)
    for src, dst in zip(hosts, partners):
        if src == dst:
            continue
        addr = spec.addr_of(dst)
        spec.on_host(dst, lambda h: _EchoSink())
        spec.on_host(src, lambda h, a=addr: _Requester(a))


class _EchoSink:
    def bind(self, host):
        self.host = host

    def start(self):
        sock = self.host.stack.udp_socket(9)
        sock.on_dgram = lambda pkt: sock.sendto(pkt.src, pkt.src_port, 64)


class _Requester:
    def __init__(self, dst_addr):
        self.dst_addr = dst_addr

    def bind(self, host):
        self.host = host

    def start(self):
        from repro.kernel.rng import exponential_ps
        from repro.kernel.simtime import SEC
        self.sock = self.host.stack.udp_socket(None, lambda pkt: None)
        self.mean_gap = int(SEC / RATE_RPS)
        self._next()

    def _next(self):
        from repro.kernel.rng import exponential_ps
        gap = exponential_ps(self.host.rng, self.mean_gap)
        self.host.call_after(gap, self._send)

    def _send(self):
        self.sock.sendto(self.dst_addr, 9, 200)
        self._next()


def run_partitioning(k_parts: int):
    spec = fat_tree(K)
    traffic(spec)
    assignment = assign_hosts_with_switch(spec, partition_fat_tree(spec, k_parts))
    pb = instantiate(spec, assignment)
    sim = Simulation(mode="fast")
    for comp in pb.all_components():
        sim.add(comp)
    for ea, eb in pb.channels:
        sim.connect(ea, eb)
    work = WorkRecorder(WORK_WINDOW)
    sim.observers.append(ProbeDriver(work))
    sim.run(RUN)
    names = [c.name for c in sim.components]
    return work, model_channels(sim.channels), names


def model_disciplines(k_parts: int):
    recorder, channels, names = run_partitioning(k_parts)
    out = {}
    ns3_model = ParallelExecutionModel(recorder, RUN, channels,
                                       components=names)
    out["ns3-native"] = ns3_model.run("barrier").wall_seconds
    out["ns3-splitsim"] = ns3_model.run("splitsim").wall_seconds
    omnet_rec = scale_recorder(recorder, OMNET_EVENT_CYCLES / NS3_EVENT_CYCLES)
    omnet_model = ParallelExecutionModel(omnet_rec, RUN, channels,
                                         components=names)
    out["omnet-native"] = omnet_model.run("nullmsg").wall_seconds
    out["omnet-splitsim"] = omnet_model.run("splitsim").wall_seconds
    return out


@pytest.fixture(scope="module")
def results():
    return {k: model_disciplines(k) for k in PARTITIONS}


SERIES = ("ns3-native", "ns3-splitsim", "omnet-native", "omnet-splitsim")


def test_fig8_splitsim_vs_native(benchmark, results):
    run_once(benchmark, lambda: model_disciplines(2))

    rows = [[k] + [f"{results[k][s]:.3f}" for s in SERIES]
            for k in PARTITIONS]
    print_table("Fig 8: FatTree8 simulation time (modeled wall s)",
                ["parts"] + list(SERIES), rows)
    save_results("fig8_native_parallel",
                 {str(k): results[k] for k in PARTITIONS})

    best_saving = 0.0
    for k in PARTITIONS:
        if k == 1:
            continue  # single process: no synchronization at all
        for engine in ("ns3", "omnet"):
            native = results[k][f"{engine}-native"]
            split = results[k][f"{engine}-splitsim"]
            # SplitSim is never slower than the native scheme
            assert split <= native * 1.01, (k, engine)
            best_saving = max(best_saving, 1 - split / native)
    # paper: up to 57% lower simulation time
    assert best_saving > 0.25

    # decomposition beats the single-process baseline for both engines
    for engine in ("ns3", "omnet"):
        single = results[1][f"{engine}-splitsim"]
        best = min(results[k][f"{engine}-splitsim"] for k in PARTITIONS)
        assert best < single
