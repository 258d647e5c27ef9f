"""Property-based tests: partitioning never changes simulated behaviour.

For random tree topologies, random partition assignments, and random UDP
traffic, the partitioned simulation must deliver exactly the same packets
at exactly the same times as the monolithic one — SplitSim decomposition
is semantically transparent.
"""

from hypothesis import given, settings, strategies as st

from repro.kernel.rng import make_rng
from repro.kernel.simtime import MS, NS, US
from repro.netsim.topology import TopoSpec, instantiate
from repro.parallel.simulation import Simulation

GBPS = 1e9


@st.composite
def tree_topology(draw):
    """A random 2-level switch tree with hosts at the leaves."""
    n_l1 = draw(st.integers(min_value=1, max_value=3))
    hosts_per_switch = draw(st.integers(min_value=1, max_value=3))
    latency = draw(st.integers(min_value=200, max_value=3_000)) * NS
    n_msgs = draw(st.integers(min_value=1, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=100))
    return n_l1, hosts_per_switch, latency, n_msgs, seed


def build_spec(n_l1, hosts_per_switch, latency):
    spec = TopoSpec()
    spec.add_switch("root")
    hosts = []
    for i in range(n_l1):
        spec.add_switch(f"sw{i}")
        spec.add_link("root", f"sw{i}", 10 * GBPS, latency)
        for h in range(hosts_per_switch):
            name = f"h{i}_{h}"
            spec.add_host(name)
            spec.add_link(name, f"sw{i}", 10 * GBPS, latency)
            hosts.append(name)
    return spec, hosts


class Sender:
    """Scripted UDP sender."""

    def __init__(self, sends):
        self.sends = sends  # list of (time_ps, dst_addr)

    def bind(self, host):
        self.host = host

    def start(self):
        self.sock = self.host.stack.udp_socket(None, lambda pkt: None)
        for t, dst in self.sends:
            self.host.net.schedule(t, self.sock.sendto, dst, 9, 128)


class Receiver:
    def __init__(self, log):
        self.log = log

    def bind(self, host):
        self.host = host

    def start(self):
        self.host.stack.udp_socket(
            9, lambda pkt: self.log.append((self.host.name, self.host.now,
                                            pkt.src)))


def run(spec_args, n_msgs, seed, partition_labels):
    n_l1, hosts_per_switch, latency = spec_args
    spec, hosts = build_spec(n_l1, hosts_per_switch, latency)
    rng = make_rng(seed, "traffic")
    log = []
    sends_per_host = {h: [] for h in hosts}
    for _ in range(n_msgs):
        src = rng.choice(hosts)
        dst = rng.choice(hosts)
        t = rng.randrange(0, 500 * US)
        sends_per_host[src].append((t, spec.addr_of(dst)))
    for h in hosts:
        spec.on_host(h, lambda host, s=sends_per_host[h]: Sender(s))
        spec.on_host(h, lambda host: Receiver(log))

    assignment = None
    if partition_labels is not None:
        assignment = {}
        switches = sorted(spec.switches)
        for i, sw in enumerate(switches):
            assignment[sw] = partition_labels[i % len(partition_labels)]
        for h in hosts:
            # host joins its leaf switch's partition
            sw = h.split("_")[0].replace("h", "sw")
            assignment[h] = assignment[sw]
    build = instantiate(spec, assignment)
    sim = Simulation(mode="fast")
    for comp in build.all_components():
        sim.add(comp)
    for ea, eb in build.channels:
        sim.connect(ea, eb)
    sim.run(2 * MS)
    return sorted(log)


@given(tree_topology(),
       st.lists(st.sampled_from(["p0", "p1", "p2"]), min_size=1, max_size=3,
                unique=True))
@settings(max_examples=20, deadline=None)
def test_partitioning_is_transparent(topo, labels):
    n_l1, hosts_per_switch, latency, n_msgs, seed = topo
    spec_args = (n_l1, hosts_per_switch, latency)
    mono = run(spec_args, n_msgs, seed, None)
    part = run(spec_args, n_msgs, seed, labels)
    assert mono == part
    assert len(mono) == n_msgs  # every datagram delivered exactly once
