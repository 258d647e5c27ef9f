#!/usr/bin/env python3
"""Packet-level tracing: inspect what actually happens on the wire.

Runs a small KV simulation with causal flow tracing on for every flow
(``Instantiation(flow_sample=1)``), then reads the hop records back with
:func:`repro.obs.inspect.flows.analyze_doc`: hops per link, one request's journey
end to end, and the client->switch hop split into serialization and
propagation — the "inspection of simulation logs" the paper uses to
explain its NetCache/Pegasus result.  ``splitsim-run --flows 1 --trace``
followed by ``splitsim-inspect flows`` gives the same view from the CLI.

Run:  python examples/packet_tracing.py
"""

from collections import Counter

from repro import MS, US, Instantiation, System
from repro.netsim.apps.kv import KVClientApp, KVServerApp
from repro.netsim.topology import single_switch_rack
from repro.obs.inspect.flows import analyze_doc
from repro.obs.trace import chrome_doc

LINK_HOPS = ("enq", "deq", "txdone")


def main() -> None:
    spec = single_switch_rack(servers=1, clients=1)
    addr = [spec.addr_of("server0")]
    spec.on_host("server0", lambda h: KVServerApp())
    spec.on_host("client0", lambda h: KVClientApp(addr, closed_loop_window=2))
    exp = Instantiation(System.from_topospec(spec), flow_sample=1).build()
    try:
        exp.run(2 * MS)
    finally:
        exp.disable_flow_tracing()
    report = analyze_doc(chrome_doc([exp.recorders["trace"].tracer]))
    flows = list(report.flows.values())

    hops = [h for fl in flows for h in fl.hops]
    print(f"traced {len(flows)} flows, {len(hops)} hops")
    print("\nlink hops per link:")
    per_link = Counter(h.at for h in hops if h.kind in LINK_HOPS)
    for label, count in sorted(per_link.items()):
        print(f"  {label:<24} {count}")

    journey = report.complete[0]
    print(f"\njourney of request flow {journey.flow:#x}:")
    for h in journey.hops:
        print(f"  t={h.ps / 1000:10.1f} ns  {h.kind:<9} {h.at or h.track}"
              f"  (+{h.dur_ps / 1000:.1f} ns {h.category})")

    # client0->tor: deq -> txdone is serialization; txdone -> the next hop
    # (the enqueue at the switch's egress) is propagation, which here
    # includes the switch's forwarding latency
    ser, prop = [], []
    for fl in flows:
        for h, nxt in zip(fl.hops, fl.hops[1:]):
            if h.kind == "txdone" and h.at == "client0->tor":
                ser.append(h.dur_ps)
                prop.append(nxt.dur_ps)
    print(f"\nclient0->tor over {len(ser)} packets: serialization "
          f"{sum(ser) / len(ser) / US:.3f} us + propagation "
          f"{sum(prop) / len(prop) / US:.3f} us")


if __name__ == "__main__":
    main()
