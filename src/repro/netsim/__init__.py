"""Packet-level network simulator (the reproduction's ns-3/OMNeT++).

The package imports none of its modules: import a name from the module
that defines it.  A network build loads the topology, the network
simulator and what it runs (:mod:`~repro.netsim.topology`,
:mod:`~repro.netsim.network`, links, queues, switches, the transport and
the apps).  The partitioner (:mod:`~repro.netsim.partition`), PTP
transparent clocks (:mod:`~repro.netsim.ptp_tc`), the fidelity tiers
(:mod:`~repro.netsim.fidelity`, :mod:`~repro.netsim.fluid`) and the
in-network programs (:mod:`~repro.netsim.inp`) load when a build uses
them.
"""
