"""Transport protocols shared by every host fidelity.

The package imports none of its modules: import from
:mod:`~repro.netsim.transport.stack` (``Stack``, ``UdpSocket``) and
:mod:`~repro.netsim.transport.tcp` (``TcpConnection``).
"""
