"""Guest applications for detailed hosts (daemons and workloads).

The package imports none of its modules: import an app from
:mod:`~repro.hostsim.guest.clocksync` or :mod:`~repro.hostsim.guest.crdb`.
"""
