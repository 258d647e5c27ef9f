"""Protocol-level applications (usable on detailed hosts too).

The package imports none of its modules: import an app from the module
that defines it (:mod:`~repro.netsim.apps.kv`,
:mod:`~repro.netsim.apps.bulk`, :mod:`~repro.netsim.apps.base`).
"""
