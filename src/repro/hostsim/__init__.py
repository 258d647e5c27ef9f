"""Detailed host simulators (qemu / gem5 fidelity) and the simulated OS.

The package imports none of its modules: import a name from the module
that defines it.  ``Instantiation.build`` loads them only for a system
with a detailed host.
"""
