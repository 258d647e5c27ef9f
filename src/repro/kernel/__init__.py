"""Discrete-event kernel: time, events, components, deterministic RNG.

The package imports none of its modules: ``channels`` imports
:mod:`~repro.kernel.simtime` and :mod:`~repro.kernel.component` imports
``channels``, so a re-export here would close an import cycle.
"""
