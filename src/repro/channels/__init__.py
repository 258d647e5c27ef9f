"""SplitSim channels: synchronized message links between simulators.

The package imports none of its modules; :mod:`~repro.channels.wire`, the
multiprocess codec, loads only with the multiprocess runtime.
"""
