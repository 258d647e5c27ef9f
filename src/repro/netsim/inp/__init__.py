"""In-network processing pipelines (programmable switch data planes).

The package imports none of its modules: import a pipeline from
:mod:`~repro.netsim.inp.netcache` or :mod:`~repro.netsim.inp.pegasus`.
"""
