"""Execution runtimes: coordinator, multi-process runner, performance model.

The package imports none of its modules.  An in-process run loads the
coordinator (:mod:`~repro.parallel.simulation`) and the execution model
(:mod:`~repro.parallel.model`, :mod:`~repro.parallel.costmodel`) only;
``Experiment.run_mp`` loads the multiprocess runtime
(:mod:`~repro.parallel.procrunner`, :mod:`~repro.parallel.shm_ring`, and
with them ``multiprocessing`` and the wire codec) when it runs.
"""
