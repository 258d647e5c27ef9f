"""Execution runtimes: coordinator, multi-process runner, performance model.

The package imports none of its modules.  An in-process run loads the
coordinator (:mod:`~repro.parallel.simulation`) and the cost constants
(:mod:`~repro.parallel.costmodel`) only.  The execution model
(:mod:`~repro.parallel.model`) loads when a run records its input
(``Instantiation(work_window_ps=...)``) or ``Experiment.execution_model``
builds it; it reads its channel graph off the simulation
(:func:`~repro.parallel.model.model_channels`).  ``Experiment.run_mp``
loads the multiprocess runtime (:mod:`~repro.parallel.procrunner`,
:mod:`~repro.parallel.shm_ring` and the wire codec) when it runs.  That
runtime forks its children itself over anonymous shared mappings and
pipes, so it loads no ``multiprocessing`` and starts no resource tracker.
"""
