"""SplitSim profiler: post-processing of epoch rows, and the WTPG.

A tool, not run-time code: the package imports none of its modules, and a
simulation loads :mod:`~repro.profiler.postprocess` only when
``Experiment.profile_analysis`` is called.
"""
