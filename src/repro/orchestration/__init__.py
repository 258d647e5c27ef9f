"""Configuration and orchestration: System -> Instantiation -> Experiment.

The package imports none of its modules: import a name from the module
that defines it (:mod:`~repro.orchestration.system`,
:mod:`~repro.orchestration.instantiate`,
:mod:`~repro.orchestration.strategies`).
"""
