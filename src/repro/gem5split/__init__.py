"""Decomposed multi-core architectural simulation (the gem5 split).

The package imports none of its modules: import from
:mod:`~repro.gem5split.build` (``build_multicore``, ``measure_multicore``,
``validate_against_sequential``) and :mod:`~repro.gem5split.workload`
(``WorkloadSpec``, ``CoreProgram``).
"""
