"""Workload builders and determinism fixtures shared by benchmarks and tests.

The repository's one benchmark is ``benchmarks/ladder`` (declared in
``BENCHMARK.json``); it imports the kernel-rung components from
:mod:`repro.bench.workloads`.  :mod:`repro.bench.mp` holds the token
pipeline that pins multiprocess runs against the strict in-process
coordinator.
"""
