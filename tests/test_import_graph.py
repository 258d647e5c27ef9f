"""The import graph follows the layer graph.

An in-process run loads the simulator core and nothing else; the
multiprocess runtime, the control-plane socket and the recorders load
when a run uses them (DESIGN.md §2, "What loads when").  Every check runs
in a fresh interpreter: this one imported everything long ago.
"""

import os
import pkgutil
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent

#: What no run loads, in process or multiprocess: the run path's records
#: are plain classes, so nothing generates code at import.
NOT_IN_ANY_RUN = ("dataclasses", "inspect")

#: What ``run_mp`` without a control plane must not load: it forks its
#: children itself over anonymous shared mappings and pipes, so neither
#: the ``multiprocessing`` stack nor its resource tracker nor a socket.
NOT_IN_MP_RUN = ("multiprocessing", "multiprocessing.resource_tracker",
                 "socket") + NOT_IN_ANY_RUN

#: What an in-process run must not load: the multiprocess runtime and its
#: codec, the control-plane socket, recorders nobody declared, and
#: :data:`NOT_IN_ANY_RUN`.
NOT_IN_PROCESS = ("multiprocessing", "socket", "repro.parallel.procrunner",
                  "repro.parallel.shm_ring", "repro.channels.wire",
                  "repro.obs.live", "repro.obs.audit",
                  "repro.obs.timeline") + NOT_IN_ANY_RUN

#: The package and every module in it (a ``__main__`` runs its CLI).
MODULES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if not info.name.endswith(".__main__"))


def fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` with ``args`` in a new interpreter that imports this
    checkout."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def first_imports():
    """Each module imported first and alone, one interpreter each, a few
    at a time."""
    with ThreadPoolExecutor(min(4, os.cpu_count() or 1)) as pool:
        return dict(zip(MODULES, pool.map(
            lambda name: fresh(f"import {name}"), MODULES)))


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first_and_alone(first_imports, module):
    """No import cycle hides behind the order other modules load in."""
    proc = first_imports[module]
    assert proc.returncode == 0, proc.stderr[-2000:]


IN_PROCESS_RUNS = """
import sys
from repro import US, Instantiation
from repro.bench.workloads import build_mixed_system

for mode in ("fast", "strict"):
    Instantiation(build_mixed_system(), mode=mode).build().run(200 * US)
print(sorted(set(sys.argv[1:]) & set(sys.modules)))
exp = Instantiation(build_mixed_system()).build()
results = exp.run_mp(200 * US, timeout_s=120)
print(sorted(results) == sorted(c.name for c in exp.sim.components))
print(sorted(set(%r) & set(sys.modules)))
""" % (NOT_IN_MP_RUN,)


def test_an_in_process_run_loads_the_core_only():
    """A fast and a strict run load neither the multiprocess runtime nor
    the control plane nor an undeclared recorder nor :mod:`dataclasses`;
    ``run_mp`` still works in the same interpreter afterwards, and loads
    neither :mod:`dataclasses` nor :mod:`multiprocessing` nor
    :mod:`socket`."""
    proc = fresh(IN_PROCESS_RUNS, *NOT_IN_PROCESS)
    assert proc.returncode == 0, proc.stderr[-2000:]
    loaded, ran_mp, loaded_mp = proc.stdout.splitlines()[-3:]
    assert loaded == "[]", f"an in-process run loaded {loaded}"
    assert ran_mp == "True"
    assert loaded_mp == "[]", f"run_mp loaded {loaded_mp}"


#: What a build of a protocol-level network must not load: the layers it
#: does not build (hosts, NICs, the partitioner, PTP clocks, the fidelity
#: tiers), the execution model with its collector contract, and the flow
#: post-processor.  A name covers its submodules.
NOT_IN_A_PROTOCOL_BUILD = (
    "repro.hostsim", "repro.nicsim", "repro.netsim.partition",
    "repro.netsim.ptp_tc", "repro.netsim.fidelity", "repro.parallel.model",
    "repro.obs.recorder", "repro.obs.telemetry", "repro.obs.inspect")

PROTOCOL_BUILDS = """
import sys
from repro import US, Instantiation, System
from repro.netsim.apps.bulk import BulkSender, BulkSink
from repro.netsim.apps.kv import KVClientApp, KVServerApp
from repro.netsim.topology import fat_tree
from repro.orchestration.strategies import partition_fat_tree


def fat_tree_kv_bulk():
    system = System.from_topospec(fat_tree(k=4), seed=5)
    server, *clients = system.protocol_hosts()[:4]
    src, dst = system.protocol_hosts()[-2:]
    system.app(server, lambda h: KVServerApp())
    addr = system.addr_of(server)
    for name in clients:
        system.app(name, lambda h: KVClientApp([addr], closed_loop_window=4))
    system.app(dst, lambda h: BulkSink(port=5001))
    system.app(src, lambda h, d=system.addr_of(dst): BulkSender(d, 5001))
    return system


def loaded():
    return sorted(m for m in sys.modules for p in sys.argv[1:]
                  if m == p or m.startswith(p + "."))


exp = Instantiation(fat_tree_kv_bulk()).build()
exp.run(200 * US)
print(loaded())
system = fat_tree_kv_bulk()
exp = Instantiation(system, mode="strict",
                    network_partition=partition_fat_tree(system.spec, 2)).build()
exp.run(200 * US)
print(loaded(), len(exp.sim.components))
"""


def test_a_protocol_level_build_loads_only_its_layers():
    """A fast fat-tree build with KV and bulk apps loads no host or NIC
    simulator, partitioner, PTP clock, fidelity tier, execution model or
    flow post-processor; its strict 2-way partitioned twin adds the
    partitioner and nothing else from that list."""
    proc = fresh(PROTOCOL_BUILDS, *NOT_IN_A_PROTOCOL_BUILD)
    assert proc.returncode == 0, proc.stderr[-2000:]
    fast, partitioned = proc.stdout.splitlines()[-2:]
    assert fast == "[]", f"a fast protocol-level build loaded {fast}"
    assert partitioned == "['repro.netsim.partition'] 2", partitioned


def test_public_names_resolve():
    """Every name ``repro`` exports, and every ``from repro... import``
    line of the quick starts."""
    lines = [line for doc in ("README.md", "DESIGN.md",
                              "src/repro/__init__.py")
             for line in re.findall(r"^\s*(from repro[\w.]* import [\w, ]+)$",
                                    (ROOT / doc).read_text(), re.M)]
    assert lines, "no quick-start import line found"
    proc = fresh("\n".join(["import repro",
                            "for name in repro.__all__: getattr(repro, name)",
                            *lines]))
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("script", ["splitsim-run", "splitsim-inspect"])
def test_entry_point_help_exits_zero(script):
    """Each console script of pyproject.toml imports and prints its help."""
    module, function = re.search(
        rf'^{script} = "([\w.]+):(\w+)"$',
        (ROOT / "pyproject.toml").read_text(), re.M).groups()
    proc = fresh(f"import sys\nsys.argv = [{script!r}, '--help']\n"
                 f"from {module} import {function}\nsys.exit({function}())")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.startswith("usage:"), proc.stdout[:200]
