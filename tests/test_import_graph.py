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

#: What an in-process run must not load: the multiprocess runtime and its
#: codec, the control-plane socket, and recorders nobody declared.
NOT_IN_PROCESS = ("multiprocessing", "socket", "repro.parallel.procrunner",
                  "repro.parallel.shm_ring", "repro.channels.wire",
                  "repro.obs.live", "repro.obs.audit", "repro.obs.timeline")

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
"""


def test_an_in_process_run_loads_the_core_only():
    """A fast and a strict run load neither the multiprocess runtime nor
    the control plane nor an undeclared recorder; ``run_mp`` still works
    in the same interpreter afterwards."""
    proc = fresh(IN_PROCESS_RUNS, *NOT_IN_PROCESS)
    assert proc.returncode == 0, proc.stderr[-2000:]
    loaded, ran_mp = proc.stdout.splitlines()[-2:]
    assert loaded == "[]", f"an in-process run loaded {loaded}"
    assert ran_mp == "True"


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


@pytest.mark.parametrize("script", ["splitsim-run", "splitsim-inspect",
                                    "splitsim-profile"])
def test_entry_point_help_exits_zero(script):
    """Each console script of pyproject.toml imports and prints its help."""
    module, function = re.search(
        rf'^{script} = "([\w.]+):(\w+)"$',
        (ROOT / "pyproject.toml").read_text(), re.M).groups()
    proc = fresh(f"import sys\nsys.argv = [{script!r}, '--help']\n"
                 f"from {module} import {function}\nsys.exit({function}())")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.startswith("usage:"), proc.stdout[:200]
