"""Fig. 10 — wait-time profile graphs locate simulation bottlenecks.

For the Fig. 9 setup with qemu hosts, generate the WTPG for the coarse
``ac`` partitioning and the finer ``cr3`` partitioning:

* under ``ac``, the aggregation-block network processes (which each carry
  several racks of background traffic) wait the least — they are the
  bottleneck and show up red;
* under ``cr3``, the network is spread across more processes and the
  bottleneck shifts toward the qemu host simulators.

DOT renderings are written to ``results/`` so they can be inspected with
Graphviz, matching the paper's automatically generated graphs.
"""

import pytest

from repro.kernel.simtime import MS, US
from repro.profiler.instrument import rows_from_model
from repro.profiler.postprocess import analyze
from repro.profiler.wtpg import build_wtpg, save_dot, to_text

from common import print_table, run_once, save_results
from test_fig9_partition_strategies import (STRATEGIES, build_system,
                                            scaled_model, strategy_rs,
                                            Instantiation, RUN, WORK_WINDOW)


@pytest.fixture(scope="module")
def profile_graphs(tmp_path_factory):
    system = build_system("qemu")
    inst = Instantiation(system, network_partition=strategy_rs,
                        work_window_ps=WORK_WINDOW)
    exp = inst.build()
    exp.run(RUN)
    model = scaled_model(exp)
    rs_assignment = strategy_rs(system.spec)

    out = {}
    for name in ("ac", "cr3"):
        target = STRATEGIES[name](system.spec)
        groups = {}
        for comp in exp.sim.components:
            cname = comp.name
            if cname.startswith("net."):
                rs_label = cname[len("net."):]
                switches = [sw for sw, lab in rs_assignment.items()
                            if lab == rs_label]
                groups[cname] = "net." + target[switches[0]]
            else:
                groups[cname] = cname
        res = model.run("splitsim", groups=groups)
        analysis = analyze(rows_from_model(res))
        out[name] = (res, analysis, build_wtpg(analysis))
    return out


def test_fig10_wtpg_locates_bottlenecks(benchmark, profile_graphs):
    run_once(benchmark,
             lambda: analyze(rows_from_model(profile_graphs["ac"][0])))

    rows = []
    for name, (res, analysis, graph) in profile_graphs.items():
        print(to_text(graph, title=f"partition strategy {name}"))
        save_dot(graph, f"results/fig10_wtpg_{name}.dot",
                 title=f"partition {name}")
        for comp in sorted(analysis.components):
            cm = analysis.components[comp]
            rows.append([name, comp, f"{cm.wait_fraction:.2f}",
                        f"{cm.efficiency:.2f}"])
    print_table("Fig 10: per-component wait fraction / efficiency",
                ["strategy", "component", "wait frac", "efficiency"], rows)
    save_results("fig10_profiler", {
        name: {comp: {"wait_fraction": cm.wait_fraction,
                      "efficiency": cm.efficiency}
               for comp, cm in analysis.components.items()}
        for name, (res, analysis, _g) in profile_graphs.items()})

    ac_analysis = profile_graphs["ac"][1]
    cr3_analysis = profile_graphs["cr3"][1]

    def waits(analysis, pred):
        return [cm.wait_fraction for comp, cm in analysis.components.items()
                if pred(comp)]

    is_net = lambda c: c.startswith("net.") and "core" not in c
    is_host = lambda c: c.endswith(".host")

    # ac: the bottleneck (lowest-wait component) is a network process
    # carrying racks — the hosts wait on it (paper Fig 10a)
    assert min(waits(ac_analysis, is_net)) < min(waits(ac_analysis, is_host))

    # cr3: with the network spread across more processes, the bottleneck
    # shifts toward the qemu hosts: they now wait the least (paper Fig 10b:
    # "the bottleneck are starting to shift towards the two qemu instances")
    assert min(waits(cr3_analysis, is_host)) < min(waits(cr3_analysis, is_net))

    # the bottleneck-detection API agrees with the visual reading
    from repro.profiler.wtpg import bottleneck_nodes
    graph_ac = profile_graphs["ac"][2]
    bn = bottleneck_nodes(graph_ac, threshold=0.3)
    assert bn, "profiler should identify at least one bottleneck"
    assert any(n.startswith("net.") for n in bn)
