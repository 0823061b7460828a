"""The benchmark's per-layer tracer must find every name it wraps.

perfbench/run.py traces the program's public functions by name; a
renamed or deleted target makes Tracer.install raise KeyError or
AttributeError, and the traced benchmark run fails. This check loads
the benchmark module as it stands and installs its full target list on
the package under test.
"""

import importlib.util
import sys
import types
from pathlib import Path

import pytest

import expsim as es
from expsim import decomp, krylov, netlist, stepper

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.fixture(scope="module")
def bench_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up in sys.modules while the class
    # body executes.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture()
def tracer(bench_run):
    """A tracer over the benchmark's full layer target list, not installed."""
    names = ("cli", "decomp", "errors", "krylov", "netlist", "numkit", "stepper")
    bench = types.SimpleNamespace(**dict(zip(names, bench_run.import_program())))
    bench.stage_targets = lambda: bench_run.Bench.stage_targets(bench)
    return bench_run.Tracer(bench_run.Bench.layer_targets(bench))


def test_every_layer_target_installs(tracer):
    original = krylov.arnoldi
    # Bases on this mesh are accepted on the exact estimate, which
    # applies A once; the ladder's all end in happy breakdown.
    text = es.generate_mesh_netlist(50, 1e9, seed=7).text
    try:
        # A missing target raises here, after the earlier ones are
        # wrapped; finally puts those back for the rest of the suite.
        tracer.install()
        system = netlist.build_system(text)
        stepper.solve_transient(system, stepper.SolverConfig(e_tol=1e-8))
    finally:
        tracer.uninstall()
    assert krylov.arnoldi is original
    spans = tracer.spans
    traced = {span.name for span in spans}
    assert {"krylov.arnoldi", "krylov.VariantOperator.apply",
            "krylov.VariantOperator.ode_apply", "numkit.LuFactors.solve"} <= traced
    # setup_s, netlist.parse_s and netlist.stamp_s read these spans.
    (build,) = [k for k, s in enumerate(spans) if s.name == "netlist.build_system"]
    assert sorted(s.name for s in spans if s.parent == build) == [
        "netlist.parse_netlist", "netlist.stamp_mna"
    ]


# workers=2 is the call shape of perfbench/run.py on grid10k-groups.
@pytest.mark.parametrize("workers", [1, 2])
def test_group_runs_hang_under_the_superposed_run(tracer, ladder_system, workers):
    # layers_of counts decomp.groups and parallel_eff from exactly the
    # stepper.solve_transient spans whose parent is decomp.run_superposed.
    # With 2 workers the groups run in child processes, whose spans the
    # tracer in this process never sees.
    try:
        tracer.install()
        run = decomp.run_superposed(
            ladder_system, stepper.SolverConfig(e_tol=1e-8), workers=workers
        )
    finally:
        tracer.uninstall()
    spans = tracer.spans
    groups = [s for s in spans if s.name == "stepper.solve_transient"]
    assert run.plan.num_groups == 2
    assert run.workers == workers
    assert "decomp.run_superposed" in {s.name for s in spans}
    if workers == 1:
        assert len(groups) == run.plan.num_groups
        assert all(spans[s.parent].name == "decomp.run_superposed" for s in groups)
    else:
        assert groups == []


def test_fixed_step_run_is_traced(tracer, ladder_system):
    # layers_of reads grid10k-tr's step time from the
    # stepper.solve_transient_tr span less its direct dc_analysis and
    # lu_factorize children, and counts eval_sources spans.
    try:
        tracer.install()
        stepper.solve_transient(ladder_system, stepper.SolverConfig(method="tr", h=1e-12))
    finally:
        tracer.uninstall()
    spans = tracer.spans
    (tr,) = [k for k, s in enumerate(spans) if s.name == "stepper.solve_transient_tr"]
    assert [s.parent for s in spans if s.name == "netlist.dc_analysis"] == [tr]
    assert "netlist.CircuitSystem.eval_sources" in {s.name for s in spans}
