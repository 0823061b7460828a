"""End-to-end acceptance checks.

Every test here prints one PASS/FAIL line carrying the measured value
and the bound it is held to, then asserts. Run with

    pytest tests/test_acceptance.py -v -s

to see the lines for passing checks as well. The bounds are the
contract; the suites in the other test modules cover the fine-grained
behavior behind them.
"""

import io

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import expsim as es
from expsim import cli, decomp, krylov, meshgen, numkit, stepper
from conftest import (
    LADDER_NETLIST,
    RLC_VSOURCE_NETLIST,
    SCALAR_RC_NETLIST,
    SINGULAR_C_NETLIST,
    TWO_SOURCE_NETLIST,
    dense_exact,
    dense_exact_singular_c,
    ladder_matrices,
    read_waveform_csv,
    source_corners,
)

ECONOMY_NETLIST_HEAD = """* twenty-node ladder, two pulse trains with different shapes
I1 0 1 PULSE(0 1e-3 1e-11 1e-11 1e-11 2e-11 1e-10)
I2 0 10 PULSE(0 1e-3 3e-11 2e-11 2e-11 3e-11 2e-10)
"""


def _check(label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def economy_netlist() -> str:
    lines = [ECONOMY_NETLIST_HEAD]
    for i in range(1, 21):
        lines.append(f"R{i} {i} {i + 1 if i < 20 else 0} 10")
        lines.append(f"C{i} {i} 0 1e-12")
    lines.append(".TRAN 0 4e-10")
    lines.append(".END")
    return "\n".join(lines) + "\n"


def rational_op(system, gamma):
    return krylov.factor_operator(system.c, system.g, gamma)


def test_exp_action_matches_dense_oracle():
    """Both variants at full dimension reproduce dense e^{hA} v."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(2, 41))
        caps = 10 ** rng.uniform(-1.0, 2.0, n)
        gd, cd = ladder_matrices(n, caps, rng)
        g = numkit.from_scipy(sp.csc_matrix(gd))
        c = numkit.from_scipy(sp.csc_matrix(cd))
        a = -np.linalg.solve(cd, gd)
        h = 2.0 / np.abs(np.linalg.eigvals(a).real).max()
        gamma = h / 10
        v = rng.standard_normal(n)
        exact = scipy.linalg.expm(h * a) @ v
        for pole in (None, gamma):
            op = krylov.factor_operator(c, g, pole)
            basis = krylov.arnoldi(op, v, m_max=n)
            got = krylov.expm_action(basis, h)
            worst = max(worst, np.linalg.norm(got - exact) / np.linalg.norm(exact))
    _check("exp-action oracle", worst <= 1e-9,
           f"worst relative error {worst:.3e} <= 1e-9 over 25 systems, n <= 40")


# The largest basis either variant may need on the stiff meshes below.
STIFF_M_PEAK = 8


@pytest.mark.parametrize("n_nodes", [400, 900])
def test_stiff_mesh_dimension_ratio_and_error(n_nodes, stiff_mesh, request):
    """Shift-and-invert variants keep a one-digit basis on stiff meshes.

    At 400 nodes the error is measured against the exact states at the
    input corners. A dense reference at 900 nodes is slow, so there the
    reference is backward Euler at span / 20000, whose own error is
    about 0.065 %: that check only rules out gross errors.
    """
    if n_nodes == 400:
        mesh, _ = stiff_mesh
        system, corners, exact = request.getfixturevalue("stiff_mesh_exact")
        scale = np.abs(exact).max()
        bound = 1e-4
    else:
        mesh = meshgen.generate_mesh_netlist(n_nodes, 1e9, seed=7)
        system = es.build_system(mesh.text)
        span = system.t_stop - system.t_start
        ref = stepper.solve_transient_be(
            system, stepper.SolverConfig(method="be", h=span / 20000)
        )
        bound = 0.1
    peaks, errs = {}, {}
    for method in ("imatex", "rmatex"):
        run = stepper.solve_transient_matex(
            system, stepper.SolverConfig(method=method, e_tol=1e-8, m_max=120)
        )
        peaks[method] = run.m_peak
        if n_nodes == 400:
            assert np.array_equal(run.times, corners)
            errs[method] = 100.0 * np.abs(run.states - exact).max() / scale
        else:
            errs[method] = stepper.waveform_error(run, ref)
    ok = (
        mesh.measured_stiffness >= 1e8
        and max(peaks.values()) <= STIFF_M_PEAK
        and max(errs.values()) <= bound
    )
    _check(
        f"stiffness trend n={n_nodes}", ok,
        f"stiffness {mesh.measured_stiffness:.2e} >= 1e8; "
        f"m_peak {peaks['imatex']}/{peaks['rmatex']} (inv/rat) <= {STIFF_M_PEAK}; "
        f"err {errs['imatex']:.2e}%,{errs['rmatex']:.2e}% <= {bound:g}%",
    )


def test_superposition_merge_is_exact():
    """Decomposed runs reproduce the undecomposed run, and a repeated
    decomposed run gives the same bytes."""
    mesh = meshgen.generate_mesh_netlist(100, 1e4, seed=3, n_sources=3)
    system = es.build_system(mesh.text)
    span = system.t_stop - system.t_start

    # A fixed-step run is never split by run_superposed, so linearity is
    # checked on the group subsystems directly.
    tr_cfg = stepper.SolverConfig(method="tr", h=span / 600)
    plan = decomp.build_plan(system.sources, system.t_start, system.t_stop, system.num_sources)
    tr_sum = sum(
        stepper.solve_transient(system.subsystem(g), tr_cfg).states
        for g in plan.groups
    )
    tr_diff = np.abs(tr_sum - stepper.solve_transient(system, tr_cfg).states).max()

    rm_cfg = stepper.SolverConfig(method="rmatex", e_tol=1e-8)
    rm_diff = np.abs(
        decomp.run_superposed(system, rm_cfg, max_groups=system.num_sources).merged.states
        - stepper.solve_transient(system, rm_cfg).states
    ).max()

    first = decomp.run_superposed(system, rm_cfg, max_groups=system.num_sources).merged
    again = decomp.run_superposed(system, rm_cfg, max_groups=system.num_sources).merged
    same_bytes = (
        first.states.tobytes() == again.states.tobytes()
        and first.times.tobytes() == again.times.tobytes()
    )
    ok = (
        plan.num_groups > 1
        and tr_diff <= 1e-9
        and rm_diff <= 10 * rm_cfg.e_tol
        and same_bytes
    )
    _check(
        "superposition exactness", ok,
        f"tr diff over {plan.num_groups} groups {tr_diff:.2e} <= 1e-9; "
        f"rmatex diff {rm_diff:.2e} <= 1e-7; "
        f"repeated runs byte-identical: {same_bytes}",
    )


def test_substitution_economy():
    """Spot-to-spot stepping spends far fewer substitution pairs than a
    fixed-step run over the same span, and the largest group, the
    critical path when groups run on separate machines, spends under a
    third of them."""
    system = es.build_system(economy_netlist())
    span = system.t_stop - system.t_start
    n_fixed = 1000
    tr = stepper.solve_transient(
        system, stepper.SolverConfig(method="tr", h=span / n_fixed)
    )
    assert tr.substitution_pairs == n_fixed + 1

    sup = decomp.run_superposed(
        system, stepper.SolverConfig(method="rmatex", e_tol=1e-8), max_groups=system.num_sources
    )
    total_pairs = sup.merged.substitution_pairs
    max_pairs = max(r.substitution_pairs for r in sup.subtasks)
    measured = n_fixed / max_pairs
    ok = total_pairs < n_fixed and max_pairs < total_pairs and measured >= 3.0
    _check(
        "substitution economy", ok,
        f"decomposed pairs {total_pairs} < {n_fixed} fixed steps; "
        f"critical path {max_pairs} < {total_pairs} pairs over "
        f"{sup.plan.num_groups} groups; measured advantage {measured:.2f}x >= 3x",
    )


def test_error_budget_is_honored():
    """Final-time error stays within two orders of the requested budget."""
    system = es.build_system(LADDER_NETLIST)
    exact_final = dense_exact(system)
    e_tol = 1e-6
    errs = {}
    for method in ("imatex", "rmatex"):
        run = stepper.solve_transient_matex(
            system, stepper.SolverConfig(method=method, e_tol=e_tol)
        )
        errs[method] = np.abs(run.states[-1] - exact_final).max()
    worst = max(errs.values())
    _check(
        "error budget", worst <= 100 * e_tol,
        "final-time errors "
        + ", ".join(f"{k} {v:.2e}" for k, v in errs.items())
        + f" <= {100 * e_tol:.0e} at e_tol {e_tol:.0e}",
    )


@pytest.fixture(scope="module")
def stiff_mesh_exact(stiff_mesh):
    """The stiff mesh, its input corners and the exact states there."""
    _, system = stiff_mesh
    corners = source_corners(system, system.t_start, system.t_stop)
    return system, np.array(corners), dense_exact(system, corners)


@pytest.fixture(scope="module")
def singular_c_exact():
    """A ladder with an uncapacitated node, its corners and exact states."""
    system = es.build_system(TWO_SOURCE_NETLIST)
    corners = source_corners(system, system.t_start, system.t_stop)
    return system, np.array(corners), dense_exact_singular_c(system, corners)


@pytest.fixture(scope="module")
def rlc_vsource_exact():
    """An RLC line driven by a voltage source, its corners and exact states."""
    system = es.build_system(RLC_VSOURCE_NETLIST)
    corners = source_corners(system, system.t_start, system.t_stop)
    return system, np.array(corners), dense_exact_singular_c(system, corners)


SINGULAR_C_UNDER_REPORT = pytest.mark.xfail(
    strict=True,
    reason="the empirical estimate of a singular-C run under-reports: every "
    "basis stops at m = 2 and the realized error is 2.0e-3 (rmatex) and "
    "3.0e-4 (imatex) against estimate sums of 5.6e-14 and 1.1e-24 "
    "(CHANGES.md FOUND line on singular C; ROADMAP item 5)",
)

RLC_VSOURCE_UNDER_REPORT = pytest.mark.xfail(
    strict=True,
    reason="on the RLC line driven by a voltage source every basis stops at "
    "m = 2 and the max 2-norm error is 0.39 V, 33 % of the 1.18 V peak "
    "(rmatex), and 0.050 V (imatex), against estimate sums of 1.9e-12 and "
    "3.3e-23; e_tol 1e-4 gives the same errors and 1e-12 cuts rmatex's only "
    "to 0.19 V, while TR at 0.1 ps is within 2.9e-7 V of the same reference "
    "(CHANGES.md FOUND line on the RLC line; ROADMAP item 5)",
)


@pytest.mark.parametrize(
    "method,circuit",
    [
        pytest.param("rmatex", "stiff_mesh_exact", id="rmatex"),
        pytest.param("imatex", "stiff_mesh_exact", id="imatex"),
        pytest.param(
            "rmatex", "singular_c_exact", id="rmatex-singular-c",
            marks=SINGULAR_C_UNDER_REPORT,
        ),
        pytest.param(
            "imatex", "singular_c_exact", id="imatex-singular-c",
            marks=SINGULAR_C_UNDER_REPORT,
        ),
        pytest.param(
            "rmatex", "rlc_vsource_exact", id="rmatex-rlc-v",
            marks=RLC_VSOURCE_UNDER_REPORT,
        ),
        pytest.param(
            "imatex", "rlc_vsource_exact", id="imatex-rlc-v",
            marks=RLC_VSOURCE_UNDER_REPORT,
        ),
    ],
)
def test_estimate_bounds_realized_error(method, circuit, request):
    """The realized error at every sample stays within both the budget
    and the sum of the run's step estimates."""
    system, corners, exact = request.getfixturevalue(circuit)
    e_tol = 1e-8
    run = stepper.solve_transient(
        system, stepper.SolverConfig(method=method, e_tol=e_tol, m_max=40)
    )
    assert np.array_equal(run.times, corners)
    err = float(np.linalg.norm(run.states - exact, axis=1).max())
    est = sum(s.estimate for s in run.steps)
    _check(
        f"{method} realized error", err <= e_tol and err <= est,
        f"max 2-norm error {err:.2e} <= e_tol {e_tol:.0e} and <= the "
        f"step estimates' sum {est:.2e}",
    )


def test_rational_large_step_and_gamma_insensitivity(stiff_mesh):
    """At fixed dimension the rational variant gets more accurate as the
    step grows, and its dimension is insensitive to the shift choice."""
    _, system = stiff_mesh
    gd, cd = system.g.to_dense(), system.c.to_dense()
    a = -np.linalg.solve(cd, gd)
    v = np.random.default_rng(11).standard_normal(len(system.names))

    basis = krylov.arnoldi(rational_op(system, 1e-12), v, m_max=8)
    errs = {}
    for h in (1e-15, 1e-13):
        exact = scipy.linalg.expm(h * a) @ v
        got = krylov.expm_action(basis, h)
        errs[h] = np.linalg.norm(got - exact) / np.linalg.norm(exact)

    h = 5e-12
    dims = []
    for mult in (0.1, 10**-0.5, 1.0, 10**0.5, 10.0):
        b = krylov.arnoldi(
            rational_op(system, mult * h / 10), v,
            m_max=60, h=h, eps=1e-8 * np.linalg.norm(v),
        )
        dims.append(b.m)
    spread = max(dims) - min(dims)
    ok = errs[1e-13] < errs[1e-15] and spread <= 2
    _check(
        "rational large-step trend", ok,
        f"err at 100x step {errs[1e-13]:.2e} < err at base step {errs[1e-15]:.2e}; "
        f"m over two-decade shift sweep {dims}, spread {spread} <= 2",
    )


def test_cap_free_node_without_regularization():
    """A singular capacitance matrix is handled by the inverted and
    rational variants as-is."""
    system = es.build_system(SINGULAR_C_NETLIST)
    span = system.t_stop - system.t_start
    ref = stepper.solve_transient_be(
        system, stepper.SolverConfig(method="be", h=span / 20000)
    )
    results = {}
    for method, want_factor in (("imatex", 1), ("rmatex", 2)):
        run = stepper.solve_transient_matex(
            system, stepper.SolverConfig(method=method, e_tol=1e-8)
        )
        results[method] = (stepper.waveform_error(run, ref), run.factorizations)
    ok = all(
        err <= 0.5 and nf == want
        for (err, nf), want in zip(results.values(), (1, 2))
    )
    _check(
        "singular-C path", ok,
        f"imatex err {results['imatex'][0]:.4f}% (factorizations "
        f"{results['imatex'][1]}), rmatex err {results['rmatex'][0]:.4f}% "
        f"(factorizations {results['rmatex'][1]}) <= 0.5%",
    )


def test_baseline_convergence_orders():
    """TR is second order, BE first order, on the scalar RC fixture."""
    system = es.build_system(SCALAR_RC_NETLIST)
    exact = dense_exact(system)
    hs = np.array([0.02, 0.01, 0.005, 0.0025, 0.00125])
    slopes = {}
    for method in ("tr", "be"):
        errs = [
            abs(
                stepper.solve_transient(
                    system, stepper.SolverConfig(method=method, h=float(h))
                ).states[-1, 0]
                - exact[0]
            )
            for h in hs
        ]
        slopes[method] = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    ok = abs(slopes["tr"] - 2.0) <= 0.3 and abs(slopes["be"] - 1.0) <= 0.2
    _check(
        "baseline orders", ok,
        f"tr slope {slopes['tr']:.3f} in 2.0+-0.3; "
        f"be slope {slopes['be']:.3f} in 1.0+-0.2",
    )


def test_invariant_suites(estimator_family, ladder_system, audited_bases):
    """Basis audit, merge determinism and CSV round-trip all hold."""
    # every emitted basis is audited as it is built; force one here
    krylov.arnoldi(estimator_family.operators["rational"],
                   estimator_family.v, m_max=10)

    plan_a = decomp.build_plan(ladder_system.sources, 0.0, 4e-10, ladder_system.num_sources)
    plan_b = decomp.build_plan(ladder_system.sources, 0.0, 4e-10, ladder_system.num_sources)
    plans_equal = plan_a.groups == plan_b.groups and all(
        np.array_equal(x, y) for x, y in zip(plan_a.group_lts, plan_b.group_lts)
    )

    cfg = stepper.SolverConfig(method="rmatex", e_tol=1e-8)
    per_set = ladder_system.num_sources
    merged_1 = decomp.run_superposed(ladder_system, cfg, max_groups=per_set).merged
    before = audited_bases.count
    merged_2 = decomp.run_superposed(ladder_system, cfg, max_groups=per_set).merged
    recorded = audited_bases.count - before
    built = sum(1 for s in merged_2.steps if not s.reused and s.m > 0)
    all_recorded = recorded == built > 0
    merge_stable = merged_1.states.tobytes() == merged_2.states.tobytes()

    buf = io.StringIO()
    cli.write_waveform_csv(merged_1, buf)
    buf.seek(0)
    times, states, names = read_waveform_csv(buf)
    csv_exact = (
        names == merged_1.names
        and np.array_equal(times, merged_1.times)
        and np.array_equal(states, merged_1.states)
    )

    audited = audited_bases.count
    ok = audited > 0 and all_recorded and plans_equal and merge_stable and csv_exact
    _check(
        "invariants", ok,
        f"{audited} bases audited, {recorded} of {built} fresh bases of a rerun recorded; "
        f"plan determinism {plans_equal}; "
        f"repeated merge byte-identical {merge_stable}; csv round-trip {csv_exact}",
    )
