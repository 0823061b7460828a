"""Transient solvers: stepping grid, input terms, costs, accuracy."""

import tracemalloc

import numpy as np
import pytest

import expsim as es
from expsim import krylov, netlist, numkit, stepper
from expsim.errors import NoConvergence
from conftest import dense_exact

EXP_METHODS = ("imatex", "rmatex")

DC_RC_NETLIST = """* single pole, constant drive
I1 0 1 DC 1m
R1 1 0 1k
C1 1 0 1n
.TRAN 0 5e-6
.END
"""


@pytest.fixture()
def dc_rc_system():
    return es.build_system(DC_RC_NETLIST)


class TestSolverConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(method="euler"),
            dict(method="be"),
            dict(method="tr"),
            dict(method="be", h=0.0),
            dict(e_tol=0.0),
            dict(e_tol=-1e-9),
            dict(m_max=0),
            dict(e_tol=float("nan")),
            dict(e_tol=float("inf")),
            dict(method="tr", h=float("nan")),
            dict(m_max=1),
            dict(t_start=float("inf")),
        ],
    )
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError):
            stepper.SolverConfig(**kwargs)

    def test_defaults_are_valid(self):
        cfg = stepper.SolverConfig()
        assert cfg.method == "rmatex" and cfg.e_tol == 1e-6


class TestSpanAndGrid:
    def test_config_overrides_netlist_span(self, ladder_system):
        t0, t1 = stepper.resolve_span(
            ladder_system, stepper.SolverConfig(t_start=1e-11, t_stop=2e-10)
        )
        assert (t0, t1) == (1e-11, 2e-10)
        t0, t1 = stepper.resolve_span(ladder_system, stepper.SolverConfig())
        assert (t0, t1) == (0.0, 4e-10)

    def test_missing_span_is_an_error(self):
        sys_ = es.build_system("R1 1 0 1\nC1 1 0 1\nI1 0 1 DC 1\n.END\n")
        with pytest.raises(ValueError):
            stepper.resolve_span(sys_, stepper.SolverConfig())

    def test_config_span_that_ends_before_it_starts_is_an_error(self, ladder_system):
        cfg = stepper.SolverConfig(t_start=2e-10, t_stop=1e-10)
        with pytest.raises(ValueError, match="analysis span is empty"):
            stepper.resolve_span(ladder_system, cfg)

    def test_sourceless_circuit_is_an_error(self):
        sys_ = es.build_system("R1 a 0 1k\nC1 a 0 1p\n.TRAN 0 1n\n")
        for cfg in (
            stepper.SolverConfig(),
            stepper.SolverConfig(method="tr", h=1e-11),
        ):
            with pytest.raises(ValueError, match="no I or V source"):
                stepper.resolve_span(sys_, cfg)
            with pytest.raises(ValueError, match="no I or V source"):
                stepper.solve_transient(sys_, cfg)
            with pytest.raises(ValueError, match="no I or V source"):
                es.run_superposed(sys_, cfg)

    def test_pulse_repeating_past_the_cap_is_an_error(self, ladder_system):
        # Refused before any corner is listed: Pulse.transition_times
        # appends four corners per period. I1's period is 2e-10.
        cap = stepper.MAX_PULSE_PERIODS
        ok = stepper.SolverConfig(t_stop=(cap - 1) * 2e-10)
        assert stepper.resolve_span(ladder_system, ok) == (0.0, ok.t_stop)
        for t_stop in ((cap + 1) * 2e-10, 1e300):
            cfg = stepper.SolverConfig(t_stop=t_stop)
            with pytest.raises(ValueError, match=f"^source i1: .* more than {cap} pulse"):
                stepper.resolve_span(ladder_system, cfg)

    def test_active_transitions_masking(self, ladder_system):
        # A run sees the transitions of its own system's sources only.
        t0, t1 = 0.0, 4e-10
        pulse_only = stepper.active_transitions(ladder_system.subsystem([0]), t0, t1)
        np.testing.assert_allclose(
            pulse_only,
            [2e-11, 3e-11, 8e-11, 9e-11, 2.2e-10, 2.3e-10, 2.8e-10, 2.9e-10],
            rtol=1e-9,
        )
        pwl_only = stepper.active_transitions(ladder_system.subsystem([1]), t0, t1)
        np.testing.assert_allclose(pwl_only, [0.0, 5e-11, 4e-10], rtol=1e-9, atol=1e-30)
        both = stepper.active_transitions(ladder_system, t0, t1)
        assert both.size == pulse_only.size + pwl_only.size


def term_rows(terms, k):
    """w and theta at points k and k+1, formed as a step forms them."""
    u, w_cols, theta_cols = terms
    return u.T[k : k + 2] @ w_cols.T, u.T[k : k + 2] @ theta_cols.T


def input_terms(system, t, h):
    """F and P for the window [t, t+h] from fresh input terms."""
    points = np.array([t, t + h])
    terms = stepper._input_terms(system, numkit.lu_factorize(system.g), points)
    w, theta = term_rows(terms, 0)
    return w[0] + (theta[1] - theta[0]) / h, w[1] + (theta[1] - theta[0]) / h


def per_time_w_theta(system, g_factors, t):
    """w and theta at t from their own solves, as the definitions read."""
    w = -g_factors.solve(system.b @ system.eval_sources(t))
    return w, -g_factors.solve(system.c @ w)


MANY_DC_NETLIST = "R1 a 0 1k\nC1 a 0 1p\nR2 a b 1k\nC2 b 0 2p\n" + "".join(
    f"I{k} 0 {'ab'[k % 2]} DC {k}m\n" for k in range(1, 11)
) + ".TRAN 0 1n\n"


class TestInputTerms:
    def test_masked_off_drive_gives_zero_terms(self, ladder_system):
        # On [1e-11, 2e-11] the PWL source ramps while the pulse has not
        # started; the pulse-only subsystem leaves the ramp out.
        full_f, _ = input_terms(ladder_system, 1e-11, 1e-11)
        assert np.abs(full_f).max() > 0.0
        f, p = input_terms(ladder_system.subsystem([0]), 1e-11, 1e-11)
        np.testing.assert_array_equal(f, np.zeros(ladder_system.n))
        np.testing.assert_array_equal(p, np.zeros(ladder_system.n))

    def test_constant_drive_terms_equal_minus_dc_solution(self, dc_rc_system):
        f, p = input_terms(dc_rc_system, 0.0, 1e-6)
        u0 = dc_rc_system.eval_sources(0.0)
        w = -np.linalg.solve(
            dc_rc_system.g.to_dense(), dc_rc_system.b.to_dense() @ u0
        )
        np.testing.assert_allclose(f, w, rtol=1e-12)
        np.testing.assert_allclose(p, w, rtol=1e-12)

    def test_scalar_ramp_closed_form(self, scalar_rc_system):
        # G = C = 1 with drive u(t) = 10 t on [0, 0.1]:
        # w(t) = -10t, theta(t) = 10t, so F = 10 and P = 10 (1 - h).
        h = 0.05
        f, p = input_terms(scalar_rc_system, 0.0, h)
        np.testing.assert_allclose(f, [10.0], rtol=1e-10)
        np.testing.assert_allclose(p, [10.0 * (1.0 - h)], rtol=1e-10)

    def test_input_pairs_paid_once_when_built(self, ladder_system):
        # Two sources, three points: one W and one Theta column per
        # source, and every point's rows come from them without a solve.
        g_factors = numkit.lu_factorize(ladder_system.g)
        points = np.array([0.0, 1e-11, 2e-11])
        u, w_cols, theta_cols = stepper._input_terms(ladder_system, g_factors, points)
        assert u.shape == (2, 3)
        assert w_cols.shape == theta_cols.shape == (ladder_system.n, 2)
        assert g_factors.solve_count == 2 * ladder_system.num_sources == 4
        for k in range(points.size - 1):
            w, theta = term_rows((u, w_cols, theta_cols), k)
            assert w.shape == theta.shape == (2, ladder_system.n)

    def test_matches_per_time_solves(self, mixed_system):
        points = np.linspace(0.0, 4e-10, 17)
        g_factors = numkit.lu_factorize(mixed_system.g)
        terms = stepper._input_terms(mixed_system, g_factors, points)
        # I1 and I2 share a PULSE timing: five distinct waveforms.
        assert g_factors.solve_count == 2 * 5
        for k in range(points.size - 1):
            w, theta = term_rows(terms, k)
            for row, t in enumerate(points[k : k + 2]):
                for got, want in zip(
                    (w[row], theta[row]), per_time_w_theta(mixed_system, g_factors, t)
                ):
                    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_many_dc_sources_start_and_stay_at_operating_point(self):
        system = es.build_system(MANY_DC_NETLIST)
        assert system.num_sources == 10
        g_factors = numkit.lu_factorize(system.g)
        terms = stepper._input_terms(system, g_factors, np.array([0.0, 1e-9]))
        assert g_factors.solve_count == 2  # one constant column
        w, theta = term_rows(terms, 0)
        want_w, want_theta = per_time_w_theta(system, g_factors, 1e-9)
        np.testing.assert_allclose(w[1], want_w, rtol=1e-13)
        np.testing.assert_allclose(theta[1], want_theta, rtol=1e-13)
        # The run starts at the operating point -w(t0) and stays there.
        run = stepper.solve_transient(system, stepper.SolverConfig(e_tol=1e-8))
        np.testing.assert_allclose(run.states[0], -want_w, rtol=1e-13)
        np.testing.assert_allclose(run.states[-1], run.states[0], rtol=1e-12)

    TIMINGS = (
        "1e-11 1e-11 1e-11 3e-11 2e-10",
        "2e-11 1e-11 2e-11 2e-11 2e-10",
        "4e-11 2e-11 1e-11 1e-11 2e-10",
        "5e-11 1e-11 1e-11 5e-11 2e-10",
    )

    def many_source_run(self, n_src, n=400):
        """An n-node grounded ladder, n_src sources over the four timings:
        the run's (result, tracemalloc peak bytes)."""
        lines = [f"R{i} {i} {i - 1} 1\nRG{i} {i} 0 2\nC{i} {i} 0 1p" for i in range(1, n + 1)]
        lines += [
            f"I{j} 0 {1 + 7 * j % n} PULSE(0 {1 + j % 5}m {self.TIMINGS[j % 4]})"
            for j in range(n_src)
        ]
        system = es.build_system("\n".join(lines) + "\n.TRAN 0 4e-10\n")
        tracemalloc.start()
        try:
            run = stepper.solve_transient(system, stepper.SolverConfig(e_tol=1e-8))
            return run, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_many_sources_cost_their_distinct_waveforms(self):
        # 200 sources in 4 timings: 4 columns, 8 G pairs, and no block
        # of one column per source. Per source, one n-vector would be
        # 3.2 kB; 180 more sources add less than 25 % of the peak.
        few, few_peak = self.many_source_run(20)
        many, many_peak = self.many_source_run(200)
        assert (few.drive_rank, few.g_pairs) == (many.drive_rank, many.g_pairs) == (4, 8)
        assert many_peak < 1.25 * few_peak


class TestMatexSolvers:
    @pytest.mark.parametrize("method", EXP_METHODS)
    def test_matches_dense_propagation(self, ladder_system, method):
        cfg = stepper.SolverConfig(method=method, e_tol=1e-8)
        result = stepper.solve_transient(ladder_system, cfg)
        exact = dense_exact(ladder_system)
        err = np.linalg.norm(result.states[-1] - exact)
        assert err < 1e-8 * max(1.0, np.linalg.norm(exact))
        assert np.sum([s.h for s in result.steps]) == pytest.approx(4e-10)

    @pytest.mark.parametrize("method", EXP_METHODS)
    def test_budget_respected(self, ladder_system, method):
        cfg = stepper.SolverConfig(method=method, e_tol=1e-8)
        result = stepper.solve_transient(ladder_system, cfg)
        assert sum(s.estimate for s in result.steps) <= 100.0 * cfg.e_tol

    def test_factor_matex_refuses_fixed_step_methods(self, ladder_system):
        cfg = stepper.SolverConfig(method="tr", h=1e-11)
        with pytest.raises(ValueError, match="not an exponential method"):
            stepper.factor_matex(ladder_system, cfg, np.empty(0))

    def test_pwl_drive_is_read_at_its_own_breakpoint(self):
        # "100u" parses one ulp below 1e-4, the stepping point the corner
        # makes; the ramp from 0 starts there, so v(100 us) is exactly 0.
        sys_ = es.build_system(
            "I1 0 1 PWL(0 0 100u 0 100.0000005u 1m 200u 1m)\n"
            "R1 1 0 1k\nC1 1 0 10n\n.TRAN 0 1m\n"
        )
        cfg = stepper.SolverConfig(method="rmatex", e_tol=1e-8)
        result = stepper.solve_transient(sys_, cfg)
        (k,) = np.flatnonzero(result.times == 1e-4)
        assert abs(result.states[k, 0]) <= 1e-15

    def test_undecomposed_run_never_reuses(self, ladder_system):
        cfg = stepper.SolverConfig(method="rmatex", e_tol=1e-8)
        result = stepper.solve_transient(ladder_system, cfg)
        assert result.reused_steps == 0
        assert all(s.anchor == s.t for s in result.steps)

    @pytest.mark.parametrize("method,count", [("imatex", 2), ("rmatex", 3)])
    def test_factorization_count(self, ladder_system, method, count):
        cfg = stepper.SolverConfig(method=method, e_tol=1e-8)
        result = stepper.solve_transient(ladder_system, cfg)
        assert result.factorizations == count

    @pytest.mark.parametrize("method,count", [("imatex", 1), ("rmatex", 2)])
    def test_factorization_count_singular_c(self, singular_c_system, method, count):
        cfg = stepper.SolverConfig(method=method, e_tol=1e-8)
        result = stepper.solve_transient(singular_c_system, cfg)
        assert result.factorizations == count
        kinds = {s.estimate_kind for s in result.steps}
        assert kinds <= {"empirical", "breakdown"}

    def test_gamma_defaults_to_tenth_of_median_gap(self, ladder_system):
        # Spot gaps of the ladder drive sort to a 2e-11 median.
        cfg = stepper.SolverConfig(method="rmatex", e_tol=1e-8)
        result = stepper.solve_transient(ladder_system, cfg)
        assert result.gamma == pytest.approx(2e-12, rel=1e-6)
        cfg = stepper.SolverConfig(method="imatex", e_tol=1e-8)  # no shift, none reported
        assert stepper.solve_transient(ladder_system, cfg).gamma is None

    @pytest.mark.parametrize("method", ["rmatex", "tr"])
    def test_operating_point_at_overridden_start(self, method):
        # The drive steps to 1 mA long before the overridden start, so
        # the circuit sits at its 1 V operating point for the whole run.
        sys_ = es.build_system(
            "I1 0 a PWL(0 0 1n 0 1.01n 1m)\nR1 a 0 1k\nC1 a 0 1p\n.TRAN 0 5n\n"
        )
        cfg = stepper.SolverConfig(
            method=method, h=1e-11, e_tol=1e-9, t_start=3e-9, t_stop=5e-9
        )
        result = stepper.solve_transient(sys_, cfg)
        assert result.times[0] == 3e-9
        np.testing.assert_allclose(result.states[:, 0], 1.0, rtol=1e-9)

    def test_fixed_methods_rejected(self, ladder_system):
        with pytest.raises(ValueError):
            stepper.solve_transient_matex(
                ladder_system, stepper.SolverConfig(method="tr", h=1e-11)
            )

    @pytest.mark.parametrize("method", ["rmatex", "imatex"])
    def test_one_c_solve_per_exactly_accepted_basis(self, method):
        # The convergence probes reject on a solve-free floor of the
        # residual scale; only the probe a basis is accepted at solves
        # with C. On a grid with grounded caps only, C is diagonal and
        # the floor is the scale itself.
        mesh = es.generate_mesh_netlist(100, 1e9, seed=7)
        system = es.build_system(mesh.text)
        result = stepper.solve_transient(
            system, stepper.SolverConfig(method=method, e_tol=1e-8)
        )
        exact = [
            s for s in result.steps if not s.reused and s.estimate_kind == "exact"
        ]
        assert len(exact) > 10
        assert result.c_pairs == len(exact)
        assert result.substitution_pairs == (
            result.g_pairs + result.c_pairs + result.shift_pairs
        )

    def test_no_convergence_reports_the_exact_estimate(self, monkeypatch):
        # Probes below m_max may stop at the solve-free floor of the
        # estimate; the one NoConvergence reports is the exact one at
        # m_max, a basis of the failing start vector grown unconditionally.
        system = es.build_system(es.generate_mesh_netlist(100, 1e9, seed=7).text)
        calls = []
        build = krylov.arnoldi

        def recording(op, v, **kwargs):
            calls.append((op, v.copy(), kwargs))
            return build(op, v, **kwargs)

        monkeypatch.setattr(krylov, "arnoldi", recording)
        config = stepper.SolverConfig(method="rmatex", e_tol=1e-14, m_max=3)
        with pytest.raises(NoConvergence) as info:
            stepper.solve_transient(system, config)
        op, v, kwargs = calls[-1]
        full = build(op, v, m_max=3)
        exact, kind = krylov.step_error_estimate(full, kwargs["h"])
        floor, _ = krylov.step_error_estimate(full, kwargs["h"], kwargs["eps"])
        assert kind == "exact" and info.value.m == 3
        assert info.value.estimate == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert kwargs["eps"] < floor < exact * (1.0 - 1e-10)


class TestBasisReuse:
    def test_reuse_is_exact_for_constant_drive(self):
        # The drive ramps to 1 mA over the first microsecond and then
        # holds. The grid's later points are no corners of the drive:
        # one basis at the last corner serves every later step, and
        # every sample is exact.
        system = es.build_system(
            DC_RC_NETLIST.replace("DC 1m", "PWL(0 0 1e-6 1m 5e-6 1m)")
        )
        cfg = stepper.SolverConfig(method="rmatex", e_tol=1e-9)
        result = stepper.solve_transient(system, cfg, gts=np.linspace(0.0, 5e-6, 6))
        anchors = [s.anchor for s in result.steps]
        assert anchors == pytest.approx([0.0, 1e-6, 1e-6, 1e-6, 1e-6], abs=1e-18)
        assert result.reused_steps == 3
        exact = dense_exact(system, result.times)
        np.testing.assert_allclose(result.states, exact, atol=1e-9)

    def test_given_grid_keeps_own_corners(self):
        # A grid that skips the drive's corners must not step across
        # them: the run still steps on its own corners as well.
        system = es.build_system(
            "I1 0 1 PWL(0 0 1e-10 1m 2e-10 1m 2.1e-10 0)\n"
            "R1 1 0 1k\nC1 1 0 1p\n.TRAN 0 4e-10\n"
        )
        cfg = stepper.SolverConfig(method="rmatex", e_tol=1e-9)
        coarse = stepper.solve_transient(system, cfg, gts=np.array([0.0, 4e-10]))
        own = stepper.solve_transient(system, cfg)
        np.testing.assert_array_equal(coarse.times, own.times)
        np.testing.assert_allclose(coarse.states[-1], dense_exact(system), atol=1e-9)

    def test_grid_time_before_own_corner_is_a_point_of_its_own(self):
        # A grid time 2 fs before the drive's corner at 1 us snaps to
        # another femtosecond, so both are stepping points. The step from
        # the grid time still rides the ramp's basis; the corner, an own
        # spot, starts a fresh one.
        system = es.build_system(
            DC_RC_NETLIST.replace("DC 1m", "PWL(0 0 1u 1m 2u 0)")
        )
        own_spot = netlist.quantize_time(1e-6)
        grid_time = netlist.quantize_time(own_spot - 2e-15)
        gts = np.array([0.0, grid_time, 3e-6, 5e-6])
        cfg = stepper.SolverConfig(method="rmatex", e_tol=1e-9)
        result = stepper.solve_transient(system, cfg, gts=gts)
        steps = {s.t: s for s in result.steps}
        assert steps[grid_time].reused and steps[grid_time].anchor == 0.0
        assert not steps[own_spot].reused
        exact = dense_exact(system, result.times)
        np.testing.assert_allclose(result.states, exact, rtol=0, atol=1e-6)

    def test_short_edge_on_a_long_span_is_stepped(self):
        # A 0.5 ps edge 100 us into a 1 ms span is a spot of its own on
        # the femtosecond grid, however small a share of the span it is.
        system = es.build_system(
            "I1 0 1 PWL(0 0 100u 0 100.0000005u 1m 200u 1m)\n"
            "R1 1 0 1k\nC1 1 0 10n\n.TRAN 0 1m\n"
        )
        cfg = stepper.SolverConfig(method="rmatex", e_tol=1e-9)
        result = stepper.solve_transient(system, cfg)
        t_edge = netlist.parse_value("100.0000005u")
        assert netlist.quantize_time(t_edge) in result.times
        (i,) = np.flatnonzero(result.times == 2e-4)
        exact = 1 - np.exp(-(2e-4 - t_edge) / 1e-5)
        assert abs(result.states[i, 0] - exact) < 1e-6

    def test_decomposed_grid_matches_masked_run(self, ladder_system):
        # Restrict the drive to the PWL source; stepping on the full
        # grid with reuse must land where its own grid lands.
        pwl_only = ladder_system.subsystem([1])
        cfg = stepper.SolverConfig(method="rmatex", e_tol=1e-9)
        full = stepper.active_transitions(ladder_system, 0.0, 4e-10)
        decomposed = stepper.solve_transient(pwl_only, cfg, gts=full)
        plain = stepper.solve_transient(pwl_only, cfg)
        assert decomposed.reused_steps > 0
        scale = np.abs(plain.states).max()
        diff = np.abs(decomposed.states[-1] - plain.states[-1]).max()
        assert diff < 1e-6 * scale

    def test_fresh_steps_sit_on_local_transitions(self, ladder_system):
        cfg = stepper.SolverConfig(method="rmatex", e_tol=1e-9)
        full = stepper.active_transitions(ladder_system, 0.0, 4e-10)
        result = stepper.solve_transient(
            ladder_system.subsystem([1]), cfg, gts=full
        )
        fresh = [s for s in result.steps if not s.reused]
        assert sorted(s.t for s in fresh) == [0.0, 5e-11]
        for s in result.steps:
            assert s.anchor <= s.t
            assert s.estimate_kind in ("exact", "empirical", "breakdown")


class TestFixedStep:
    def test_steady_state_is_a_fixed_point(self, dc_rc_system):
        for method in ("tr", "be"):
            cfg = stepper.SolverConfig(method=method, h=2.5e-7)
            result = stepper.solve_transient(dc_rc_system, cfg)
            np.testing.assert_allclose(result.states, 1.0, rtol=1e-12)

    def test_tr_beats_be_at_equal_step(self, scalar_rc_system):
        exact = dense_exact(scalar_rc_system)
        errs = {}
        for method in ("tr", "be"):
            cfg = stepper.SolverConfig(method=method, h=0.01)
            result = stepper.solve_transient(scalar_rc_system, cfg)
            errs[method] = abs(result.states[-1, 0] - exact[0])
        assert errs["tr"] < 0.1 * errs["be"]

    def test_step_must_divide_span(self, scalar_rc_system):
        with pytest.raises(ValueError):
            stepper.solve_transient(
                scalar_rc_system, stepper.SolverConfig(method="tr", h=0.3)
            )

    @pytest.mark.parametrize("method,calls", [("tr", 2), ("be", 2), ("rmatex", 1)])
    def test_drive_is_evaluated_once_per_run(self, ladder_system, monkeypatch, method, calls):
        # The fixed-step runs add the operating point's call to the table's.
        shapes = []
        real = netlist.CircuitSystem.eval_sources
        monkeypatch.setattr(
            netlist.CircuitSystem, "eval_sources",
            lambda self, t: shapes.append(np.shape(t)) or real(self, t),
        )
        result = stepper.solve_transient(
            ladder_system, stepper.SolverConfig(method=method, h=1e-12, e_tol=1e-8)
        )
        assert len(shapes) == calls
        assert shapes[-1] == result.times.shape

    def test_cost_accounting(self, dc_rc_system):
        cfg = stepper.SolverConfig(method="be", h=5e-7)
        result = stepper.solve_transient(dc_rc_system, cfg)
        n_steps = 10
        assert result.times.size == n_steps + 1
        # one pair per step plus the operating-point solve
        assert result.substitution_pairs == n_steps + 1
        assert (result.g_pairs, result.c_pairs, result.shift_pairs) == (1, 0, n_steps)
        assert result.factorizations == 2


class TestPostprocessing:
    def test_waveform_error_interpolates_reference(self):
        ref = stepper.WaveformResult(
            times=np.array([0.0, 1.0, 2.0]),
            states=np.array([[0.0, 4.0], [1.0, 2.0], [2.0, 0.0]]),
            names=["v(1)", "v(2)"],
            method="be",
        )
        # Between its samples the reference reads [0.5, 3] and [1.5, 1].
        result = stepper.WaveformResult(
            times=np.array([0.5, 1.5]),
            states=np.array([[0.5, 3.0], [1.5, 1.06]]),
            names=["v(1)", "v(2)"],
            method="tr",
        )
        assert stepper.waveform_error(result, ref) == pytest.approx(2.0)

    def test_waveform_error_percent(self):
        ref = stepper.WaveformResult(
            times=np.array([0.0, 1.0, 2.0]),
            states=np.full((3, 1), 2.0),
            names=["v(1)"],
            method="be",
        )
        coarse = stepper.WaveformResult(
            times=np.array([0.0, 2.0]),
            states=np.array([[2.0], [2.02]]),
            names=["v(1)"],
            method="tr",
        )
        assert stepper.waveform_error(coarse, ref) == pytest.approx(1.0)

    def test_waveform_error_against_a_zero_reference_is_absolute(self):
        # No peak to normalize by: the scale falls back to 1.
        ref = stepper.WaveformResult(
            times=np.array([0.0, 1.0]), states=np.zeros((2, 1)), names=["v(1)"], method="be"
        )
        result = stepper.WaveformResult(
            times=np.array([0.0, 1.0]),
            states=np.array([[0.0], [0.25]]),
            names=["v(1)"],
            method="tr",
        )
        assert stepper.waveform_error(result, ref) == 25.0

    def test_result_properties(self, ladder_system):
        cfg = stepper.SolverConfig(method="rmatex", e_tol=1e-8)
        result = stepper.solve_transient(ladder_system, cfg)
        fresh = [s.m for s in result.steps if not s.reused]
        assert result.m_peak == max(fresh)
        assert result.m_average == pytest.approx(np.mean(fresh))
        assert result.n == ladder_system.n

    def test_costs_add_field_by_field(self, ladder_system):
        cfg = stepper.SolverConfig(method="rmatex", e_tol=1e-8)
        run = stepper.solve_transient(ladder_system, cfg)
        cost = stepper.RunCost() + run
        # The zero leaves every count and the steps as they were, and
        # the sum is a plain cost: the run's states stay behind.
        assert type(cost) is stepper.RunCost
        assert cost.steps == run.steps
        assert (cost.g_pairs, cost.c_pairs, cost.shift_pairs) == (
            run.g_pairs, run.c_pairs, run.shift_pairs
        )
        assert (cost.factorizations, cost.wall_time) == (run.factorizations, run.wall_time)
        twice = cost + run
        assert twice.steps == run.steps + run.steps
        assert twice.substitution_pairs == 2 * run.substitution_pairs
        assert twice.factorizations == 2 * run.factorizations
        assert twice.wall_time == 2 * run.wall_time
        assert twice.reused_steps == 2 * run.reused_steps
        assert sum([cost, cost], stepper.RunCost(factorizations=3)).factorizations == (
            3 + 2 * run.factorizations
        )
