"""Transient solvers: stepping grid, input terms, costs, accuracy."""

import numpy as np
import pytest

import expsim as es
from expsim import numkit, stepper
from expsim.errors import StructurallySingular
from conftest import dense_exact

EXP_METHODS = ("mexp", "imatex", "rmatex")

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
            dict(input_path="phi"),
            dict(method="imatex", input_path="aug"),
            dict(method="tr"),
            dict(method="be", h=0.0),
            dict(e_tol=0.0),
            dict(e_tol=-1e-9),
            dict(m_max=0),
            dict(gamma=-1e-12),
        ],
    )
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError):
            stepper.SolverConfig(**kwargs)

    def test_defaults_are_valid(self):
        cfg = stepper.SolverConfig()
        assert cfg.method == "rmatex" and cfg.input_path == "fp"


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

    def test_active_transitions_masking(self, ladder_system):
        t0, t1 = 0.0, 4e-10
        pulse_only = stepper.active_transitions(
            ladder_system, t0, t1, mask=np.array([True, False])
        )
        np.testing.assert_allclose(
            pulse_only,
            [2e-11, 3e-11, 8e-11, 9e-11, 2.2e-10, 2.3e-10, 2.8e-10, 2.9e-10],
            rtol=1e-9,
        )
        pwl_only = stepper.active_transitions(
            ladder_system, t0, t1, mask=np.array([False, True])
        )
        np.testing.assert_allclose(pwl_only, [0.0, 5e-11, 4e-10], rtol=1e-9, atol=1e-30)
        both = stepper.active_transitions(ladder_system, t0, t1)
        assert both.size == pulse_only.size + pwl_only.size
        none = stepper.active_transitions(
            ladder_system, t0, t1, mask=np.array([False, False])
        )
        assert none.size == 0


def input_terms(system, t, h, mask=None):
    """F and P for the window [t, t+h] from a fresh tracker."""
    tracker = stepper._InputTracker(system, numkit.lu_factorize(system.g), mask)
    return tracker.f_term(t, t + h), tracker.p_term(t, t + h)


class TestInputTerms:
    def test_masked_off_drive_gives_zero_terms(self, ladder_system):
        f, p = input_terms(
            ladder_system, 1e-11, 1e-11, mask=np.array([False, False])
        )
        np.testing.assert_array_equal(f, np.zeros(ladder_system.n))
        np.testing.assert_array_equal(p, np.zeros(ladder_system.n))

    def test_constant_drive_terms_equal_minus_dc_solution(self, dc_rc_system):
        f, p = input_terms(dc_rc_system, 0.0, 1e-6)
        u0, _ = dc_rc_system.eval_sources(0.0)
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

    def test_two_substitutions_per_new_time_point(self, ladder_system):
        g_factors = numkit.lu_factorize(ladder_system.g)
        tracker = stepper._InputTracker(ladder_system, g_factors)
        tracker.f_term(0.0, 1e-11)
        tracker.p_term(0.0, 1e-11)
        assert g_factors.solve_count == 4  # two new points
        tracker.f_term(1e-11, 2e-11)
        tracker.p_term(1e-11, 2e-11)
        assert g_factors.solve_count == 6  # one new point
        tracker.f_term(0.0, 2e-11)
        tracker.p_term(0.0, 2e-11)
        assert g_factors.solve_count == 6  # all cached


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

    def test_undecomposed_run_never_reuses(self, ladder_system):
        cfg = stepper.SolverConfig(method="rmatex", e_tol=1e-8)
        result = stepper.solve_transient(ladder_system, cfg)
        assert result.reused_steps == 0
        assert all(s.anchor == s.t for s in result.steps)

    @pytest.mark.parametrize("method,count", [("mexp", 2), ("imatex", 2), ("rmatex", 3)])
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

    def test_mexp_requires_factorizable_c(self, singular_c_system):
        cfg = stepper.SolverConfig(method="mexp", e_tol=1e-8)
        with pytest.raises(StructurallySingular):
            stepper.solve_transient(singular_c_system, cfg)

    def test_gamma_defaults_to_tenth_of_median_gap(self, ladder_system):
        # Spot gaps of the ladder drive sort to a 2e-11 median.
        cfg = stepper.SolverConfig(method="rmatex", e_tol=1e-8)
        result = stepper.solve_transient(ladder_system, cfg)
        assert result.gamma == pytest.approx(2e-12, rel=1e-6)
        explicit = stepper.SolverConfig(method="rmatex", e_tol=1e-8, gamma=5e-12)
        assert stepper.solve_transient(ladder_system, explicit).gamma == 5e-12

    @pytest.mark.parametrize("method", ["mexp", "rmatex"])
    def test_augmented_path_agrees_with_fp(self, ladder_system, method):
        base = stepper.SolverConfig(method=method, e_tol=1e-9)
        aug = stepper.SolverConfig(method=method, e_tol=1e-9, input_path="aug")
        r_fp = stepper.solve_transient(ladder_system, base)
        r_aug = stepper.solve_transient(ladder_system, aug)
        np.testing.assert_array_equal(r_fp.times, r_aug.times)
        scale = np.abs(r_fp.states).max()
        assert np.abs(r_fp.states - r_aug.states).max() < 1e-6 * scale

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

    def test_x0_override_and_shape_check(self, dc_rc_system):
        cfg = stepper.SolverConfig(method="rmatex", e_tol=1e-9)
        result = stepper.solve_transient(dc_rc_system, cfg, x0=np.zeros(1))
        assert result.states[0, 0] == 0.0
        with pytest.raises(ValueError):
            stepper.solve_transient(dc_rc_system, cfg, x0=np.zeros(3))

    def test_fixed_methods_rejected(self, ladder_system):
        with pytest.raises(ValueError):
            stepper.solve_transient_matex(
                ladder_system, stepper.SolverConfig(method="tr", h=1e-11)
            )


class TestBasisReuse:
    def test_reuse_is_exact_for_constant_drive(self, dc_rc_system):
        # Artificial interior grid points with no local transitions: one
        # basis at t0 serves the whole span and every sample is exact.
        cfg = stepper.SolverConfig(method="rmatex", e_tol=1e-9)
        grid = np.linspace(0.0, 5e-6, 6)
        result = stepper.solve_transient(
            dc_rc_system, cfg, lts=np.empty(0), gts=grid, x0=np.zeros(1)
        )
        assert result.reused_steps == 4
        tau = 1e-6
        exact = 1.0 - np.exp(-result.times / tau)
        np.testing.assert_allclose(result.states[:, 0], exact, atol=1e-9)

    def test_decomposed_grid_matches_masked_run(self, ladder_system):
        # Restrict the drive to the PWL source; stepping on the full
        # grid with reuse must land where its own grid lands.
        mask = np.array([False, True])
        cfg = stepper.SolverConfig(method="rmatex", e_tol=1e-9)
        t0, t1 = 0.0, 4e-10
        own = stepper.active_transitions(ladder_system, t0, t1, mask)
        full = stepper.active_transitions(ladder_system, t0, t1)
        decomposed = stepper.solve_transient(
            ladder_system, cfg, lts=own, gts=full, mask=mask
        )
        plain = stepper.solve_transient(ladder_system, cfg, mask=mask)
        assert decomposed.reused_steps > 0
        scale = np.abs(plain.states).max()
        diff = np.abs(decomposed.states[-1] - plain.states[-1]).max()
        assert diff < 1e-6 * scale

    def test_fresh_steps_sit_on_local_transitions(self, ladder_system):
        mask = np.array([False, True])
        cfg = stepper.SolverConfig(method="rmatex", e_tol=1e-9)
        t0, t1 = 0.0, 4e-10
        own = stepper.active_transitions(ladder_system, t0, t1, mask)
        full = stepper.active_transitions(ladder_system, t0, t1)
        result = stepper.solve_transient(
            ladder_system, cfg, lts=own, gts=full, mask=mask
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

    def test_cost_accounting(self, dc_rc_system):
        cfg = stepper.SolverConfig(method="be", h=5e-7)
        result = stepper.solve_transient(dc_rc_system, cfg)
        n_steps = 10
        assert result.times.size == n_steps + 1
        # one pair per step plus the operating-point solve
        assert result.substitution_pairs == n_steps + 1
        assert result.factorizations == 2
        given_x0 = stepper.solve_transient(dc_rc_system, cfg, x0=np.ones(1))
        assert given_x0.substitution_pairs == n_steps
        assert given_x0.factorizations == 1


class TestPostprocessing:
    def test_resample_states_interpolates(self):
        result = stepper.WaveformResult(
            times=np.array([0.0, 1.0, 2.0]),
            states=np.array([[0.0], [1.0], [2.0]]),
            names=["v(1)"],
            method="be",
        )
        got = stepper.resample_states(result, np.array([0.5, 1.5]))
        np.testing.assert_allclose(got, [[0.5], [1.5]])

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

    def test_result_properties(self, ladder_system):
        cfg = stepper.SolverConfig(method="rmatex", e_tol=1e-8)
        result = stepper.solve_transient(ladder_system, cfg)
        fresh = [s.m for s in result.steps if not s.reused]
        assert result.m_peak == max(fresh)
        assert result.m_average == pytest.approx(np.mean(fresh))
        assert result.n == ladder_system.n
