"""Krylov propagator machinery: variants, estimates, reuse, breakdown."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import expsim as es
from expsim import krylov, numkit
from expsim.errors import BasisDegenerate, NoConvergence
from conftest import orthonormality_defect, relation_residual

VARIANTS = ("standard", "inverted", "rational")


def full_basis(fam, which, m_max=None, h=None, eps=None):
    return krylov.arnoldi(
        fam.operators[which], fam.v, m_max=m_max or fam.n, h=h, eps=eps
    )


def scalar_standard_operator(a_scalar=-1.0):
    """1x1 system with C = 1, G = -a, so A = a."""
    c = numkit.from_scipy(sp.csc_matrix(np.array([[1.0]])))
    g = numkit.from_scipy(sp.csc_matrix(np.array([[-a_scalar]])))
    return krylov.factor_operator(krylov.Variant.STANDARD, c, g)


class TestExactAtFullDimension:
    @pytest.mark.parametrize("which", VARIANTS)
    def test_matches_dense_propagator(self, estimator_family, which):
        fam = estimator_family
        basis = full_basis(fam, which)
        assert basis.m == fam.n
        exact = fam.exact_action(fam.h)
        got = krylov.expm_action(basis, fam.h)
        err = np.linalg.norm(got - exact) / np.linalg.norm(exact)
        assert err < 1e-9

    @pytest.mark.parametrize("which", VARIANTS)
    def test_same_basis_any_horizon(self, estimator_family, which):
        # One build serves every h: the projection is of the operator,
        # not of a particular step.
        fam = estimator_family
        basis = full_basis(fam, which)
        for mult in (0.25, 1.0, 3.0):
            h = mult * fam.h
            err = np.linalg.norm(
                krylov.expm_action(basis, h) - fam.exact_action(h)
            )
            assert err < 1e-9 * np.linalg.norm(fam.v)

    def test_zero_horizon_returns_start(self, estimator_family):
        fam = estimator_family
        basis = full_basis(fam, "rational", m_max=8)
        np.testing.assert_allclose(
            krylov.expm_action(basis, 0.0), fam.v, rtol=0, atol=1e-12
        )

    def test_scalar_decay(self):
        op = scalar_standard_operator(-1.0)
        basis = krylov.arnoldi(op, np.array([2.0]))
        assert basis.m == 1 and basis.h_next == 0.0
        got = krylov.expm_action(basis, 1.0)
        np.testing.assert_allclose(got, [2.0 * math.exp(-1.0)], rtol=1e-14)


class TestHappyBreakdown:
    def setup_method(self):
        c = numkit.from_scipy(sp.identity(3))
        g = numkit.from_scipy(sp.csc_matrix(np.diag([1.0, 2.0, 3.0])))
        self.op = krylov.factor_operator(krylov.Variant.STANDARD, c, g)

    def test_invariant_subspace_detected(self):
        v = np.array([1.0, 0.0, 1.0])  # spans a 2-dimensional invariant space
        basis = krylov.arnoldi(self.op, v, m_max=3)
        assert basis.m == 2
        assert basis.h_next == 0.0
        assert basis.estimate == 0.0 and basis.estimate_kind == "breakdown"

    def test_breakdown_action_is_exact(self):
        v = np.array([1.0, 0.0, 1.0])
        basis = krylov.arnoldi(self.op, v, m_max=3)
        h = 0.7
        exact = np.array([math.exp(-h), 0.0, math.exp(-3.0 * h)])
        np.testing.assert_allclose(
            krylov.expm_action(basis, h), exact, rtol=0, atol=1e-12
        )

    def test_breakdown_estimates_vanish(self):
        basis = krylov.arnoldi(self.op, np.array([1.0, 0.0, 1.0]), m_max=3)
        assert residual_rate(basis, 1.0)[0] == 0.0
        est, kind = krylov.step_error_estimate(basis, 1.0)
        assert est == 0.0 and kind == "breakdown"

    def test_zero_start_vector(self):
        basis = krylov.arnoldi(self.op, np.zeros(3))
        assert basis.m == 0 and basis.beta == 0.0
        assert basis.estimate_kind == "breakdown"
        np.testing.assert_array_equal(krylov.expm_action(basis, 1.0), np.zeros(3))
        assert krylov.step_error_estimate(basis, 1.0) == (0.0, "breakdown")


class TestConvergenceGate:
    def test_no_convergence_raises_with_context(self, estimator_family):
        fam = estimator_family
        with pytest.raises(NoConvergence) as info:
            krylov.arnoldi(
                fam.operators["standard"], fam.v, m_max=4, h=fam.h, eps=1e-14
            )
        assert info.value.m == 4
        assert info.value.estimate > 1e-14

    def test_gate_waits_for_m_min(self, estimator_family):
        fam = estimator_family
        op = fam.operators["standard"]
        loose = krylov.arnoldi(op, fam.v, h=fam.h, eps=1e300)
        assert loose.m == krylov.M_MIN == 2

    def test_eps_needs_horizon(self, estimator_family):
        with pytest.raises(ValueError):
            krylov.arnoldi(
                estimator_family.operators["standard"],
                estimator_family.v,
                eps=1e-8,
            )

    def test_converged_basis_carries_estimate(self, estimator_family):
        fam = estimator_family
        basis = krylov.arnoldi(
            fam.operators["rational"], fam.v, h=fam.h, eps=1e-8, m_max=fam.n
        )
        assert basis.m < fam.n
        assert 0.0 < basis.estimate <= 1e-8
        assert basis.estimate_kind == "exact"

    def test_converged_basis_keeps_exact_scale(self, estimator_family):
        # The convergence check already applied A to v_next; the first
        # reused-step estimate must not pay that C solve again.
        fam = estimator_family
        eps = 1e-4 * np.linalg.norm(fam.v)
        op = fam.operators["inverted"]
        basis = krylov.arnoldi(op, fam.v, h=fam.h, eps=eps, m_max=fam.n)
        assert basis.m < fam.n and basis.estimate_kind == "exact"
        before = op.c_factors.solve_count
        krylov.step_error_estimate(basis, fam.h / 3.0)
        assert op.c_factors.solve_count == before


def residual_rate(basis, s):
    """(||r_m(s)||, kind) from the per-variant shortcut formula."""
    with np.errstate(over="ignore", invalid="ignore"):
        e_s = krylov._projected_expm(s * basis.h_eff)
        rates, kind = krylov._residual_rate(basis, e_s[:, :1], basis.residual_scale)
        return float(rates[0]), kind


def dense_residual_norm(fam, basis, s):
    """||r_m(s)|| computed the long way from the dense generator.

    The defect matrix A V - V H_eff is formed explicitly with the dense
    A, so this shares nothing with the per-variant shortcut formulas it
    checks.
    """
    h_eff = basis.h_eff
    e_s = scipy.linalg.expm(s * h_eff)
    defect = fam.a @ basis.v_basis - basis.v_basis @ h_eff
    return basis.beta * float(np.linalg.norm(defect @ e_s[:, 0]))


class TestPosteriorError:
    @pytest.mark.parametrize("which", VARIANTS)
    def test_formula_matches_dense_defect(self, estimator_family, which):
        fam = estimator_family
        basis = full_basis(fam, which, m_max=7)
        for s in (0.3 * fam.h, fam.h):
            est, kind = residual_rate(basis, s)
            assert kind == "exact"
            ref = dense_residual_norm(fam, basis, s)
            assert est == pytest.approx(ref, rel=1e-8)

    def test_empirical_kind_without_c_factors(self, estimator_family):
        fam = estimator_family
        bare = dataclasses.replace(fam.operators["inverted"], c_factors=None)
        basis = krylov.arnoldi(bare, fam.v, m_max=7)
        est, kind = residual_rate(basis, fam.h)
        assert kind == "empirical"
        assert est > 0.0

    @pytest.mark.parametrize("which", VARIANTS)
    def test_rate_tracks_true_error(self, estimator_family, which):
        # The residual norm is a rate; over one step the step error is
        # close to h times it. Agreement within a factor of 100 is the
        # contract, the family sits well inside it.
        fam = estimator_family
        exact = fam.exact_action(fam.h)
        floor = 1e-12 * np.linalg.norm(fam.v)
        checked = 0
        for m in range(2, 11):
            trunc = full_basis(fam, which, m_max=m)
            try:
                est, _ = residual_rate(trunc, fam.h)
            except BasisDegenerate:
                continue
            true = np.linalg.norm(krylov.expm_action(trunc, fam.h) - exact)
            if true < floor or est == 0.0:
                continue
            ratio = est * fam.h / true
            assert 1e-2 < ratio < 1e2, f"m={m}: ratio {ratio:.3g}"
            checked += 1
        assert checked >= 5

    @pytest.mark.parametrize("which", VARIANTS)
    def test_estimate_decreases_with_m(self, estimator_family, which):
        # Monotone up to one bounded uptick across the growth sweep.
        fam = estimator_family
        seq = []
        for m in range(2, 12):
            try:
                est, _ = residual_rate(full_basis(fam, which, m_max=m), fam.h)
            except BasisDegenerate:
                continue
            if est > 0.0:
                seq.append(est)
        assert len(seq) >= 6
        upticks = [
            (a, b) for a, b in zip(seq, seq[1:]) if b > a
        ]
        assert len(upticks) <= 1
        assert all(b <= 2.0 * a for a, b in upticks)

    @pytest.mark.parametrize("which", VARIANTS)
    def test_saturated_basis_reports_nothing_left(self, estimator_family, which):
        fam = estimator_family
        basis = full_basis(fam, which)
        est, _ = residual_rate(basis, fam.h)
        assert est <= 1e-10 * np.linalg.norm(fam.v)


class TestStepErrorEstimate:
    @pytest.mark.parametrize("which", VARIANTS)
    def test_bounds_true_error_modestly(self, estimator_family, which):
        fam = estimator_family
        exact = fam.exact_action(fam.h)
        floor = 1e-12 * np.linalg.norm(fam.v)
        checked = 0
        for m in range(2, 11):
            trunc = full_basis(fam, which, m_max=m)
            try:
                est, _ = krylov.step_error_estimate(trunc, fam.h)
            except BasisDegenerate:
                continue
            true = np.linalg.norm(krylov.expm_action(trunc, fam.h) - exact)
            if true < floor or est == 0.0:
                continue
            assert 1e-2 < est / true < 1e2, f"m={m}: est/true {est / true:.3g}"
            checked += 1
        assert checked >= 5

    def test_integral_dominates_endpoint_blind_spot(self, estimator_family):
        # After fast modes equilibrate the endpoint rate can collapse
        # while the transit error is real; the integrated form keeps a
        # floor. Probe at a long horizon where that separation shows.
        fam = estimator_family
        full = full_basis(fam, "standard", m_max=6)
        h = 20.0 * fam.h
        endpoint = residual_rate(full, h)[0] * h
        integral, _ = krylov.step_error_estimate(full, h)
        assert integral >= endpoint


class TestReuse:
    @pytest.mark.parametrize("which", VARIANTS)
    def test_extending_horizon_stays_within_estimate(self, estimator_family, which):
        # A basis converged for h, pushed to 3h, must agree with a
        # freshly converged basis to within ten times its own estimate.
        fam = estimator_family
        v_norm = np.linalg.norm(fam.v)
        op = fam.operators[which]
        b1 = krylov.arnoldi(op, fam.v, h=fam.h, eps=1e-8 * v_norm, m_max=fam.n)
        h3 = 3.0 * fam.h
        est, _ = krylov.step_error_estimate(b1, h3)
        fresh = krylov.arnoldi(op, fam.v, h=h3, eps=1e-12 * v_norm, m_max=fam.n)
        diff = np.linalg.norm(
            krylov.expm_action(b1, h3) - krylov.expm_action(fresh, h3)
        )
        assert diff <= 10.0 * est + 1e-12 * v_norm


def count_projected_expm(monkeypatch):
    """Replace krylov._projected_expm by a counting wrapper; returns the calls."""
    calls = []
    real = krylov._projected_expm

    def counted(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(krylov, "_projected_expm", counted)
    return calls


class TestOneExponentialPerStep:
    @pytest.mark.parametrize("which", VARIANTS)
    def test_action_after_estimate_reuses_its_column(
        self, estimator_family, which, monkeypatch
    ):
        fam = estimator_family
        basis = full_basis(fam, which, m_max=6)
        assert basis.h_next != 0.0
        expected = basis.beta * (
            basis.v_basis
            @ krylov._projected_expm(fam.h * basis.h_eff)[:, 0]
        )
        calls = count_projected_expm(monkeypatch)
        krylov.step_error_estimate(basis, fam.h)
        got = krylov.expm_action(basis, fam.h)
        assert len(calls) == 1
        np.testing.assert_allclose(
            got, expected, rtol=0, atol=1e-12 * np.linalg.norm(expected)
        )
        krylov.expm_action(basis, 2.0 * fam.h)
        assert len(calls) == 2

    def test_whole_run_one_exponential_per_estimate(self, stiff_mesh, monkeypatch):
        _, system = stiff_mesh
        estimates = []
        estimate = krylov.step_error_estimate

        def counted_estimate(basis, h, eps=None):
            est, kind = estimate(basis, h, eps)
            if basis.m > 0:  # a zero start vector's basis evaluates nothing
                estimates.append(kind)
            return est, kind

        monkeypatch.setattr(krylov, "step_error_estimate", counted_estimate)
        calls = count_projected_expm(monkeypatch)
        cfg = es.SolverConfig(method="rmatex", e_tol=1e-6)
        run = es.run_superposed(system, cfg, max_groups=system.num_sources)
        steps = run.merged.steps
        assert any(s.reused for s in steps) and not all(s.reused for s in steps)
        assert "breakdown" not in estimates
        assert len(calls) == len(estimates) > len(steps)


class TestOperatorValidation:
    def test_rational_needs_positive_shift(self, estimator_family):
        fam = estimator_family
        for gamma in (None, 0.0, -1.0):
            with pytest.raises(ValueError):
                krylov.factor_operator(krylov.Variant.RATIONAL, fam.c, fam.g, gamma)

    def test_apply_checks_shape(self, estimator_family):
        op = estimator_family.operators["standard"]
        with pytest.raises(ValueError):
            op.apply(np.zeros(op.dim + 1))

    def test_arnoldi_checks_shape_and_m_max(self, estimator_family):
        fam = estimator_family
        op = fam.operators["standard"]
        with pytest.raises(ValueError):
            krylov.arnoldi(op, np.zeros(fam.n - 1))
        with pytest.raises(ValueError):
            krylov.arnoldi(op, fam.v, m_max=0)


class TestDegenerateProjection:
    @pytest.mark.parametrize(
        "entry,message", [(0.0, "singular at m=1"), (1e-320, "inverse overflowed")]
    )
    def test_h_eff_raises(self, estimator_family, entry, message):
        op = estimator_family.operators["inverted"]
        basis = krylov.KrylovBasis(
            operator=op,
            v_basis=np.zeros((op.dim, 1)),
            hessenberg=np.array([[entry]]),
            h_next=1.0,
            v_next=np.zeros(op.dim),
            beta=1.0,
        )
        with pytest.raises(BasisDegenerate, match=message):
            basis.h_eff


class TestBasisInvariants:
    @pytest.mark.parametrize("which", VARIANTS)
    def test_orthonormal_and_satisfies_relation(self, estimator_family, which):
        fam = estimator_family
        basis = full_basis(fam, which, m_max=10)
        assert orthonormality_defect(basis) < 1e-10
        residual, scale = relation_residual(basis)
        assert residual < 1e-10 * scale

    def test_every_build_lands_in_audit(self, estimator_family, audited_bases):
        before = audited_bases.count
        full_basis(estimator_family, "standard", m_max=4)
        assert audited_bases.count == before + 1


@pytest.fixture(scope="module")
def ten_decade_mesh():
    """n=400 mesh whose -C^-1 G spectrum spans more than 10 decades."""
    mesh = es.generate_mesh_netlist(n_nodes=400, stiffness_target=1e11, seed=7)
    assert mesh.measured_stiffness >= 1e10
    return es.build_system(mesh.text)


class TestStiffOrthogonality:
    @pytest.mark.parametrize("which", VARIANTS)
    def test_full_build_stays_orthonormal(self, ten_decade_mesh, which):
        # One classical pass loses orthogonality here outright; the
        # second pass has to restore it to rounding level.
        system = ten_decade_mesh
        gamma = (system.t_stop - system.t_start) / 100.0
        op = krylov.factor_operator(krylov.Variant(which), system.c, system.g, gamma)
        v = np.random.default_rng(3).standard_normal(system.n)
        basis = krylov.arnoldi(op, v, m_max=30, eps=None)
        assert basis.m == 30 and basis.h_next != 0.0
        assert orthonormality_defect(basis) <= 1e-8
        residual, scale = relation_residual(basis)
        assert residual <= 1e-8 * scale

    @pytest.mark.parametrize("which", VARIANTS)
    def test_breakdown_on_ten_decade_invariant_subspace(self, which):
        # C = I, G diagonal across 10 decades: a start vector on three
        # coordinates spans an invariant subspace of every variant.
        n = 12
        c = numkit.from_scipy(sp.identity(n, format="csc"))
        g = numkit.from_scipy(sp.diags(np.logspace(0.0, 10.0, n), format="csc"))
        op = krylov.factor_operator(krylov.Variant(which), c, g, 1e-3)
        v = np.zeros(n)
        v[[0, 5, n - 1]] = (1.0, -2.0, 0.5)
        basis = krylov.arnoldi(op, v, m_max=n, eps=None)
        assert basis.m == 3 and basis.h_next == 0.0
        assert basis.estimate_kind == "breakdown"
        assert orthonormality_defect(basis) <= 1e-12
