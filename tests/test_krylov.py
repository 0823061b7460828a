"""Krylov propagator machinery: variants, estimates, reuse, breakdown."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from expsim import krylov, numkit
from expsim.errors import BasisDegenerate, NoConvergence

VARIANTS = ("standard", "inverted", "rational")


def full_basis(fam, which, m_max=None, h=None, eps=None):
    return krylov.arnoldi(
        fam.operators[which], fam.v, m_max=m_max or fam.n, h=h, eps=eps
    )


def scalar_standard_operator(a_scalar=-1.0):
    """1x1 system with C = 1, G = -a, so A = a."""
    c = numkit.from_scipy(sp.csc_matrix(np.array([[1.0]])))
    g = numkit.from_scipy(sp.csc_matrix(np.array([[-a_scalar]])))
    return krylov.standard_operator(numkit.lu_factorize(c), g)


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
        assert basis.m == 1 and basis.breakdown
        got = krylov.expm_action(basis, 1.0)
        np.testing.assert_allclose(got, [2.0 * math.exp(-1.0)], rtol=1e-14)


class TestHappyBreakdown:
    def setup_method(self):
        c = numkit.from_scipy(sp.identity(3))
        g = numkit.from_scipy(sp.csc_matrix(np.diag([1.0, 2.0, 3.0])))
        self.op = krylov.standard_operator(numkit.lu_factorize(c), g)

    def test_invariant_subspace_detected(self):
        v = np.array([1.0, 0.0, 1.0])  # spans a 2-dimensional invariant space
        basis = krylov.arnoldi(self.op, v, m_max=3)
        assert basis.m == 2
        assert basis.breakdown and basis.h_next == 0.0
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
        est, kind = krylov.step_error_estimate(basis, 1.0, detail=True)
        assert est == 0.0 and kind == "breakdown"

    def test_zero_start_vector(self):
        basis = krylov.arnoldi(self.op, np.zeros(3))
        assert basis.m == 0 and basis.beta == 0.0
        assert basis.estimate_kind == "breakdown"
        np.testing.assert_array_equal(krylov.expm_action(basis, 1.0), np.zeros(3))
        assert krylov.step_error_estimate(basis, 1.0) == 0.0


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
        assert loose.m == 2  # default floor
        floored = krylov.arnoldi(op, fam.v, h=fam.h, eps=1e300, m_min=5)
        assert floored.m == 5

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


def residual_rate(basis, s):
    """(||r_m(s)||, kind) from the per-variant shortcut formula."""
    with np.errstate(over="ignore", invalid="ignore"):
        e_s = krylov._projected_expm(s * basis.effective_generator())
        return krylov._residual_rate(basis, e_s)


def dense_residual_norm(fam, basis, s):
    """||r_m(s)|| computed the long way from the dense generator.

    The defect matrix A V - V H_eff is formed explicitly with the dense
    A, so this shares nothing with the per-variant shortcut formulas it
    checks.
    """
    h_eff = basis.effective_generator()
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
        bare = krylov.inverted_operator(fam.g_factors, fam.c)
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
        full = full_basis(fam, which, m_max=12)
        exact = fam.exact_action(fam.h)
        floor = 1e-12 * np.linalg.norm(fam.v)
        checked = 0
        for m in range(2, 11):
            trunc = full.truncated(m)
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
        full = full_basis(fam, which, m_max=12)
        seq = []
        for m in range(2, 12):
            try:
                est, _ = residual_rate(full.truncated(m), fam.h)
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
        full = full_basis(fam, which, m_max=12)
        exact = fam.exact_action(fam.h)
        floor = 1e-12 * np.linalg.norm(fam.v)
        checked = 0
        for m in range(2, 11):
            trunc = full.truncated(m)
            try:
                est = krylov.step_error_estimate(trunc, fam.h)
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
        integral = krylov.step_error_estimate(full, h)
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
        est = krylov.step_error_estimate(b1, h3)
        fresh = krylov.arnoldi(op, fam.v, h=h3, eps=1e-12 * v_norm, m_max=fam.n)
        diff = np.linalg.norm(
            krylov.expm_action(b1, h3) - krylov.expm_action(fresh, h3)
        )
        assert diff <= 10.0 * est + 1e-12 * v_norm

    def test_anchor_time_travels_with_basis(self, estimator_family):
        fam = estimator_family
        basis = krylov.arnoldi(
            fam.operators["rational"], fam.v, m_max=5, anchor_time=2.5
        )
        assert basis.anchor_time == 2.5
        assert basis.truncated(3).anchor_time == 2.5


class TestTruncated:
    def test_fields_line_up(self, estimator_family):
        fam = estimator_family
        full = full_basis(fam, "rational", m_max=9)
        t = full.truncated(4)
        assert t.m == 4
        assert t.h_next == full.hessenberg[4, 3]
        np.testing.assert_array_equal(t.v_next, full.v_basis[:, 4])
        np.testing.assert_array_equal(t.v_basis, full.v_basis[:, :4])
        assert t.beta == full.beta

    def test_full_truncation_is_identity(self, estimator_family):
        full = full_basis(estimator_family, "standard", m_max=6)
        assert full.truncated(full.m) is full

    def test_bounds_checked(self, estimator_family):
        full = full_basis(estimator_family, "standard", m_max=6)
        with pytest.raises(ValueError):
            full.truncated(0)
        with pytest.raises(ValueError):
            full.truncated(full.m + 1)


class TestAugmentedInput:
    def test_zero_drive_reduces_to_plain_action(self, estimator_family):
        fam = estimator_family
        zero = np.zeros(fam.n)
        aug, start = krylov.augment_phi(fam.v, zero, zero, fam.h)
        op = krylov.standard_operator(fam.c_factors, fam.g, aug=aug)
        basis = krylov.arnoldi(op, start, m_max=fam.n + 2)
        got = krylov.expm_action(basis, fam.h)[: fam.n]
        err = np.linalg.norm(got - fam.exact_action(fam.h))
        assert err < 1e-9 * np.linalg.norm(fam.v)

    def test_scalar_step_response(self):
        # C = G = 1 driven by a unit constant from rest: x(h) = 1 - e^-h.
        op_plain = scalar_standard_operator(-1.0)
        aug, start = krylov.augment_phi(
            np.array([0.0]), np.array([1.0]), np.array([1.0]), 1.0
        )
        op = krylov.standard_operator(op_plain.x1, op_plain.x2, aug=aug)
        basis = krylov.arnoldi(op, start, m_max=3)
        got = krylov.expm_action(basis, 1.0)[0]
        assert got == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)

    @pytest.mark.parametrize("which", ["standard", "rational"])
    def test_matches_affine_input_closed_form(self, which):
        # Random small system with a ramp drive, checked against the
        # two-solve-pair closed form evaluated densely.
        rng = np.random.default_rng(5)
        n = 20
        gd = np.eye(n) * 3.0 + rng.uniform(-0.5, 0.5, (n, n))
        gd = gd + gd.T
        cd = np.diag(rng.uniform(0.5, 2.0, n))
        bd = rng.standard_normal((n, 2))
        x0 = rng.standard_normal(n)
        h = 0.4
        u0, u1 = np.array([1.0, -0.5]), np.array([0.2, 0.7])

        w0 = -np.linalg.solve(gd, bd @ u0)
        w1 = -np.linalg.solve(gd, bd @ u1)
        th0 = -np.linalg.solve(gd, cd @ w0)
        th1 = -np.linalg.solve(gd, cd @ w1)
        f = w0 + (th1 - th0) / h
        p = w1 + (th1 - th0) / h
        a = -np.linalg.solve(cd, gd)
        expected = scipy.linalg.expm(h * a) @ (x0 + f) - p

        c = numkit.from_scipy(sp.csc_matrix(cd))
        g = numkit.from_scipy(sp.csc_matrix(gd))
        aug, start = krylov.augment_phi(x0, bd @ u0, bd @ u1, h)
        if which == "standard":
            op = krylov.standard_operator(numkit.lu_factorize(c), g, aug=aug)
        else:
            gamma = h / 10.0
            shift = krylov.make_shift_matrix(c, g, gamma)
            op = krylov.rational_operator(
                numkit.lu_factorize(shift), c, gamma, aug=aug
            )
        basis = krylov.arnoldi(op, start, m_max=n + 2)
        got = krylov.expm_action(basis, h)[:n]
        err = np.linalg.norm(got - expected) / np.linalg.norm(expected)
        assert err < 1e-9

    def test_inverted_variant_rejects_augmentation(self, estimator_family):
        fam = estimator_family
        aug, _ = krylov.augment_phi(fam.v, np.zeros(fam.n), np.zeros(fam.n), 1.0)
        with pytest.raises(ValueError, match="inverted"):
            krylov.VariantOperator(
                krylov.Variant.INVERTED, fam.g_factors, fam.c, aug=aug
            )

    def test_window_length_positive(self):
        with pytest.raises(ValueError):
            krylov.augment_phi(np.zeros(2), np.zeros(2), np.zeros(2), 0.0)


class TestOperatorValidation:
    def test_rational_needs_positive_shift(self, estimator_family):
        fam = estimator_family
        for gamma in (None, 0.0, -1.0):
            with pytest.raises(ValueError):
                krylov.VariantOperator(
                    krylov.Variant.RATIONAL, fam.g_factors, fam.c, gamma=gamma
                )

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


class TestBasisInvariants:
    @pytest.mark.parametrize("which", VARIANTS)
    def test_orthonormal_and_satisfies_relation(self, estimator_family, which):
        fam = estimator_family
        basis = full_basis(fam, which, m_max=10)
        assert krylov.orthonormality_defect(basis) < 1e-10
        residual, scale = krylov.relation_residual(basis)
        assert residual < 1e-10 * scale

    def test_every_build_lands_in_audit(self, estimator_family, audited_bases):
        before = len(audited_bases)
        full_basis(estimator_family, "standard", m_max=4)
        assert len(audited_bases) == before + 1
        assert audited_bases.verify_all() >= 1
