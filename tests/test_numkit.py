"""Sparse assembly, factorization and dense exponential kernels.

Each numerical kernel is checked against an independently computed
reference: a SparseMatrix built from triplets against a dense
accumulation loop, LU solves against numpy's dense solver, the small
dense exponential the Krylov projections use against a compensated
Taylor series and, on stiff symmetric spectra, against the
eigendecomposition. The LU
ordering is held to the fill it reaches on an MNA grid.
"""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from expsim import krylov, netlist, numkit
from expsim.errors import NumericalError


def dense_from_triplets(triplets, nrows, ncols):
    out = np.zeros((nrows, ncols))
    for r, c, v in triplets:
        out[r, c] += v
    return out


def from_triplets(triplets, nrows, ncols):
    """A SparseMatrix from (row, col, value) triplets, through coo -> csc."""
    rows, cols, vals = zip(*triplets) if triplets else ((), (), ())
    coo = sp.coo_matrix(
        (np.asarray(vals, dtype=np.float64),
         (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64))),
        shape=(nrows, ncols),
    )
    return numkit.SparseMatrix(coo.tocsc())


def taylor_expm(a, terms=60):
    """Reference exponential: scaled Taylor with compensated summation."""
    a = np.asarray(a, dtype=np.float64)
    s = max(0, int(np.ceil(np.log2(max(np.abs(a).sum(axis=1).max(), 1e-30)))))
    b = a / 2.0**s
    total = np.eye(a.shape[0])
    comp = np.zeros_like(total)
    term = np.eye(a.shape[0])
    for k in range(1, terms):
        term = term @ b / k
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    for _ in range(s):
        total = total @ total
    return total


def rc_grid_netlist(k, extra="", seed=0):
    """k x k resistor grid, a capacitor from every node to ground."""
    rng = np.random.default_rng(seed)
    lines = ["* rc grid"]
    for i in range(k):
        for j in range(k):
            if j + 1 < k:
                lines.append(f"RH{i}_{j} n{i}_{j} n{i}_{j + 1} {rng.uniform(1, 10)}")
            if i + 1 < k:
                lines.append(f"RV{i}_{j} n{i}_{j} n{i + 1}_{j} {rng.uniform(1, 10)}")
            lines.append(f"C{i}_{j} n{i}_{j} 0 {rng.uniform(1, 100)}e-15")
    lines += ["RG n0_0 0 1", f"I1 0 n{k // 2}_{k // 2} DC 1m", extra]
    return "\n".join(lines + [".TRAN 0 1e-9", ".END", ""])


class TestSparseMatrix:
    def test_triplet_assembly_matches_dense_accumulation(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            nr, nc = rng.integers(1, 9, size=2)
            k = int(rng.integers(0, 25))
            trips = [
                (int(rng.integers(0, nr)), int(rng.integers(0, nc)),
                 float(rng.standard_normal()))
                for _ in range(k)
            ]
            m = from_triplets(trips, int(nr), int(nc))
            np.testing.assert_allclose(
                m.to_dense(), dense_from_triplets(trips, nr, nc), atol=0
            )

    def test_duplicates_sum_and_zeros_drop(self):
        trips = [(0, 0, 2.0), (0, 0, -2.0), (1, 1, 3.0), (1, 0, 0.0)]
        m = from_triplets(trips, 2, 2)
        assert m.nnz == 1
        np.testing.assert_array_equal(m.to_dense(), [[0.0, 0.0], [0.0, 3.0]])

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(1)
        d = rng.standard_normal((6, 4))
        m = numkit.from_scipy(d)
        v = rng.standard_normal(4)
        np.testing.assert_allclose(m @ v, d @ v, rtol=1e-15)

    def test_index_bounds_checked(self):
        with pytest.raises(ValueError):
            from_triplets([(2, 0, 1.0)], 2, 2)
        with pytest.raises(ValueError):
            from_triplets([(0, -1, 1.0)], 2, 2)

    def test_empty_dimensions_rejected(self):
        with pytest.raises(ValueError):
            from_triplets([], 0, 1)

    def test_immutable(self):
        m = numkit.from_scipy(sp.identity(2))
        with pytest.raises(AttributeError):
            m.nnz = 5

    def test_equal_logical_matrices_equal_storage(self):
        a = from_triplets([(0, 0, 1.0), (1, 1, 2.0)], 2, 2)
        b = from_triplets(
            [(1, 1, 1.5), (0, 0, 1.0), (1, 1, 0.5)], 2, 2
        )
        for field in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(
                getattr(a.scipy, field), getattr(b.scipy, field)
            )

    def test_max_abs(self):
        m = from_triplets([(0, 1, -7.0), (1, 0, 3.0)], 2, 2)
        assert m.max_abs() == 7.0
        assert from_triplets([], 2, 2).max_abs() == 0.0


class TestLuFactorize:
    def test_solve_matches_dense_reference(self):
        rng = np.random.default_rng(2)
        for n in (1, 3, 10, 25):
            d = rng.standard_normal((n, n)) + np.eye(n) * n
            b = rng.standard_normal(n)
            expected = np.linalg.solve(d, b)
            factors = numkit.lu_factorize(numkit.from_scipy(d))
            got = factors.solve(b)
            np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)

    def test_structurally_singular_detected(self):
        m = from_triplets([(0, 0, 1.0)], 2, 2)
        with pytest.raises(NumericalError, match="empty row or column"):
            numkit.lu_factorize(m)

    def test_numerically_singular_detected(self):
        # Exactly singular, SuperLU's own failure; then a pivot of
        # 1.1e-15 under the threshold SINGULAR_RTOL * max|A| = 1e-14.
        for d, match in (
            ([[1.0, 2.0], [2.0, 4.0]], "singular"),
            ([[1.0, 1.0], [1.0, 1.0 + 1e-15]], "below threshold"),
        ):
            with pytest.raises(NumericalError, match=match):
                numkit.lu_factorize(numkit.from_scipy(np.array(d)))

    def test_rectangular_rejected(self):
        m = from_triplets([(0, 0, 1.0)], 2, 3)
        with pytest.raises(ValueError):
            numkit.lu_factorize(m)

    def test_rhs_shape_checked(self):
        factors = numkit.lu_factorize(numkit.from_scipy(sp.identity(3)))
        for bad in (np.zeros(4), np.zeros((4, 2)), np.zeros((3, 2, 1))):
            with pytest.raises(ValueError):
                factors.solve(bad)

    def test_block_solve_matches_column_solves(self):
        rng = np.random.default_rng(3)
        d = rng.standard_normal((12, 12)) + np.eye(12) * 12
        block = rng.standard_normal((12, 5))
        factors = numkit.lu_factorize(numkit.from_scipy(d))
        got = factors.solve(block)
        assert got.shape == (12, 5)
        for j in range(5):
            np.testing.assert_allclose(
                got[:, j], factors.solve(block[:, j]), rtol=1e-14, atol=1e-15
            )


class TestOrderingFill:
    # nnz(L) + nnz(U) of the 60 x 60 grid's C + gamma G: 108,430 with
    # minimum degree on A + A^T, 179,720 with COLAMD.
    FILL_BOUND = 115_000

    def test_grid_fill_stays_below_bound(self):
        system = netlist.build_system(rc_grid_netlist(60))
        shifted = numkit.from_scipy(system.c.scipy + 1e-12 * system.g.scipy)
        lu = numkit.lu_factorize(shifted)._splu
        colamd = spla.splu(
            shifted.scipy,
            permc_spec="COLAMD",
            diag_pivot_thresh=1.0,
            options={"SymmetricMode": False},
        )
        assert lu.L.nnz + lu.U.nnz <= self.FILL_BOUND < colamd.L.nnz + colamd.U.nnz

    def test_zero_diagonals_factor_and_solve(self):
        # Voltage-source and inductor branches leave zeros on G's diagonal.
        system = netlist.build_system(
            rc_grid_netlist(60, extra="V1 vin 0 DC 1\nL1 vin n0_0 1n\nL2 n59_59 0 2n")
        )
        c, g = system.c.scipy, system.g.scipy
        assert (g.diagonal() == 0).sum() >= 3
        rng = np.random.default_rng(5)
        for m in (g, c + 1e-12 * g, c / 1e-12 + g / 2.0):
            b = rng.standard_normal(system.n)
            x = numkit.lu_factorize(numkit.from_scipy(m)).solve(b)
            assert np.linalg.norm(m @ x - b) <= 1e-12 * np.linalg.norm(b)


class TestCounters:
    def test_each_solve_is_one_pair(self):
        factors = numkit.lu_factorize(numkit.from_scipy(sp.identity(4)))
        other = numkit.lu_factorize(numkit.from_scipy(sp.identity(4)))
        assert factors.solve_count == 0
        for _ in range(5):
            factors.solve(np.ones(4))
        assert factors.solve_count == 5
        assert other.solve_count == 0  # tallies are per factor

    def test_block_of_k_columns_is_k_pairs(self):
        factors = numkit.lu_factorize(numkit.from_scipy(sp.identity(4)))
        factors.solve(np.ones((4, 3)))
        assert factors.solve_count == 3
        factors.solve(np.ones((4, 0)))
        assert factors.solve_count == 3


class TestDenseExpm:
    def test_matches_compensated_taylor(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 5, 12):
            a = rng.standard_normal((n, n))
            np.testing.assert_allclose(
                krylov._projected_expm(a), taylor_expm(a), rtol=1e-12, atol=1e-13
            )

    def test_zero_matrix_gives_identity(self):
        np.testing.assert_array_equal(
            krylov._projected_expm(np.zeros((3, 3))), np.eye(3)
        )

    def test_scalar_decay(self):
        got = krylov._projected_expm(np.array([[-1.0]]))
        np.testing.assert_allclose(got, [[np.exp(-1.0)]], rtol=1e-15)


class TestDenseExpmStiff:
    """The projections of stiff circuits: large norms, nothing escapes."""

    @pytest.mark.parametrize("n", [2, 5, 10, 30])
    @pytest.mark.parametrize("norm", [1e2, 1e4, 1e6])
    def test_symmetric_negative_definite(self, n, norm):
        rng = np.random.default_rng(n)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        # Decades from 0.1 up to the norm: slow modes survive the step.
        lam = -np.logspace(-1.0, np.log10(norm), n)
        lam *= norm / np.abs((q * lam) @ q.T).sum(axis=0).max()
        a = (q * lam) @ q.T
        exact = (q * np.exp(lam)) @ q.T
        err = np.abs(krylov._projected_expm(a) - exact).max()
        assert err <= 1e-15 * np.abs(a).sum(axis=0).max()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_input_gives_nan(self, bad):
        a = np.array([[-1.0, 0.5], [bad, -2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = krylov._projected_expm(a)
        assert np.isnan(got).all()

    def test_right_half_plane_overflows_quietly(self):
        a = np.array([[1e4, 0.0], [1.0, -1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = krylov._projected_expm(a)
        assert not np.isfinite(got).all()
