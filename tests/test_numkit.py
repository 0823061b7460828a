"""Sparse assembly, factorization and dense exponential kernels.

Each numerical kernel is checked against an independently computed
reference: triplet assembly against a dense accumulation loop, LU
solves against numpy's dense solver, the small dense exponential the
Krylov projections use against a compensated Taylor series.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from expsim import krylov, numkit
from expsim.errors import NumericallySingular, StructurallySingular


def dense_from_triplets(triplets, nrows, ncols):
    out = np.zeros((nrows, ncols))
    for r, c, v in triplets:
        out[r, c] += v
    return out


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
            m = numkit.csc_from_triplets(trips, int(nr), int(nc))
            np.testing.assert_allclose(
                m.to_dense(), dense_from_triplets(trips, nr, nc), atol=0
            )

    def test_duplicates_sum_and_zeros_drop(self):
        trips = [(0, 0, 2.0), (0, 0, -2.0), (1, 1, 3.0), (1, 0, 0.0)]
        m = numkit.csc_from_triplets(trips, 2, 2)
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
            numkit.csc_from_triplets([(2, 0, 1.0)], 2, 2)
        with pytest.raises(ValueError):
            numkit.csc_from_triplets([(0, -1, 1.0)], 2, 2)

    def test_empty_dimensions_rejected(self):
        with pytest.raises(ValueError):
            numkit.csc_from_triplets([], 0, 1)

    def test_immutable(self):
        m = numkit.from_scipy(sp.identity(2))
        with pytest.raises(AttributeError):
            m.nnz = 5

    def test_equal_logical_matrices_equal_storage(self):
        a = numkit.csc_from_triplets([(0, 0, 1.0), (1, 1, 2.0)], 2, 2)
        b = numkit.csc_from_triplets(
            [(1, 1, 1.5), (0, 0, 1.0), (1, 1, 0.5)], 2, 2
        )
        for field in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(
                getattr(a.scipy, field), getattr(b.scipy, field)
            )

    def test_max_abs(self):
        m = numkit.csc_from_triplets([(0, 1, -7.0), (1, 0, 3.0)], 2, 2)
        assert m.max_abs() == 7.0
        assert numkit.csc_from_triplets([], 2, 2).max_abs() == 0.0


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
        m = numkit.csc_from_triplets([(0, 0, 1.0)], 2, 2)
        with pytest.raises(StructurallySingular):
            numkit.lu_factorize(m)

    def test_numerically_singular_detected(self):
        d = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(NumericallySingular):
            numkit.lu_factorize(numkit.from_scipy(d))

    def test_rectangular_rejected(self):
        m = numkit.csc_from_triplets([(0, 0, 1.0)], 2, 3)
        with pytest.raises(ValueError):
            numkit.lu_factorize(m)

    def test_rhs_shape_checked(self):
        factors = numkit.lu_factorize(numkit.from_scipy(sp.identity(3)))
        with pytest.raises(ValueError):
            factors.solve(np.zeros(4))


class TestCounters:
    def test_each_solve_is_one_pair(self):
        factors = numkit.lu_factorize(numkit.from_scipy(sp.identity(4)))
        other = numkit.lu_factorize(numkit.from_scipy(sp.identity(4)))
        assert factors.solve_count == 0
        for _ in range(5):
            factors.solve(np.ones(4))
        assert factors.solve_count == 5
        assert other.solve_count == 0  # tallies are per factor


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
