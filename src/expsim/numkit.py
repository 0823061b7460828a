"""Sparse matrices and LU factorization.

Everything the rest of the package does reduces to three primitives:
compressed sparse column matrices in one canonical stored form,
factorizing them once, and back-substituting many times. Substitution
pairs are the unit of cost; each factor counts its own in
``solve_count``, and a run's cost is what it added to the factors it
stepped with.

The heavy lifting is delegated to scipy (SuperLU ordered by minimum
degree on A + A^T, since MNA matrices have a symmetric pattern); this
module owns the contracts: immutability, the singularity threshold and
the counter semantics.

SuperLU factors A^T and every solve runs its transposed kernel, which
solves (A^T)^T x = A x = b: the same system for any square A,
symmetric or not. MNA stamps make A^T the same arrays as A, so the
factors are those of A and only the substitution kernel differs. For
one vector the transposed kernel is the faster on grids up to 4*10^4
nodes. On C/h + G/2 of perfbench's seeded R-C grids (2 vCPU Xeon,
scipy 1.17, the two kernels timed in alternation) its time over the
plain kernel's was 0.73-0.79 at 2,500 nodes (77 against 98 us),
0.75-0.84 at 10^4 (406 against 488 us), 0.85-0.93 at 4*10^4 and
1.00-1.03 at 10^5. Per column of a block it is the slower, 1.13-1.28
at 4 columns and 10^4 nodes and 1.8 at 10^5, but the only block solves
are a run's two input-term solves, one column per drive rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NumericalError

# Relative pivot threshold below which a factorization is declared singular.
SINGULAR_RTOL = 1e-14


class SparseMatrix:
    """Immutable CSC matrix. Thin, deliberately boring wrapper.

    Duplicate triplet entries are summed during construction, explicit
    zeros dropped and indices sorted, so equal logical matrices have
    equal stored form.
    """

    __slots__ = ("_m",)

    def __init__(self, csc: sp.csc_matrix):
        if csc.shape[0] < 1 or csc.shape[1] < 1:
            raise ValueError("matrix dimensions must be at least 1x1")
        m = csc.copy()
        m.sum_duplicates()
        m.eliminate_zeros()
        m.sort_indices()
        object.__setattr__(self, "_m", m)

    def __setattr__(self, name, value):
        raise AttributeError("SparseMatrix is immutable")

    @property
    def nrows(self) -> int:
        return self._m.shape[0]

    @property
    def ncols(self) -> int:
        return self._m.shape[1]

    @property
    def nnz(self) -> int:
        return self._m.nnz

    @property
    def scipy(self) -> sp.csc_matrix:
        return self._m

    def __matmul__(self, v):
        return self._m @ v

    def to_dense(self) -> np.ndarray:
        return self._m.toarray()

    def max_abs(self) -> float:
        return float(abs(self._m).max()) if self._m.nnz else 0.0

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


def from_scipy(m) -> SparseMatrix:
    return SparseMatrix(sp.csc_matrix(m))


@dataclass
class LuFactors:
    """Result of lu_factorize: the splu object plus its pair tally.

    solve() performs one forward/backward substitution pair per
    right-hand side and adds them to solve_count, the only substitution
    tally in the package.
    """

    n: int
    _splu: object = field(repr=False)
    solve_count: int = 0

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve A x = b for a vector (n,) or a block (n, k) of k columns.

        ``_splu`` holds the factors of A^T, so this is SuperLU's
        transposed solve: exact for any square A and, for one vector on
        up to 4*10^4 nodes, up to a quarter cheaper than the plain solve
        on A's own factors (figures in the module docstring).
        """
        b = np.asarray(b, dtype=np.float64)
        if b.ndim not in (1, 2) or b.shape[0] != self.n:
            raise ValueError(
                f"rhs has shape {b.shape}, expected ({self.n},) or ({self.n}, k)"
            )
        x = self._splu.solve(b, trans="T")
        self.solve_count += 1 if b.ndim == 1 else b.shape[1]
        return x


def lu_factorize(a: SparseMatrix) -> LuFactors:
    """Factorize a square SparseMatrix A with partial pivoting.

    SuperLU factors A^T, whose transposed kernel LuFactors.solve uses to
    solve with A (see the module docstring). The ordering is minimum
    degree on the pattern of A + A^T, applied symmetrically: MNA
    patterns are symmetric, and COLAMD, which orders A^T A, gives them
    nearly twice the fill. Raises NumericalError when a row or column
    is empty, when SuperLU fails, or when any pivot magnitude falls
    below SINGULAR_RTOL * max|A|.
    """
    if a.nrows != a.ncols:
        raise ValueError("can only factorize square matrices")
    m = a.scipy
    at = m.T.tocsc()
    # Empty row/column means no permutation yields a full pivot set.
    # A^T's column pointers count A's rows.
    row_counts = np.diff(at.indptr)
    col_counts = np.diff(m.indptr)
    if (row_counts == 0).any() or (col_counts == 0).any():
        raise NumericalError(f"matrix has an empty row or column (n={a.nrows})")
    try:
        fac = spla.splu(
            at,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=1.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise NumericalError(str(exc)) from exc
    u_diag = fac.U.diagonal()
    threshold = SINGULAR_RTOL * a.max_abs()
    small = np.abs(u_diag).min() if u_diag.size else 0.0
    if small <= threshold:
        raise NumericalError(
            f"pivot {small:.3e} below threshold {threshold:.3e}"
        )
    return LuFactors(n=a.nrows, _splu=fac)
