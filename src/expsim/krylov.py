"""Krylov projection of the circuit propagator.

The transient solvers advance states with the action of e^{hA} where
A = -C^-1 G is never formed. It is approximated in a Krylov space of
one shift-and-invert operator,

    M = (a C + b G)^-1 C,    so that    M^-1 = a I - b A,

applied as one solve with the shift a C + b G after a sparse matvec
with C. (a, b) puts the operator's pole at a/b, and factor_operator
picks it from one argument, gamma:

* gamma None, (a, b) = (0, 1): the pole is at zero and the shift is G,
  solved with G's own factors. M = -A^-1 resolves the slow eigenvalues
  that dominate the response, so stiff problems converge at small m
  (the paper's inverted basis).
* gamma > 0, (a, b) = (1, gamma): the pole is at 1/gamma, the shift
  C + gamma G is factorized, and M = (I - gamma A)^-1; a shift near the
  working step size makes the basis usable across a wide range of step
  sizes (the paper's rational basis).

Every formula after factor_operator is written once in a and b. Every
basis produced here satisfies, up to rounding,

    M V_m = V_m H_m + h_next * v_next * e_m^T

with H_m the raw Hessenberg matrix, so H_eff = (a I - H_m^-1) / b
projects A.

When C can be factorized, convergence is judged by exact residual
formulas whose scale is ||C^-1 y|| with y = (a C + b G) v_next / b,
that is ||a v_next / b - A v_next||. A convergence probe first bounds
that scale from below without a solve; when the bound already puts the
estimate above the tolerance, the probe is rejected for free. So a
basis pays one C solve, at the probe it is accepted at, not one per
probe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import numkit
from .errors import NoConvergence, NumericalError

# Relative tolerance declaring the subspace exact (happy breakdown).
BREAKDOWN_RTOL = 1e-12

DEFAULT_M_MAX = 30

# The convergence gate opens at this dimension: a one-dimensional
# projection averages fast and slow modes into a single Rayleigh
# quotient, and when that average is fast-dominated the residual
# formulas see pure decay and report convergence the subspace does not
# have.
M_MIN = 2

# Halvings of the step the error-estimate quadrature resolves.
ESTIMATE_LEVELS = 6

# A probe rejects on the solve-free floor of the residual scale only
# after shrinking it by this factor. For a diagonal C the floor and the
# solved scale agree up to rounding, some 1e-16 relative; the margin is
# far above that, so rounding never turns an accept into a reject.
FLOOR_MARGIN = 1.0 - 1e-9


# Higham's [13/13] Pade approximant ("The scaling and squaring method for
# the matrix exponential revisited", SIMAX 26, 2005), written as
# U = A (A6 U_in + U_out) and V = A6 V_in + V_out with the four inner
# sums combinations of I, A2, A4, A6: one row of coefficients each.
_PADE13_ROWS = np.array([
    [0.0, 40840800.0, 16380.0, 1.0],  # U_in:  b9,  b11, b13
    [32382376266240000.0, 1187353796428800.0, 10559470521600.0,
     33522128640.0],  # U_out: b1, b3, b5, b7
    [0.0, 1323241920.0, 960960.0, 182.0],  # V_in:  b8,  b10, b12
    [64764752532480000.0, 7771770303897600.0, 129060195264000.0,
     670442572800.0],  # V_out: b0, b2, b4, b6
])
# The 1-norm up to which that approximant meets double precision.
_THETA13 = 5.371920351148152


def _projected_expm(a: np.ndarray) -> np.ndarray:
    """e^a of a small dense matrix: [13/13] Pade scaling and squaring.

    Built on np.linalg.solve and @ alone, which stay on the calling
    thread at these sizes, where scipy.linalg.expm wakes the BLAS
    thread pool on every call. A zero matrix gives the identity exactly.
    Low-dimension projections of a stable generator can stick out into
    the right half plane and overflow; non-finite input or a singular
    denominator gives all nan. Either reads as a failed convergence
    check, so nothing is raised or warned.
    """
    n = a.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.abs(a).sum(axis=0).max())
        if norm == 0.0:
            return np.eye(n)
        if not math.isfinite(norm):
            return np.full((n, n), np.nan)
        s = max(0, math.ceil(math.log2(norm / _THETA13)))
        a = a / 2.0**s
        powers = np.empty((4, n, n))  # I, A2, A4, A6
        powers[0] = np.eye(n)
        np.matmul(a, a, out=powers[1])
        np.matmul(powers[1], powers[1], out=powers[2])
        np.matmul(powers[2], powers[1], out=powers[3])
        a6 = powers[3]
        sums = _PADE13_ROWS @ powers.reshape(4, n * n)
        u_in, u_out, v_in, v_out = sums.reshape(4, n, n)
        u = a @ (a6 @ u_in + u_out)
        v = a6 @ v_in + v_out
        try:
            r = np.linalg.solve(v - u, v + u)
        except np.linalg.LinAlgError:
            return np.full((n, n), np.nan)
        for _ in range(s):
            r = r @ r
    return r


@dataclass
class VariantOperator:
    """One exponential run's factorizations and its build operator

        M v = shift^-1 (C v),    shift = a C + b G,

    made by factor_operator, which puts the pole a/b at zero or at
    1/gamma. g_factors are always present: they also serve the input
    terms. shift_factors factor the shift; with the pole at zero the
    shift is G and shift_factors are g_factors themselves. c_factors
    are None exactly when C cannot be factorized; the exact residual
    formulas use them (one extra apply of A, i.e. a C solve, per
    accepted basis; scale_floor rejects the other probes without one),
    falling back to the empirical surrogate without them. gamma is the
    pole's, None when it is at zero. The factors' solve_count tallies
    are plain counters for one thread and count the solves of their own
    process: a run sharing the operator reads its pairs as how much
    pair_counts grew, and a forked worker (decomp.run_superposed)
    reports the growth it saw, which the parent's tallies never show.
    """

    c: numkit.SparseMatrix
    g: numkit.SparseMatrix
    a: float
    b: float
    shift: numkit.SparseMatrix
    shift_factors: numkit.LuFactors
    g_factors: numkit.LuFactors
    c_factors: numkit.LuFactors | None = None
    gamma: float | None = None

    @property
    def dim(self) -> int:
        return self.g_factors.n

    def apply(self, v: np.ndarray) -> np.ndarray:
        if v.shape != (self.dim,):
            raise ValueError(f"vector has shape {v.shape}, expected ({self.dim},)")
        return self.shift_factors.solve(self.c @ v)

    def ode_apply(self, v: np.ndarray) -> np.ndarray:
        """A v with A = -C^-1 G, for the exact residual formulas."""
        return -self.c_factors.solve(self.g @ v)

    @functools.cached_property
    def _floor_terms(self):
        """C^T and 1 / diag(C)^2, 0 where the diagonal is 0: scale_floor's."""
        d2 = self.c.scipy.diagonal() ** 2
        inverse = np.divide(1.0, d2, out=np.zeros_like(d2), where=d2 != 0.0)
        return self.c.scipy.T, inverse

    def scale_floor(self, v: np.ndarray) -> float:
        """A lower bound on ||C^-1 y|| without a solve, y = (shift v) / b:
        KrylovBasis.residual_scale for v_next.

        For any u, u^T y = (C^T u)^T C^-1 y, so by Cauchy-Schwarz
        ||C^-1 y|| >= |u^T y| / ||C^T u||. u = y / diag(C)^2, 0 where the
        diagonal is 0, makes the bound exact for a diagonal C. Costs a
        matvec with C^T and one with the shift.
        """
        y = (self.shift @ v) / self.b
        c_transposed, inverse = self._floor_terms
        u = y * inverse
        norm = float(np.linalg.norm(c_transposed @ u))
        return abs(float(u @ y)) / norm if norm > 0.0 else 0.0

    def factors(self) -> list[numkit.LuFactors]:
        """Each factorization once, in the order factor_operator made them."""
        made = (self.g_factors, self.c_factors, self.shift_factors)
        return list({id(f): f for f in made if f is not None}.values())

    def pair_counts(self) -> tuple[int, int, int]:
        """Solves so far by factor: (G, C, shift), 0 for C without factors.

        A shift that is G books its solves as G pairs, so its entry is 0.
        """
        shift = None if self.shift_factors is self.g_factors else self.shift_factors
        made = (self.g_factors, self.c_factors, shift)
        return tuple(0 if f is None else f.solve_count for f in made)


def factor_operator(
    c: numkit.SparseMatrix,
    g: numkit.SparseMatrix,
    gamma: float | None = None,
) -> VariantOperator:
    """Factorize G, then C, then the shift a C + b G.

    gamma None puts the pole at zero, (a, b) = (0, 1): the shift is G,
    whose factors it reuses. A positive gamma puts it at 1/gamma,
    (a, b) = (1, gamma), and factorizes C + gamma G. A C that cannot be
    factorized leaves c_factors None. gamma is kept on the operator.
    """
    if gamma is not None and not gamma > 0:
        raise ValueError(f"gamma must be positive, not {gamma!r}")
    g_factors = numkit.lu_factorize(g)
    try:
        c_factors = numkit.lu_factorize(c)
    except NumericalError:
        c_factors = None
    if gamma is None:
        a, b, shift, shift_factors = 0.0, 1.0, g, g_factors
    else:
        a, b = 1.0, gamma
        shift = numkit.from_scipy(c.scipy + gamma * g.scipy)
        shift_factors = numkit.lu_factorize(shift)
    return VariantOperator(c, g, a, b, shift, shift_factors, g_factors, c_factors, gamma)


@dataclass
class KrylovBasis:
    """Orthonormal basis, raw Hessenberg projection and overflow terms.

    beta is the norm of the start vector, v_basis the orthonormal
    columns, hessenberg the square m x m projection of the build
    operator, h_next / v_next the (m+1)-th subdiagonal entry and basis
    vector that the square form drops (h_next = 0 after a happy
    breakdown, in which case the subspace is invariant and results are
    exact). h_eff and residual_scale are derived at first use and kept
    for every step that reuses the basis.
    """

    operator: VariantOperator
    v_basis: np.ndarray  # (dim, m)
    hessenberg: np.ndarray  # (m, m)
    h_next: float
    v_next: np.ndarray
    beta: float
    estimate: float | None = None
    estimate_kind: str | None = None
    # (h, e^{h H_eff} e1) as step_error_estimate left it, so expm_action
    # at the same h needs no second small exponential.
    _action_column: tuple[float, np.ndarray] | None = field(default=None, repr=False)

    @property
    def m(self) -> int:
        return self.v_basis.shape[1]

    @functools.cached_property
    def h_eff(self) -> np.ndarray:
        """Generator of e^{hA} from the projection H of the build operator:
        (a I - H^-1) / b, as M^-1 = a I - b A.

        An H that cannot be inverted gives all nan: like an overflowed
        inverse, it makes a convergence probe's estimate inf.
        """
        op = self.operator
        try:
            h_inv = np.linalg.inv(self.hessenberg)
        except np.linalg.LinAlgError:
            return np.full((self.m, self.m), np.nan)
        return (op.a * np.eye(self.m) - h_inv) / op.b

    @functools.cached_property
    def residual_scale(self) -> float | None:
        """||a v_next / b - A v_next|| = ||C^-1 (a C + b G) v_next|| / b,
        the exact residual formulas' scale, at one C solve.

        None when C has no factors. A convergence probe derives it only
        once the solve-free VariantOperator.scale_floor cannot reject
        the basis, so a basis pays this solve at the probe it is
        accepted at; steps that reuse the basis read the kept value.
        """
        op = self.operator
        if op.c_factors is None:
            return None
        av = op.ode_apply(self.v_next)
        return float(np.linalg.norm(op.a * self.v_next / op.b - av))


def expm_action(basis: KrylovBasis, h: float) -> np.ndarray:
    """beta * V * e^{h H_eff} e1: the projected propagator action.

    Valid for any nonnegative h, not just the one the basis converged
    at; reused-basis steps exploit exactly that. After
    step_error_estimate(basis, h) the column e^{h H_eff} e1 is already
    on the basis and no exponential is evaluated here. Raises
    NumericalError when that column is not finite: a projection that
    cannot be inverted, or an exponential that overflows at h.
    """
    if basis.m == 0:
        return np.zeros(basis.operator.dim)
    cached = basis._action_column
    if cached is not None and cached[0] == h:
        column = cached[1]
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            column = _projected_expm(h * basis.h_eff)[:, 0]
    if not np.isfinite(column).all():
        raise NumericalError(f"projected action at m={basis.m} is not finite at h={h!r}")
    return basis.beta * (basis.v_basis @ column)


def _residual_rate(
    basis: KrylovBasis, first_columns: np.ndarray, scale: float | None
) -> tuple[np.ndarray, str]:
    """(||r_m(s)|| for each column e^{s H_eff} e1 of first_columns, kind).

    first_columns is (m, k), one column per time s, and the k rates
    come back as one array. Given a scale, the exact expressions are
    scaled by it (basis.residual_scale, or a lower bound on it for a
    lower bound on the rates). Without one, when C is singular, the
    rate is the Arnoldi overflow term
    |beta * h_next * e_m^T e^{s H_eff} e1|, an empirical surrogate that
    is reliable only once the basis is past the onset of convergence:
    it lacks the exact formulas' leading scale (||a v_next / b -
    A v_next||, roughly 1/gamma with the pole at 1/gamma), so on
    circuits whose time constants are far from one second it can be
    optimistic by that scale until the projected dynamics actually
    converges. The exact tail is |e_m^T H^-1 e^{s H_eff} e1| with
    H^-1 = a I - b H_eff, the raw projection's inverse unformed.
    """
    m = basis.m
    op = basis.operator
    last = first_columns[m - 1]
    if scale is None:
        return basis.beta * np.abs(basis.h_next * last), "empirical"
    tail = np.abs(op.a * last - op.b * (basis.h_eff[m - 1] @ first_columns))
    return basis.beta * abs(basis.h_next) * scale * tail, "exact"


def _integrate(rates: np.ndarray, width: float) -> float:
    """step_error_estimate's quadrature of rates at the nodes width,
    2 width, ..., 2^L width; a sum that is not finite reads inf."""
    rates = rates.tolist()
    est = rates[0] * width
    for j in range(ESTIMATE_LEVELS):
        est += max(rates[j], rates[j + 1]) * width
        width *= 2.0
    return est if math.isfinite(est) else float("inf")


def step_error_estimate(
    basis: KrylovBasis, h: float, eps: float | None = None
) -> tuple[float, str]:
    """(bound on the step error of expm_action(basis, h), estimate kind).

    The true error is the residual propagated through the (contractive)
    exact flow, so its norm is at most the time integral of ||r_m(s)||
    over [0, h]. The endpoint value alone can collapse to nothing when
    the projected dynamics has decayed by s = h even though the
    approximant was wrong in transit, which shows up right after input
    corners where the state is nearly fast-mode equilibrated; the
    integral has no such blind spot.

    Quadrature runs over geometric panels with nodes h/2^L, ..., h/2, h
    (L = ESTIMATE_LEVELS), each panel bounded by its larger endpoint
    rate. All nodes come from one small matrix exponential squared up
    level by level, and all rates from _residual_rate on the levels'
    first columns. The last of them, e^{h H_eff} e1, stays on the basis
    for expm_action at the same h.

    eps, when given, is the tolerance a convergence probe tests the
    estimate against. The exact formulas' rates are linear in the
    residual scale, so the scale's solve-free floor
    (VariantOperator.scale_floor, shrunk by FLOOR_MARGIN) gives a lower
    bound on the estimate from the same first columns. When that bound
    is above eps it is returned in place of the estimate, which is
    larger still, and basis.residual_scale is not derived: no C solve.
    """
    if basis.m == 0 or basis.h_next == 0.0:
        return 0.0, "breakdown"
    op = basis.operator
    width = h / 2.0**ESTIMATE_LEVELS
    with np.errstate(over="ignore", invalid="ignore"):
        e_s = _projected_expm(width * basis.h_eff)
        first_columns = np.empty((basis.m, ESTIMATE_LEVELS + 1))
        first_columns[:, 0] = e_s[:, 0]
        for level in range(1, ESTIMATE_LEVELS + 1):
            e_s = e_s @ e_s
            first_columns[:, level] = e_s[:, 0]
        basis._action_column = (h, e_s[:, 0])
        if eps is not None and op.c_factors is not None:
            floor = op.scale_floor(basis.v_next) * FLOOR_MARGIN
            rates, kind = _residual_rate(basis, first_columns, floor)
            est = _integrate(rates, width)
            if est > eps:
                return est, kind
        rates, kind = _residual_rate(basis, first_columns, basis.residual_scale)
    return _integrate(rates, width), kind


def arnoldi(
    operator: VariantOperator,
    v: np.ndarray,
    m_max: int = DEFAULT_M_MAX,
    h: float | None = None,
    eps: float | None = None,
) -> KrylovBasis:
    """Grow an orthonormal basis of K_m(M, v) until eps is met.

    Classical Gram-Schmidt run twice (CGS2): each pass projects the
    candidate on the whole basis at once, and two passes keep it
    orthonormal to working precision ("twice is enough"). The work
    basis is stored row by row. Convergence is judged by
    step_error_estimate at horizon h against eps; pass eps=None to
    build all m_max dimensions unconditionally. The eps gate probes
    every dimension from M_MIN on. A happy breakdown (subdiagonal below
    1e-12 of the pre-orthogonalization norm) returns early with
    h_next = 0: the subspace is invariant and the action exact.

    Probes below m_max pass eps on, so the exact residual formulas spend
    their C solve only where the solve-free floor cannot reject. A
    probe whose projection cannot be inverted estimates inf; the basis grows.

    Raises NoConvergence if m_max dimensions do not reach eps; the
    estimate it reports is the exact one at m_max.
    """
    if eps is not None and h is None:
        raise ValueError("convergence checks need the step horizon h")
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    dim = operator.dim
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (dim,):
        raise ValueError(f"start vector has shape {v.shape}, expected ({dim},)")
    beta = float(np.linalg.norm(v))
    m_max = min(m_max, dim)
    big_v = np.empty((m_max + 1, dim))  # each row is written before it is read
    big_h = np.zeros((m_max + 1, m_max))

    def view(m, h_next, v_next):
        return KrylovBasis(
            operator=operator,
            v_basis=big_v[:m].T,
            hessenberg=big_h[:m, :m],
            h_next=float(h_next),
            v_next=v_next,
            beta=beta,
        )

    def finish(basis, est, kind):
        # Detach from the work arrays; h_eff and residual_scale, if the
        # convergence check derived them, stay valid.
        basis.v_basis = basis.v_basis.copy(order="F")
        basis.hessenberg = basis.hessenberg.copy()
        basis.v_next = basis.v_next.copy()
        basis.estimate, basis.estimate_kind = est, kind
        return basis

    if beta == 0.0:
        # Zero start vector: the action is identically zero.
        return finish(view(0, 0.0, np.zeros(dim)), 0.0, "breakdown")
    big_v[0] = v / beta

    last_est = None
    for j in range(m_max):
        w = operator.apply(big_v[j])
        norm_pre = float(np.linalg.norm(w))
        for _ in range(2):
            c = big_v[: j + 1] @ w
            big_h[: j + 1, j] += c
            w -= c @ big_v[: j + 1]
        h_sub = float(np.linalg.norm(w))
        if h_sub <= BREAKDOWN_RTOL * max(norm_pre, 1e-300):
            return finish(view(j + 1, 0.0, np.zeros(dim)), 0.0, "breakdown")
        big_h[j + 1, j] = h_sub
        big_v[j + 1] = w / h_sub

        m = j + 1
        if eps is None or m < M_MIN:
            continue
        probe = view(m, h_sub, big_v[m])
        last_est, kind = step_error_estimate(probe, h, None if m == m_max else eps)
        if last_est <= eps:
            return finish(probe, last_est, kind)

    if eps is None:
        m = m_max
        return finish(view(m, big_h[m, m - 1], big_v[m]), None, None)
    raise NoConvergence(
        f"Krylov basis did not reach {eps:.3e} within m_max={m_max} (last estimate {last_est})",
        m=m_max,
        estimate=last_est,
    )
