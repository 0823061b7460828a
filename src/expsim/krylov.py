"""Krylov projection of the circuit propagator.

The transient solvers advance states with the action of e^{hA} where
A = -C^-1 G is never formed. Three subspace variants approximate that
action from a factored solve plus a sparse matvec per iteration:

* standard: basis of K_m(A, v) built from applies of A itself; the
  basis dimension grows with ||hA||, which stiff circuits make large.
* inverted: basis of K_m(A^-1, v) with A^-1 = -G^-1 C, one G
  factorization; resolves the slow eigenvalues that dominate the
  response, so stiff problems converge at small m.
* rational (shift-and-invert): basis of K_m((I - gamma A)^-1, v) from a
  single factorization of C + gamma G; a shift near the working step
  size makes the basis usable across a wide range of step sizes.

An augmented form folds a linear-in-time forcing term into two extra
state entries so one exponential covers the inhomogeneous update; it is
available for the standard and rational variants (the inverted one
would need the inverse of a structurally singular augmented matrix).

Every basis produced here satisfies, up to rounding,

    M V_m = V_m H_m + h_next * v_next * e_m^T

with M the variant's build operator and H_m the raw Hessenberg matrix;
the audit registry at the bottom re-verifies this on demand.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import numkit
from .errors import BasisDegenerate, NoConvergence

# Relative tolerance declaring the subspace exact (happy breakdown).
BREAKDOWN_RTOL = 1e-12

# A second orthogonalization pass runs when the first one removes more
# than this fraction of the vector's norm.
REORTH_DROP = 1.0 / np.sqrt(2.0)

DEFAULT_M_MAX = 30


class Variant(enum.Enum):
    STANDARD = "standard"
    INVERTED = "inverted"
    RATIONAL = "rational"


def _projected_expm(m: np.ndarray) -> np.ndarray:
    # Pade scaling-and-squaring on the m x m projection. Low-dimension
    # projections of a stable generator can stick out into the right
    # half plane and overflow; the resulting infs just read as a failed
    # convergence check, so the warnings are noise.
    with np.errstate(over="ignore", invalid="ignore"):
        return scipy.linalg.expm(m)


@dataclass(frozen=True)
class AugmentedInput:
    """Forcing folded into the state: two trailing entries [tau/ts, 1].

    w_cols stacks the scaled slope and level columns of the drive over
    the window starting at the basis anchor; the companion block
    J = [[0, 1/ts], [0, 0]] makes the tail evolve as [tau/ts, 1] under
    the augmented generator. tau is measured in units of the window
    length ts: with the raw slope column a unit tail entry means a full
    second of input ramp, which makes the augmented flow expansive by
    the ratio of a second to the window and the residual-based error
    estimates dishonest by the same factor.
    """

    w_cols: np.ndarray  # (n, 2)
    tau_scale: float


def augment_phi(
    x_t: np.ndarray, bu_t: np.ndarray, bu_th: np.ndarray, h: float
) -> tuple[AugmentedInput, np.ndarray]:
    """Build the augmented forcing block and start vector for one window.

    bu_t and bu_th are B u at the window start and end; the drive is
    affine in between, so the slope column is their difference (the
    divided difference times the tau scale h). Returns (augmentation,
    start) with start = [x(t), 0, 1].
    """
    if h <= 0:
        raise ValueError("window length must be positive")
    w_cols = np.column_stack([bu_th - bu_t, bu_t])
    start = np.concatenate([x_t, [0.0, 1.0]])
    return AugmentedInput(w_cols, tau_scale=h), start


@dataclass
class VariantOperator:
    """One variant's build operator M, applied via factored solves.

    x1 holds the factors that realize the inverse, x2 the matrix that is
    multiplied first:

        standard:  M v = -C^-1 (G v)          x1 = C,        x2 = G
        inverted:  M v = -G^-1 (C v)          x1 = G,        x2 = C
        rational:  M v = (C+gamma G)^-1 (C v) x1 = C+gamma G, x2 = C

    With an augmentation attached, applies act blockwise on [v1, v2]
    so the (n+2)-dimensional matrices never exist; only the standard
    and rational variants support that.

    aux_c_factors and g_matrix, when provided, let the error estimate
    use the exact residual formulas for the inverted and rational
    variants (they need one extra apply of A, i.e. a C solve). They are
    omitted exactly when C cannot be factorized, which drops the
    estimate to the empirical surrogate.
    """

    variant: Variant
    x1: numkit.LuFactors
    x2: numkit.SparseMatrix
    gamma: float | None = None
    aug: AugmentedInput | None = None
    g_matrix: numkit.SparseMatrix | None = None
    aux_c_factors: numkit.LuFactors | None = None

    def __post_init__(self):
        if self.variant is Variant.RATIONAL and not (
            self.gamma and self.gamma > 0
        ):
            raise ValueError("rational variant needs a positive shift")
        if self.aug is not None and self.variant is Variant.INVERTED:
            raise ValueError(
                "augmented input is unsupported for the inverted variant: "
                "the augmented conductance block is structurally singular"
            )

    @property
    def base_dim(self) -> int:
        return self.x1.n

    @property
    def dim(self) -> int:
        return self.base_dim + (2 if self.aug is not None else 0)

    def apply(self, v: np.ndarray) -> np.ndarray:
        n = self.base_dim
        if v.shape != (self.dim,):
            raise ValueError(f"vector has shape {v.shape}, expected ({self.dim},)")
        sign = 1.0 if self.variant is Variant.RATIONAL else -1.0
        if self.aug is None:
            return sign * self.x1.solve(self.x2 @ v)
        v1, v2 = v[:n], v[n:]
        w = self.aug.w_cols
        ts = self.aug.tau_scale
        if self.variant is Variant.STANDARD:
            # -C^-1 (G v1 - W v2) on top, J v2 below.
            top = self.x1.solve(w @ v2 - (self.x2 @ v1))
            tail = np.array([v2[1] / ts, 0.0])
        else:
            # (I - gamma J)^-1 is I + gamma J because J is nilpotent.
            tail = np.array([v2[0] + (self.gamma / ts) * v2[1], v2[1]])
            top = self.x1.solve(self.x2 @ v1 + self.gamma * (w @ tail))
        return np.concatenate([top, tail])

    def ode_apply(self, v: np.ndarray) -> np.ndarray | None:
        """A v with A = -C^-1 G, blockwise when an augmentation is attached.

        Used by the exact residual formulas of _residual_rate. Returns
        None when the needed pieces (C factors, G) were not supplied,
        which is the singular-C situation.
        """
        if self.aux_c_factors is None or self.g_matrix is None:
            return None
        n = self.base_dim
        if self.aug is None:
            return -self.aux_c_factors.solve(self.g_matrix @ v)
        v1, v2 = v[:n], v[n:]
        top = self.aux_c_factors.solve(self.aug.w_cols @ v2 - (self.g_matrix @ v1))
        return np.concatenate([top, np.array([v2[1] / self.aug.tau_scale, 0.0])])


def standard_operator(
    c_factors: numkit.LuFactors,
    g: numkit.SparseMatrix,
    aug: AugmentedInput | None = None,
) -> VariantOperator:
    return VariantOperator(Variant.STANDARD, c_factors, g, aug=aug, g_matrix=g)


def inverted_operator(
    g_factors: numkit.LuFactors,
    c: numkit.SparseMatrix,
    g: numkit.SparseMatrix | None = None,
    aux_c_factors: numkit.LuFactors | None = None,
) -> VariantOperator:
    return VariantOperator(
        Variant.INVERTED, g_factors, c, g_matrix=g, aux_c_factors=aux_c_factors
    )


def make_shift_matrix(
    c: numkit.SparseMatrix, g: numkit.SparseMatrix, gamma: float
) -> numkit.SparseMatrix:
    return numkit.from_scipy(c.scipy + gamma * g.scipy)


def rational_operator(
    shift_factors: numkit.LuFactors,
    c: numkit.SparseMatrix,
    gamma: float,
    g: numkit.SparseMatrix | None = None,
    aug: AugmentedInput | None = None,
    aux_c_factors: numkit.LuFactors | None = None,
) -> VariantOperator:
    return VariantOperator(
        Variant.RATIONAL,
        shift_factors,
        c,
        gamma=gamma,
        aug=aug,
        g_matrix=g,
        aux_c_factors=aux_c_factors,
    )


@dataclass
class KrylovBasis:
    """Orthonormal basis, raw Hessenberg projection and overflow terms.

    beta is the norm of the start vector, v_basis the orthonormal
    columns, hessenberg the square m x m projection of the build
    operator, h_next / v_next the (m+1)-th subdiagonal entry and basis
    vector that the square form drops (h_next = 0 after a happy
    breakdown, in which case the subspace is invariant and results are
    exact). anchor_time records the solver time the basis was built at
    so reused steps can measure their elapsed horizon from it.
    """

    operator: VariantOperator
    v_basis: np.ndarray  # (dim, m)
    hessenberg: np.ndarray  # (m, m)
    h_next: float
    v_next: np.ndarray
    beta: float
    anchor_time: float | None = None
    estimate: float | None = None
    estimate_kind: str | None = None
    _h_eff: np.ndarray | None = field(default=None, repr=False)
    # ||A v_next|| (inverted) or ||(I - gamma A) v_next|| / gamma
    # (rational); v_next is fixed, so reused-basis estimates pay the
    # extra C solve only once.
    _exact_scale: float | None = field(default=None, repr=False)

    @property
    def m(self) -> int:
        return self.v_basis.shape[1]

    @property
    def variant(self) -> Variant:
        return self.operator.variant

    @property
    def gamma(self) -> float | None:
        return self.operator.gamma

    @property
    def breakdown(self) -> bool:
        return self.m > 0 and self.h_next == 0.0

    def effective_generator(self) -> np.ndarray:
        if self._h_eff is None:
            self._h_eff = effective_generator(self)
        return self._h_eff

    def truncated(self, m: int) -> "KrylovBasis":
        """View of the leading m-dimensional sub-basis."""
        if not 1 <= m <= self.m:
            raise ValueError(f"cannot truncate basis of dimension {self.m} to {m}")
        if m == self.m:
            return self
        return KrylovBasis(
            operator=self.operator,
            v_basis=self.v_basis[:, :m],
            hessenberg=self.hessenberg[:m, :m],
            h_next=float(self.hessenberg[m, m - 1]),
            v_next=self.v_basis[:, m],
            beta=self.beta,
            anchor_time=self.anchor_time,
        )


def effective_generator(basis: KrylovBasis) -> np.ndarray:
    """Map the raw Hessenberg projection to the generator of e^{hA}.

    The projected build operator approximates M, so the generator that
    belongs in the exponential is recovered per variant:

        standard:  H            (M = A already)
        inverted:  H^-1         (M = A^-1)
        rational:  (I - H^-1) / gamma   (M = (I - gamma A)^-1)
    """
    h = basis.hessenberg
    if basis.variant is Variant.STANDARD:
        return h.copy()
    try:
        h_inv = np.linalg.inv(h)
    except np.linalg.LinAlgError as exc:
        raise BasisDegenerate(
            f"projected {basis.variant.value} operator is singular at m={basis.m}"
        ) from exc
    if not np.all(np.isfinite(h_inv)):
        raise BasisDegenerate(
            f"projected {basis.variant.value} operator inverse overflowed"
        )
    if basis.variant is Variant.INVERTED:
        return h_inv
    return (np.eye(basis.m) - h_inv) / basis.gamma


def expm_action(basis: KrylovBasis, h: float) -> np.ndarray:
    """beta * V * e^{h H_eff} e1: the projected propagator action.

    Valid for any nonnegative h, not just the one the basis converged
    at; reused-basis steps exploit exactly that.
    """
    if basis.m == 0:
        return np.zeros(basis.operator.dim)
    e_h = _projected_expm(h * basis.effective_generator())
    return basis.beta * (basis.v_basis @ e_h[:, 0])


def _residual_rate(basis: KrylovBasis, e_s: np.ndarray) -> tuple[float, str]:
    """||r_m(s)|| given e^{s H_eff}: the per-variant residual-norm formula.

    The standard variant reads the classical Arnoldi overflow term. The
    inverted and rational variants use their exact expressions whenever
    the operator carries the pieces to apply A (one C solve per basis,
    cached on it); when C is singular those pieces do not exist and the
    rate drops to the empirical surrogate
    |beta * h_next * e_m^T e^{s H_eff} e1|, which is reliable only once
    the basis is past the onset of convergence: it lacks the exact
    formulas' leading scale (||A v_next||, roughly 1/gamma for the
    rational variant), so on circuits whose time constants are far from
    one second it can be optimistic by that scale until the projected
    dynamics actually converges.
    """
    m = basis.m
    op = basis.operator
    if basis.variant is Variant.STANDARD:
        return basis.beta * abs(basis.h_next * e_s[m - 1, 0]), "exact"
    if op.aux_c_factors is None or op.g_matrix is None:
        return basis.beta * abs(basis.h_next * e_s[m - 1, 0]), "empirical"
    if basis._exact_scale is None:
        av = op.ode_apply(basis.v_next)
        if basis.variant is Variant.INVERTED:
            basis._exact_scale = float(np.linalg.norm(av))
        else:
            basis._exact_scale = float(
                np.linalg.norm(basis.v_next / op.gamma - av)
            )
    # e_m^T Hraw^-1 e^{s H_eff} e1 without forming the inverse:
    # inverted has Hraw^-1 = H_eff, rational I - gamma H_eff.
    col = basis.effective_generator() @ e_s[:, 0]
    if basis.variant is Variant.INVERTED:
        tail = abs(col[m - 1])
    else:
        tail = abs(e_s[m - 1, 0] - op.gamma * col[m - 1])
    return basis.beta * abs(basis.h_next) * basis._exact_scale * tail, "exact"


def step_error_estimate(
    basis: KrylovBasis, h: float, detail: bool = False, levels: int = 6
):
    """Bound on the step error of expm_action(basis, h).

    The true error is the residual propagated through the (contractive)
    exact flow, so its norm is at most the time integral of ||r_m(s)||
    over [0, h]. The endpoint value alone can collapse to nothing when
    the projected dynamics has decayed by s = h even though the
    approximant was wrong in transit, which shows up right after input
    corners where the state is nearly fast-mode equilibrated; the
    integral has no such blind spot.

    Quadrature runs over geometric panels with nodes h/2^levels, ...,
    h/2, h, each panel bounded by its larger endpoint rate. All nodes
    come from one small matrix exponential squared up level by level.

    With detail=True returns (estimate, kind).
    """
    if basis.m == 0 or basis.h_next == 0.0:
        return (0.0, "breakdown") if detail else 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        e_s = _projected_expm((h / 2.0**levels) * basis.effective_generator())
        rates = []
        while True:
            rate, kind = _residual_rate(basis, e_s)
            rates.append(rate)
            if len(rates) > levels:
                break
            e_s = e_s @ e_s
        width = h / 2.0**levels
        est = rates[0] * width
        for j in range(levels):
            est += max(rates[j], rates[j + 1]) * width
            width *= 2.0
    est = float(est)
    if not np.isfinite(est):
        est = float("inf")
    return (est, kind) if detail else est


def arnoldi(
    operator: VariantOperator,
    v: np.ndarray,
    m_max: int = DEFAULT_M_MAX,
    h: float | None = None,
    eps: float | None = None,
    anchor_time: float | None = None,
    m_min: int = 2,
) -> KrylovBasis:
    """Grow an orthonormal basis of K_m(M, v) until eps is met.

    Modified Gram-Schmidt with one conditional reorthogonalization pass
    (triggered when orthogonalization removes more than a 1/sqrt(2)
    fraction of the candidate's norm). Convergence is judged by
    step_error_estimate at horizon h against eps; pass eps=None to
    build all m_max dimensions unconditionally. The eps gate only fires
    from m_min on: a one-dimensional projection averages fast and slow
    modes into a single Rayleigh quotient, and when that average is
    fast-dominated the residual formulas see pure decay and report
    convergence the subspace does not have. A happy breakdown
    (subdiagonal below 1e-12 of the pre-orthogonalization norm) returns
    early with h_next = 0: the subspace is invariant and the action
    exact.

    The estimate is evaluated every iteration up to m = 32 and on a
    sparse geometric schedule beyond, so large standard-variant builds
    are not dominated by dense exponentials of the projection.

    Raises NoConvergence if m_max dimensions do not reach eps.
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
    if beta == 0.0:
        # Zero start vector: the action is identically zero.
        return KrylovBasis(
            operator=operator,
            v_basis=np.zeros((dim, 0)),
            hessenberg=np.zeros((0, 0)),
            h_next=0.0,
            v_next=np.zeros(dim),
            beta=0.0,
            anchor_time=anchor_time,
            estimate=0.0,
            estimate_kind="breakdown",
        )

    m_max = min(m_max, dim)
    big_v = np.zeros((dim, m_max + 1))
    big_h = np.zeros((m_max + 1, m_max))
    big_v[:, 0] = v / beta

    def finish(m, h_next, v_next, est, kind):
        basis = KrylovBasis(
            operator=operator,
            v_basis=big_v[:, :m].copy(),
            hessenberg=big_h[:m, :m].copy(),
            h_next=float(h_next),
            v_next=v_next.copy(),
            beta=beta,
            anchor_time=anchor_time,
            estimate=est,
            estimate_kind=kind,
        )
        basis_audit.record(basis)
        return basis

    next_check = 1
    last_est = None
    for j in range(m_max):
        w = operator.apply(big_v[:, j])
        norm_pre = float(np.linalg.norm(w))
        for i in range(j + 1):
            coeff = float(big_v[:, i] @ w)
            big_h[i, j] += coeff
            w -= coeff * big_v[:, i]
        if float(np.linalg.norm(w)) < REORTH_DROP * norm_pre:
            for i in range(j + 1):
                coeff = float(big_v[:, i] @ w)
                big_h[i, j] += coeff
                w -= coeff * big_v[:, i]
        h_sub = float(np.linalg.norm(w))
        if h_sub <= BREAKDOWN_RTOL * max(norm_pre, 1e-300):
            big_h[j + 1, j] = 0.0
            return finish(j + 1, 0.0, np.zeros(dim), 0.0, "breakdown")
        big_h[j + 1, j] = h_sub
        big_v[:, j + 1] = w / h_sub

        m = j + 1
        if eps is None or m < m_min:
            continue
        if m <= 32 or m >= next_check or m == m_max:
            if m >= next_check:
                next_check = max(m + 1, int(np.ceil(m * 1.2)))
            probe = KrylovBasis(
                operator=operator,
                v_basis=big_v[:, :m],
                hessenberg=big_h[:m, :m],
                h_next=h_sub,
                v_next=big_v[:, m],
                beta=beta,
            )
            try:
                last_est, kind = step_error_estimate(probe, h, detail=True)
            except BasisDegenerate:
                # Early projections of the inverse-based variants can be
                # momentarily singular; keep growing.
                continue
            if last_est <= eps:
                return finish(m, h_sub, big_v[:, m], last_est, kind)

    if eps is None:
        m = m_max
        return finish(m, big_h[m, m - 1], big_v[:, m], None, None)
    raise NoConvergence(
        f"{operator.variant.value} basis did not reach {eps:.3e} within "
        f"m_max={m_max} (last estimate {last_est})",
        m=m_max,
        estimate=last_est,
    )


# ---------------------------------------------------------------------------
# Audit registry


def orthonormality_defect(basis: KrylovBasis) -> float:
    if basis.m == 0:
        return 0.0
    v = basis.v_basis
    return float(np.abs(v.T @ v - np.eye(basis.m)).max())


def relation_residual(basis: KrylovBasis) -> tuple[float, float]:
    """(residual, scale) of M V = V H + h_next v_next e_m^T.

    Applies the operator once per column; the solves land on the
    operator's factor tally. The scale is ||M V||_F for relative
    comparison.
    """
    if basis.m == 0:
        return 0.0, 0.0
    mv = np.column_stack(
        [basis.operator.apply(basis.v_basis[:, j]) for j in range(basis.m)]
    )
    rhs = basis.v_basis @ basis.hessenberg
    rhs[:, -1] += basis.h_next * basis.v_next
    residual = float(np.linalg.norm(mv - rhs))
    return residual, float(np.linalg.norm(mv))


class BasisAudit:
    """Opt-in registry re-verifying every emitted basis.

    Tests enable it to assert the invariants (orthonormality defect and
    the Arnoldi relation) on each basis a run produced, without slowing
    production use.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.enabled = False
        self._bases: list[KrylovBasis] = []

    def record(self, basis: KrylovBasis) -> None:
        if self.enabled and basis.m > 0:
            with self._lock:
                self._bases.append(basis)

    def clear(self) -> None:
        with self._lock:
            self._bases.clear()

    def __len__(self):
        return len(self._bases)

    def verify_all(self, ortho_tol: float = 1e-8, rel_tol: float = 1e-8) -> int:
        """Check invariants on all recorded bases; returns the count."""
        with self._lock:
            bases = list(self._bases)
        for basis in bases:
            defect = orthonormality_defect(basis)
            if defect > ortho_tol:
                raise AssertionError(
                    f"orthonormality defect {defect:.3e} exceeds {ortho_tol:.1e} "
                    f"({basis.variant.value}, m={basis.m})"
                )
            residual, scale = relation_residual(basis)
            if residual > rel_tol * max(scale, 1.0):
                raise AssertionError(
                    f"Arnoldi relation residual {residual:.3e} exceeds "
                    f"{rel_tol:.1e} * {scale:.3e} ({basis.variant.value}, m={basis.m})"
                )
        return len(bases)


basis_audit = BasisAudit()
