"""Transient solvers: adaptive exponential stepping plus TR/BE baselines.

The exponential path advances the descriptor system C xdot = -G x + B u
over one piecewise-linear input window as

    x(t + h) = e^{hA} (x(t) + F) - P,        A = -C^-1 G,

where F and P collect the particular solution of the affine drive. Both
reduce to two factored solves with G per new time point:

    w(t)     = -G^-1 (B u(t))            (= A^-1 b)
    theta(t) = -G^-1 (C w(t))            (= A^-2 b)
    F(t, h)  = w(t)      + (theta(t+h) - theta(t)) / h
    P(t, h)  = w(t+h)    + (theta(t+h) - theta(t)) / h

Steps land exactly on the spot times where any driving source changes
slope. A fresh Krylov basis is grown only at the spots where this run's
own input changes slope; at the remaining spots the previous basis is
reused by evaluating the projected exponential at the horizon measured
from the basis anchor, with P re-anchored accordingly. That reuse is
what makes the decomposed runs cheap: reused steps cost two substitution
pairs, not a basis build.

An alternative input path folds the affine drive into two extra state
entries so each step is a single exponential action with no F/P solves;
see krylov.augment_phi.

The trapezoidal and backward-Euler solvers exist as fixed-step
baselines; backward Euler at a very fine step doubles as the accuracy
reference everything else is measured against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import errors, krylov, netlist, numkit

METHODS = ("tr", "be", "mexp", "imatex", "rmatex")
INPUT_PATHS = ("fp", "aug")

_METHOD_VARIANT = {
    "mexp": krylov.Variant.STANDARD,
    "imatex": krylov.Variant.INVERTED,
    "rmatex": krylov.Variant.RATIONAL,
}


@dataclass
class SolverConfig:
    """Everything a transient run needs besides the circuit itself.

    h is the fixed step of the tr/be baselines and is ignored by the
    exponential methods, which step spot to spot. e_tol is the absolute
    error budget for the whole span; each step gets the proportional
    share e_tol * h / (t_stop - t_start). gamma defaults to a tenth of
    the median spot gap. t_start / t_stop override the netlist .TRAN
    directive when given.

    The imatex/rmatex convergence estimate is chosen automatically:
    the exact residual formula when C can be factorized (one extra
    factorization per run), the empirical surrogate when C is singular.
    """

    method: str = "rmatex"
    h: float | None = None
    e_tol: float = 1e-6
    m_max: int = krylov.DEFAULT_M_MAX
    gamma: float | None = None
    t_start: float | None = None
    t_stop: float | None = None
    input_path: str = "fp"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.input_path not in INPUT_PATHS:
            raise ValueError(f"unknown input path {self.input_path!r}")
        if self.method == "imatex" and self.input_path == "aug":
            raise ValueError(
                "imatex cannot use the augmented input path "
                "(augmented conductance block is structurally singular)"
            )
        if self.method in ("tr", "be") and (self.h is None or self.h <= 0):
            raise ValueError(f"{self.method} needs a positive fixed step h")
        if self.e_tol <= 0:
            raise ValueError("e_tol must be positive")
        if self.m_max < 1:
            raise ValueError("m_max must be at least 1")
        if self.gamma is not None and self.gamma <= 0:
            raise ValueError("gamma must be positive")


@dataclass
class StepRecord:
    """Diagnostics for one accepted step."""

    t: float
    h: float
    m: int
    estimate: float
    reused: bool
    estimate_kind: str
    anchor: float


@dataclass
class WaveformResult:
    """Sampled trajectory plus the run's cost accounting."""

    times: np.ndarray  # (T,)
    states: np.ndarray  # (T, n)
    names: list[str]
    method: str
    steps: list[StepRecord] = field(default_factory=list)
    substitution_pairs: int = 0
    factorizations: int = 0
    wall_time: float = 0.0
    gamma: float | None = None

    @property
    def n(self) -> int:
        return self.states.shape[1]

    @property
    def m_peak(self) -> int:
        fresh = [s.m for s in self.steps if not s.reused]
        return max(fresh) if fresh else 0

    @property
    def m_average(self) -> float:
        fresh = [s.m for s in self.steps if not s.reused]
        return float(np.mean(fresh)) if fresh else 0.0

    @property
    def reused_steps(self) -> int:
        return sum(1 for s in self.steps if s.reused)


def resolve_span(system: netlist.CircuitSystem, config: SolverConfig):
    """(t_start, t_stop) of the run: config overrides, else .TRAN.

    Every solver calls this first, so it also rejects circuits that no
    source drives.
    """
    if system.num_sources == 0:
        raise ValueError("netlist has no I or V source: nothing drives the circuit")
    t0 = config.t_start if config.t_start is not None else system.t_start
    t1 = config.t_stop if config.t_stop is not None else system.t_stop
    if t0 is None or t1 is None:
        raise ValueError("no analysis span: netlist lacks .TRAN and config gives none")
    if t1 <= t0:
        raise ValueError("analysis span is empty")
    return float(t0), float(t1)


def active_transitions(
    system: netlist.CircuitSystem,
    t_start: float,
    t_stop: float,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Union of slope-change times of the (masked) sources in the span."""
    parts = []
    for i, w in enumerate(system.sources):
        if mask is not None and not mask[i]:
            continue
        parts.append(w.transition_times(t_start, t_stop))
    if not parts:
        return np.empty(0)
    return np.unique(np.concatenate(parts))


def _stepping_points(t0, t1, spots):
    spots = np.asarray(spots, dtype=np.float64)
    interior = spots[(spots > t0) & (spots < t1)]
    points = np.unique(np.concatenate([[t0, t1], interior]))
    # Collapse float-noise near-duplicates; keep the endpoints intact.
    atol = 1e-9 * (t1 - t0)
    keep = [points[0]]
    for p in points[1:]:
        if p - keep[-1] > atol:
            keep.append(p)
    keep[-1] = t1
    return np.asarray(keep)


class _InputTracker:
    """Caches the w/theta substitution pairs per time point.

    Each new time costs exactly two factored solves with G; revisiting a
    cached time (every window start is also the previous window's end)
    costs nothing.
    """

    def __init__(self, system, g_factors, mask=None):
        self.system = system
        self.g_factors = g_factors
        self.mask = mask
        self._cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def w_theta(self, t: float):
        hit = self._cache.get(t)
        if hit is not None:
            return hit
        u, _ = self.system.eval_sources(t, self.mask)
        w = -self.g_factors.solve(self.system.b @ u)
        theta = -self.g_factors.solve(self.system.c @ w)
        self._cache[t] = (w, theta)
        return w, theta

    def f_term(self, t: float, t_next: float) -> np.ndarray:
        w_t, th_t = self.w_theta(t)
        _, th_n = self.w_theta(t_next)
        return w_t + (th_n - th_t) / (t_next - t)

    def p_term(self, anchor: float, t_next: float) -> np.ndarray:
        _, th_a = self.w_theta(anchor)
        w_n, th_n = self.w_theta(t_next)
        return w_n + (th_n - th_a) / (t_next - anchor)

    def bu(self, t: float) -> np.ndarray:
        u, _ = self.system.eval_sources(t, self.mask)
        return self.system.b @ u


def matex_step(
    basis: krylov.KrylovBasis, h_from_anchor: float, p: np.ndarray | None
) -> np.ndarray:
    """One exponential update from the basis anchor.

    p is the particular term re-anchored at the basis anchor; pass None
    on the augmented path where the forcing lives inside the basis.
    """
    full = krylov.expm_action(basis, h_from_anchor)
    if p is None:
        return full[: basis.operator.base_dim]
    return full[: p.shape[0]] - p


def _factor(matrix: numkit.SparseMatrix, made: list[numkit.LuFactors]):
    """Factorize and record the factors; a run's cost is read off made."""
    f = numkit.lu_factorize(matrix)
    made.append(f)
    return f


def _is_spot(t: float, spots: np.ndarray, atol: float) -> bool:
    i = np.searchsorted(spots, t)
    for j in (i - 1, i):
        if 0 <= j < spots.size and abs(float(spots[j]) - t) <= atol:
            return True
    return False


def solve_transient_matex(
    system: netlist.CircuitSystem,
    config: SolverConfig,
    lts: np.ndarray | None = None,
    gts: np.ndarray | None = None,
    mask: np.ndarray | None = None,
    x0: np.ndarray | None = None,
) -> WaveformResult:
    """Adaptive exponential transient over the spot-time grid.

    lts lists the spot times where this run's own drive changes slope
    (a fresh basis is required there); gts the full grid the samples
    must land on. Both default to the masked sources' transitions, which
    makes an undecomposed run rebuild at every spot. mask restricts the
    drive to a source subset for superposition subtasks; x0 overrides
    the computed operating point.
    """
    t_begin = time.perf_counter()
    if config.method not in _METHOD_VARIANT:
        raise ValueError(f"not an exponential method: {config.method!r}")
    variant = _METHOD_VARIANT[config.method]
    t0, t1 = resolve_span(system, config)
    span = t1 - t0
    if gts is None:
        gts = active_transitions(system, t0, t1, mask)
    if lts is None:
        lts = gts
    points = _stepping_points(t0, t1, gts)
    lts = np.sort(np.asarray(lts, dtype=np.float64))
    spot_atol = 1e-9 * span

    gaps = np.diff(points)
    gamma = config.gamma
    if gamma is None and variant is krylov.Variant.RATIONAL:
        gamma = float(np.median(gaps)) / 10.0

    n = system.n
    made: list[numkit.LuFactors] = []
    g_factors = _factor(system.g, made)
    if variant is krylov.Variant.STANDARD:
        c_factors = _factor(system.c, made)

        def make_op(aug=None):
            return krylov.standard_operator(c_factors, system.g, aug=aug)

    else:
        # Exact error formulas need C factors; a singular C drops the
        # estimate to the empirical surrogate instead of failing.
        aux_c = None
        if not system.structurally_singular_c():
            try:
                aux_c = _factor(system.c, made)
            except errors.NumericalError:
                aux_c = None

        if variant is krylov.Variant.INVERTED:

            def make_op(aug=None):
                return krylov.inverted_operator(
                    g_factors, system.c, g=system.g, aux_c_factors=aux_c
                )

        else:
            shift = krylov.make_shift_matrix(system.c, system.g, gamma)
            shift_factors = _factor(shift, made)

            def make_op(aug=None):
                return krylov.rational_operator(
                    shift_factors,
                    system.c,
                    gamma,
                    g=system.g,
                    aug=aug,
                    aux_c_factors=aux_c,
                )

    x = np.array(x0, dtype=np.float64) if x0 is not None else netlist.dc_analysis(
        system, g_factors, mask, t=t0
    )
    if x.shape != (n,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({n},)")

    use_fp = config.input_path == "fp"
    tracker = _InputTracker(system, g_factors, mask)
    base_op = make_op() if use_fp else None

    states = [x.copy()]
    steps: list[StepRecord] = []
    basis = None
    anchor = None
    for k in range(points.size - 1):
        t, t_next = float(points[k]), float(points[k + 1])
        h = t_next - t
        eps = config.e_tol * h / span
        fresh = basis is None or _is_spot(t, lts, spot_atol)
        if fresh:
            anchor = t
            if use_fp:
                v = x + tracker.f_term(t, t_next)
                op = base_op
            else:
                aug, v = krylov.augment_phi(
                    x, tracker.bu(t), tracker.bu(t_next), h
                )
                op = make_op(aug)
            basis = krylov.arnoldi(
                op, v, m_max=config.m_max, h=h, eps=eps, anchor_time=t
            )
            h_a = h
            est = basis.estimate if basis.estimate is not None else 0.0
            kind = basis.estimate_kind or "breakdown"
        else:
            h_a = t_next - anchor
            est, kind = krylov.step_error_estimate(basis, h_a, detail=True)
        p = tracker.p_term(anchor, t_next) if use_fp else None
        x = matex_step(basis, h_a, p)
        states.append(x.copy())
        steps.append(
            StepRecord(
                t=t,
                h=h,
                m=basis.m,
                estimate=float(est),
                reused=not fresh,
                estimate_kind=kind,
                anchor=anchor,
            )
        )

    return WaveformResult(
        times=points,
        states=np.vstack(states),
        names=list(system.names),
        method=config.method,
        steps=steps,
        substitution_pairs=sum(f.solve_count for f in made),
        factorizations=len(made),
        wall_time=time.perf_counter() - t_begin,
        gamma=gamma,
    )


def _fixed_grid(t0, t1, h):
    span = t1 - t0
    n_steps = int(round(span / h))
    if n_steps < 1 or abs(n_steps * h - span) > 1e-6 * h:
        raise ValueError(
            f"fixed step {h!r} does not divide the span {span!r} evenly"
        )
    return np.array([t0 + k * h for k in range(n_steps + 1)])


def _solve_fixed(system, config, mask, x0, trapezoidal: bool):
    t_begin = time.perf_counter()
    t0, t1 = resolve_span(system, config)
    times = _fixed_grid(t0, t1, config.h)
    h = config.h
    made: list[numkit.LuFactors] = []
    if x0 is None:
        x = netlist.dc_analysis(system, _factor(system.g, made), mask, t=t0)
    else:
        x = np.array(x0, dtype=np.float64)

    c = system.c.scipy
    g = system.g.scipy
    if trapezoidal:
        lhs = _factor(numkit.from_scipy(c / h + g / 2.0), made)
        rhs_matrix = (c / h - g / 2.0).tocsc()
    else:
        lhs = _factor(numkit.from_scipy(c / h + g), made)
        rhs_matrix = (c / h).tocsc()

    states = [x.copy()]
    u_prev, _ = system.eval_sources(float(times[0]), mask)
    b = system.b
    for k in range(times.size - 1):
        u_next, _ = system.eval_sources(float(times[k + 1]), mask)
        if trapezoidal:
            drive = b @ ((u_prev + u_next) / 2.0)
        else:
            drive = b @ u_next
        x = lhs.solve(rhs_matrix @ x + drive)
        states.append(x.copy())
        u_prev = u_next

    return WaveformResult(
        times=times,
        states=np.vstack(states),
        names=list(system.names),
        method="tr" if trapezoidal else "be",
        substitution_pairs=sum(f.solve_count for f in made),
        factorizations=len(made),
        wall_time=time.perf_counter() - t_begin,
    )


def solve_transient_tr(system, config, mask=None, x0=None) -> WaveformResult:
    """Fixed-step trapezoidal rule; one substitution pair per step.

    (C/h + G/2) x_{k+1} = (C/h - G/2) x_k + B (u_k + u_{k+1}) / 2.
    Second order in h.
    """
    return _solve_fixed(system, config, mask, x0, trapezoidal=True)


def solve_transient_be(system, config, mask=None, x0=None) -> WaveformResult:
    """Fixed-step backward Euler; first order, unconditionally damped.

    (C/h + G) x_{k+1} = (C/h) x_k + B u_{k+1}. At a step much finer than
    every input feature this is the accuracy reference for the others.
    """
    return _solve_fixed(system, config, mask, x0, trapezoidal=False)


def solve_transient(
    system: netlist.CircuitSystem,
    config: SolverConfig,
    lts: np.ndarray | None = None,
    gts: np.ndarray | None = None,
    mask: np.ndarray | None = None,
    x0: np.ndarray | None = None,
) -> WaveformResult:
    """Dispatch on config.method."""
    if config.method == "tr":
        return solve_transient_tr(system, config, mask=mask, x0=x0)
    if config.method == "be":
        return solve_transient_be(system, config, mask=mask, x0=x0)
    return solve_transient_matex(system, config, lts=lts, gts=gts, mask=mask, x0=x0)


def resample_states(result: WaveformResult, times: np.ndarray) -> np.ndarray:
    """Linear interpolation of a trajectory onto new sample times."""
    times = np.asarray(times, dtype=np.float64)
    out = np.empty((times.size, result.n))
    for j in range(result.n):
        out[:, j] = np.interp(times, result.times, result.states[:, j])
    return out


def waveform_error(
    result: WaveformResult, reference: WaveformResult
) -> float:
    """Peak relative deviation (percent) against a reference run.

    Both trajectories are compared on the coarser run's samples; the
    deviation is normalized by the reference's peak magnitude so quiet
    nets do not divide by zero.
    """
    ref = resample_states(reference, result.times)
    scale = float(np.abs(ref).max())
    if scale == 0.0:
        scale = 1.0
    return float(np.abs(result.states - ref).max() / scale) * 100.0
