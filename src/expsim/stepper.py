"""Transient solvers: adaptive exponential stepping plus TR/BE baselines.

The exponential path advances the descriptor system C xdot = -G x + B u
over one piecewise-linear input window as

    x(t + h) = e^{hA} (x(t) + F) - P,        A = -C^-1 G,

where F and P collect the particular solution of the affine drive:

    w(t)     = -G^-1 (B u(t))            (= A^-1 b)
    theta(t) = -G^-1 (C w(t))            (= A^-2 b)
    F(t, h)  = w(t)      + (theta(t+h) - theta(t)) / h
    P(t, h)  = w(t+h)    + (theta(t+h) - theta(t)) / h

w and theta are linear in the drive, so a run solves them once per
source, 2 n_src substitution pairs for n_src sources, and forms every
stepping point's terms with a dense product. The operating point is
-w(t0).

Steps land exactly on the spot times where any driving source changes
slope. A fresh Krylov basis is grown only at the spots where this run's
own input changes slope, one mask over the stepping points computed
before the first step; at the remaining spots the previous basis is
reused by evaluating the projected exponential at the horizon measured
from the basis anchor, with P re-anchored accordingly. That reuse is
what makes the decomposed runs cheap: a reused step costs no basis
build and no input-term solve.

The trapezoidal and backward-Euler solvers exist as fixed-step
baselines; backward Euler at a very fine step doubles as the accuracy
reference everything else is measured against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import krylov, netlist, numkit

# theta of each fixed-step method: (C/h + theta G) x_{k+1}
#   = (C/h - (1 - theta) G) x_k + B ((1 - theta) u_k + theta u_{k+1}).
FIXED_THETA = {"tr": 0.5, "be": 1.0}

_METHOD_VARIANT = {
    "mexp": krylov.Variant.STANDARD,
    "imatex": krylov.Variant.INVERTED,
    "rmatex": krylov.Variant.RATIONAL,
}

METHODS = (*FIXED_THETA, *_METHOD_VARIANT)

# Spots closer than this share of the span are one spot.
_SPOT_RTOL = 1e-9


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

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.method in FIXED_THETA and (self.h is None or self.h <= 0):
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
    system: netlist.CircuitSystem, t_start: float, t_stop: float
) -> np.ndarray:
    """Union of slope-change times of the system's sources in the span."""
    parts = [w.transition_times(t_start, t_stop) for w in system.sources]
    return np.unique(np.concatenate([np.empty(0), *parts]))


def stepping_points(t0, t1, spots) -> np.ndarray:
    """The grid a run steps on: t0, t1 and the spots strictly between."""
    spots = np.asarray(spots, dtype=np.float64)
    interior = spots[(spots > t0) & (spots < t1)]
    points = np.unique(np.concatenate([[t0, t1], interior]))
    # Collapse float-noise near-duplicates; keep the endpoints intact.
    atol = _SPOT_RTOL * (t1 - t0)
    keep = [points[0]]
    for p in points[1:]:
        if p - keep[-1] > atol:
            keep.append(p)
    keep[-1] = t1
    return np.asarray(keep)


def _input_terms(system, g_factors, points: np.ndarray):
    """Rows w(t_k) and theta(t_k) at the stepping points, two (T, n) arrays.

    W = -G^-1 B and Theta = -G^-1 C W hold one column per source, so
    w(t_k) = W u(t_k) and theta(t_k) = Theta u(t_k); two block solves
    cost 2 n_src substitution pairs for every point at once.
    """
    u = np.column_stack([system.eval_sources(float(t)) for t in points])
    w = -g_factors.solve(system.b.to_dense())
    theta = -g_factors.solve(system.c @ w)
    return u.T @ w.T, u.T @ theta.T


def factor_matex(
    system: netlist.CircuitSystem, config: SolverConfig, spots: np.ndarray
) -> krylov.VariantOperator:
    """Factor the operator of an exponential run: G, C and the variant's own.

    spots are the spot times the run steps on; the default gamma is a
    tenth of the median gap of the stepping points they make in the
    run's span. Subsystems keep C and G, so the operator of the whole
    circuit serves every source group that steps on the same spots.
    """
    if config.method not in _METHOD_VARIANT:
        raise ValueError(f"not an exponential method: {config.method!r}")
    variant = _METHOD_VARIANT[config.method]
    gamma = config.gamma
    if gamma is None and variant is krylov.Variant.RATIONAL:
        points = stepping_points(*resolve_span(system, config), spots)
        gamma = float(np.median(np.diff(points))) / 10.0
    return krylov.factor_operator(variant, system.c, system.g, gamma)


def solve_transient_matex(
    system: netlist.CircuitSystem,
    config: SolverConfig,
    gts: np.ndarray | None = None,
    op: krylov.VariantOperator | None = None,
) -> WaveformResult:
    """Adaptive exponential transient over the spot-time grid.

    The run starts at its operating point -w(t0). It steps on the
    system's own spots plus gts, the other spots the samples must land
    on. A fresh basis is built at the points within stepping_points'
    merge tolerance of a spot where the system's own sources change
    slope; at the others the previous basis is reused.
    op, made by factor_matex for the same C, G, config and spots, is
    stepped with instead of factoring anew; the run then reports the
    substitution pairs it added to op's tallies and no factorizations.
    """
    t_begin = time.perf_counter()
    if config.method not in _METHOD_VARIANT:
        raise ValueError(f"not an exponential method: {config.method!r}")
    t0, t1 = resolve_span(system, config)
    span = t1 - t0
    own_spots = active_transitions(system, t0, t1)
    spots = own_spots if gts is None else np.union1d(gts, own_spots)
    points = stepping_points(t0, t1, spots)
    # A gts time merged with an own spot moves that spot's point, so the
    # two nearest own spots are matched within the merge tolerance.
    ends = np.concatenate([[-np.inf], own_spots, [np.inf]])
    i = np.searchsorted(own_spots, points)
    gap = np.minimum(np.abs(ends[i] - points), np.abs(ends[i + 1] - points))
    fresh_at = gap <= _SPOT_RTOL * span
    fresh_at[0] = True

    factorizations = 0
    if op is None:
        op = factor_matex(system, config, spots)
        factorizations = len(op.factors())
    pairs_before = sum(f.solve_count for f in op.factors())

    w, theta = _input_terms(system, op.g_factors, points)
    x = -w[0]
    states = np.empty((points.size, system.n))
    states[0] = x
    steps: list[StepRecord] = []
    a = 0  # index of the basis anchor
    for k in range(points.size - 1):
        t, t_next = float(points[k]), float(points[k + 1])
        h = t_next - t
        fresh = fresh_at[k]
        if fresh:
            a = k
            eps = config.e_tol * h / span
            v = x + (w[k] + (theta[k + 1] - theta[k]) / h)
            basis = krylov.arnoldi(op, v, m_max=config.m_max, h=h, eps=eps)
            est, kind = basis.estimate, basis.estimate_kind
        t_a = float(points[a])
        h_a = t_next - t_a
        if not fresh:
            est, kind = krylov.step_error_estimate(basis, h_a)
        p = w[k + 1] + (theta[k + 1] - theta[a]) / h_a
        x = krylov.expm_action(basis, h_a) - p
        states[k + 1] = x
        steps.append(
            StepRecord(
                t=t,
                h=h,
                m=basis.m,
                estimate=float(est),
                reused=not fresh,
                estimate_kind=kind,
                anchor=t_a,
            )
        )

    return WaveformResult(
        times=points,
        states=states,
        names=list(system.names),
        method=config.method,
        steps=steps,
        substitution_pairs=sum(f.solve_count for f in op.factors()) - pairs_before,
        factorizations=factorizations,
        wall_time=time.perf_counter() - t_begin,
        gamma=op.gamma,
    )


def _fixed_grid(t0, t1, h):
    span = t1 - t0
    n_steps = int(round(span / h))
    if n_steps < 1 or abs(n_steps * h - span) > 1e-6 * h:
        raise ValueError(
            f"fixed step {h!r} does not divide the span {span!r} evenly"
        )
    return np.array([t0 + k * h for k in range(n_steps + 1)])


def _solve_fixed(system, config, method):
    t_begin = time.perf_counter()
    t0, t1 = resolve_span(system, config)
    times = _fixed_grid(t0, t1, config.h)
    h = config.h
    theta = FIXED_THETA[method]
    g_factors = numkit.lu_factorize(system.g)
    x = netlist.dc_analysis(system, g_factors, t=t0)

    c = system.c.scipy
    g = system.g.scipy
    lhs = numkit.lu_factorize(numkit.from_scipy(c / h + theta * g))
    rhs_matrix = (c / h - (1.0 - theta) * g).tocsc()

    states = np.empty((times.size, system.n))
    states[0] = x
    u_prev = system.eval_sources(float(times[0]))
    b = system.b
    for k in range(times.size - 1):
        u_next = system.eval_sources(float(times[k + 1]))
        drive = b @ ((1.0 - theta) * u_prev + theta * u_next)
        x = lhs.solve(rhs_matrix @ x + drive)
        states[k + 1] = x
        u_prev = u_next

    return WaveformResult(
        times=times,
        states=states,
        names=list(system.names),
        method=method,
        substitution_pairs=g_factors.solve_count + lhs.solve_count,
        factorizations=2,
        wall_time=time.perf_counter() - t_begin,
    )


def solve_transient_tr(system, config) -> WaveformResult:
    """Fixed-step trapezoidal rule (theta 1/2); one substitution pair per step.

    (C/h + G/2) x_{k+1} = (C/h - G/2) x_k + B (u_k + u_{k+1}) / 2.
    Second order in h.
    """
    return _solve_fixed(system, config, "tr")


def solve_transient_be(system, config) -> WaveformResult:
    """Fixed-step backward Euler (theta 1); first order, unconditionally damped.

    (C/h + G) x_{k+1} = (C/h) x_k + B u_{k+1}. At a step much finer than
    every input feature this is the accuracy reference for the others.
    """
    return _solve_fixed(system, config, "be")


def solve_transient(
    system: netlist.CircuitSystem,
    config: SolverConfig,
    gts: np.ndarray | None = None,
    op: krylov.VariantOperator | None = None,
) -> WaveformResult:
    """Dispatch on config.method; the fixed-step methods ignore gts and op."""
    if config.method == "tr":
        return solve_transient_tr(system, config)
    if config.method == "be":
        return solve_transient_be(system, config)
    return solve_transient_matex(system, config, gts=gts, op=op)


def waveform_error(
    result: WaveformResult, reference: WaveformResult
) -> float:
    """Peak relative deviation (percent) against a reference run.

    The reference is interpolated onto result.times, so pass the coarser
    run as result; the deviation is normalized by the reference's peak
    magnitude so quiet nets do not divide by zero.
    """
    ref = np.empty((result.times.size, reference.n))
    for j in range(reference.n):
        ref[:, j] = np.interp(result.times, reference.times, reference.states[:, j])
    scale = float(np.abs(ref).max())
    if scale == 0.0:
        scale = 1.0
    return float(np.abs(result.states - ref).max() / scale) * 100.0
