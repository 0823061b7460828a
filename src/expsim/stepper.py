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
source, 2 n_src substitution pairs for n_src sources, and keeps them as
two n x n_src blocks beside the sampled drive. Each step forms only the
rows it reads, w and theta at its two ends, with a dense product; the
fresh step's theta row is kept for the steps that reuse its basis. So a
run holds its states and factors and no other (T, n) array. The
operating point is -w(t0).

Steps land exactly on the spot times where any driving source changes
slope. A fresh Krylov basis is grown only at the spots where this run's
own input changes slope, one mask over the stepping points computed
before the first step; at the remaining spots the previous basis is
reused by evaluating the projected exponential at the horizon measured
from the basis anchor, with P re-anchored accordingly. That reuse is
what makes the decomposed runs cheap: a reused step costs no basis
build and no input-term solve.

The trapezoidal and backward-Euler solvers exist as fixed-step
baselines; backward Euler at a very fine step is also the reference
`expsim compare` measures the others against. The tests measure against
a dense exact solution and the benchmark against Radau IIA instead.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields

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

# A PULSE source may repeat at most this many times over the span; each
# period adds four input corners, and every corner is a stepping point.
MAX_PULSE_PERIODS = 10**6


@dataclass
class SolverConfig:
    """Everything a transient run needs besides the circuit itself.

    h is the fixed step of the tr/be baselines and is ignored by the
    exponential methods, which step spot to spot. e_tol is the absolute
    error budget for the whole span; each step gets the proportional
    share e_tol * h / (t_stop - t_start). t_start / t_stop override
    the netlist .TRAN directive when given. h and e_tol must be
    positive, every given value finite and m_max at least krylov.M_MIN.

    The imatex/rmatex convergence estimate is chosen automatically:
    the exact residual formula when C can be factorized (one extra
    factorization per run, and one C solve per accepted basis), the
    empirical surrogate when C is singular.
    """

    method: str = "rmatex"
    h: float | None = None
    e_tol: float = 1e-6
    m_max: int = krylov.DEFAULT_M_MAX
    t_start: float | None = None
    t_stop: float | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.method in FIXED_THETA and self.h is None:
            raise ValueError(f"{self.method} needs a positive fixed step h")
        for name, value in {"h": self.h, "e_tol": self.e_tol}.items():
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, not {value!r}")
        if not all(t is None or math.isfinite(t) for t in (self.t_start, self.t_stop)):
            raise ValueError("t_start and t_stop must be finite")
        if self.m_max < krylov.M_MIN:
            raise ValueError(f"m_max must be at least {krylov.M_MIN}")


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
class RunCost:
    """A run's cost accounting: its steps, solves, factors and time.

    Substitution pairs are booked by the factor that made them: G;
    C; and the shift, C + gamma G for rmatex or the step matrix
    C/h + theta G for tr/be. Costs add: a + b sums every count and
    time and concatenates the steps, RunCost() is the zero, and
    RunCost() + run is a WaveformResult's cost without its states.
    """

    steps: list[StepRecord] = field(default_factory=list)
    g_pairs: int = 0
    c_pairs: int = 0
    shift_pairs: int = 0
    factorizations: int = 0
    wall_time: float = 0.0

    def __add__(self, other: RunCost) -> RunCost:
        cost = {f.name: getattr(self, f.name) + getattr(other, f.name) for f in fields(RunCost)}
        return RunCost(**cost)

    @property
    def substitution_pairs(self) -> int:
        return self.g_pairs + self.c_pairs + self.shift_pairs

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


@dataclass(kw_only=True)
class WaveformResult(RunCost):
    """Sampled trajectory plus the run's cost accounting."""

    times: np.ndarray  # (T,)
    states: np.ndarray  # (T, n)
    names: list[str]
    method: str
    gamma: float | None = None

    @property
    def n(self) -> int:
        return self.states.shape[1]


def resolve_span(system: netlist.CircuitSystem, config: SolverConfig):
    """(t_start, t_stop) of the run: config overrides, else .TRAN.

    Every solver calls this first, so it also rejects circuits that no
    source drives, a PULSE source whose period fits in the span more
    than MAX_PULSE_PERIODS times, and a tr/be step that does not divide
    the span or is too small for its step count to be a number.
    """
    if system.num_sources == 0:
        raise ValueError("netlist has no I or V source: nothing drives the circuit")
    t0 = config.t_start if config.t_start is not None else system.t_start
    t1 = config.t_stop if config.t_stop is not None else system.t_stop
    if t0 is None or t1 is None:
        raise ValueError("no analysis span: netlist lacks .TRAN and config gives none")
    if t1 <= t0:
        raise ValueError("analysis span is empty")
    t0, t1 = float(t0), float(t1)
    for name, w in zip(system.source_names, system.sources):
        if isinstance(w, netlist.Pulse) and (t1 - t0) / w.t_period > MAX_PULSE_PERIODS:
            raise ValueError(
                f"source {name}: the span holds more than {MAX_PULSE_PERIODS} pulse periods"
            )
    if config.method in FIXED_THETA:
        span, h = t1 - t0, config.h
        if not math.isfinite(span / h):
            raise ValueError(f"fixed step {h!r} is too small for the span {span!r}")
        n_steps = int(round(span / h))
        if n_steps < 1 or abs(n_steps * h - span) > 1e-6 * h:
            raise ValueError(f"fixed step {h!r} does not divide the span {span!r} evenly")
    return t0, t1


def active_transitions(
    system: netlist.CircuitSystem, t_start: float, t_stop: float
) -> np.ndarray:
    """Union of slope-change times of the system's sources in the span."""
    parts = [w.transition_times(t_start, t_stop) for w in system.sources]
    return np.unique(np.concatenate([np.empty(0), *parts]))


def stepping_points(t0, t1, spots) -> np.ndarray:
    """The grid a run steps on: t0, the spots strictly between, t1.

    Two times are one spot exactly when netlist.quantize_time snaps them
    to the same femtosecond; t0 and t1 stay exactly as given.
    """
    q = netlist.quantize_time(np.asarray(spots, dtype=np.float64))
    inside = (q > netlist.quantize_time(t0)) & (q < netlist.quantize_time(t1))
    return np.concatenate([[t0], np.unique(q[inside]), [t1]])


def _input_terms(system, g_factors, points: np.ndarray):
    """The drive u (n_src, T) at the stepping points, W and Theta (n, n_src).

    W = -G^-1 B and Theta = -G^-1 C W hold one column per source, so
    w(t_k) = W u(t_k) and theta(t_k) = Theta u(t_k); two block solves
    cost 2 n_src substitution pairs for every point at once. The step
    from point k forms the rows it reads, u.T[k:k+2] @ W.T and
    u.T[k:k+2] @ Theta.T, and no (T, n) table is made. Two rows even
    where one would do: a one-row product runs another BLAS kernel
    (gemv), whose sums need not round as a full product's rows do.
    """
    u = system.eval_sources(points)
    w = -g_factors.solve(system.b.to_dense())
    theta = -g_factors.solve(system.c @ w)
    return u, w, theta


def factor_matex(
    system: netlist.CircuitSystem, config: SolverConfig, spots: np.ndarray
) -> krylov.VariantOperator:
    """Factor the operator of an exponential run: G, C and the variant's own.

    spots are the spot times the run steps on. rmatex alone takes a
    shift: gamma is a tenth of the median gap of the stepping points
    they make in the run's span; imatex and mexp get none. Subsystems
    keep C and G, so the operator of the whole circuit serves every
    source group that steps on the same spots.
    """
    if config.method not in _METHOD_VARIANT:
        raise ValueError(f"not an exponential method: {config.method!r}")
    variant = _METHOD_VARIANT[config.method]
    gamma = None
    if variant is krylov.Variant.RATIONAL:
        points = stepping_points(*resolve_span(system, config), spots)
        gamma = float(np.median(np.diff(points))) / 10.0
    return krylov.factor_operator(variant, system.c, system.g, gamma)


def _solve_counts(op: krylov.VariantOperator) -> list[int]:
    """The solve_count of op's G, C and shift factors, 0 for one it lacks."""
    factors = (op.g_factors, op.c_factors, op.shift_factors)
    return [0 if f is None else f.solve_count for f in factors]


def solve_transient_matex(
    system: netlist.CircuitSystem,
    config: SolverConfig,
    gts: np.ndarray | None = None,
    op: krylov.VariantOperator | None = None,
) -> WaveformResult:
    """Adaptive exponential transient over the spot-time grid.

    The run starts at its operating point -w(t0). It steps on the
    system's own spots plus gts, the other spots the samples must land
    on. A fresh basis is built at t0 and at the points that are the
    run's own spots, where the system's own sources change slope; at
    the others the previous basis is reused.
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
    fresh_at = np.isin(points, own_spots)
    fresh_at[0] = True

    factorizations = 0
    if op is None:
        op = factor_matex(system, config, spots)
        factorizations = len(op.factors())
    pairs_before = _solve_counts(op)

    u, w_cols, theta_cols = _input_terms(system, op.g_factors, points)
    x = -(u.T[:2] @ w_cols.T)[0]
    states = np.empty((points.size, system.n))
    states[0] = x
    steps: list[StepRecord] = []
    for k in range(points.size - 1):
        t, t_next = float(points[k]), float(points[k + 1])
        h = t_next - t
        fresh = fresh_at[k]
        # w and theta at points k and k + 1
        w, theta = u.T[k : k + 2] @ w_cols.T, u.T[k : k + 2] @ theta_cols.T
        if fresh:
            t_a, theta_a = t, theta[0]  # the basis anchor
            eps = config.e_tol * h / span
            v = x + (w[0] + (theta[1] - theta[0]) / h)
            basis = krylov.arnoldi(op, v, m_max=config.m_max, h=h, eps=eps)
            est, kind = basis.estimate, basis.estimate_kind
        h_a = t_next - t_a
        if not fresh:
            est, kind = krylov.step_error_estimate(basis, h_a)
        p = w[1] + (theta[1] - theta_a) / h_a
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

    g_pairs, c_pairs, shift_pairs = (
        after - before for after, before in zip(_solve_counts(op), pairs_before)
    )
    return WaveformResult(
        times=points,
        states=states,
        names=list(system.names),
        method=config.method,
        steps=steps,
        g_pairs=g_pairs,
        c_pairs=c_pairs,
        shift_pairs=shift_pairs,
        factorizations=factorizations,
        wall_time=time.perf_counter() - t_begin,
        gamma=op.gamma,
    )


def _solve_fixed(system, config, method):
    t_begin = time.perf_counter()
    t0, t1 = resolve_span(system, config)
    h = config.h
    times = t0 + h * np.arange(int(round((t1 - t0) / h)) + 1)
    theta = FIXED_THETA[method]
    g_factors = numkit.lu_factorize(system.g)
    x = netlist.dc_analysis(system, g_factors, t=t0)
    dc_pairs = g_factors.solve_count
    del g_factors  # the steps hold their own factor only

    c = system.c.scipy
    g = system.g.scipy
    lhs = numkit.lu_factorize(numkit.from_scipy(c / h + theta * g))
    rhs_matrix = (c / h - (1.0 - theta) * g).tocsc()

    # Column k drives the step from times[k] to times[k + 1]. B u is
    # applied per step: B times the whole table would be n x T.
    u = system.eval_sources(times)
    mix = (1.0 - theta) * u[:, :-1] + theta * u[:, 1:]
    states = np.empty((times.size, system.n))
    states[0] = x
    b = system.b
    for k in range(times.size - 1):
        x = lhs.solve(rhs_matrix @ x + b @ mix[:, k])
        states[k + 1] = x

    return WaveformResult(
        times=times,
        states=states,
        names=list(system.names),
        method=method,
        g_pairs=dc_pairs,
        shift_pairs=lhs.solve_count,
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
    every input feature it is the reference `expsim compare` judges the
    others against.
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
