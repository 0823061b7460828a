"""Input decomposition and superposed transient runs.

Linearity lets the drive B u(t) be split column-wise into groups of
sources and the responses summed. The win is in the spot bookkeeping:
each group only needs a fresh Krylov basis where one of its own members
changes slope (its local spot times); at every other global spot it
rides a reused basis for two substitution pairs. Sources whose bumps
are shaped and aligned alike share all their spot times, so grouping by
the bump feature tuple concentrates the basis builds.

Vocabulary used throughout: the local transition set of a group is the
union of its members' slope-change times; the global set is the union
over all groups (every run samples there so waveforms line up for the
merge); a group's snapshots are the global spots that are not local to
it, i.e. exactly the reused steps.
"""

from __future__ import annotations

import concurrent.futures
import time
from dataclasses import dataclass

import numpy as np

from . import netlist, stepper

MAX_GROUPS_DEFAULT = 100

_FS = netlist.TIME_QUANTUM


def _quant(t: float) -> int:
    return int(round(t / _FS))


@dataclass(frozen=True)
class BumpFeature:
    """Quantized shape-and-alignment signature of a source's bump.

    Two sources with equal features fire the same corners at the same
    times, so grouping them costs no extra spot times. Fields are in
    integer femtoseconds.
    """

    delay_fs: int
    rise_fs: int
    width_fs: int
    fall_fs: int
    period_fs: int

    @classmethod
    def from_waveform(cls, w: netlist.Waveform) -> "BumpFeature":
        if isinstance(w, netlist.Pulse):
            return cls(
                _quant(w.t_delay),
                _quant(w.t_rise),
                _quant(w.t_width),
                _quant(w.t_fall),
                _quant(w.t_period),
            )
        if isinstance(w, netlist.Pwl):
            return _pwl_feature(w)
        # Constant drives all look alike.
        return cls(0, 0, 0, 0, 0)

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.delay_fs, self.rise_fs, self.width_fs, self.fall_fs, self.period_fs],
            dtype=np.float64,
        )


def _pwl_feature(w: netlist.Pwl) -> BumpFeature:
    # First-excursion heuristic: delay is the first breakpoint that
    # starts a sloped segment, rise that segment's duration, width the
    # following flat stretch, fall the sloped segment after it. One-shot
    # waveforms get period 0.
    pts = w.points
    durations = [b[0] - a[0] for a, b in zip(pts, pts[1:])]
    slopes = [
        (b[1] - a[1]) / (b[0] - a[0]) for a, b in zip(pts, pts[1:])
    ]
    first = next((i for i, s in enumerate(slopes) if s != 0.0), None)
    if first is None:
        return BumpFeature(_quant(pts[0][0]) if len(pts) else 0, 0, 0, 0, 0)
    delay = pts[first][0]
    rise = durations[first]
    width = 0.0
    fall = 0.0
    i = first + 1
    if i < len(slopes) and slopes[i] == 0.0:
        width = durations[i]
        i += 1
    if i < len(slopes) and slopes[i] != 0.0:
        fall = durations[i]
    return BumpFeature(
        _quant(delay), _quant(rise), _quant(width), _quant(fall), 0
    )


@dataclass
class TransitionPlan:
    """Grouping of the sources plus all derived spot-time sets."""

    source_lts: list[np.ndarray]
    features: list[BumpFeature]
    groups: list[list[int]]  # source indices, each inner list sorted
    group_lts: list[np.ndarray]
    group_snapshots: list[np.ndarray]
    gts: np.ndarray

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    def mask(self, group: int, num_sources: int) -> np.ndarray:
        m = np.zeros(num_sources, dtype=bool)
        m[self.groups[group]] = True
        return m


def build_plan(
    sources: list[netlist.Waveform],
    t_start: float,
    t_stop: float,
    max_groups: int = MAX_GROUPS_DEFAULT,
) -> TransitionPlan:
    """Group sources by bump feature and derive the spot-time sets.

    Sources with identical quantized features merge exactly (their spot
    times coincide by construction). If more distinct features exist
    than max_groups, the smallest groups are greedily folded into their
    nearest neighbor by Euclidean distance between feature tuples, ties
    to the lower group index; the result is deterministic.
    """
    if max_groups < 1:
        raise ValueError("max_groups must be at least 1")
    source_lts = [w.transition_times(t_start, t_stop) for w in sources]
    features = [BumpFeature.from_waveform(w) for w in sources]

    by_feature: dict[BumpFeature, list[int]] = {}
    for i, f in enumerate(features):
        by_feature.setdefault(f, []).append(i)
    groups = list(by_feature.values())
    group_feature = [f.as_array() for f in by_feature.keys()]

    while len(groups) > max_groups:
        sizes = [(len(g), g[0], idx) for idx, g in enumerate(groups)]
        _, _, smallest = min(sizes)
        best = None
        for idx in range(len(groups)):
            if idx == smallest:
                continue
            d = float(
                np.linalg.norm(group_feature[idx] - group_feature[smallest])
            )
            key = (d, idx)
            if best is None or key < best[0]:
                best = (key, idx)
        target = best[1]
        groups[target] = sorted(groups[target] + groups[smallest])
        del groups[smallest]
        del group_feature[smallest]

    groups = [sorted(g) for g in groups]
    group_lts = []
    for g in groups:
        parts = [source_lts[i] for i in g if source_lts[i].size]
        group_lts.append(
            np.unique(np.concatenate(parts)) if parts else np.empty(0)
        )
    gts = (
        np.unique(np.concatenate([g for g in group_lts if g.size]))
        if any(g.size for g in group_lts)
        else np.empty(0)
    )
    group_snapshots = [np.setdiff1d(gts, g) for g in group_lts]
    return TransitionPlan(
        source_lts=source_lts,
        features=features,
        groups=groups,
        group_lts=group_lts,
        group_snapshots=group_snapshots,
        gts=gts,
    )


@dataclass
class SuperposedResult:
    """Merged waveform plus the per-group runs it was summed from."""

    merged: stepper.WaveformResult
    subtasks: list[stepper.WaveformResult]
    plan: TransitionPlan


def run_superposed(
    system: netlist.CircuitSystem,
    config: stepper.SolverConfig,
    workers: int = 1,
    max_groups: int = MAX_GROUPS_DEFAULT,
    plan: TransitionPlan | None = None,
) -> SuperposedResult:
    """Solve per source group and sum the responses.

    Each group runs the configured solver with the drive masked to its
    members and its own share of the operating point; with one group
    this is literally the undecomposed solve. Workers map to an
    in-process thread pool: subtasks share nothing mutable (each run
    factors its own matrices), and the merge always sums in group index
    order, so the result is identical bytes for any worker count. The
    merged wall_time is this call's elapsed time; each group's own time
    stays on its subtask.
    """
    t_begin = time.perf_counter()
    t0, t1 = stepper.resolve_span(system, config)
    if plan is None:
        plan = build_plan(system.sources, t0, t1, max_groups=max_groups)
    num_sources = system.num_sources

    def run_group(g: int) -> stepper.WaveformResult:
        mask = plan.mask(g, num_sources)
        return stepper.solve_transient(
            system,
            config,
            lts=plan.group_lts[g],
            gts=plan.gts,
            mask=mask,
        )

    indices = list(range(plan.num_groups))
    if workers <= 1 or plan.num_groups == 1:
        results = [run_group(g) for g in indices]
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_group, indices))

    first = results[0]
    for r in results[1:]:
        if r.times.shape != first.times.shape or not np.array_equal(
            r.times, first.times
        ):
            raise AssertionError("subtask sample grids diverged; cannot merge")

    merged_states = np.zeros_like(first.states)
    for r in results:
        merged_states = merged_states + r.states

    merged = stepper.WaveformResult(
        times=first.times.copy(),
        states=merged_states,
        names=list(first.names),
        method=first.method,
        steps=[s for r in results for s in r.steps],
        substitution_pairs=sum(r.substitution_pairs for r in results),
        factorizations=sum(r.factorizations for r in results),
        wall_time=time.perf_counter() - t_begin,
        gamma=first.gamma,
    )
    return SuperposedResult(merged=merged, subtasks=results, plan=plan)


@dataclass
class SpeedupEstimate:
    distributed: float
    versus_fixed: float


def speedup_model(
    n_fixed_steps: int,
    total_transitions: int,
    max_group_transitions: int,
    m: float,
    t_bs: float = 1.0,
    t_h: float = 0.0,
    t_e: float = 0.0,
    t_serial: float = 0.0,
) -> SpeedupEstimate:
    """Cost-model speedups of the decomposed exponential run.

    With K total local transitions across groups, k the largest count
    on any one worker, m the typical basis dimension, T_bs the cost of
    one substitution pair, T_H and T_e the per-basis projection and
    small-exponential costs, and T_serial everything unparallelized:

        distributed   = (K m T_bs + K (T_H + T_e) + T_serial)
                      / (k m T_bs + K (T_H + T_e) + T_serial)

        versus_fixed  = (N T_bs + T_serial)
                      / (k m T_bs + K (T_H + T_e) + T_serial)

    where N is the fixed-step baseline's step count (one pair each).
    """
    if min(n_fixed_steps, total_transitions, max_group_transitions) < 0:
        raise ValueError("counts must be nonnegative")
    k_total = total_transitions
    k_max = max_group_transitions
    overhead = k_total * (t_h + t_e) + t_serial
    parallel_cost = k_max * m * t_bs + overhead
    if parallel_cost <= 0:
        raise ValueError("model cost is zero; nothing to compare")
    return SpeedupEstimate(
        distributed=(k_total * m * t_bs + overhead) / parallel_cost,
        versus_fixed=(n_fixed_steps * t_bs + t_serial) / parallel_cost,
    )
