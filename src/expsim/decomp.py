"""Input decomposition and superposed transient runs.

Linearity lets the drive B u(t) be split column-wise into groups of
sources and the responses summed. A group runs as its own circuit, the
subsystem that keeps the members' columns of B. The win is in the spot
bookkeeping: a run grows a fresh Krylov basis only where one of its own
sources changes slope (the group's local spot times); at every other
global spot it rides a reused basis, which costs no substitution pair
beyond a once-per-basis error-estimate solve. Sources are therefore
grouped by their exact spot-time sets, so a group never rebuilds for a
member that does not change slope. The groups share C and G, so the
matrices are factored once per superposed run, not once per group.

Vocabulary used throughout: the local transition set of a group is the
union of its members' slope-change times; the global set is the union
over all groups (every run samples there so waveforms line up for the
merge); a group's snapshots are the global spots that are not local to
it, i.e. exactly the reused steps.

Only the exponential methods gain from this. A fixed-step method
repeats every step in every group, so run_superposed runs tr and be as
one group.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import netlist, stepper

MAX_GROUPS_DEFAULT = 100


@dataclass
class TransitionPlan:
    """Grouping of the sources plus their spot-time sets."""

    groups: list[list[int]]  # source indices, each inner list sorted
    group_lts: list[np.ndarray]
    gts: np.ndarray

    @property
    def num_groups(self) -> int:
        return len(self.groups)


def build_plan(
    sources: list[netlist.Waveform],
    t_start: float,
    t_stop: float,
    max_groups: int = MAX_GROUPS_DEFAULT,
) -> TransitionPlan:
    """Group sources by spot-time set and derive the spot-time sets.

    Sources with identical spot times in the span share a group, at no
    extra fresh bases. While more than max_groups groups remain, the
    smallest one (fewest sources, then lowest first member) folds into
    the group it adds the fewest new spot times to, ties to the lower
    group index; the result is deterministic.
    """
    if max_groups < 1:
        raise ValueError("max_groups must be at least 1")
    source_lts = [w.transition_times(t_start, t_stop) for w in sources]

    by_spots: dict[tuple[float, ...], list[int]] = {}
    for i, lts in enumerate(source_lts):
        by_spots.setdefault(tuple(lts.tolist()), []).append(i)
    groups = list(by_spots.values())
    group_lts = [source_lts[g[0]] for g in groups]

    while len(groups) > max_groups:
        _, _, small = min((len(g), g[0], idx) for idx, g in enumerate(groups))
        _, target = min(
            (np.setdiff1d(group_lts[small], group_lts[idx]).size, idx)
            for idx in range(len(groups))
            if idx != small
        )
        groups[target] = sorted(groups[target] + groups[small])
        group_lts[target] = np.union1d(group_lts[target], group_lts[small])
        del groups[small]
        del group_lts[small]

    gts = np.unique(np.concatenate([np.empty(0), *group_lts]))
    return TransitionPlan(groups=groups, group_lts=group_lts, gts=gts)


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
) -> SuperposedResult:
    """Solve per source group and sum the responses.

    Each group runs the configured solver on its subsystem, so it
    carries its own share of the operating point; with one group this
    is literally the undecomposed solve. tr and be always run as one
    group. The exponential methods factor the whole circuit's operator
    once here and every group steps with it: the merged factorizations
    are that operator's, each subtask reports 0 factorizations and the
    substitution pairs it added. Groups run one after another in the
    calling thread and the merge sums in group index order. max_groups
    must be at least 1 for every method. workers must be at least 1 and
    has no other effect; it is kept for existing callers. The merged
    wall_time is this call's elapsed time; each group's own time stays
    on its subtask.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if max_groups < 1:
        raise ValueError("max_groups must be at least 1")
    t_begin = time.perf_counter()
    t0, t1 = stepper.resolve_span(system, config)
    fixed_step = config.method in stepper.FIXED_THETA
    plan = build_plan(
        system.sources, t0, t1, max_groups=1 if fixed_step else max_groups
    )
    op = None if fixed_step else stepper.factor_matex(system, config, plan.gts)

    results = [
        stepper.solve_transient(system.subsystem(g), config, gts=plan.gts, op=op)
        for g in plan.groups
    ]

    first = results[0]
    for r in results[1:]:
        if not np.array_equal(r.times, first.times):
            raise AssertionError("subtask sample grids diverged; cannot merge")

    merged_states = np.zeros_like(first.states)
    for r in results:
        merged_states += r.states

    merged = stepper.WaveformResult(
        times=first.times.copy(),
        states=merged_states,
        names=list(first.names),
        method=first.method,
        steps=[s for r in results for s in r.steps],
        substitution_pairs=sum(r.substitution_pairs for r in results),
        factorizations=(0 if op is None else len(op.factors()))
        + sum(r.factorizations for r in results),
        wall_time=time.perf_counter() - t_begin,
        gamma=first.gamma,
    )
    return SuperposedResult(merged=merged, subtasks=results, plan=plan)


def speedup_model(
    n_fixed_steps: int,
    total_transitions: int,
    max_group_transitions: int,
    m: float,
    t_bs: float = 1.0,
    t_h: float = 0.0,
    t_e: float = 0.0,
    t_serial: float = 0.0,
) -> float:
    """Cost-model speedup of the decomposed exponential run over fixed steps.

    With K total local transitions across groups, k the largest count
    in any one group, m the typical basis dimension, T_bs the cost of
    one substitution pair, T_H and T_e the per-basis projection and
    small-exponential costs, T_serial everything else, and N the
    fixed-step baseline's step count (one pair each):

        versus_fixed  = (N T_bs + T_serial)
                      / (k m T_bs + K (T_H + T_e) + T_serial)

    k is the critical path when groups run on separate machines, as in
    the paper; this package runs them one after another in one process.
    Input terms are left out: a group solves them once per source, two
    pairs each, however many spots it steps through.
    """
    if min(n_fixed_steps, total_transitions, max_group_transitions) < 0:
        raise ValueError("counts must be nonnegative")
    cost = max_group_transitions * m * t_bs
    cost += total_transitions * (t_h + t_e) + t_serial
    if cost <= 0:
        raise ValueError("model cost is zero; nothing to compare")
    return (n_fixed_steps * t_bs + t_serial) / cost
