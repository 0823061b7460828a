"""Input decomposition and superposed transient runs.

Linearity lets the drive B u(t) be split column-wise into groups of
sources and the responses summed. A group runs as its own circuit, the
subsystem that keeps the members' columns of B. The win is in the spot
bookkeeping: a run grows a fresh Krylov basis only where one of its own
sources changes slope (the group's local spot times); at every other
global spot it rides a reused basis, which costs no substitution pair
beyond a once-per-basis error-estimate solve. Sources are therefore
grouped by their exact spot-time sets, so a group never rebuilds for a
member that does not change slope. A plan has at most max_groups
groups: with more spot sets than that, the sets are packed into
max_groups groups (see build_plan), each of which grows a fresh basis
at every spot of its members. The groups share C and G, so the
matrices are factored once per superposed run, not once per group.

Vocabulary used throughout: the local transition set of a group is the
union of its members' slope-change times; the global set is the union
over all groups (every run samples there so waveforms line up for the
merge); a group's snapshots are the global spots that are not local to
it, i.e. exactly the reused steps.

Only the exponential methods gain from this. A fixed-step method
repeats every step in every group, so run_superposed runs tr and be as
one group.

A superposed run keeps no group's states: each group's are added into
a running sum as soon as it ends, and a group's subtask carries its cost
accounting only. A group's working set is its (T, n) states plus n x r
blocks of input terms, r the group's drive rank, its count of distinct
waveforms; the shared factors are held once.

Once the operator is factored the groups share nothing, so with
workers > 1 they run in a pool of forked worker processes (POSIX only;
where fork does not exist, and for one group or one worker, they run one
after another in the calling process). The workers inherit the factors
instead of receiving a copy. Every group steps every global spot, so in
one process more groups only add work, and a forked run gains from at
most one group per worker: run_superposed's cap defaults to one group
per worker, and a forked run never plans more groups than workers.
Each group runs in one worker, which writes its states into a shared
(T, n) buffer and returns its cost; the parent adds the buffers in
group order. In one process a run holds the merged waveform plus one
group's working set whatever the group count; forked, each worker holds
one group's working set, and the parent holds the buffers, touching two
at a time while it merges.

A known limit: Python 3.12 and later warn (DeprecationWarning) on a
fork in a process that has more than one thread, and numpy's OpenBLAS
keeps worker threads alive once imported (2 threads in all on a
2-core host, 1 with OPENBLAS_NUM_THREADS=1). The warning comes from
multiprocessing's popen_fork, so pyproject.toml's pytest settings, which
make expsim's DeprecationWarnings errors, pass it. It is not silenced.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import netlist, stepper


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
    max_groups: int,
) -> TransitionPlan:
    """Group sources by spot-time set into at most max_groups groups.

    Sources with identical spot times in the span share a spot set. With
    at most max_groups sets, each set is one group, in order of first
    appearance, at no extra fresh bases. With more, the sets are packed
    into max_groups groups, greedily in the spirit of LPT scheduling:
    largest set first (ties to the lower index), each into the group
    whose union of spots grows to the smallest size (ties to the lower
    group). A packed group's local spots are the union of its members'
    sets, and no group stays empty, since the sets are distinct. gts,
    the union of every set, does not depend on max_groups.
    """
    if max_groups < 1:
        raise ValueError("max_groups must be at least 1")
    source_lts = [w.transition_times(t_start, t_stop) for w in sources]

    by_spots: dict[tuple[float, ...], list[int]] = {}
    for i, lts in enumerate(source_lts):
        by_spots.setdefault(tuple(lts.tolist()), []).append(i)
    groups = list(by_spots.values())
    group_lts = [source_lts[g[0]] for g in groups]
    gts = np.unique(np.concatenate([np.empty(0), *group_lts]))
    if len(groups) > max_groups:
        members: list[list[int]] = [[] for _ in range(max_groups)]
        spots: list[set[float]] = [set() for _ in range(max_groups)]
        for g in sorted(range(len(groups)), key=lambda g: -group_lts[g].size):
            lts = set(group_lts[g].tolist())
            b = min(range(max_groups), key=lambda b: len(spots[b]) + len(lts - spots[b]))
            members[b] += groups[g]
            spots[b] |= lts
        groups = [sorted(m) for m in members]
        group_lts = [np.array(sorted(s)) for s in spots]
    return TransitionPlan(groups=groups, group_lts=group_lts, gts=gts)


@dataclass
class SuperposedResult:
    """Merged waveform plus each group's cost accounting, not its states.

    workers is the number of processes that ran the groups, 1 when they
    ran in the calling process; above 1, each group ran in a process of
    its own. The groups share no data once the operator is factored, so
    the group that made the most substitution pairs is then the critical
    path, as in the paper's distributed runs; in one process it is every
    group's pairs.
    """

    merged: stepper.WaveformResult
    subtasks: list[stepper.RunCost]
    plan: TransitionPlan
    workers: int = 1

    @property
    def critical_path_pairs(self) -> int:
        """Substitution pairs of the process that made the most."""
        pairs = [r.substitution_pairs for r in self.subtasks]
        return max(pairs) if self.workers > 1 else sum(pairs)


def _run_groups(system, config, plan, op, indices):
    """Run the groups at indices in order and sum their states.

    Returns the last group's WaveformResult, which holds the sum, and
    each group's cost. Every group samples at the plan's global spots.
    """
    merged = None
    costs = []
    for i in indices:
        run = stepper.solve_transient(
            system.subsystem(plan.groups[i]), config, gts=plan.gts, op=op
        )
        # a + b is b + a bit for bit, so each group's own array takes the
        # running sum in place and the bytes are those of zeros + each
        # group in index order (-0.0 becomes +0.0 the same way).
        run.states += 0.0 if merged is None else merged.states
        merged = run
        costs.append(stepper.RunCost() + run)
    return merged, costs


# The job of _run_forked: (system, config, plan, op, buffers).
# Set only in the pool's worker processes, by _start_worker, which the
# fork start method hands it as is: SuperLU factors cannot be serialized.
_job = None


def _start_worker(job):
    global _job
    _job = job


def _run_group(g):
    """Worker side of _run_forked: run group g into buffer g; its cost."""
    system, config, plan, op, buffers = _job
    run, (cost,) = _run_groups(system, config, plan, op, [g])
    np.frombuffer(buffers[g]).reshape(run.states.shape)[...] = run.states
    return cost


def _run_forked(system, config, plan, op, times: np.ndarray):
    """Run each group in its own forked worker; (merged states, costs).

    Each group's states go into an anonymous shared (T, n) buffer, not
    through a pipe; the parent sums buffer 1, 2, ... into buffer 0 in
    group order and unmaps each as it is added. Returning each group's
    states through pool.map instead raised the benchmark's
    grid10k-groups peak RSS (seed 1, 2 vCPU) from 140-142 MB to 161 MB.
    """
    shape = (times.size, system.n)
    buffers = [mmap.mmap(-1, shape[0] * shape[1] * 8) for _ in plan.groups]
    job = (system, config, plan, op, buffers)
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(
        plan.num_groups, mp_context=fork, initializer=_start_worker, initargs=(job,)
    ) as pool:
        costs = list(pool.map(_run_group, range(plan.num_groups)))
    states = np.frombuffer(buffers[0]).reshape(shape)
    for buffer in buffers[1:]:
        states += np.frombuffer(buffer).reshape(shape)
        buffer.close()
    return states, costs


def run_superposed(
    system: netlist.CircuitSystem,
    config: stepper.SolverConfig,
    workers: int = 1,
    max_groups: int | None = None,
) -> SuperposedResult:
    """Solve per source group and sum the responses.

    Each group runs the configured solver on its subsystem, so it
    carries its own share of the operating point; with one group this
    is literally the undecomposed solve. The exponential methods factor
    the whole circuit's operator once here and every group steps with
    it: the merged factorizations are that operator's, each subtask
    reports 0 factorizations and the substitution pairs it added. The
    merged drive_rank, like every count, is the groups' sum, and
    subtasks are in group index order. The merged wall_time is this
    call's elapsed time; each group's own time stays on its subtask.

    The plan is build_plan's at a cap worked out from the inputs. With
    k = workers where fork exists, else 1, the cap is max_groups, or k
    when max_groups is None, and at most k when k > 1: one group per
    worker by default, and never more groups than workers. tr and be
    always run as one group. workers and the cap must be at least 1.

    With k = 1, fork being POSIX-only, or a plan of one group, the
    groups run one after another in the calling process: each group's
    states take the running sum as soon as that group ends, so the call
    holds the merged waveform plus one group's working set, its states
    and n x r input-term blocks (r its drive rank), whatever the group
    count, and the merged bytes are those of zeros plus each group's
    states in group index order.

    Otherwise the operator is factored and the groups run in a pool of
    one forked worker process per group, which inherit the factors:
    each group runs in one worker, which writes its states into a shared
    (T, n) buffer and returns its cost. An exception that stops a group
    is raised here; a worker that dies raises BrokenProcessPool, a
    RuntimeError. The calling process only waits and merges: it adds the
    groups' states in group order, so the merged states differ from the
    one-process sum of the same plan by rounding, though a rerun gives
    the same bytes; the counts, steps and times do not differ. Each
    worker holds one group's working set and pages shared copy-on-write
    with this process; this process touches two buffers at a time while
    merging and keeps the first as the merged states. Afterwards this
    process pays a minor page fault on its first write to each page it
    shared with the workers: on a 10^4-node grid, about 7,000 faults,
    which slowed the next build_system from 0.145 s to 0.197 s. Forked
    runs back to back in one process pay this each time.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    k = workers if hasattr(os, "fork") else 1
    cap = k if max_groups is None else max_groups
    if cap < 1:
        raise ValueError("max_groups must be at least 1")
    if k > 1:
        cap = min(cap, k)
    t_begin = time.perf_counter()
    t0, t1 = stepper.resolve_span(system, config)
    fixed_step = config.method in stepper.FIXED_THETA
    plan = build_plan(system.sources, t0, t1, 1 if fixed_step else cap)
    k = min(k, plan.num_groups)
    times = stepper.stepping_points(t0, t1, plan.gts)
    op = None if fixed_step else stepper.factor_matex(system, config, times)

    if k == 1:
        merged, subtasks = _run_groups(system, config, plan, op, range(plan.num_groups))
    else:
        states, subtasks = _run_forked(system, config, plan, op, times)
        merged = stepper.WaveformResult(
            times=times, states=states, names=list(system.names),
            method=config.method, gamma=op.gamma,
        )

    shared = stepper.RunCost(factorizations=0 if op is None else len(op.factors()))
    cost = vars(sum(subtasks, shared)) | {"wall_time": time.perf_counter() - t_begin}
    return SuperposedResult(
        merged=replace(merged, **cost), subtasks=subtasks, plan=plan, workers=k
    )
