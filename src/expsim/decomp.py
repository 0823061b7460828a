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

A superposed run keeps no group's states: each group's are added into
a running sum as soon as it ends, and a group's subtask carries its cost
accounting only. A group's working set is its (T, n) states plus n x r
blocks of input terms, r the group's drive rank, its count of distinct
waveforms; the shared factors are held once.

Once the operator is factored the groups share nothing, so with
workers > 1 they run in forked child processes (POSIX only; without
os.fork, and for one group or one worker, they run one after another in
the calling process). The children inherit the factors instead of
receiving a copy. Each sums its own groups into a shared (T, n) buffer
and sends their costs back through a pipe; the parent adds the buffers
in child order. In one process a run holds the merged waveform plus one
group's working set whatever the group count; forked, each child holds
that, and the parent holds the buffers, touching two at a time while
it merges.

A known limit: Python 3.12 and later warn (DeprecationWarning) on a
fork in a process that has more than one thread, and numpy's OpenBLAS
keeps worker threads alive once imported (2 threads in all on a
2-core host, 1 with OPENBLAS_NUM_THREADS=1). The pytest settings in
pyproject.toml turn expsim's DeprecationWarnings into errors. The
warning is not silenced here.
"""

from __future__ import annotations

import mmap
import os
import pickle
import signal
import time
from dataclasses import dataclass, replace

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
    """Merged waveform plus each group's cost accounting, not its states.

    workers is the number of processes that ran the groups, 1 when they
    ran in the calling process; group g ran in process g % workers. The
    groups share no data once the operator is factored, so the share
    that made the most substitution pairs is the critical path, as in
    the paper's distributed runs.
    """

    merged: stepper.WaveformResult
    subtasks: list[stepper.RunCost]
    plan: TransitionPlan
    workers: int = 1

    @property
    def critical_path_pairs(self) -> int:
        """Substitution pairs of the process that made the most."""
        return max(
            sum(r.substitution_pairs for r in self.subtasks[s :: self.workers])
            for s in range(self.workers)
        )


def _run_groups(system, config, plan, op, indices):
    """Run the groups at indices in order and sum their states.

    Returns the last group's WaveformResult, which holds the sum, and
    each group's cost.
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
        if merged is None:
            run.states += 0.0
        elif np.array_equal(run.times, merged.times):
            run.states += merged.states
        else:
            raise AssertionError("subtask sample grids diverged; cannot merge")
        merged = run
        costs.append(stepper.RunCost() + run)
    return merged, costs


def _serve_share(fd, inherited, buffer, times, run_share):
    """Child side of _run_forked; never returns.

    Writes the share's summed states into buffer and pickles its costs,
    or the exception that stopped it, to fd. Exits 0 once that is
    written. The inherited read ends are closed first, so a write to a
    parent that is gone fails instead of blocking.
    """
    code = 1
    try:
        for r in inherited:
            os.close(r)
        # Whatever stops the share, KeyboardInterrupt too, is sent to
        # the parent, which raises it.
        try:
            part, reply = run_share()
            if not np.array_equal(part.times, times):
                raise AssertionError("subtask sample grids diverged; cannot merge")
            np.frombuffer(buffer).reshape(part.states.shape)[...] = part.states
        except BaseException as exc:
            reply = exc
        try:
            data = pickle.dumps(reply)
        except Exception:  # an exception that does not pickle
            data = pickle.dumps(RuntimeError(f"{type(reply).__name__}: {reply}"))
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        code = 0
    finally:
        os._exit(code)


def _run_forked(system, config, plan, op, shares: int, times: np.ndarray):
    """Run group g in child process g % shares; (merged states, costs).

    Each child gets an anonymous shared (T, n) buffer for its partial
    sum and a pipe for its costs; the parent sums buffer 1, 2, ... into
    buffer 0 in share order and unmaps each as it is added.
    """
    shape = (times.size, system.n)
    buffers = [mmap.mmap(-1, shape[0] * shape[1] * 8) for _ in range(shares)]
    pids, reads, statuses = [], [], []
    payloads = None
    try:
        for s in range(shares):
            r, w = os.pipe()
            reads.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _serve_share(
                        w, reads, buffers[s], times,
                        lambda: _run_groups(
                            system, config, plan, op, range(s, plan.num_groups, shares)
                        ),
                    )
                pids.append(pid)
            finally:
                os.close(w)
        # A child's pickled step records can outgrow the pipe's buffer:
        # drain every pipe before waiting for any child.
        payloads = [open(r, "rb", closefd=False).read() for r in reads]
    finally:
        for r in reads:
            os.close(r)
        for pid in pids:
            if payloads is None:
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])

    costs: list = [None] * plan.num_groups
    for s, (pid, status, data) in enumerate(zip(pids, statuses, payloads)):
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            raise RuntimeError(f"source group worker {s} (pid {pid}) exited with {code}")
        reply = pickle.loads(data)
        if isinstance(reply, BaseException):
            raise reply
        costs[s::shares] = reply
    states = np.frombuffer(buffers[0]).reshape(shape)
    for buffer in buffers[1:]:
        states += np.frombuffer(buffer).reshape(shape)
        buffer.close()
    return states, costs


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
    substitution pairs it added. max_groups and workers must be at
    least 1. The merged drive_rank, like every count, is the groups'
    sum, and subtasks are in group index order. The merged wall_time
    is this call's elapsed time; each group's own time stays on its
    subtask.

    With k = min(workers, groups) of 1, or where os.fork does not exist
    (it is POSIX-only), the groups run one after another in the calling
    process: each group's states take the running sum as soon as that
    group ends, so the call holds the merged waveform plus one group's
    working set, its states and n x r input-term blocks (r its drive
    rank), whatever the group count, and the merged bytes are those of
    zeros plus each group's states in group index order.

    With k > 1 the operator is factored first and the groups run in k
    forked child processes, which inherit the factors: group g runs in
    child g % k, which sums its groups as above into a shared (T, n)
    buffer and reports their costs through a pipe, or the exception
    that stopped it, which is raised here. The calling process only
    waits and merges: it adds the children's sums in child order, so
    the merged states differ from the one-process sum by rounding,
    though a rerun gives the same bytes; the counts, steps and times
    do not differ. Each child holds its running sum, one group's
    working set and pages shared copy-on-write with this process; this
    process touches two buffers at a time while merging and keeps the
    first as the merged states.
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

    shares = min(workers, plan.num_groups) if hasattr(os, "fork") else 1
    if shares == 1:
        merged, subtasks = _run_groups(system, config, plan, op, range(plan.num_groups))
    else:
        times = stepper.stepping_points(t0, t1, plan.gts)
        states, subtasks = _run_forked(system, config, plan, op, shares, times)
        merged = stepper.WaveformResult(
            times=times, states=states, names=list(system.names),
            method=config.method, gamma=op.gamma,
        )

    shared = stepper.RunCost(factorizations=0 if op is None else len(op.factors()))
    cost = vars(sum(subtasks, shared)) | {"wall_time": time.perf_counter() - t_begin}
    return SuperposedResult(
        merged=replace(merged, **cost), subtasks=subtasks, plan=plan, workers=shares
    )
