"""Source grouping, spot-time bookkeeping and superposed runs."""

import os
import pickle
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from expsim import decomp, netlist, stepper
from expsim.errors import NoConvergence, NumericalError


class TestExtractLts:
    def test_constant_has_none(self):
        assert netlist.Dc(3.0).transition_times(0.0, 1.0).size == 0

    def test_pulse_corners(self):
        w = netlist.Pulse(0, 1, 2e-11, 1e-11, 1e-11, 5e-11, 2e-10)
        got = w.transition_times(0.0, 4e-10)
        np.testing.assert_allclose(
            got,
            [2e-11, 3e-11, 8e-11, 9e-11, 2.2e-10, 2.3e-10, 2.8e-10, 2.9e-10],
            rtol=1e-9,
        )

    def test_pwl_breakpoints_clipped(self):
        w = netlist.Pwl(((0.0, 0.0), (1e-10, 1.0), (5e-10, 1.0)))
        got = w.transition_times(5e-11, 4e-10)
        np.testing.assert_allclose(got, [1e-10], rtol=1e-9)


class TestBuildPlan:
    def test_groups_partition_the_sources(self, mixed_system):
        plan = decomp.build_plan(mixed_system.sources, 0.0, 4e-10, mixed_system.num_sources)
        seen = sorted(i for g in plan.groups for i in g)
        assert seen == list(range(mixed_system.num_sources))
        assert all(g == sorted(g) for g in plan.groups)

    def test_equal_features_share_a_group(self, mixed_system):
        plan = decomp.build_plan(mixed_system.sources, 0.0, 4e-10, mixed_system.num_sources)
        assert plan.groups == [[0, 1], [2], [3, 4], [5]]

    def test_amplitude_does_not_matter(self):
        a = netlist.Pulse(0, 1, 1e-11, 1e-11, 1e-11, 3e-11, 2e-10)
        b = netlist.Pulse(0, 7, 1e-11, 1e-11, 1e-11, 3e-11, 2e-10)
        assert decomp.build_plan([a, b], 0.0, 4e-10, 2).groups == [[0, 1]]

    def test_dc_sources_share_a_group(self):
        plan = decomp.build_plan([netlist.Dc(5.0), netlist.Dc(-1.0)], 0.0, 1e-9, 2)
        assert plan.groups == [[0, 1]]
        assert plan.gts.size == 0

    def test_same_first_excursion_different_later_ramps(self):
        # Equal first rise, flat top and fall; the later ramps sit at
        # different times and neither spot set contains the other.
        head = ((0.0, 0.0), (1e-9, 0.0), (2e-9, 1.0), (3e-9, 1.0), (4e-9, 0.0))
        a = netlist.Pwl(head + ((6e-9, 0.0), (7e-9, 1.0)))
        b = netlist.Pwl(head + ((5e-9, 0.0), (5.5e-9, 1.0)))
        plan = decomp.build_plan([a, b], 0.0, 8e-9, 2)
        assert plan.groups == [[0], [1]]
        merged = decomp.build_plan([a, b], 0.0, 8e-9, max_groups=1)
        assert merged.groups == [[0, 1]]
        np.testing.assert_array_equal(merged.group_lts[0], merged.gts)
        np.testing.assert_array_equal(
            merged.gts, np.union1d(plan.group_lts[0], plan.group_lts[1])
        )

    def test_group_lts_is_member_union(self, mixed_system):
        plan = decomp.build_plan(mixed_system.sources, 0.0, 4e-10, mixed_system.num_sources)
        sources = mixed_system.sources
        for g, lts in zip(plan.groups, plan.group_lts):
            member = np.unique(
                np.concatenate(
                    [np.empty(0)]
                    + [sources[i].transition_times(0.0, 4e-10) for i in g]
                )
            )
            np.testing.assert_array_equal(lts, member)

    def test_gts_and_snapshots(self, mixed_system):
        plan = decomp.build_plan(mixed_system.sources, 0.0, 4e-10, mixed_system.num_sources)
        union = np.unique(np.concatenate([g for g in plan.group_lts if g.size]))
        np.testing.assert_array_equal(plan.gts, union)
        # A group's snapshots, the global spots not local to it, are
        # exactly the steps its run takes on a reused basis.
        cfg = stepper.SolverConfig(method="rmatex", e_tol=1e-8)
        for g, lts in zip(plan.groups, plan.group_lts):
            snapshots = np.setdiff1d(plan.gts, lts)
            run = stepper.solve_transient(
                mixed_system.subsystem(g), cfg, gts=plan.gts
            )
            reused = [s.t for s in run.steps if s.reused]
            assert reused == [t for t in snapshots if 0.0 < t < 4e-10]

    def test_gts_matches_solver_transitions(self, ladder_system):
        plan = decomp.build_plan(ladder_system.sources, 0.0, 4e-10, ladder_system.num_sources)
        np.testing.assert_array_equal(
            plan.gts, stepper.active_transitions(ladder_system, 0.0, 4e-10)
        )

    def test_over_the_cap_packs(self):
        sources = [
            netlist.Pulse(0, 1, 1.0e-9, 1e-10, 1e-10, 1e-10, 1e-8),
            netlist.Pulse(0, 1, 1.1e-9, 1e-10, 1e-10, 1e-10, 1e-8),
            netlist.Pulse(0, 1, 9.0e-9, 1e-10, 1e-10, 1e-10, 1e-8),
        ]
        spots = [w.transition_times(0.0, 1e-8) for w in sources]
        # three spot sets of four over a cap of two: 0 opens the first
        # group, 1 the second, which grows less; 2 overlaps neither and
        # goes to the lower one
        plan = decomp.build_plan(sources, 0.0, 1e-8, max_groups=2)
        assert plan.groups == [[0, 2], [1]]
        np.testing.assert_array_equal(plan.group_lts[0], np.union1d(spots[0], spots[2]))
        np.testing.assert_array_equal(plan.group_lts[1], spots[1])
        np.testing.assert_array_equal(plan.gts, np.unique(np.concatenate(spots)))
        plan = decomp.build_plan(sources, 0.0, 1e-8, max_groups=3)
        assert plan.groups == [[0], [1], [2]]

    def test_folding_to_one_group(self, mixed_system):
        plan = decomp.build_plan(mixed_system.sources, 0.0, 4e-10, max_groups=1)
        assert plan.groups == [[0, 1, 2, 3, 4, 5]]
        np.testing.assert_array_equal(plan.group_lts[0], plan.gts)

    @pytest.mark.parametrize("max_groups", [1, 2, 8, 100])
    def test_planning_takes_no_fold(self, monkeypatch, max_groups):
        # 1,000 distinct spot sets into any cap: no group is compared
        # with another pair by pair, and the plan takes milliseconds
        # (median of 5: 4.6, 5.1, 6.1 and 21.6 ms at caps 1, 2, 8 and
        # 100 on a 2-vCPU Xeon VM, Python 3.11).
        sources = [netlist.Pwl(((0.0, 0.0), ((i + 1) * 1e-12, 1.0))) for i in range(1000)]
        spots = [w.transition_times(0.0, 1e-8) for w in sources]

        def no_fold(*args, **kwargs):
            raise AssertionError("groups are not compared pair by pair")

        monkeypatch.setattr(np, "setdiff1d", no_fold)
        monkeypatch.setattr(np, "union1d", no_fold)
        t0 = time.perf_counter()
        plan = decomp.build_plan(sources, 0.0, 1e-8, max_groups=max_groups)
        assert time.perf_counter() - t0 < 0.1
        assert plan.num_groups == max_groups
        assert sorted(i for g in plan.groups for i in g) == list(range(1000))
        np.testing.assert_array_equal(plan.gts, np.unique(np.concatenate(spots)))
        if max_groups == 1:
            np.testing.assert_array_equal(plan.group_lts[0], plan.gts)

    def test_determinism(self, mixed_system):
        a = decomp.build_plan(mixed_system.sources, 0.0, 4e-10, max_groups=3)
        b = decomp.build_plan(mixed_system.sources, 0.0, 4e-10, max_groups=3)
        assert a.groups == b.groups
        for x, y in zip(a.group_lts, b.group_lts):
            np.testing.assert_array_equal(x, y)

    def test_max_groups_validated(self, mixed_system):
        with pytest.raises(ValueError):
            decomp.build_plan(mixed_system.sources, 0.0, 4e-10, max_groups=0)


class TestPack:
    """More spot sets than the cap are packed into the cap's groups."""

    SPAN = (0.0, 2e-9)

    @pytest.fixture
    def sources(self):
        # Nine pulse trains with distinct, overlapping spot sets of
        # several sizes, plus one DC source with none.
        trains = [
            netlist.Pulse(0, 1, d * 1e-11, 1e-11, 1e-11, w * 1e-11, p * 1e-11)
            for d, w, p in [(1, 3, 20), (1, 3, 40), (5, 3, 20), (5, 8, 60), (2, 2, 30),
                            (9, 4, 50), (3, 3, 20), (7, 1, 100), (4, 6, 25)]
        ]
        return [*trains, netlist.Dc(1.0)]

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_bins_partition_the_sources(self, sources, k):
        plan = decomp.build_plan(sources, *self.SPAN, len(sources))
        assert plan.num_groups == 10
        packed = decomp.build_plan(sources, *self.SPAN, k)
        assert sorted(i for g in packed.groups for i in g) == list(range(len(sources)))
        assert all(g == sorted(g) for g in packed.groups)
        assert packed.num_groups == k
        assert all(packed.groups)
        np.testing.assert_array_equal(packed.gts, plan.gts)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_bin_spots_are_the_member_union(self, sources, k):
        packed = decomp.build_plan(sources, *self.SPAN, k)
        for g, lts in zip(packed.groups, packed.group_lts):
            spots = [sources[i].transition_times(*self.SPAN) for i in g]
            np.testing.assert_array_equal(lts, np.unique(np.concatenate(spots)))

    def test_reruns_give_the_same_plan(self, sources):
        a, b = (decomp.build_plan(sources, *self.SPAN, 3) for _ in range(2))
        assert a.groups == b.groups
        for x, y in zip(a.group_lts, b.group_lts):
            assert x.tobytes() == y.tobytes()

    def test_largest_first_into_the_smallest_union(self, mixed_system):
        # Spot sets [0, 1] and [2] have 8 spots each, [3, 4] has 3 and
        # [5] none. [2] would grow [0, 1]'s bin to 12 spots, so it opens
        # the second bin; [3, 4] grows that one to 10, not the first to
        # 11; [5] adds none, so it goes to the smaller bin.
        sources = mixed_system.sources
        assert decomp.build_plan(sources, 0.0, 4e-10, 4).groups == [[0, 1], [2], [3, 4], [5]]
        assert decomp.build_plan(sources, 0.0, 4e-10, 2).groups == [[0, 1, 5], [2, 3, 4]]
        assert decomp.build_plan(sources, 0.0, 4e-10, 3).groups == [[0, 1], [2], [3, 4, 5]]

    @pytest.mark.parametrize("workers", [4, 5])
    def test_no_packing_when_the_sets_fit(self, mixed_system, workers):
        cfg = stepper.SolverConfig(method="rmatex", e_tol=1e-8)
        run = decomp.run_superposed(mixed_system, cfg, workers=workers)
        plan = decomp.build_plan(mixed_system.sources, 0.0, 4e-10, mixed_system.num_sources)
        assert run.workers == 4
        assert run.plan.groups == plan.groups
        for x, y in zip(run.plan.group_lts, plan.group_lts):
            assert x.tobytes() == y.tobytes()

    def test_packing_is_linear(self):
        # 1,000 distinct spot sets into two bins: a few milliseconds,
        # where the deleted pairwise fold took 8-9 s on this plan.
        sources = [netlist.Pwl(((0.0, 0.0), ((i + 1) * 1e-12, 1.0))) for i in range(1000)]
        assert decomp.build_plan(sources, 0.0, 1e-8, max_groups=1000).num_groups == 1000
        t0 = time.perf_counter()
        packed = decomp.build_plan(sources, 0.0, 1e-8, max_groups=2)
        assert time.perf_counter() - t0 < 0.1
        assert [len(g) for g in packed.groups] == [500, 500]

    def test_two_workers_shorten_the_critical_path(self, mixed_system):
        # ROADMAP item 8's gate: with four spot sets, two forked workers
        # have a shorter critical path than one group in one process
        # (60 against 88 pairs when measured).
        cfg = stepper.SolverConfig(method="rmatex", e_tol=1e-8)
        one = decomp.run_superposed(mixed_system, cfg, max_groups=1)
        two = decomp.run_superposed(mixed_system, cfg, workers=2)
        assert two.workers == 2
        assert two.plan.gts.tobytes() == one.plan.gts.tobytes()
        assert two.critical_path_pairs < one.merged.substitution_pairs


class TestRunSuperposed:
    def test_tr_superposition_is_exact(self, mixed_system):
        cfg = stepper.SolverConfig(method="tr", h=2e-12)
        plan = decomp.build_plan(mixed_system.sources, 0.0, 4e-10, mixed_system.num_sources)
        parts = [
            stepper.solve_transient(mixed_system.subsystem(g), cfg)
            for g in plan.groups
        ]
        plain = stepper.solve_transient(mixed_system, cfg)
        assert len(parts) == 4
        for r in parts:
            np.testing.assert_array_equal(r.times, plain.times)
        scale = np.abs(plain.states).max()
        merged = sum(r.states for r in parts)
        assert np.abs(merged - plain.states).max() < 1e-12 * scale

    def test_fixed_step_runs_as_one_group(self, mixed_system):
        for method in ("tr", "be"):
            cfg = stepper.SolverConfig(method=method, h=2e-12)
            sup = decomp.run_superposed(mixed_system, cfg, max_groups=mixed_system.num_sources)
            plain = stepper.solve_transient(mixed_system, cfg)
            assert sup.plan.groups == [[0, 1, 2, 3, 4, 5]]
            assert sup.merged.substitution_pairs == plain.substitution_pairs
            assert np.array_equal(sup.merged.states, plain.states)

    def test_rmatex_superposition_within_budget(self, mixed_system):
        cfg = stepper.SolverConfig(method="rmatex", e_tol=1e-8)
        sup = decomp.run_superposed(mixed_system, cfg, max_groups=mixed_system.num_sources)
        plain = stepper.solve_transient(mixed_system, cfg)
        np.testing.assert_array_equal(sup.merged.times, plain.times)
        diff = np.abs(sup.merged.states - plain.states).max()
        assert diff < 10.0 * cfg.e_tol
        assert any(r.reused_steps > 0 for r in sup.subtasks)

    def test_each_group_equals_its_standalone_run(self, mixed_system):
        # A group reads its pairs off the shared operator as how much
        # its tallies grew, so no group carries an earlier group's pairs.
        cfg = stepper.SolverConfig(method="rmatex", e_tol=1e-8)
        sup = decomp.run_superposed(mixed_system, cfg, max_groups=mixed_system.num_sources)
        assert len(sup.subtasks) == 4
        summed = np.zeros(sup.merged.states.shape)
        for members, r in zip(sup.plan.groups, sup.subtasks):
            alone = stepper.solve_transient(
                mixed_system.subsystem(members), cfg, gts=sup.plan.gts
            )
            assert r.substitution_pairs == alone.substitution_pairs
            assert r.steps == alone.steps
            assert sup.merged.times.tobytes() == alone.times.tobytes()
            summed += alone.states
        assert sup.merged.states.tobytes() == summed.tobytes()

    @pytest.mark.parametrize("method", ["tr", "rmatex"])
    def test_one_group_merge_is_zeros_plus_the_run(self, ladder_system, method):
        cfg = stepper.SolverConfig(method=method, h=2e-12, e_tol=1e-8)
        sup = decomp.run_superposed(ladder_system, cfg, max_groups=1)
        s = stepper.solve_transient(ladder_system, cfg).states
        assert sup.merged.states.tobytes() == (np.zeros_like(s) + s).tobytes()
        if method == "rmatex":
            # The run starts at -w(t0), -0.0 where nothing drives yet;
            # the merge turns those into +0.0 as zeros + states does.
            assert np.signbit(s[s == 0.0]).any()

    def test_groups_are_merged_as_they_end(self):
        # Eight groups on 1,000 nodes, peaks in units of the merged
        # states. A run holds its states; a superposed run holds the
        # merged sum besides one group's working set. Measured: 1.8 in
        # one group and 2.9 in eight. With w and theta formed as (T, n)
        # tables they read 3.6 and 4.8, and keeping every group's states
        # until the end would add one (T, n) array per group.
        lines = [f"R{i} {i} {i + 1} 1" for i in range(1, 1000)]
        lines += [f"RG{i} {i} 0 1" for i in range(1, 1001)]
        lines += [f"C{i} {i} 0 1e-12" for i in range(1, 1001)]
        lines += [
            f"I{j} 0 {1 + 142 * j} PULSE(0 1m {j + 1}p 5p 5p 20p 100p)"
            for j in range(8)
        ]
        system = netlist.build_system("\n".join(["* line", *lines, ".TRAN 0 0.5n"]))
        cfg = stepper.SolverConfig(method="rmatex", e_tol=1e-6)

        peaks = {}
        for max_groups in (1, 8):
            tracemalloc.start()
            try:
                sup = decomp.run_superposed(system, cfg, max_groups=max_groups)
                peaks[max_groups] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert sup.plan.num_groups == 8
        states = sup.merged.states.nbytes
        assert peaks[1] <= 2.0 * states
        assert peaks[8] <= 3.2 * states

    def test_over_the_cap_runs_packed(self, mixed_system):
        # four spot sets over a cap of three: three packed groups, the
        # last two sets in one
        cfg = stepper.SolverConfig(method="rmatex", e_tol=1e-8)
        sup = decomp.run_superposed(mixed_system, cfg, max_groups=3)
        assert sup.workers == 1
        assert sup.plan.groups == [[0, 1], [2], [3, 4, 5]]
        summed = np.zeros(sup.merged.states.shape)
        for members in sup.plan.groups:
            summed += stepper.solve_transient(
                mixed_system.subsystem(members), cfg, gts=sup.plan.gts
            ).states
        assert sup.merged.states.tobytes() == summed.tobytes()

    def test_single_source_is_undecomposed(self, singular_c_system):
        cfg = stepper.SolverConfig(method="imatex", e_tol=1e-8)
        sup = decomp.run_superposed(singular_c_system, cfg)
        plain = stepper.solve_transient(singular_c_system, cfg)
        assert sup.plan.num_groups == 1
        # merging sweeps -0.0 into +0.0, so compare values not bytes
        assert np.array_equal(sup.merged.states, plain.states)
        assert np.array_equal(sup.merged.times, plain.times)

    def test_merged_accounting_sums_subtasks(self, mixed_system):
        cfg = stepper.SolverConfig(method="rmatex", e_tol=1e-8)
        sup = decomp.run_superposed(mixed_system, cfg, max_groups=mixed_system.num_sources)
        for pairs in ("g_pairs", "c_pairs", "shift_pairs", "substitution_pairs"):
            assert getattr(sup.merged, pairs) == sum(
                getattr(r, pairs) for r in sup.subtasks
            )
        # The groups step with one set of factors of the whole circuit:
        # the merged run counts them once, each subtask counts none.
        one_group = decomp.run_superposed(mixed_system, cfg, max_groups=1)
        assert sup.plan.num_groups > 1
        assert sup.merged.factorizations == one_group.merged.factorizations == 3
        assert all(r.factorizations == 0 for r in sup.subtasks)
        assert sup.merged.steps == [s for r in sup.subtasks for s in r.steps]
        # A subtask is its run's cost only: it holds no states.
        assert all(type(r) is stepper.RunCost for r in sup.subtasks)
        assert not any(hasattr(r, "states") for r in sup.subtasks)
        # The groups run one after another, so the call's own elapsed
        # time covers every group's.
        assert sup.merged.wall_time >= sum(r.wall_time for r in sup.subtasks)


class TestWorkers:
    """Groups run in a pool of forked worker processes when workers > 1."""

    @staticmethod
    def counts(cost):
        return (cost.g_pairs, cost.c_pairs, cost.shift_pairs, cost.drive_rank,
                cost.factorizations, cost.steps)

    @staticmethod
    def in_process(system, cfg, plan):
        """The one-process run of plan's groups, summed in group order."""
        with mock.patch.object(decomp, "build_plan", return_value=plan):
            return decomp.run_superposed(system, cfg)

    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_matches_one_process(self, mixed_system, workers):
        # Four spot sets on k = min(workers, 4) workers: packed into k
        # groups, one per worker.
        cfg = stepper.SolverConfig(method="rmatex", e_tol=1e-8)
        forked = decomp.run_superposed(mixed_system, cfg, workers=workers)
        serial = self.in_process(mixed_system, cfg, forked.plan)
        assert serial.workers == 1
        assert forked.plan.num_groups == min(workers, 4)
        assert forked.workers == min(workers, 4)
        assert [self.counts(r) for r in forked.subtasks] == [
            self.counts(r) for r in serial.subtasks
        ]
        assert all(r.factorizations == 0 for r in forked.subtasks)
        assert self.counts(forked.merged) == self.counts(serial.merged)
        assert forked.merged.gamma == serial.merged.gamma
        assert forked.merged.names == serial.merged.names
        assert forked.merged.times.tobytes() == serial.merged.times.tobytes()
        # The children's states are added in group order, so the merge
        # differs from zeros + each group in index order only by rounding.
        scale = np.abs(serial.merged.states).max()
        np.testing.assert_allclose(
            forked.merged.states, serial.merged.states, rtol=1e-13, atol=1e-15 * scale
        )

    @pytest.mark.parametrize("workers, max_groups, groups", [(1, None, 1), (2, 3, 2), (3, 2, 2)])
    def test_the_cap_is_one_group_per_worker(self, mixed_system, workers, max_groups, groups):
        # The cap defaults to the workers, one group in this process, and
        # a forked run plans no more groups than workers: four spot sets
        # pack into min(max_groups, workers).
        cfg = stepper.SolverConfig(method="rmatex", e_tol=1e-8)
        cap = {} if max_groups is None else {"max_groups": max_groups}
        run = decomp.run_superposed(mixed_system, cfg, workers=workers, **cap)
        plan = decomp.build_plan(mixed_system.sources, 0.0, 4e-10, groups)
        assert run.workers == groups
        assert run.plan.groups == plan.groups

    def test_reruns_give_the_same_bytes(self, mixed_system):
        cfg = stepper.SolverConfig(method="rmatex", e_tol=1e-8)
        a, b = (decomp.run_superposed(mixed_system, cfg, workers=2) for _ in range(2))
        assert a.merged.states.tobytes() == b.merged.states.tobytes()
        assert a.merged.times.tobytes() == b.merged.times.tobytes()

    def test_costs_that_outgrow_a_pipe_buffer(self, ladder_system):
        # Each share's pickled step records outgrow a 64 KiB pipe buffer,
        # and still come back whole.
        cfg = stepper.SolverConfig(e_tol=1e-8, t_stop=6e-8)
        forked = decomp.run_superposed(ladder_system, cfg, workers=2)
        assert forked.workers == 2
        assert all(len(pickle.dumps(r)) > 1 << 16 for r in forked.subtasks)
        serial = decomp.run_superposed(ladder_system, cfg, max_groups=ladder_system.num_sources)
        assert forked.merged.steps == serial.merged.steps

    def test_fixed_step_stays_in_process(self, mixed_system):
        cfg = stepper.SolverConfig(method="tr", h=2e-12)
        serial = decomp.run_superposed(mixed_system, cfg)
        two = decomp.run_superposed(mixed_system, cfg, workers=2)
        assert two.workers == 1
        assert two.merged.states.tobytes() == serial.merged.states.tobytes()
        assert two.merged.times.tobytes() == serial.merged.times.tobytes()

    def test_without_fork_runs_in_process(self, mixed_system, monkeypatch):
        cfg = stepper.SolverConfig(method="rmatex", e_tol=1e-8)
        cap = mixed_system.num_sources
        serial = decomp.run_superposed(mixed_system, cfg, max_groups=cap)
        monkeypatch.delattr(os, "fork")
        two = decomp.run_superposed(mixed_system, cfg, workers=2, max_groups=cap)
        assert two.plan.num_groups == 4
        assert two.workers == 1
        assert two.merged.states.tobytes() == serial.merged.states.tobytes()

    def test_critical_path_is_the_largest_share(self, mixed_system):
        cfg = stepper.SolverConfig(method="rmatex", e_tol=1e-8)
        one = decomp.run_superposed(mixed_system, cfg, max_groups=mixed_system.num_sources)
        two = decomp.run_superposed(mixed_system, cfg, workers=2)
        pairs = [r.substitution_pairs for r in two.subtasks]
        assert one.critical_path_pairs == one.merged.substitution_pairs
        # one packed group per worker
        assert len(pairs) == two.workers == 2
        assert two.critical_path_pairs == max(pairs)

    @pytest.mark.parametrize(
        "error", [NoConvergence("no basis met the budget", m=7, estimate=0.5),
                  NumericalError("singular operator")]
    )
    def test_a_child_error_reaches_the_caller(self, mixed_system, monkeypatch, error):
        solve = stepper.solve_transient

        def failing(system, config, **kwargs):
            if mixed_system.source_names[2] in system.source_names:
                raise error
            return solve(system, config, **kwargs)

        monkeypatch.setattr(stepper, "solve_transient", failing)
        cfg = stepper.SolverConfig(method="rmatex", e_tol=1e-8)
        with pytest.raises(type(error), match=str(error)) as caught:
            decomp.run_superposed(mixed_system, cfg, workers=2)
        assert vars(caught.value) == vars(error)
        # every child was reaped
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_lost_child_is_reported(self, mixed_system, monkeypatch):
        solve = stepper.solve_transient

        def dying(system, config, **kwargs):
            if mixed_system.source_names[5] in system.source_names:
                os._exit(3)
            return solve(system, config, **kwargs)

        monkeypatch.setattr(stepper, "solve_transient", dying)
        cfg = stepper.SolverConfig(method="rmatex", e_tol=1e-8)
        # the pool's BrokenProcessPool, a RuntimeError
        with pytest.raises(RuntimeError, match="terminated abruptly"):
            decomp.run_superposed(mixed_system, cfg, workers=2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_an_error_that_cannot_be_pickled(self, mixed_system, monkeypatch):
        solve = stepper.solve_transient

        def failing(system, config, **kwargs):
            if mixed_system.source_names[5] in system.source_names:
                error = NumericalError("odd")
                error.lock = threading.Lock()
                raise error
            return solve(system, config, **kwargs)

        monkeypatch.setattr(stepper, "solve_transient", failing)
        cfg = stepper.SolverConfig(method="rmatex", e_tol=1e-8)
        # the caller gets the error that stopped the reply instead
        with pytest.raises(TypeError, match="cannot pickle"):
            decomp.run_superposed(mixed_system, cfg, workers=2)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_run_leaves_no_thread_and_no_child(self, mixed_system):
        # A thread left running would make every later fork a fork from
        # a process with threads.
        cfg = stepper.SolverConfig(method="rmatex", e_tol=1e-8)
        threads = threading.enumerate()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert decomp.run_superposed(mixed_system, cfg, workers=2).workers == 2
        assert threading.enumerate() == threads
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
