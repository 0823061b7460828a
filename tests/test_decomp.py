"""Source grouping, spot-time bookkeeping and superposed runs."""

import numpy as np
import pytest

import expsim as es
from expsim import decomp, netlist, stepper

MIXED_NETLIST = """* six sources, four distinct bump shapes
R1 1 2 1
R2 2 3 1
R3 3 4 1
R4 4 5 1
R5 5 6 1
R6 6 0 1
C1 1 0 1e-12
C2 2 0 1e-12
C3 3 0 1e-12
C4 4 0 1e-12
C5 5 0 1e-12
C6 6 0 1e-12
I1 0 1 PULSE(0 1m 1e-11 1e-11 1e-11 3e-11 2e-10)
I2 0 2 PULSE(0 3m 1e-11 1e-11 1e-11 3e-11 2e-10)
I3 0 3 PULSE(0 1m 5e-11 1e-11 1e-11 3e-11 2e-10)
I4 0 4 PWL(0 0 1e-10 1m 4e-10 1m)
I5 0 5 PWL(0 0 1e-10 2m 4e-10 2m)
I6 0 6 DC 2m
.TRAN 0 4e-10
.END
"""


@pytest.fixture()
def mixed_system():
    return es.build_system(MIXED_NETLIST)


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


class TestBumpFeature:
    def test_pulse_quantized_to_femtoseconds(self):
        w = netlist.Pulse(0, 1, 2e-11, 1e-11, 1e-11, 5e-11, 2e-10)
        f = decomp.BumpFeature.from_waveform(w)
        assert f == decomp.BumpFeature(20000, 10000, 50000, 10000, 200000)

    def test_amplitude_does_not_matter(self):
        a = netlist.Pulse(0, 1, 1e-11, 1e-11, 1e-11, 3e-11, 2e-10)
        b = netlist.Pulse(0, 7, 1e-11, 1e-11, 1e-11, 3e-11, 2e-10)
        assert (
            decomp.BumpFeature.from_waveform(a)
            == decomp.BumpFeature.from_waveform(b)
        )

    def test_dc_is_all_zero(self):
        assert decomp.BumpFeature.from_waveform(netlist.Dc(5.0)) == (
            decomp.BumpFeature(0, 0, 0, 0, 0)
        )

    def test_pwl_first_excursion(self):
        w = netlist.Pwl(
            ((0.0, 0.0), (1e-9, 0.0), (2e-9, 1.0), (3e-9, 1.0), (4e-9, 0.0), (5e-9, 0.0))
        )
        f = decomp.BumpFeature.from_waveform(w)
        assert f == decomp.BumpFeature(1000000, 1000000, 1000000, 1000000, 0)

    def test_flat_pwl(self):
        w = netlist.Pwl(((0.0, 1.0), (1e-9, 1.0)))
        assert decomp.BumpFeature.from_waveform(w) == decomp.BumpFeature(0, 0, 0, 0, 0)


class TestBuildPlan:
    def test_groups_partition_the_sources(self, mixed_system):
        plan = decomp.build_plan(mixed_system.sources, 0.0, 4e-10)
        seen = sorted(i for g in plan.groups for i in g)
        assert seen == list(range(mixed_system.num_sources))
        assert all(g == sorted(g) for g in plan.groups)

    def test_equal_features_share_a_group(self, mixed_system):
        plan = decomp.build_plan(mixed_system.sources, 0.0, 4e-10)
        assert plan.groups == [[0, 1], [2], [3, 4], [5]]

    def test_group_lts_is_member_union(self, mixed_system):
        plan = decomp.build_plan(mixed_system.sources, 0.0, 4e-10)
        for g, lts in zip(plan.groups, plan.group_lts):
            member = np.unique(
                np.concatenate([plan.source_lts[i] for i in g])
                if any(plan.source_lts[i].size for i in g)
                else np.empty(0)
            )
            np.testing.assert_array_equal(lts, member)

    def test_gts_and_snapshots(self, mixed_system):
        plan = decomp.build_plan(mixed_system.sources, 0.0, 4e-10)
        union = np.unique(np.concatenate([g for g in plan.group_lts if g.size]))
        np.testing.assert_array_equal(plan.gts, union)
        for lts, snaps in zip(plan.group_lts, plan.group_snapshots):
            assert np.intersect1d(snaps, lts).size == 0
            np.testing.assert_array_equal(
                np.union1d(snaps, lts), plan.gts
            )

    def test_gts_matches_solver_transitions(self, ladder_system):
        plan = decomp.build_plan(ladder_system.sources, 0.0, 4e-10)
        np.testing.assert_array_equal(
            plan.gts, stepper.active_transitions(ladder_system, 0.0, 4e-10)
        )

    def test_mask(self, mixed_system):
        plan = decomp.build_plan(mixed_system.sources, 0.0, 4e-10)
        np.testing.assert_array_equal(
            plan.mask(0, 6), [True, True, False, False, False, False]
        )
        np.testing.assert_array_equal(
            plan.mask(3, 6), [False, False, False, False, False, True]
        )

    def test_folding_respects_max_groups(self):
        sources = [
            netlist.Pulse(0, 1, 1.0e-9, 1e-10, 1e-10, 1e-10, 1e-8),
            netlist.Pulse(0, 1, 1.1e-9, 1e-10, 1e-10, 1e-10, 1e-8),
            netlist.Pulse(0, 1, 9.0e-9, 1e-10, 1e-10, 1e-10, 1e-8),
        ]
        plan = decomp.build_plan(sources, 0.0, 1e-8, max_groups=2)
        # the lone nearest-by-feature pair folds, the outlier survives
        assert plan.groups == [[0, 1], [2]]
        lts01 = np.union1d(plan.source_lts[0], plan.source_lts[1])
        np.testing.assert_array_equal(plan.group_lts[0], lts01)

    def test_folding_to_one_group(self, mixed_system):
        plan = decomp.build_plan(mixed_system.sources, 0.0, 4e-10, max_groups=1)
        assert plan.groups == [[0, 1, 2, 3, 4, 5]]
        np.testing.assert_array_equal(plan.group_lts[0], plan.gts)
        assert plan.group_snapshots[0].size == 0

    def test_determinism(self, mixed_system):
        a = decomp.build_plan(mixed_system.sources, 0.0, 4e-10, max_groups=3)
        b = decomp.build_plan(mixed_system.sources, 0.0, 4e-10, max_groups=3)
        assert a.groups == b.groups
        for x, y in zip(a.group_lts, b.group_lts):
            np.testing.assert_array_equal(x, y)

    def test_max_groups_validated(self, mixed_system):
        with pytest.raises(ValueError):
            decomp.build_plan(mixed_system.sources, 0.0, 4e-10, max_groups=0)


class TestRunSuperposed:
    def test_tr_superposition_is_exact(self, mixed_system):
        cfg = stepper.SolverConfig(method="tr", h=2e-12)
        sup = decomp.run_superposed(mixed_system, cfg)
        plain = stepper.solve_transient(mixed_system, cfg)
        assert len(sup.subtasks) == 4
        np.testing.assert_array_equal(sup.merged.times, plain.times)
        scale = np.abs(plain.states).max()
        assert np.abs(sup.merged.states - plain.states).max() < 1e-12 * scale

    def test_rmatex_superposition_within_budget(self, mixed_system):
        cfg = stepper.SolverConfig(method="rmatex", e_tol=1e-8)
        sup = decomp.run_superposed(mixed_system, cfg)
        plain = stepper.solve_transient(mixed_system, cfg)
        np.testing.assert_array_equal(sup.merged.times, plain.times)
        diff = np.abs(sup.merged.states - plain.states).max()
        assert diff < 10.0 * cfg.e_tol
        assert any(r.reused_steps > 0 for r in sup.subtasks)

    @pytest.mark.parametrize("method", ["tr", "rmatex"])
    def test_worker_count_does_not_change_bytes(self, mixed_system, method):
        cfg = (
            stepper.SolverConfig(method="tr", h=2e-12)
            if method == "tr"
            else stepper.SolverConfig(method="rmatex", e_tol=1e-8)
        )
        runs = {
            w: decomp.run_superposed(mixed_system, cfg, workers=w)
            for w in (1, 2, 8)
        }
        ref = runs[1].merged
        for w in (2, 8):
            assert runs[w].merged.states.tobytes() == ref.states.tobytes()
            assert runs[w].merged.times.tobytes() == ref.times.tobytes()

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
        sup = decomp.run_superposed(mixed_system, cfg)
        assert sup.merged.substitution_pairs == sum(
            r.substitution_pairs for r in sup.subtasks
        )
        assert sup.merged.factorizations == sum(
            r.factorizations for r in sup.subtasks
        )
        assert len(sup.merged.steps) == sum(len(r.steps) for r in sup.subtasks)
        assert sup.merged.wall_time == max(r.wall_time for r in sup.subtasks)

    def test_explicit_plan_is_used(self, mixed_system):
        cfg = stepper.SolverConfig(method="rmatex", e_tol=1e-8)
        plan = decomp.build_plan(mixed_system.sources, 0.0, 4e-10, max_groups=2)
        sup = decomp.run_superposed(mixed_system, cfg, plan=plan)
        assert sup.plan is plan
        assert len(sup.subtasks) == 2


class TestSpeedupModel:
    def test_hand_computed_ratios(self):
        est = decomp.speedup_model(
            n_fixed_steps=1000, total_transitions=20, max_group_transitions=10, m=5
        )
        assert est.distributed == pytest.approx(2.0)
        assert est.versus_fixed == pytest.approx(20.0)

    def test_overhead_terms(self):
        est = decomp.speedup_model(
            n_fixed_steps=1000,
            total_transitions=20,
            max_group_transitions=10,
            m=5,
            t_h=1.0,
            t_e=1.0,
            t_serial=10.0,
        )
        # overhead 20*(1+1)+10 = 50, parallel cost 10*5+50 = 100
        assert est.distributed == pytest.approx(150.0 / 100.0)
        assert est.versus_fixed == pytest.approx(1010.0 / 100.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            decomp.speedup_model(-1, 20, 10, 5)
        with pytest.raises(ValueError):
            decomp.speedup_model(100, 0, 0, 0.0)
