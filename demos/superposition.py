"""Input superposition: split sources into groups, solve each, merge.

A linear circuit's response to a sum of inputs is the sum of the
responses. The planner groups sources that share their exact set of
slope-change times, each group is integrated as its own subsystem
(cheaper: fewer fresh bases per subtask), and the merge is a plain sum
in fixed group order.

Run from the repository root:  python3 demos/superposition.py
"""

import numpy as np

import expsim as es
from expsim import decomp, stepper


def main():
    mesh = es.generate_mesh_netlist(
        n_nodes=100, stiffness_target=1e4, seed=3, n_sources=3
    )
    system = es.build_system(mesh.text)
    config = stepper.SolverConfig(method="rmatex", e_tol=1e-8)

    sup = decomp.run_superposed(system, config, max_groups=system.num_sources)
    plan = sup.plan
    print(f"{system.num_sources} sources -> {plan.num_groups} groups: {plan.groups}")
    for g in range(plan.num_groups):
        own = plan.group_lts[g].size
        print(f"  group {g}: {own} own transitions, "
              f"{plan.gts.size - own} snapshots of foreign ones")

    plain = stepper.solve_transient(system, config)
    diff = np.abs(sup.merged.states - plain.states).max()
    print(f"\nmerged vs undecomposed: max |diff| = {diff:.3e} "
          f"(budget e_tol = {config.e_tol:.0e})")

    print("\nper-subtask cost:")
    for g, sub in enumerate(sup.subtasks):
        print(f"  group {g}: pairs {sub.substitution_pairs:5d}  "
              f"m_peak {sub.m_peak:3d}  reused steps {sub.reused_steps}")

    # The groups share nothing once the operator is factored, so on
    # separate machines the largest group's pairs are the critical path.
    n_fixed = 1000
    total = sup.merged.substitution_pairs
    critical = max(s.substitution_pairs for s in sup.subtasks)
    print(f"\nagainst a {n_fixed}-step fixed-step run (one pair per step):")
    print(f"  total pairs {total} over {plan.num_groups} groups")
    print(f"  measured advantage {n_fixed / critical:.2f}x "
          "(fixed steps / critical-path pairs)")


if __name__ == "__main__":
    main()
