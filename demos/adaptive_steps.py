"""Spot-to-spot stepping on a pulse-driven ladder, step by step.

The exponential solver steps exactly from one input slope change to the
next, growing a fresh Krylov basis where its own input bends and
rescaling the previous basis where only another group's input does.
This script prints the accepted steps of a plain run, then of a
decomposed run whose per-source subtasks reuse bases at foreign spots.

Run from the repository root:  python3 demos/adaptive_steps.py
"""

import numpy as np

import expsim as es
from expsim import decomp, stepper

NETLIST = """* four-node ladder, one pulse and one ramp
I1 0 1 PULSE(0 1e-3 2e-11 1e-11 1e-11 5e-11 2e-10)
I2 0 3 PWL(0 0 5e-11 5e-4 4e-10 5e-4)
R1 1 2 2
R2 2 3 2
R3 3 4 2
R4 4 0 2
R5 1 0 5
C1 1 0 1e-12
C2 2 0 3e-12
C3 3 0 1e-13
C4 4 0 2e-12
.TRAN 0 4e-10
.END
"""


def print_steps(result):
    print("       t          h      m  reused  kind        estimate")
    for s in result.steps:
        print(
            f"{s.t:10.3e} {s.h:10.3e} {s.m:4d}  {str(s.reused):5s}  "
            f"{s.estimate_kind:9s} {s.estimate:10.3e}"
        )


def main():
    system = es.build_system(NETLIST)
    config = stepper.SolverConfig(method="rmatex", e_tol=1e-9)

    run = stepper.solve_transient_matex(system, config)
    print("undecomposed run: every step lands on an input slope change")
    print_steps(run)
    print(f"total substitution pairs: {run.substitution_pairs}\n")

    sup = decomp.run_superposed(system, config, max_groups=system.num_sources)
    print(f"decomposed into {sup.plan.num_groups} groups "
          f"{sup.plan.groups}; per-subtask steps:")
    for g, sub in enumerate(sup.subtasks):
        reused = sum(s.reused for s in sub.steps)
        print(f"\ngroup {g} (sources {sup.plan.groups[g]}): "
              f"{len(sub.steps)} steps, {reused} reused bases, "
              f"{sub.substitution_pairs} pairs")
        print_steps(sub)

    span = system.t_stop - system.t_start
    ref = stepper.solve_transient_be(
        system, stepper.SolverConfig(method="be", h=span / 20000)
    )
    diff = np.abs(sup.merged.states - run.states).max()
    print(f"\nmerged vs undecomposed: max |diff| = {diff:.3e}")
    print(f"error vs fine backward Euler: {stepper.waveform_error(run, ref):.4f}%")


if __name__ == "__main__":
    main()
