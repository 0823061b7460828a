"""Command line front end.

Three subcommands:

* simulate: run one solver on a netlist, write the waveform as CSV and
  optionally a JSON diagnostics file.
* compare: run several solvers on the same netlist and tabulate basis
  dimensions, substitution pairs and error against a fine-step
  backward-Euler reference, whose own error is printed above the
  table; an error within 10x of it reads as "<" that limit.
* genmesh: emit a synthetic RC mesh netlist with a calibrated
  stiffness ratio.

Exit codes: 0 success, 1 netlist problems, 2 numerical or configuration
failures, 3 file I/O.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys

import numpy as np

from . import decomp, krylov, meshgen, netlist, stepper
from .errors import NetlistError, NumericalError

# Version of the --diag JSON layout; bumped whenever a key is removed or
# changes meaning.
DIAG_SCHEMA = 2

# compare resolves a solver's error only when it is at least this many
# times the reference's own error.
RESOLVED_FACTOR = 10.0


def _value(text: str) -> float:
    try:
        return netlist.parse_value(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def write_waveform_csv(result: stepper.WaveformResult, fh) -> None:
    """time,<unknown names...>; full-precision scientific notation."""
    fh.write("time," + ",".join(result.names) + "\n")
    fmt = ",".join(["%.17e"] * (1 + result.n)) + "\n"
    for t, row in zip(result.times.tolist(), result.states):
        fh.write(fmt % (t, *row.tolist()))


def read_waveform_csv(fh):
    """Inverse of write_waveform_csv: (times, states, names)."""
    header = fh.readline().strip().split(",")
    if not header or header[0] != "time":
        raise ValueError("not a waveform CSV: header must start with 'time'")
    names = header[1:]
    rows = [
        [float(tok) for tok in line.strip().split(",")]
        for line in fh
        if line.strip()
    ]
    data = np.asarray(rows)
    if data.ndim != 2 or data.shape[1] != len(names) + 1:
        raise ValueError("malformed waveform CSV")
    return data[:, 0], data[:, 1:], names


@contextlib.contextmanager
def _open_out(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _load_system(path: str) -> netlist.CircuitSystem:
    with open(path) as fh:
        return netlist.build_system(fh.read())


def _add_solver_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--solver",
        choices=stepper.METHODS,
        default="rmatex",
        help="integration method (default rmatex)",
    )
    p.add_argument("--h", type=_value, help="fixed step for tr/be, e.g. 10ps")
    e_tol = stepper.SolverConfig.e_tol
    p.add_argument(
        "--etol",
        type=_value,
        default=e_tol,
        help=f"absolute error budget over the span (default {e_tol:g})",
    )
    p.add_argument("--gamma", type=_value, help="rational shift (default: median gap / 10)")
    p.add_argument(
        "--mmax",
        type=int,
        default=krylov.DEFAULT_M_MAX,
        help=f"basis dimension cap (default {krylov.DEFAULT_M_MAX})",
    )
    p.add_argument(
        "--groups",
        type=int,
        default=decomp.MAX_GROUPS_DEFAULT,
        help="max source groups for superposition; exponential methods only "
        f"(default {decomp.MAX_GROUPS_DEFAULT})",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="at least 1; groups run in one thread, kept for existing callers",
    )
    p.add_argument("--tstart", type=_value, help="override the netlist start time")
    p.add_argument("--tstop", type=_value, help="override the netlist stop time")


def _make_config(args, solver: str) -> stepper.SolverConfig:
    return stepper.SolverConfig(
        method=solver,
        h=args.h,
        e_tol=args.etol,
        m_max=args.mmax,
        gamma=args.gamma,
        t_start=args.tstart,
        t_stop=args.tstop,
    )


def cmd_simulate(args) -> int:
    system = _load_system(args.netlist)
    config = _make_config(args, args.solver)
    run = decomp.run_superposed(
        system, config, workers=args.workers, max_groups=args.groups
    )
    merged = run.merged
    with _open_out(args.out) as fh:
        write_waveform_csv(merged, fh)
    if args.diag:
        diag = {
            "schema": DIAG_SCHEMA,
            "method": merged.method,
            "e_tol": config.e_tol,
            "gamma": merged.gamma,
            "groups": run.plan.num_groups,
            "substitution_pairs": merged.substitution_pairs,
            "factorizations": merged.factorizations,
            "wall_time": merged.wall_time,
            "m_average": merged.m_average,
            "m_peak": merged.m_peak,
            "samples": int(merged.times.size),
            "subtasks": [
                {
                    "group": g,
                    "sources": run.plan.groups[g],
                    "substitution_pairs": r.substitution_pairs,
                    "m_peak": r.m_peak,
                    "local_transitions": int(run.plan.group_lts[g].size),
                    "reused_steps": r.reused_steps,
                }
                for g, r in enumerate(run.subtasks)
            ],
            "steps": [dataclasses.asdict(s) for s in merged.steps],
        }
        with open(args.diag, "w") as fh:
            json.dump(diag, fh, indent=2)
            fh.write("\n")
    return 0


def _oracle(system, args) -> tuple[stepper.WaveformResult, float]:
    """Backward-Euler reference at step h and its own error in percent.

    Backward Euler is first order, so its run at 2h deviates from its
    run at h by about the error of the run at h; that deviation is the
    reference's own error.
    """
    t0, t1 = stepper.resolve_span(
        system, stepper.SolverConfig(method="rmatex", t_start=args.tstart, t_stop=args.tstop)
    )
    h = args.oracle_h
    if h is None:
        spots = stepper.active_transitions(system, t0, t1)
        pts = stepper.stepping_points(t0, t1, spots)
        h = float(np.diff(pts).min()) / 100.0
    steps = 2 * max(1, int(round((t1 - t0) / (2 * h))))
    fine, coarse = (
        stepper.solve_transient_be(
            system, stepper.SolverConfig(method="be", h=(t1 - t0) / k, t_start=t0, t_stop=t1)
        )
        for k in (steps, steps // 2)
    )
    return fine, stepper.waveform_error(coarse, fine)


def cmd_compare(args) -> int:
    system = _load_system(args.netlist)
    solvers = [s.strip() for s in args.solvers.split(",") if s.strip()]
    if not solvers:
        raise ValueError("no solver given")
    for s in solvers:
        if s not in stepper.METHODS:
            raise ValueError(f"unknown solver {s!r}")
    # Reject a bad configuration before the reference run, which can
    # take far longer than the solvers compared.
    configs = [_make_config(args, solver) for solver in solvers]
    if args.workers < 1:
        raise ValueError("workers must be at least 1")
    if args.groups < 1:
        raise ValueError("max_groups must be at least 1")
    oracle, oracle_err = _oracle(system, args)
    limit = RESOLVED_FACTOR * oracle_err
    rows = []
    for solver, config in zip(solvers, configs):
        try:
            run = decomp.run_superposed(
                system, config, workers=args.workers, max_groups=args.groups
            )
            merged = run.merged
            err = stepper.waveform_error(merged, oracle)
            rows.append(
                {
                    "solver": solver,
                    "m_average": round(merged.m_average, 3),
                    "m_peak": merged.m_peak,
                    "substitution_pairs": merged.substitution_pairs,
                    "factorizations": merged.factorizations,
                    "error_pct": float(err),
                    "resolved": bool(err >= limit),
                    "wall_time": merged.wall_time,
                }
            )
        except NumericalError as exc:
            rows.append({"solver": solver, "failed": str(exc)})
    print(f"reference error: {oracle_err:.8f} % (backward Euler at 2h against h)")
    header = (
        f"{'solver':8s} {'m_avg':>8s} {'m_peak':>6s} {'pairs':>10s} "
        f"{'factor':>6s} {'err_pct':>14s} {'wall_s':>10s}"
    )
    print(header)
    for row in rows:
        if "failed" in row:
            print(f"{row['solver']:8s} failed: {row['failed']}")
            continue
        err = f"{row['error_pct']:.8f}" if row["resolved"] else f"<{limit:.8f}"
        print(
            f"{row['solver']:8s} {row['m_average']:8.3f} {row['m_peak']:6d} "
            f"{row['substitution_pairs']:10d} {row['factorizations']:6d} "
            f"{err:>14s} {row['wall_time']:10.4f}"
        )
    if args.report:
        oracle_h = float(np.diff(oracle.times)[0])
        report = {"oracle_h": oracle_h, "oracle_error_pct": oracle_err, "rows": rows}
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return 0


def cmd_genmesh(args) -> int:
    mesh = meshgen.generate_mesh_netlist(
        n_nodes=args.n,
        stiffness_target=args.stiffness,
        seed=args.seed,
        n_sources=args.nsrc,
        t_stop=args.tstop,
    )
    with _open_out(args.out) as fh:
        fh.write(mesh.text)
    print(
        f"stiffness: measured {mesh.measured_stiffness:.6e} "
        f"(target {args.stiffness:.6e}, {mesh.n_nodes} nodes)",
        file=sys.stderr,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expsim",
        description="Transient circuit simulation with exponential integrators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one solver, write waveform CSV")
    p_sim.add_argument("netlist", help="netlist file path")
    _add_solver_args(p_sim)
    p_sim.add_argument("--out", default="-", help="CSV output path (default stdout)")
    p_sim.add_argument("--diag", help="JSON diagnostics output path")
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="run several solvers, tabulate cost and error")
    p_cmp.add_argument("netlist", help="netlist file path")
    p_cmp.add_argument(
        "--solvers",
        default="tr,rmatex",
        help="comma-separated list (default tr,rmatex)",
    )
    _add_solver_args(p_cmp)
    p_cmp.add_argument("--oracle-h", type=_value, dest="oracle_h",
                       help="reference step (default: min spot gap / 100)")
    p_cmp.add_argument("--report", help="JSON report output path")
    p_cmp.set_defaults(func=cmd_compare)

    p_gen = sub.add_parser("genmesh", help="emit a calibrated RC mesh netlist")
    p_gen.add_argument("--n", type=int, required=True, help="approximate node count")
    p_gen.add_argument("--stiffness", type=_value, required=True, help="target eigenvalue ratio")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--nsrc", type=int, default=3, help="pulsed source count")
    p_gen.add_argument("--tstop", type=_value, default=0.3e-9, help="analysis stop time")
    p_gen.add_argument("--out", default="-", help="netlist output path (default stdout)")
    p_gen.set_defaults(func=cmd_genmesh)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NetlistError as exc:
        print(f"netlist error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, ValueError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
