"""Command line front end.

Three subcommands:

* simulate: run one solver on a netlist, write the waveform as CSV and
  optionally a JSON diagnostics file.
* compare: run several solvers, each undecomposed, on the same netlist
  and tabulate basis dimensions, substitution pairs and error against a
  fine-step backward-Euler reference, whose own error is printed above
  the table; an error within 10x of it reads as "<" that limit.
* genmesh: emit a synthetic RC mesh netlist with a calibrated
  stiffness ratio.

Exit codes: 0 success, 1 netlist problems, 2 numerical or configuration
failures and runs too large for memory, 3 file I/O.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import decomp, krylov, meshgen, netlist, stepper
from .errors import NetlistError, NumericalError

# Version of the --diag JSON layout; bumped whenever a key is added,
# removed or changes meaning.
DIAG_SCHEMA = 5

# compare resolves a solver's error only when it is at least this many
# times the reference's own error.
RESOLVED_FACTOR = 10.0


def _value(text: str) -> float:
    try:
        return netlist.parse_value(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


# The vectorized writer takes |x| in [1e-280, 1e280]: decimal exponents
# k within +-_K_MAX and scale factors 10^(17 - k) within 10^[_P_MIN, _P_MAX],
# with a margin for log10 misjudging the decade.
_P_MIN, _P_MAX, _K_MAX = -270, 300, 290
# Values formatted per block: bounds the writer's working memory.
_BLOCK_CELLS = 1 << 15
# Dekker's splitter for float64: 2^27 + 1.
_SPLIT = 134217729.0


def _ascii_words(texts) -> np.ndarray:
    return np.frombuffer("".join(texts).encode("ascii"), dtype=np.uint32)


@functools.cache
def _format_tables():
    """Read-only tables of the vectorized %.17e formatter.

    10^p as hi + lo from exact rationals, with hi's Dekker halves; the
    uint32 words of "dddd" for 0-9999, of sign (or NUL), lead digit,
    "." and second digit for 0-99 unsigned then signed, and of the
    exponent tail "e+Hd", "d," for each exponent (NUL for an absent
    hundreds digit or sign; NULs are dropped from the text).
    """
    exact = [Fraction(10) ** p for p in range(_P_MIN, _P_MAX + 1)]
    hi = np.array([float(f) for f in exact])
    lo = np.array([float(f - Fraction(h)) for f, h in zip(exact, hi.tolist())])
    c = _SPLIT * hi
    hi_h = c - (c - hi)
    exps = range(-_K_MAX, _K_MAX + 1)
    return (
        (hi, lo, hi_h, hi - hi_h),
        _ascii_words(f"{i:04d}" for i in range(10000)),
        _ascii_words(f"{s}{i // 10}.{i % 10}" for s in ("\0", "-") for i in range(100)),
        _ascii_words(
            f"e{'-' if e < 0 else '+'}{abs(e) // 100 or chr(0)}{abs(e) // 10 % 10}"
            for e in exps
        ),
        _ascii_words(f"{abs(e) % 10},\0\0" for e in exps),
    )


def _scaled(ax, k, pow10):
    """ax * 10^(17 - k) as h + t: h the rounded product, t its remainder
    to about 1e-13 (Dekker's exact product against 10^p's hi half)."""
    hi, lo, hi_h, hi_l = (tab[17 - k - _P_MIN] for tab in pow10)
    c = _SPLIT * ax
    xh = c - (c - ax)
    xl = ax - xh
    h = ax * hi
    err = ((xh * hi_h - h) + xh * hi_l + xl * hi_h) + xl * hi_l
    return h, err + ax * lo


def _format_block(block: np.ndarray) -> str:
    """CSV rows of a 2-D float64 block, each value as '%.17e' % value.

    Each value becomes 18 digits D = round(|x| 10^(17 - k)) with
    k = floor(log10 |x|), laid out in a 28-byte cell of 7 uint32
    words. A value whose scaled remainder lies within 1e-6 of 1/2, or
    whose D is not strictly between 10^17 and 10^18 (a power of ten, a
    carry or a decade misjudged by log10), and a value that is not
    finite or lies outside [1e-280, 1e280] apart from zero, is
    formatted by '%' instead, so no rounding is decided on an estimate.
    """
    pow10, quads, lead, exp_head, exp_tail = _format_tables()
    rows, cols = block.shape
    x = block.ravel()
    ax = np.abs(x)
    in_range = (ax >= 1e-280) & (ax <= 1e280)
    work = np.where(in_range, ax, 1.0)
    k = np.floor(np.log10(work)).astype(np.int64)
    h, t = _scaled(work, k, pow10)
    whole = np.floor(t)
    frac = t - whole
    d = h.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    unsure = (np.abs(frac - 0.5) < 1e-6) | (d <= 10**17) | (d >= 10**18)
    vector = in_range & ~unsure
    slow = np.flatnonzero(~vector & (ax != 0.0))
    d[~vector] = 0  # zeros print as 0.00000000000000000e+00, '%' rewrites the rest
    k[~vector] = 0
    head, rest = np.divmod(d, 10**16)
    upper, lower = np.divmod(rest, 10**8)
    words = np.empty((x.size, 7), dtype=np.uint32)
    words[:, 0] = lead[head + 100 * np.signbit(x)]
    for col, part in ((1, upper), (3, lower)):
        hi4, lo4 = np.divmod(part, 10**4)
        words[:, col] = quads[hi4]
        words[:, col + 1] = quads[lo4]
    words[:, 5] = exp_head[k + _K_MAX]
    words[:, 6] = exp_tail[k + _K_MAX]
    cells = words.view(np.uint8)
    cells.reshape(rows, cols, 28)[:, -1, 25] = ord("\n")
    for i in slow.tolist():
        text = ("%.17e" % float(x[i])).encode("ascii")
        cells[i, :25] = 0
        cells[i, : len(text)] = np.frombuffer(text, dtype=np.uint8)
    return cells.tobytes().translate(None, b"\0").decode("ascii")


def write_waveform_csv(result: stepper.WaveformResult, fh) -> None:
    """Write the header time,<names> and one row per sample time.

    Every value, the time first, is exactly the text Python's
    '%.17e' % value prints, so parsing it restores the float64 bytes.
    Rows are formatted in blocks of about _BLOCK_CELLS values.
    """
    fh.write("time," + ",".join(result.names) + "\n")
    step = max(1, _BLOCK_CELLS // (1 + result.n))
    for a in range(0, result.times.size, step):
        block = np.column_stack((result.times[a : a + step], result.states[a : a + step]))
        fh.write(_format_block(block))


@contextlib.contextmanager
def _open_out(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _load_system(path: str) -> netlist.CircuitSystem:
    """Read a UTF-8 netlist file, with or without a byte-order mark, and
    build its system. A byte that is not UTF-8 is a NetlistError on the
    line that holds it."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        # The bytes before the bad one decode; the sentinel stands in for
        # it, so the line count is the parser's splitlines() count.
        head = exc.object[: exc.start].decode("utf-8") + "?"
        raise NetlistError(
            f"not UTF-8: byte 0x{exc.object[exc.start]:02x} ({exc.reason})",
            len(head.splitlines()),
        ) from exc
    return netlist.build_system(text)


def _add_solver_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--h", type=_value, help="fixed step for tr/be, e.g. 10ps")
    e_tol = stepper.SolverConfig.e_tol
    p.add_argument(
        "--etol",
        type=_value,
        default=e_tol,
        help=f"absolute error budget over the span (default {e_tol:g})",
    )
    p.add_argument(
        "--mmax",
        type=int,
        default=krylov.DEFAULT_M_MAX,
        help=f"basis dimension cap (default {krylov.DEFAULT_M_MAX})",
    )
    p.add_argument("--tstart", type=_value, help="override the netlist start time")
    p.add_argument("--tstop", type=_value, help="override the netlist stop time")


def _make_config(args, solver: str) -> stepper.SolverConfig:
    return stepper.SolverConfig(
        method=solver,
        h=args.h,
        e_tol=args.etol,
        m_max=args.mmax,
        t_start=args.tstart,
        t_stop=args.tstop,
    )


def _cost_block(cost: stepper.RunCost) -> dict[str, int]:
    """A run's substitution pairs, in total and by factor, its drive
    rank and its m_peak."""
    return {
        "substitution_pairs": cost.substitution_pairs,
        "g_pairs": cost.g_pairs,
        "c_pairs": cost.c_pairs,
        "shift_pairs": cost.shift_pairs,
        "drive_rank": cost.drive_rank,
        "m_peak": cost.m_peak,
    }


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
            "workers": run.workers,
            **_cost_block(merged),
            "critical_path_pairs": run.critical_path_pairs,
            "factorizations": merged.factorizations,
            "wall_time": merged.wall_time,
            "m_average": merged.m_average,
            "samples": int(merged.times.size),
            "subtasks": [
                {
                    "group": g,
                    "sources": run.plan.groups[g],
                    **_cost_block(r),
                    "local_transitions": int(run.plan.group_lts[g].size),
                    "reused_steps": r.reused_steps,
                }
                for g, r in enumerate(run.subtasks)
            ],
            "steps": [dataclasses.asdict(s) for s in merged.steps],
        }
        with _open_out(args.diag) as fh:
            json.dump(diag, fh, indent=2)
            fh.write("\n")
    return 0


def _oracle(system, args, span) -> tuple[stepper.WaveformResult, float]:
    """Backward-Euler reference over span at h and its own error in percent.

    Backward Euler is first order, so its run at 2h deviates from its
    run at h by about the error of the run at h; that deviation is the
    reference's own error.
    """
    t0, t1 = span
    h = args.oracle_h
    if h is not None and h <= 0:
        raise ValueError(f"oracle step {h!r} must be positive")
    if h is None:
        spots = stepper.active_transitions(system, t0, t1)
        pts = stepper.stepping_points(t0, t1, spots)
        h = float(np.diff(pts).min()) / 100.0
    half_count = (t1 - t0) / (2 * h)
    if not np.isfinite(half_count):
        raise ValueError(f"oracle step {h!r} is too small for the span {t1 - t0!r}")
    steps = 2 * max(1, int(round(half_count)))
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
    # Reject a bad configuration before the reference run, which can
    # take far longer than the solvers compared; all share one span.
    configs = [_make_config(args, solver) for solver in solvers]
    for config in configs:
        span = stepper.resolve_span(system, config)
    oracle, oracle_err = _oracle(system, args, span)
    limit = RESOLVED_FACTOR * oracle_err
    rows = []
    for solver, config in zip(solvers, configs):
        try:
            result = stepper.solve_transient(system, config)
            err = stepper.waveform_error(result, oracle)
            rows.append(
                {
                    "solver": solver,
                    "m_average": round(result.m_average, 3),
                    **_cost_block(result),
                    "factorizations": result.factorizations,
                    "error_pct": float(err),
                    "resolved": bool(err >= limit),
                    "wall_time": result.wall_time,
                }
            )
        except NumericalError as exc:
            rows.append({"solver": solver, "failed": str(exc)})
    # A report on stdout has it to itself; the table goes to stderr.
    say = functools.partial(print, file=sys.stderr if args.report == "-" else sys.stdout)
    say(f"reference error: {oracle_err:.8f} % (backward Euler at 2h against h)")
    say(
        f"{'solver':8s} {'m_avg':>8s} {'m_peak':>6s} {'pairs':>10s} "
        f"{'factor':>6s} {'err_pct':>14s} {'wall_s':>10s}"
    )
    for row in rows:
        if "failed" in row:
            say(f"{row['solver']:8s} failed: {row['failed']}")
            continue
        err = f"{row['error_pct']:.8f}" if row["resolved"] else f"<{limit:.8f}"
        say(
            f"{row['solver']:8s} {row['m_average']:8.3f} {row['m_peak']:6d} "
            f"{row['substitution_pairs']:10d} {row['factorizations']:6d} "
            f"{err:>14s} {row['wall_time']:10.4f}"
        )
    if args.report:
        oracle_h = float(np.diff(oracle.times)[0])
        report = {"oracle_h": oracle_h, "oracle_error_pct": oracle_err, "rows": rows}
        with _open_out(args.report) as fh:
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
    p_sim.add_argument(
        "--solver",
        choices=stepper.METHODS,
        default="rmatex",
        help="integration method (default rmatex)",
    )
    _add_solver_args(p_sim)
    p_sim.add_argument(
        "--groups",
        type=int,
        help="max source groups for superposition: one per distinct spot-time "
        "set, packed into this many if there are more; at most --workers when "
        "that is above 1; exponential methods only (default one per worker)",
    )
    p_sim.add_argument(
        "--workers",
        type=int,
        default=1,
        help="processes that run the source groups once the operator is factored, "
        "one group each (POSIX fork; default 1, in this process)",
    )
    p_sim.add_argument("--out", default="-", help="CSV output path (default stdout)")
    p_sim.add_argument(
        "--diag", help="JSON diagnostics output path (- for stdout, with --out a file)"
    )
    p_sim.set_defaults(func=cmd_simulate)

    # No abbreviations: --solver would otherwise be read as --solvers.
    p_cmp = sub.add_parser(
        "compare", help="run several solvers, tabulate cost and error", allow_abbrev=False
    )
    p_cmp.add_argument("netlist", help="netlist file path")
    p_cmp.add_argument(
        "--solvers",
        default="tr,rmatex",
        help="comma-separated methods, in place of simulate's --solver (default tr,rmatex)",
    )
    _add_solver_args(p_cmp)
    p_cmp.add_argument("--oracle-h", type=_value, dest="oracle_h",
                       help="reference step (default: min spot gap / 100)")
    p_cmp.add_argument("--report", help="JSON report path (- for stdout, table to stderr)")
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
    if args.command == "simulate" and args.out == args.diag == "-":
        parser.error("--out and --diag cannot both be - (stdout)")
    if (
        args.command == "simulate"
        and args.diag is not None
        and "-" not in (args.out, args.diag)
        and os.path.realpath(args.out) == os.path.realpath(args.diag)
    ):
        parser.error(f"--out and --diag name the same file ({args.diag})")
    try:
        return args.func(args)
    except NetlistError as exc:
        print(f"netlist error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, ValueError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
