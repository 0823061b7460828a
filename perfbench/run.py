"""The expsim benchmark: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload grid10k-rmatex --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --summary

Each run is a closed loop with one client: it repeats the workload's
user path (parse the netlist, solve, and for the rmatex workloads in
one group write the waveform CSV and diagnostics JSON through
``expsim.cli``) for --seconds, then checks every result against a
reference computed with scipy alone (perfbench/reference.py) and
prints the result as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; their times
are scaled by the host speed measured around each pass (HostClock).
--trace 1 alternates untraced and traced passes: spans around the
program's public functions give the per-layer metrics, and the two
kinds of pass the tracing overhead. The line before the result carries
the environment, the waveform digest, the accuracy figures, the
measured seconds and, with --trace 1, the full per-layer table. Every
result is also appended to .perfbench/results.jsonl, which --summary
reads; traces are written to .perfbench/trace-<workload>-<seed>.json.
Why each workload exists is in perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse.linalg as spla

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))
import meshes  # noqa: E402
from spans import Tracer  # noqa: E402

E_TOL = 1e-6
# TR's peak error measured 0.080-0.117 % (grid10k-tr) and 0.114-0.128 %
# (grid40k-tr) over seeds 1-10 at the seed commit; a TR that lands above
# this bound is broken, not noisy.
TR_ERROR_BOUND_PCT = 0.2
# The reference must be at least this many times more accurate than
# every error it judges.
REF_MARGIN = 10.0
SETUP_SAMPLES = 3
REF_TIMEOUT_S = 150
# Gated times are scaled to a host on which HostClock.calibrate() takes
# this long; see HostClock.
CAL_NOMINAL_S = 0.2


class OperationFailed(Exception):
    """The program refused or failed one pass of the user path."""


@dataclass(frozen=True)
class Workload:
    side: int
    sources: int
    shapes: int
    method: str
    groups: int = 1
    workers: int = 1
    h: float | None = None
    cli: bool = False


# The gated workloads, listed in BENCHMARK.json, run on 100x100 grids.
# grid40k-* run the same paths on the ROADMAP's 200x200 mesh for
# manual measurements; see NOTES.md for why they are not gated.
WORKLOADS = {
    "grid10k-rmatex": Workload(100, 12, 3, "rmatex", cli=True),
    "grid10k-groups": Workload(100, 32, 8, "rmatex", groups=8, workers=2),
    "grid10k-tr": Workload(100, 12, 3, "tr", h=1e-12),
    "grid40k-rmatex": Workload(200, 12, 3, "rmatex", cli=True),
    "grid40k-tr": Workload(200, 12, 3, "tr", h=1e-12),
}


def environment() -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


def import_program():
    src = ROOT / "src"
    if not (src / "expsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no expsim package under {src}")
    sys.path.insert(0, str(src))
    from expsim import cli, decomp, errors, krylov, netlist, numkit, stepper

    return cli, decomp, errors, krylov, netlist, numkit, stepper


def reference_for(wl: Workload, seed: int) -> Path:
    """Path of the cached reference (times, states, uncertainty) .npz.

    Computed in a child process, so its memory stays out of this
    process's peak resident size. The cache key covers the generator
    and reference sources, which the program under test cannot change.
    """
    digest = hashlib.sha256()
    for name in ("meshes.py", "reference.py"):
        digest.update((HERE / name).read_bytes())
    path = WORK / (
        f"ref-{wl.side}-{wl.sources}-{wl.shapes}-{seed}-{digest.hexdigest()[:12]}.npz"
    )
    if not path.exists():
        cmd = [
            sys.executable, str(HERE / "reference.py"),
            "--side", str(wl.side), "--sources", str(wl.sources),
            "--shapes", str(wl.shapes), "--seed", str(seed), "--out", str(path),
        ]
        subprocess.run(cmd, check=True, timeout=REF_TIMEOUT_S)
    return path


class HostClock:
    """Measures how fast the host runs right now.

    On a shared 2-vCPU Xeon virtual machine the same pass ran up to
    1.8 times slower in phases lasting seconds to minutes, so the
    median of one run depended on the phase it fell in: over ten seeds
    the grid10k-tr median solve_s spread 29 % (IQR over median). A fixed
    kernel of sparse solves and string splitting, independent of the
    program, is timed before and after every pass; the pass's times are
    divided by the mean of the two over CAL_NOMINAL_S, which is about
    what the kernel takes on that host in a quiet phase. Over ten seeds
    this took the spread of the run medians of solve_s from 19 % to 6 %
    (grid10k-rmatex) and from 38 % to 5 % (grid10k-tr).

    The kernel runs on one thread, so it tracks single-threaded work:
    set-up everywhere, and whole passes of workloads with one worker.
    On grid10k-groups, whose 2 workers keep both cores busy, scaling the
    pass by it widened the spread from 11 % to 27 %, and scaling by the
    same kernel on 2 threads did not beat the raw times either; those
    passes are reported as measured. The measured seconds and the
    factors are printed on the info line.
    """

    def __init__(self):
        mesh = meshes.grid_mesh(100, 1, 1, seed=0)
        self._lu = spla.splu((mesh.g + mesh.c / 1e-12).tocsc())
        self._rhs = np.ones(mesh.n)
        self._lines = mesh.text.splitlines()

    def calibrate(self) -> float:
        t0 = time.perf_counter()
        for _ in range(200):
            self._lu.solve(self._rhs)
        for line in self._lines:
            line.split()
        return time.perf_counter() - t0


def to_fs(t) -> np.ndarray:
    return np.round(np.asarray(t) / 1e-15).astype(np.int64)


class Bench:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        (self.cli, self.decomp, self.errors, self.krylov, self.netlist,
         self.numkit, self.stepper) = import_program()
        self.mesh = meshes.grid_mesh(self.wl.side, self.wl.sources, self.wl.shapes, seed)
        WORK.mkdir(exist_ok=True)
        self.netlist_path = WORK / f"{name}-{seed}.sp"
        self.csv_path = WORK / f"{name}-{seed}.csv"
        self.diag_path = WORK / f"{name}-{seed}.json"
        self.netlist_path.write_text(self.mesh.text)
        self.ref_path = reference_for(self.wl, seed)
        with np.load(self.ref_path) as z:
            self.ref_fs = to_fs(z["times"])
        self.peak_rss_mb = None
        self.clock = HostClock()
        self.config = self.stepper.SolverConfig(method=self.wl.method, h=self.wl.h, e_tol=E_TOL)
        self.solve_name = "stepper.solve_transient" if self.wl.method == "tr" else "decomp.run_superposed"

    # -- tracing targets -------------------------------------------------

    def stage_targets(self) -> dict:
        """The few spans the end-to-end stage times need."""
        return {
            "cli.main": (self.cli, "main"),
            "netlist.build_system": (self.netlist, "build_system"),
            "decomp.run_superposed": (self.decomp, "run_superposed"),
            "stepper.solve_transient": (self.stepper, "solve_transient"),
            "cli.write_waveform_csv": (self.cli, "write_waveform_csv"),
        }

    def layer_targets(self) -> dict:
        import scipy.linalg

        nl, nk, kr, st, dc = self.netlist, self.numkit, self.krylov, self.stepper, self.decomp
        return {
            **self.stage_targets(),
            "netlist.parse_netlist": (nl, "parse_netlist"),
            "netlist.stamp_mna": (nl, "stamp_mna"),
            "netlist.dc_analysis": (nl, "dc_analysis"),
            "netlist.CircuitSystem.eval_sources": (nl.CircuitSystem, "eval_sources"),
            "numkit.lu_factorize": (nk, "lu_factorize"),
            "numkit.LuFactors.solve": (nk.LuFactors, "solve"),
            "krylov.arnoldi": (kr, "arnoldi"),
            "krylov.VariantOperator.apply": (kr.VariantOperator, "apply"),
            "krylov.VariantOperator.ode_apply": (kr.VariantOperator, "ode_apply"),
            "krylov.step_error_estimate": (kr, "step_error_estimate"),
            "krylov.expm_action": (kr, "expm_action"),
            "scipy.linalg.expm": (scipy.linalg, "expm"),
            "stepper.solve_transient_matex": (st, "solve_transient_matex"),
            "stepper.solve_transient_tr": (st, "solve_transient_tr"),
            "decomp.build_plan": (dc, "build_plan"),
        }

    # -- one operation ---------------------------------------------------

    def operate(self, tracer: Tracer):
        """One pass of the user path; returns (stage times, waveform)."""
        tracer.clear()
        t0 = time.perf_counter()
        if self.wl.cli:
            argv = [
                "simulate", str(self.netlist_path), "--solver", self.wl.method,
                "--groups", str(self.wl.groups), "--workers", str(self.wl.workers),
                "--out", str(self.csv_path), "--diag", str(self.diag_path),
            ]
            code = self.cli.main(argv)
            if code != 0:
                raise OperationFailed(f"expsim simulate exited with {code}")
        else:
            system = self.netlist.build_system(self.mesh.text)
            if self.wl.method == "tr":
                self.stepper.solve_transient(system, self.config)
            else:
                self.decomp.run_superposed(
                    system, self.config, workers=self.wl.workers, max_groups=self.wl.groups
                )
        wall = time.perf_counter() - t0
        spans = tracer.spans
        build = next(s for s in spans if s.name == "netlist.build_system")
        solve = next(s for s in spans if s.name == self.solve_name)
        stages = {"wall_s": wall, "setup_s": build.duration, "solve_s": solve.duration}
        if self.wl.cli:
            main = next(s for s in spans if s.name == "cli.main")
            stages["output_s"] = main.end - solve.end
        return stages, tracer.last[self.solve_name]

    def waveform(self, run):
        return run if self.wl.method == "tr" else run.merged

    # -- correctness -----------------------------------------------------

    def sampled(self, wave):
        """Program states at the reference grid points, in node order,
        and whether those points hold every input corner."""
        fs = to_fs(wave.times)
        common, i_prog, i_ref = np.intersect1d(fs, self.ref_fs, return_indices=True)
        has_corners = np.setdiff1d(to_fs(self.mesh.corners()), common).size == 0
        node = np.array([int(name[2:-1]) - 1 for name in wave.names])
        states = np.empty((common.size, self.mesh.n))
        states[:, node] = wave.states[i_prog]
        return i_ref, states, has_corners

    def judge(self, i_ref, states, has_corners) -> dict:
        with np.load(self.ref_path) as z:
            ref_states, ref_unc = z["states"], z["uncertainty"]
        peak = float(np.abs(ref_states).max())
        dev = states - ref_states[i_ref]
        error_pct = float(np.abs(dev).max()) / peak * 100.0
        unc_pct = float(ref_unc[i_ref].max()) / peak * 100.0
        checks = {
            "samples_hold_corners": bool(has_corners),
            "reference_margin": unc_pct * REF_MARGIN <= error_pct,
        }
        norm2 = float(np.linalg.norm(dev, axis=1).max())
        if self.wl.method == "tr":
            checks["tr_error_bound"] = error_pct <= TR_ERROR_BOUND_PCT
        else:
            checks["e_tol_per_sample"] = norm2 <= E_TOL
        return {
            "error_pct": error_pct,
            "ref_uncertainty_pct": unc_pct,
            "max_error_2norm": norm2,
            "samples_compared": int(i_ref.size),
            "checks": checks,
        }

    # -- the measured loop -----------------------------------------------

    def loop(self, seconds: float, tracer: Tracer, on_op=None):
        """Repeat the path at least once and while another pass is
        expected to end within `seconds`, give or take half a pass."""
        ops = []
        t_start = time.perf_counter()
        last = 0.0
        cal = self.clock.calibrate()
        while not ops or time.perf_counter() - t_start + last / 2.0 < seconds:
            t_op = time.perf_counter()
            op = {"ok": True}
            try:
                stages, run = self.operate(tracer)
            except (self.errors.NumericalError, OperationFailed) as exc:
                ops.append({"ok": False, "error": str(exc)})
                last = time.perf_counter() - t_op
                cal = self.clock.calibrate()
                continue
            cal_before, cal = cal, self.clock.calibrate()
            op["host"] = (cal_before + cal) / 2.0 / CAL_NOMINAL_S
            wave = self.waveform(run)
            op["stages"] = stages
            op["finite"] = bool(np.isfinite(wave.states).all() and np.isfinite(wave.times).all())
            op["digest"] = hashlib.sha256(wave.times.tobytes() + wave.states.tobytes()).hexdigest()[:16]
            op["pairs"] = int(wave.substitution_pairs)
            op["factorizations"] = int(wave.factorizations)
            if not ops or op["digest"] != ops[0].get("digest"):
                op["sampled"] = self.sampled(wave)
            if on_op is not None:
                op["layers"] = on_op(run, wave, stages)
            del run, wave
            ops.append(op)
            last = time.perf_counter() - t_op
            if self.peak_rss_mb is None:
                # The first pass's high-water mark, before the benchmark
                # holds more than one pass's bookkeeping.
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return ops

    def pass_scale(self, op: dict) -> float:
        """What a pass's wall and solve times are divided by."""
        return op["host"] if self.wl.workers == 1 else 1.0

    def setup_samples(self, n: int) -> list[tuple[float, float]]:
        """n (seconds, host factor) samples of build_system."""
        out = []
        cal = self.clock.calibrate()
        for _ in range(n):
            t0 = time.perf_counter()
            self.netlist.build_system(self.mesh.text)
            dt = time.perf_counter() - t0
            cal_before, cal = cal, self.clock.calibrate()
            out.append((dt, (cal_before + cal) / 2.0 / CAL_NOMINAL_S))
        return out


def median(values):
    return float(statistics.median(values))


def judge_ops(bench: Bench, ops: list[dict]):
    """Mark each op failed or not; returns (failed, judgement of op 0)."""
    verdicts = {}
    for op in ops:
        if "sampled" in op:
            verdicts[op["digest"]] = bench.judge(*op.pop("sampled"))
    first = next((op for op in ops if op["ok"]), None)
    if first is None:
        raise SystemExit(f"error: every operation failed: {ops[0]['error']}")
    failed = 0
    for op in ops:
        ok = op["ok"] and op["finite"] and op["digest"] == first["digest"]
        ok = ok and all(verdicts[op["digest"]]["checks"].values())
        failed += not ok
    return failed, verdicts[first["digest"]], first


def end_to_end(bench: Bench, seconds: float):
    tracer = Tracer(bench.stage_targets())
    with tracer:
        setup = bench.setup_samples(SETUP_SAMPLES - 1)
        ops = bench.loop(seconds, tracer)
    failed, verdict, first = judge_ops(bench, ops)
    good = [op for op in ops if op["ok"]]
    setup += [(op["stages"]["setup_s"], op["host"]) for op in good]

    def med(key):
        return median([op["stages"][key] / bench.pass_scale(op) for op in good])

    metrics = {
        "wall_s": (med("wall_s"), "s"),
        "setup_s": (median([t / f for t, f in setup]), "s"),
        "solve_s": (med("solve_s"), "s"),
        "pairs": (first["pairs"], "count"),
        "factorizations": (first["factorizations"], "count"),
        "peak_rss_mb": (bench.peak_rss_mb, "MB"),
    }
    extra = {
        "output_s": med("output_s") if bench.wl.cli else None,
        "failed_frac": failed / len(ops),
        "ops": len(ops),
        "measured_s": {
            "wall_s": [op["stages"]["wall_s"] for op in good],
            "solve_s": [op["stages"]["solve_s"] for op in good],
            "setup_s": [t for t, _ in setup],
        },
        "host_factor": {
            "ops": [op["host"] for op in good],
            "setup": [f for _, f in setup],
        },
    }
    return ops, failed, verdict, first, metrics, extra


# -- per-layer metrics from spans -------------------------------------------

# Span name -> what its info dict keeps from the call's result.
LAYER_INFO = {
    "krylov.arnoldi": lambda b: {
        "m": int(b.m),
        "by_estimate": b.estimate_kind in ("exact", "empirical"),
    },
}

CALLERS = {
    "krylov.VariantOperator.apply": "operator",
    "krylov.VariantOperator.ode_apply": "estimate",
    "netlist.dc_analysis": "dc",
    "stepper.solve_transient_tr": "fixed",
    "stepper.solve_transient_matex": "input",
}
CALLER_NAMES = ("operator", "input", "fixed", "estimate", "dc")
# Span name -> the layer metric its self time is booked to.
SELF_BOOK = {
    "netlist.parse_netlist": "netlist.parse_s",
    "netlist.stamp_mna": "netlist.stamp_s",
    "netlist.CircuitSystem.eval_sources": "netlist.eval_sources_s",
    "numkit.lu_factorize": "numkit.factor_s",
    "numkit.LuFactors.solve": "numkit.solve_s",
    "krylov.arnoldi": "krylov.arnoldi_self_s",
    "krylov.VariantOperator.apply": "krylov.apply_s",
    "krylov.step_error_estimate": "krylov.estimate_s",
    "krylov.VariantOperator.ode_apply": "krylov.estimate_s",
    "krylov.expm_action": "krylov.action_s",
    "scipy.linalg.expm": "krylov.small_expm_s",
    "stepper.solve_transient": "stepper.self_s",
    "stepper.solve_transient_matex": "stepper.self_s",
    "stepper.solve_transient_tr": "stepper.self_s",
    "decomp.run_superposed": "decomp.self_s",
    "decomp.build_plan": "decomp.plan_s",
    "cli.write_waveform_csv": "cli.write_csv_s",
}


def layers_of(bench: Bench, tracer: Tracer, wave, stages) -> dict:
    spans = tracer.spans
    selfs = tracer.self_times()
    solve_idx = next(i for i, s in enumerate(spans) if s.name == bench.solve_name)
    solve = spans[solve_idx]
    m = {k: 0.0 for k in set(SELF_BOOK.values())}
    counts = {k: 0 for k in (
        "netlist.eval_sources_calls", "numkit.factor_calls", "numkit.solve_calls",
        "krylov.bases", "krylov.apply_calls", "krylov.estimate_calls",
        "krylov.small_expm_calls",
    )}
    for c in CALLER_NAMES:
        counts[f"numkit.solve_calls.{c}"] = 0
        m[f"numkit.solve_s.{c}"] = 0.0
    arnoldi_s = 0.0
    estimates_in_arnoldi = 0
    builds_by_estimate = 0
    dims = []
    booked_in_solve = 0.0
    group_spans = []
    for i, s in enumerate(spans):
        anc = list(tracer.ancestors(i))
        names = [spans[a].name for a in anc]
        inside = i == solve_idx or solve_idx in anc
        book = SELF_BOOK.get(s.name)
        if book is not None:
            m[book] += selfs[i]
        if inside and book is not None:
            booked_in_solve += selfs[i]
        if s.name == "netlist.CircuitSystem.eval_sources":
            counts["netlist.eval_sources_calls"] += 1
        elif s.name == "numkit.lu_factorize":
            counts["numkit.factor_calls"] += 1
        elif s.name == "numkit.LuFactors.solve":
            counts["numkit.solve_calls"] += 1
            caller = next((CALLERS[n] for n in names if n in CALLERS), None)
            if caller is not None:
                counts[f"numkit.solve_calls.{caller}"] += 1
                m[f"numkit.solve_s.{caller}"] += s.duration
        elif s.name == "krylov.arnoldi":
            counts["krylov.bases"] += 1
            arnoldi_s += s.duration
            dims.append(s.info.get("m", 0))
            builds_by_estimate += bool(s.info.get("by_estimate"))
        elif s.name == "krylov.VariantOperator.apply":
            counts["krylov.apply_calls"] += 1
        elif s.name == "krylov.step_error_estimate":
            counts["krylov.estimate_calls"] += 1
            estimates_in_arnoldi += "krylov.arnoldi" in names
        elif s.name == "scipy.linalg.expm":
            counts["krylov.small_expm_calls"] += 1
        elif s.name == "stepper.solve_transient" and anc and anc[0] == solve_idx:
            group_spans.append(s)
    out = {**m, **counts}
    n_solve = counts["numkit.solve_calls"]
    out["numkit.solve_us"] = m["numkit.solve_s"] / n_solve * 1e6 if n_solve else 0.0
    for c in CALLER_NAMES:
        k = counts[f"numkit.solve_calls.{c}"]
        out[f"numkit.solve_us.{c}"] = m[f"numkit.solve_s.{c}"] / k * 1e6 if k else 0.0
    out["krylov.arnoldi_s"] = arnoldi_s
    out["krylov.estimate_hit_ratio"] = (
        builds_by_estimate / estimates_in_arnoldi if estimates_in_arnoldi else 0.0
    )
    out["krylov.m_avg"] = float(np.mean(dims)) if dims else 0.0
    out["krylov.m_peak"] = int(max(dims)) if dims else 0
    if bench.wl.method == "tr":
        steps, reused = wave.times.size - 1, 0
        tr = next(s for s in spans if s.name == "stepper.solve_transient_tr")
        fixed = tr.duration - sum(
            s.duration for i, s in enumerate(spans)
            if s.name in ("numkit.lu_factorize", "netlist.dc_analysis")
            and s.parent is not None and spans[s.parent] is tr
        )
        out["stepper.fixed_step_us"] = fixed / steps * 1e6
    else:
        steps, reused = len(wave.steps), wave.reused_steps
        out["stepper.fixed_step_us"] = 0.0
    out["stepper.steps"] = steps
    out["stepper.reused_steps"] = reused
    out["stepper.reuse_ratio"] = reused / steps if steps else 0.0
    if group_spans:
        g = [s.duration for s in group_spans]
        out["decomp.groups"] = len(g)
        out["decomp.group_s_max"] = max(g)
        out["decomp.group_s_mean"] = float(np.mean(g))
        out["decomp.merge_s"] = solve.end - max(s.end for s in group_spans)
        out["decomp.parallel_eff"] = sum(g) / (bench.wl.workers * solve.duration)
    else:
        for k in ("groups", "group_s_max", "group_s_mean", "merge_s", "parallel_eff"):
            out[f"decomp.{k}"] = 0.0
    out["cli.csv_mb"] = bench.csv_path.stat().st_size / 1e6 if bench.wl.cli else 0.0
    workers_busy = sum(s.duration for s in group_spans if s.thread != solve.thread)
    out["trace.solve_s"] = solve.duration
    out["trace.solve_busy_s"] = solve.duration + workers_busy
    out["trace.op_busy_s"] = stages["wall_s"] + workers_busy
    out["trace.accounted_pct"] = booked_in_solve / out["trace.solve_busy_s"] * 100.0
    return out


# Per-layer times that some workload never exercises are reported in the
# result line as shares of the operation's thread-busy time (unit %), so
# a layer that does not run reads 0 % rather than a constant 0 s. Their
# seconds are in the full table on the line before.
SHARES = {
    "numkit.solve_operator_pct": "numkit.solve_s.operator",
    "numkit.solve_input_pct": "numkit.solve_s.input",
    "numkit.solve_fixed_pct": "numkit.solve_s.fixed",
    "numkit.solve_estimate_pct": "numkit.solve_s.estimate",
    "numkit.solve_dc_pct": "numkit.solve_s.dc",
    "krylov.arnoldi_self_pct": "krylov.arnoldi_self_s",
    "krylov.apply_pct": "krylov.apply_s",
    "krylov.estimate_pct": "krylov.estimate_s",
    "krylov.small_expm_pct": "krylov.small_expm_s",
    "krylov.action_pct": "krylov.action_s",
    "decomp.plan_pct": "decomp.plan_s",
    "decomp.self_pct": "decomp.self_s",
    "cli.write_csv_pct": "cli.write_csv_s",
}


def traced(bench: Bench, seconds: float):
    """Untraced and traced passes in turn, for `seconds` (one pair at
    least); the untraced ones are the overhead's baseline."""
    plain = Tracer(bench.stage_targets())
    full = Tracer(bench.layer_targets(), LAYER_INFO)
    spans_out = []

    def on_op(run, wave, stages):
        spans_out.append(full.to_json())
        return layers_of(bench, full, wave, stages)

    base_ops, ops = [], []
    t_start = time.perf_counter()
    pair = 0.0
    while not ops or time.perf_counter() - t_start + pair / 2.0 < seconds:
        t_pair = time.perf_counter()
        with plain:
            base_ops += bench.loop(0.0, plain)
        with full:
            ops += bench.loop(0.0, full, on_op=on_op)
        pair = time.perf_counter() - t_pair
    failed, verdict, first = judge_ops(bench, base_ops + ops)
    good = [op for op in ops if op["ok"]]
    layers = {k: median([op["layers"][k] for op in good]) for k in good[0]["layers"]}
    untraced = median([op["stages"]["wall_s"] / bench.pass_scale(op) for op in base_ops if op["ok"]])
    traced_wall = median([op["stages"]["wall_s"] / bench.pass_scale(op) for op in good])
    layers["trace.overhead_pct"] = (traced_wall - untraced) / untraced * 100.0
    trace_path = WORK / f"trace-{bench.name}-{bench.seed}.json"
    trace_path.write_text(json.dumps({"workload": bench.name, "seed": bench.seed, "ops": spans_out}))
    return base_ops + ops, failed, verdict, first, layers


def per_layer_metrics(layers: dict, units: dict) -> dict:
    busy = layers["trace.op_busy_s"]
    return {
        name: (layers[SHARES[name]] / busy * 100.0 if name in SHARES else layers[name], unit)
        for name, unit in units.items()
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="expsim benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--summary", action="store_true", help="print speedup_vs_tr from stored results")
    args = ap.parse_args(argv)
    if args.summary:
        return summary()
    if args.workload is None:
        ap.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bench = Bench(args.workload, args.seed)
    if args.trace:
        ops, failed, verdict, first, layers = traced(bench, args.seconds)
        metrics = per_layer_metrics(layers, {m["name"]: m["unit"] for m in spec["per_layer"]})
        extra = {"layers": layers}
    else:
        ops, failed, verdict, first, metrics, extra = end_to_end(bench, args.seconds)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        if units != {k: u for k, (_, u) in metrics.items()}:
            raise SystemExit("error: end-to-end metrics disagree with BENCHMARK.json")
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "digest": first["digest"],
        "failed_frac": failed / len(ops),
        **verdict,
        **extra,
    }
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(WORK / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"info": info, "result": result}) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


def summary() -> int:
    """speedup_vs_tr per grid size: median solve_s of <grid>-tr over that
    of <grid>-rmatex, reported only when rmatex is at least as accurate."""
    path = WORK / "results.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()] if path.exists() else []
    by = {}
    for row in rows:
        info, res = row["info"], row["result"]
        if info["trace"] == 0 and res["correct"]:
            by.setdefault(info["workload"], []).append(
                (res["metrics"]["solve_s"]["value"], info["error_pct"])
            )
    out = {}
    for name, runs in sorted(by.items()):
        out[name] = {
            "runs": len(runs),
            "solve_s": median([r[0] for r in runs]),
            "error_pct": median([r[1] for r in runs]),
        }
    for grid in ("grid10k", "grid40k"):
        tr, rm = out.get(f"{grid}-tr"), out.get(f"{grid}-rmatex")
        if tr and rm:
            accurate = rm["error_pct"] <= tr["error_pct"]
            out[f"{grid}.speedup_vs_tr"] = tr["solve_s"] / rm["solve_s"] if accurate else None
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
