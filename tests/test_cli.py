"""Command line round trips and exit codes."""

import io
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expsim as es
from expsim import cli, decomp, meshgen, stepper
from expsim.errors import NumericalError
from conftest import MIXED_NETLIST, TWO_SOURCE_NETLIST, read_waveform_csv

def _exit(*argv):
    """The command line as its entry point runs it: the code leaves as SystemExit."""
    return lambda: sys.exit(cli.main(list(argv)))


def _measure_coupled_c():
    system = es.build_system("R1 1 0 1\nR2 2 0 1\nC1 1 2 1p\nC2 2 0 1p\n.END\n")
    meshgen.measure_stiffness(system)


@pytest.fixture()
def netlist_file(tmp_path):
    path = tmp_path / "ladder.sp"
    path.write_text(TWO_SOURCE_NETLIST)
    return str(path)


class TestGenmesh:
    def test_writes_parseable_netlist(self, tmp_path, capsys):
        out = tmp_path / "mesh.sp"
        rc = cli.main(
            ["genmesh", "--n", "30", "--stiffness", "10k", "--seed", "3",
             "--out", str(out)]
        )
        assert rc == 0
        # n is approximate: the generator snaps to a square grid
        system = es.build_system(out.read_text())
        assert 16 <= len(system.names) <= 36
        err = capsys.readouterr().err
        assert "stiffness: measured" in err
        assert "target 1.000000e+04" in err

    def test_stdout_by_default(self, capsys):
        rc = cli.main(["genmesh", "--n", "20", "--stiffness", "1e3", "--seed", "1"])
        assert rc == 0
        captured = capsys.readouterr()
        assert ".TRAN" in captured.out
        assert "stiffness" in captured.err

    def test_secant_step_lands_within_half_a_decade(self, monkeypatch):
        # From sigma = 1 a unit-slope step falls short of 1e9; the secant
        # through both measurements makes the third.
        measured = []
        measure = meshgen.measure_stiffness

        def spy(system):
            measured.append(measure(system))
            return measured[-1]

        monkeypatch.setattr(meshgen, "measure_stiffness", spy)
        mesh = meshgen.generate_mesh_netlist(400, 1e9, seed=1)
        assert len(measured) == 3
        assert mesh.measured_stiffness == measured[-1]
        assert abs(math.log10(mesh.measured_stiffness / 1e9)) <= 0.5

    @pytest.mark.parametrize("tstop", ["0", "-1ns"])
    def test_rejects_non_positive_stop_up_front(self, capsys, tstop):
        rc = cli.main(["genmesh", "--n", "20", "--stiffness", "1e3", f"--tstop={tstop}"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "t_stop must be positive and finite" in err
        assert "netlist error" not in err

    @pytest.mark.parametrize("run,message", [
        pytest.param(_exit("genmesh", "--n", "-5", "--stiffness", "1e3"),
                     "n_nodes must be at least 1, not -5", id="n-negative"),
        pytest.param(_exit("genmesh", "--n", "0", "--stiffness", "1e3"),
                     "n_nodes must be at least 1, not 0", id="n-zero"),
        pytest.param(_exit("genmesh", "--n", "3000", "--stiffness", "1e3"),
                     "3025 nodes exceed the dense calibration cap 2600", id="n-above-cap"),
        pytest.param(_exit("genmesh", "--n", "20", "--stiffness", "0.5"),
                     "stiffness target below 1", id="target-below-1"),
        pytest.param(_exit("genmesh", "--n", "400", "--stiffness", "1e16", "--seed", "7"),
                     "stiffness target 1e+16 is beyond what dense float64 calibration",
                     id="target-1e16"),
        pytest.param(_exit("genmesh", "--n", "20", "--stiffness", "1e300"),
                     "stiffness target 1e+300 is beyond what dense float64 calibration",
                     id="target-1e300"),
        pytest.param(_exit("genmesh", "--n", "20", "--stiffness", "1e3", "--nsrc", "0"),
                     "need at least one source", id="no-sources"),
        pytest.param(_exit("simulate", "x.sp", "--etol", "abc"),
                     "argument --etol: not a number: 'abc'", id="value-not-a-number"),
        pytest.param(_measure_coupled_c, "stiffness needs a diagonal positive C",
                     id="measure-non-diagonal-c"),
    ])
    def test_refusals_name_what_they_refuse(self, capsys, run, message):
        # Command lines exit 2 with the message on stderr; the library
        # call raises it.
        with pytest.raises((SystemExit, NumericalError)) as info:
            run()
        if isinstance(info.value, SystemExit):
            assert info.value.code == 2
            text = capsys.readouterr().err
        else:
            text = str(info.value)
        assert message in text
        assert "netlist error" not in text


class TestSimulate:
    def test_csv_round_trips_exactly(self, netlist_file, tmp_path):
        out = tmp_path / "wave.csv"
        rc = cli.main(
            ["simulate", netlist_file, "--solver", "rmatex", "--etol", "1e-8",
             "--out", str(out)]
        )
        assert rc == 0
        with open(out) as fh:
            times, states, names = read_waveform_csv(fh)

        system = es.build_system(TWO_SOURCE_NETLIST)
        config = stepper.SolverConfig(method="rmatex", e_tol=1e-8)
        ref = decomp.run_superposed(system, config, max_groups=None).merged
        assert names == ref.names
        # %.17e carries full float64 precision, so parsing restores bytes
        assert np.array_equal(times, ref.times)
        assert np.array_equal(states, ref.states)

    def test_stdout_by_default(self, netlist_file, capsys):
        rc = cli.main(["simulate", netlist_file, "--solver", "imatex"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("time,v(1),")
        assert len(lines) > 2

    def test_diag_json(self, netlist_file, tmp_path):
        out = tmp_path / "wave.csv"
        diag_path = tmp_path / "diag.json"
        rc = cli.main(
            ["simulate", netlist_file, "--etol", "1e-8", "--groups", "2",
             "--out", str(out), "--diag", str(diag_path)]
        )
        assert rc == 0
        diag = json.loads(diag_path.read_text())
        assert diag["method"] == "rmatex"
        assert diag["schema"] == 5
        assert diag["workers"] == 1
        assert diag["critical_path_pairs"] == diag["substitution_pairs"]
        assert "input_path" not in diag
        assert diag["e_tol"] == 1e-8
        assert diag["gamma"] > 0
        assert diag["groups"] == 2
        assert diag["substitution_pairs"] > 0
        assert diag["factorizations"] > 0
        assert diag["samples"] >= 2
        groups = [s["group"] for s in diag["subtasks"]]
        assert groups == [0, 1]
        assert sorted(i for s in diag["subtasks"] for i in s["sources"]) == [0, 1]
        for sub in diag["subtasks"]:
            assert {"substitution_pairs", "m_peak", "local_transitions",
                    "reused_steps"} <= sub.keys()
            # one source per group; rmatex's G pairs are the input terms
            assert sub["drive_rank"] == 1 and sub["g_pairs"] == 2
        assert diag["drive_rank"] == 2 and diag["g_pairs"] == 2 * diag["drive_rank"]
        for step in diag["steps"]:
            assert {"t", "h", "m", "estimate", "reused", "estimate_kind",
                    "anchor"} <= step.keys()

    def test_diag_dash_is_stdout(self, netlist_file, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = cli.main(
            ["simulate", netlist_file, "--etol", "1e-8", "--out", "wave.csv",
             "--diag", "-"]
        )
        assert rc == 0
        assert not (tmp_path / "-").exists()
        diag = json.loads(capsys.readouterr().out)
        assert diag["schema"] == 5 and diag["method"] == "rmatex"

    def test_out_and_diag_cannot_share_stdout(self, netlist_file, capsys, monkeypatch):
        # The CSV rows and the JSON would interleave on one stream, so the
        # pair is refused before any solve.
        def no_run(*args, **kwargs):
            raise AssertionError("the run started before the outputs were checked")

        monkeypatch.setattr(decomp, "run_superposed", no_run)
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", netlist_file, "--diag", "-"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--out and --diag cannot both be - (stdout)" in err

    def test_diag_reports_the_workers_and_the_critical_path(self, netlist_file, tmp_path):
        diag_path = tmp_path / "diag.json"
        rc = cli.main(
            ["simulate", netlist_file, "--etol", "1e-8", "--workers", "2",
             "--out", str(tmp_path / "wave.csv"), "--diag", str(diag_path)]
        )
        assert rc == 0
        diag = json.loads(diag_path.read_text())
        # two groups on two workers: each share is one group
        assert diag["groups"] == 2 and diag["workers"] == 2
        pairs = [s["substitution_pairs"] for s in diag["subtasks"]]
        assert diag["critical_path_pairs"] == max(pairs) < diag["substitution_pairs"]

    @pytest.mark.parametrize("workers, groups", [("1", 1), ("2", 2)])
    def test_default_groups_follow_the_workers(self, netlist_file, tmp_path, workers, groups):
        # Two sources with different spots: in one process grouping only
        # adds work, so simulate runs one group unless it forks.
        diag_path = tmp_path / "diag.json"
        rc = cli.main(
            ["simulate", netlist_file, "--workers", workers,
             "--out", str(tmp_path / "wave.csv"), "--diag", str(diag_path)]
        )
        assert rc == 0
        diag = json.loads(diag_path.read_text())
        assert diag["groups"] == groups and diag["workers"] == groups

    def test_groups_over_the_cap_are_packed(self, tmp_path):
        # four spot sets over --groups 2: two packed groups, one per worker
        path = tmp_path / "mixed.sp"
        path.write_text(MIXED_NETLIST)
        diag_path = tmp_path / "diag.json"
        rc = cli.main(
            ["simulate", str(path), "--groups", "2", "--workers", "2",
             "--out", str(tmp_path / "wave.csv"), "--diag", str(diag_path)]
        )
        assert rc == 0
        diag = json.loads(diag_path.read_text())
        assert diag["groups"] == 2 and diag["workers"] == 2
        assert [s["sources"] for s in diag["subtasks"]] == [[0, 1, 5], [2, 3, 4]]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_diag_pairs_are_the_run_total(self, netlist_file, tmp_path, workers):
        # --workers is still accepted; whatever its value, the reported
        # pairs are those of one superposed run.
        diag_path = tmp_path / "diag.json"
        rc = cli.main(
            ["simulate", netlist_file, "--etol", "1e-8", "--workers", workers,
             "--out", str(tmp_path / "wave.csv"), "--diag", str(diag_path)]
        )
        assert rc == 0
        diag = json.loads(diag_path.read_text())
        system = es.build_system(TWO_SOURCE_NETLIST)
        config = stepper.SolverConfig(method="rmatex", e_tol=1e-8)
        run = decomp.run_superposed(system, config, workers=int(workers), max_groups=None)
        assert diag["substitution_pairs"] == run.merged.substitution_pairs
        assert diag["substitution_pairs"] == sum(
            s["substitution_pairs"] for s in diag["subtasks"]
        )

    def test_fixed_step_solver(self, netlist_file, tmp_path):
        out = tmp_path / "wave.csv"
        rc = cli.main(
            ["simulate", netlist_file, "--solver", "tr", "--h", "2ps",
             "--out", str(out)]
        )
        assert rc == 0
        with open(out) as fh:
            times, states, _ = read_waveform_csv(fh)
        assert times.size == 201
        assert states.shape == (201, 5)


class TestCompare:
    def test_table_and_report(self, netlist_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = cli.main(
            ["compare", netlist_file, "--solvers", "tr,rmatex", "--h", "2e-12",
             "--etol", "1e-8", "--oracle-h", "1e-12", "--report", str(report)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "solver" in out and "err_pct" in out
        assert "tr" in out and "rmatex" in out

        data = json.loads(report.read_text())
        assert data["oracle_h"] == pytest.approx(1e-12)
        assert [r["solver"] for r in data["rows"]] == ["tr", "rmatex"]
        # accuracy itself is covered elsewhere; the coarse oracle here
        # only needs to produce a finite, sane percentage
        for row in data["rows"]:
            assert 0.0 <= row["error_pct"] < 20.0
            assert row["substitution_pairs"] > 0
            assert (
                row["g_pairs"] + row["c_pairs"] + row["shift_pairs"]
                == row["substitution_pairs"]
            )

    def test_report_dash_is_stdout(self, netlist_file, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = cli.main(
            ["compare", netlist_file, "--solvers", "tr", "--h", "2e-12",
             "--oracle-h", "1e-12", "--report", "-"]
        )
        assert rc == 0
        assert not (tmp_path / "-").exists()
        captured = capsys.readouterr()
        # The report has stdout to itself; the table goes to stderr.
        data = json.loads(captured.out)
        assert [r["solver"] for r in data["rows"]] == ["tr"]
        assert data["oracle_h"] == pytest.approx(1e-12)
        assert captured.err.startswith("reference error: ")
        assert "err_pct" in captured.err

    def test_default_reference_step(self, netlist_file, tmp_path):
        # Without --oracle-h the reference steps at the smallest corner
        # gap (10 ps here) / 100, rounded to an even step count.
        report = tmp_path / "report.json"
        rc = cli.main(
            ["compare", netlist_file, "--solvers", "tr", "--h", "1e-11",
             "--report", str(report)]
        )
        assert rc == 0
        assert json.loads(report.read_text())["oracle_h"] == pytest.approx(1e-13)

    def test_tr_row_costs_one_undecomposed_run(self, netlist_file, tmp_path):
        report = tmp_path / "report.json"
        rc = cli.main(
            ["compare", netlist_file, "--solvers", "tr", "--h", "2e-12",
             "--oracle-h", "1e-12", "--report", str(report)]
        )
        assert rc == 0
        (row,) = json.loads(report.read_text())["rows"]
        plain = stepper.solve_transient(
            es.build_system(TWO_SOURCE_NETLIST),
            stepper.SolverConfig(method="tr", h=2e-12),
        )
        assert row["substitution_pairs"] == plain.substitution_pairs
        assert row["factorizations"] == plain.factorizations

    @pytest.mark.parametrize("h,resolved", [("2e-11", True), ("2e-12", False)])
    def test_rows_within_the_reference_error_are_unresolved(
        self, netlist_file, tmp_path, capsys, h, resolved
    ):
        # The 1 ps backward-Euler reference is itself about 0.7 % off:
        # tr at 20 ps (8.8 %) is measured against it, tr at 2 ps (0.74 %)
        # is not.
        report = tmp_path / "report.json"
        rc = cli.main(
            ["compare", netlist_file, "--solvers", "tr", "--h", h,
             "--oracle-h", "1e-12", "--report", str(report)]
        )
        assert rc == 0
        data = json.loads(report.read_text())
        oracle_err = data["oracle_error_pct"]
        assert 0.5 < oracle_err < 0.9
        (row,) = data["rows"]
        assert row["resolved"] is resolved
        assert (row["error_pct"] >= cli.RESOLVED_FACTOR * oracle_err) is resolved
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"reference error: {oracle_err:.8f} % (backward Euler at 2h against h)"
        (tr_line,) = [line for line in out if line.startswith("tr ")]
        limit = f"<{cli.RESOLVED_FACTOR * oracle_err:.8f}"
        assert (limit in tr_line) is not resolved
        assert (f"{row['error_pct']:.8f}" in tr_line) is resolved

    def test_failed_solver_gets_a_row(self, netlist_file, tmp_path, capsys):
        # Two dimensions cannot meet 1e-30: imatex raises NoConvergence.
        report = tmp_path / "report.json"
        rc = cli.main(
            ["compare", netlist_file, "--solvers", "imatex,tr", "--h", "2e-12",
             "--mmax", "2", "--etol", "1e-30", "--oracle-h", "1e-12",
             "--report", str(report)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "imatex   failed: Krylov basis did not reach" in out
        failed, tr_row = json.loads(report.read_text())["rows"]
        assert failed.keys() == {"solver", "failed"} and failed["solver"] == "imatex"
        assert tr_row["solver"] == "tr" and tr_row["substitution_pairs"] > 0


class TestExitCodes:
    def test_missing_file(self, tmp_path, capsys):
        rc = cli.main(["simulate", str(tmp_path / "nope.sp")])
        assert rc == 3
        assert "i/o error" in capsys.readouterr().err

    def test_bad_netlist(self, tmp_path, capsys):
        path = tmp_path / "bad.sp"
        path.write_text("R1 1\n.TRAN 0 1\n.END\n")
        rc = cli.main(["simulate", str(path)])
        assert rc == 1
        assert "netlist error" in capsys.readouterr().err

    def test_out_of_range_value(self, tmp_path, capsys):
        # 1e400 overflows float64 to inf.
        path = tmp_path / "inf.sp"
        path.write_text("I1 0 1 DC 1m\nC1 1 0 1e400\nR1 1 0 1\n.TRAN 0 1n\n")
        rc = cli.main(["simulate", str(path)])
        assert rc == 1
        assert "netlist error: line 2: number out of range" in capsys.readouterr().err

    def test_structurally_singular(self, tmp_path, capsys):
        # Node 1 has a capacitor and no resistor: G's only row is empty.
        path = tmp_path / "capped.sp"
        path.write_text("I1 0 1 DC 1m\nC1 1 0 1p\n.TRAN 0 1n\n")
        with pytest.warns(UserWarning, match="no DC path to ground"):
            rc = cli.main(["simulate", str(path), "--solver", "imatex"])
        assert rc == 2
        assert "numerical error: matrix has an empty row or column" in capsys.readouterr().err

    def test_unconverged_basis(self, netlist_file, capsys):
        rc = cli.main(["simulate", netlist_file, "--solver", "imatex",
                       "--mmax", "2", "--etol", "1e-30"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical error: Krylov basis did not reach")
        assert "within m_max=2" in err

    def test_unconverged_basis_in_a_worker(self, netlist_file, capsys):
        rc = cli.main(["simulate", netlist_file, "--solver", "imatex", "--workers", "2",
                       "--mmax", "2", "--etol", "1e-30"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("numerical error: Krylov basis did not reach")

    def test_removed_method_is_invalid(self, netlist_file, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", netlist_file, "--solver", "mexp"])
        assert exc.value.code == 2
        assert "invalid choice: 'mexp'" in capsys.readouterr().err
        rc = cli.main(["compare", netlist_file, "--solvers", "mexp"])
        assert rc == 2
        assert (
            "numerical error: unknown method 'mexp' (choose from tr, be, imatex, rmatex)"
            in capsys.readouterr().err
        )

    def test_compare_rejects_config_before_oracle(
        self, netlist_file, capsys, monkeypatch
    ):
        def no_oracle(*args, **kwargs):
            raise AssertionError("the reference ran before the configs were checked")

        monkeypatch.setattr(stepper, "solve_transient_be", no_oracle)
        rc = cli.main(["compare", netlist_file, "--solvers", "tr"])
        assert rc == 2
        assert "fixed step" in capsys.readouterr().err

    def test_compare_rejects_uneven_step_before_oracle(
        self, netlist_file, capsys, monkeypatch
    ):
        def no_oracle(*args, **kwargs):
            raise AssertionError("the reference ran before the step was checked")

        monkeypatch.setattr(stepper, "solve_transient_be", no_oracle)
        rc = cli.main(["compare", netlist_file, "--solvers", "tr,rmatex",
                       "--h", "7ps"])
        assert rc == 2
        assert "does not divide the span" in capsys.readouterr().err

    def test_fixed_step_count_past_float_range(self, tmp_path, capsys):
        # 1e300 / 1e-12 overflows to inf.
        path = tmp_path / "dc.sp"
        path.write_text("I1 0 1 DC 1m\nR1 1 0 1k\nC1 1 0 1p\n.TRAN 0 1e300\n")
        rc = cli.main(["simulate", str(path), "--solver", "tr", "--h", "1p"])
        assert rc == 2
        assert "fixed step 1e-12 is too small for the span" in capsys.readouterr().err

    def test_unallocatable_run_is_a_one_line_error(self, netlist_file, capsys, monkeypatch):
        # Stands in for a step count whose arrays do not fit in memory.
        def too_big(*args, **kwargs):
            raise MemoryError("Unable to allocate 298. GiB for an array")

        monkeypatch.setattr(stepper, "_solve_fixed", too_big)
        rc = cli.main(["simulate", netlist_file, "--solver", "tr", "--h", "1p"])
        assert rc == 2
        assert capsys.readouterr().err == "out of memory: Unable to allocate 298. GiB for an array\n"

    def test_basis_cap_below_the_convergence_gate(self, netlist_file, capsys):
        rc = cli.main(["simulate", netlist_file, "--mmax", "1"])
        assert rc == 2
        assert "numerical error: m_max must be at least 2" in capsys.readouterr().err

    @pytest.mark.parametrize("oracle_h", ["0", "-1p"])
    def test_compare_rejects_nonpositive_oracle_step(
        self, netlist_file, capsys, monkeypatch, oracle_h
    ):
        def no_oracle(*args, **kwargs):
            raise AssertionError("the reference ran with a non-positive step")

        monkeypatch.setattr(stepper, "solve_transient_be", no_oracle)
        rc = cli.main(["compare", netlist_file, "--solvers", "rmatex",
                       f"--oracle-h={oracle_h}"])
        assert rc == 2
        assert "must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("oracle_h", ["1e-300", "1e-320"])
    def test_compare_rejects_absurd_oracle_step_count(self, netlist_file, capsys, oracle_h):
        # About 4e290 steps, or a count that overflows to inf: refused
        # before any step is taken.
        rc = cli.main(["compare", netlist_file, "--solvers", "rmatex",
                       f"--oracle-h={oracle_h}"])
        assert rc == 2
        assert "numerical error" in capsys.readouterr().err

    @pytest.mark.parametrize("solvers", ["", ",", " , "])
    def test_compare_rejects_empty_solvers_before_oracle(
        self, netlist_file, capsys, monkeypatch, solvers
    ):
        def no_oracle(*args, **kwargs):
            raise AssertionError("the reference ran with no solver to compare")

        monkeypatch.setattr(stepper, "solve_transient_be", no_oracle)
        rc = cli.main(["compare", netlist_file, "--solvers", solvers])
        assert rc == 2
        assert "numerical error: no solver given" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--solver", "imatex"],
            ["compare", "--workers", "2"],
            ["compare", "--gamma", "1p"],
            ["simulate", "--gamma", "1p"],
        ],
    )
    def test_removed_options_are_unknown(self, netlist_file, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main([argv[0], netlist_file, *argv[1:]])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err

    @pytest.mark.parametrize("groups", ["0", "-3"])
    def test_compare_rejects_groups_before_oracle(
        self, netlist_file, capsys, monkeypatch, groups
    ):
        # compare has no --groups: the option is refused as unknown, before
        # the reference solve starts.
        def no_oracle(*args, **kwargs):
            raise AssertionError("the reference ran before the groups were checked")

        monkeypatch.setattr(stepper, "solve_transient_be", no_oracle)
        with pytest.raises(SystemExit) as exc:
            cli.main(["compare", netlist_file, "--solvers", "tr", "--h", "2e-12",
                      "--groups", groups])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --groups {groups}" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one(self, netlist_file, capsys, workers):
        rc = cli.main(["simulate", netlist_file, "--workers", workers])
        assert rc == 2
        assert "numerical error: workers must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("solver", ["rmatex", "tr"])
    @pytest.mark.parametrize("groups", ["0", "-3"])
    def test_groups_below_one(self, netlist_file, capsys, groups, solver):
        rc = cli.main(["simulate", netlist_file, "--solver", solver, "--h", "2e-12",
                       "--groups", groups])
        assert rc == 2
        assert "numerical error: max_groups must be at least 1" in capsys.readouterr().err

    def test_fixed_step_without_h(self, netlist_file, capsys):
        rc = cli.main(["simulate", netlist_file, "--solver", "tr"])
        assert rc == 2
        assert "fixed step" in capsys.readouterr().err

    @pytest.mark.parametrize("solver", ["rmatex", "tr"])
    def test_sourceless_netlist(self, tmp_path, capsys, solver):
        path = tmp_path / "rc.sp"
        path.write_text("R1 a 0 1k\nC1 a 0 1p\n.TRAN 0 1n\n")
        rc = cli.main(["simulate", str(path), "--solver", solver, "--h", "10p"])
        assert rc == 2
        assert "no I or V source" in capsys.readouterr().err

    def test_unknown_compare_solver(self, netlist_file, capsys):
        rc = cli.main(["compare", netlist_file, "--solvers", "tr,magic",
                       "--h", "2e-12"])
        assert rc == 2
        assert "magic" in capsys.readouterr().err


def oracle_rows(table) -> str:
    """The rows as the per-value '%.17e' writer printed them."""
    return "".join(",".join("%.17e" % v for v in row) + "\n" for row in table.tolist())


def written_rows(table) -> str:
    """write_waveform_csv's rows for a (T, 1 + n) table, time first."""
    result = stepper.WaveformResult(
        times=table[:, 0],
        states=table[:, 1:],
        names=[f"v({j})" for j in range(1, table.shape[1])],
        method="rmatex",
    )
    fh = io.StringIO()
    with np.errstate(all="raise"):
        cli.write_waveform_csv(result, fh)
    header, rows = fh.getvalue().split("\n", 1)
    assert header == "time," + ",".join(result.names)
    return rows


def tie_values() -> list[float]:
    """Odd multiples of 2^-k with 19 significant digits: each lies
    exactly halfway between two 18-digit decimals."""
    values = []
    for k in range(1, 70):
        lo, hi = -(-10**18 // 5**k), min(10**19 // 5**k, 2**53)
        for m in range(lo | 1, hi, 2 * max(1, (hi - lo) // 16)):
            values.append(m * 2.0**-k)
    return values


def edge_table() -> np.ndarray:
    # The powers of ten include the 1e-280 and 1e280 limits of the
    # vectorized path, so their neighbours sit on both sides of them.
    powers = [float(f"1e{p}") for p in range(-323, 309)]
    values = [
        *powers,
        *np.nextafter(powers, 0.0),
        *np.nextafter(powers, np.inf),
        9.999999999999999e-1,
        *tie_values(),
        0.0, np.inf, np.nan, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    ]
    values = np.concatenate([values, np.negative(values)])
    return np.resize(values, (-(-values.size // 7), 7))


class TestCsvWriter:
    def test_matches_per_value_formatting(self):
        # One format string per row writes the text that formatting each
        # value on its own wrote, signed zeros and extreme exponents too.
        states = np.array(
            [[-0.0, 1e-300, 1e300], [0.0, -1e-300, -1e300], [1.0 / 3.0, -2.5, 5e-324]]
        )
        result = stepper.WaveformResult(
            times=np.array([0.0, 1e-12, 2.5e-10]),
            states=states,
            names=["v(1)", "v(2)", "i(v1)"],
            method="rmatex",
        )
        fh = io.StringIO()
        cli.write_waveform_csv(result, fh)
        want = "time,v(1),v(2),i(v1)\n" + "".join(
            ",".join(f"{v:.17e}" for v in (t, *row)) + "\n"
            for t, row in zip(result.times, result.states)
        )
        assert fh.getvalue() == want
        assert "-0.00000000000000000e+00" in want

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(
            st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
            min_size=3,
            max_size=60,
        )
    )
    def test_any_float_prints_as_percent_does(self, values):
        table = np.array(values[: len(values) // 3 * 3]).reshape(-1, 3)
        assert written_rows(table) == oracle_rows(table)

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20)
        bits = rng.integers(0, 2**64, size=10**6, dtype=np.uint64)
        table = bits.view(np.float64).reshape(-1, 125)
        assert written_rows(table) == oracle_rows(table)

    def test_edge_values(self):
        # Powers of ten and their neighbours (log10 rounding across a
        # decade, carries into the next decade, the limits of the
        # vectorized path) and exact ties that round half to even.
        table = edge_table()
        assert written_rows(table) == oracle_rows(table)

    @pytest.mark.parametrize("toward", [-np.inf, np.inf])
    def test_log10_an_ulp_off_costs_no_bytes(self, monkeypatch, toward):
        # Another numpy build may round log10 the other way at a power of
        # ten; the decade then comes out one off and the value goes to '%'.
        log10 = np.log10

        def log10_off(a):
            with np.errstate(under="ignore"):  # next to log10(1) = 0
                return np.nextafter(log10(a), toward)

        monkeypatch.setattr(np, "log10", log10_off)
        table = edge_table()
        assert written_rows(table) == oracle_rows(table)

    def test_memory_is_a_few_rows_of_text(self):
        # Formatting the whole waveform at once would hold a byte matrix
        # and integer digit arrays of every value: over 100 MB here.
        rows, n = 200, 20_000
        result = stepper.WaveformResult(
            times=np.arange(rows) * 1e-12,
            states=np.random.default_rng(3).standard_normal((rows, n)),
            names=[f"v({j})" for j in range(n)],
            method="rmatex",
        )

        class Counter:
            chars = 0

            def write(self, text):
                self.chars += len(text)

        sink = Counter()
        tracemalloc.start()
        try:
            cli.write_waveform_csv(result, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        row_text = sink.chars / (rows + 1)
        assert peak <= 16 * row_text

    def test_simulate_writes_the_oracle_bytes(self, stiff_mesh, tmp_path, monkeypatch):
        # README's 400-node mesh through expsim simulate, end to end.
        mesh, _ = stiff_mesh
        netlist_path = tmp_path / "mesh.sp"
        netlist_path.write_text(mesh.text)
        runs = []
        run_superposed = decomp.run_superposed

        def recording(*args, **kwargs):
            runs.append(run_superposed(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(decomp, "run_superposed", recording)
        out = tmp_path / "wave.csv"
        rc = cli.main(
            ["simulate", str(netlist_path), "--solver", "rmatex", "--etol", "1e-8",
             "--out", str(out)]
        )
        assert rc == 0
        merged = runs[0].merged
        table = np.column_stack((merged.times, merged.states))
        want = "time," + ",".join(merged.names) + "\n" + oracle_rows(table)
        assert out.read_bytes() == want.encode("ascii")


class TestCsvReader:
    def test_rejects_wrong_header(self):
        with pytest.raises(ValueError, match="header"):
            read_waveform_csv(io.StringIO("volts,v(1)\n0,1\n"))

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="malformed"):
            read_waveform_csv(io.StringIO("time,v(1),v(2)\n0.0,1.0\n"))
