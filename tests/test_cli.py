"""Command line round trips and exit codes."""

import io
import json

import numpy as np
import pytest

import expsim as es
from expsim import cli, decomp, stepper
from conftest import TWO_SOURCE_NETLIST

CAP_FREE_NODE_NETLIST = """* node 2 carries no capacitance
I1 0 1 PULSE(0 1e-3 1e-10 1e-10 1e-10 3e-10 1e-9)
R1 1 2 10
R2 2 0 10
C1 1 0 1e-12
.TRAN 0 1e-9
.END
"""


VSOURCE_RC_NETLIST = """* rc driven through a voltage source: C has an empty branch row
V1 1 0 PWL(0 0 1e-10 1 1e-9 1)
R1 1 2 10
R2 2 3 10
C2 2 0 1e-12
C3 3 0 1e-12
.TRAN 0 1e-9
.END
"""


@pytest.fixture()
def netlist_file(tmp_path):
    path = tmp_path / "ladder.sp"
    path.write_text(TWO_SOURCE_NETLIST)
    return str(path)


@pytest.fixture()
def singular_file(tmp_path):
    path = tmp_path / "capfree.sp"
    path.write_text(CAP_FREE_NODE_NETLIST)
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


class TestSimulate:
    def test_csv_round_trips_exactly(self, netlist_file, tmp_path):
        out = tmp_path / "wave.csv"
        rc = cli.main(
            ["simulate", netlist_file, "--solver", "rmatex", "--etol", "1e-8",
             "--out", str(out)]
        )
        assert rc == 0
        with open(out) as fh:
            times, states, names = cli.read_waveform_csv(fh)

        system = es.build_system(TWO_SOURCE_NETLIST)
        config = stepper.SolverConfig(method="rmatex", e_tol=1e-8)
        ref = decomp.run_superposed(system, config).merged
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
            ["simulate", netlist_file, "--etol", "1e-8", "--out", str(out),
             "--diag", str(diag_path)]
        )
        assert rc == 0
        diag = json.loads(diag_path.read_text())
        assert diag["method"] == "rmatex"
        assert diag["schema"] == 2
        assert "workers" not in diag
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
        for step in diag["steps"]:
            assert {"t", "h", "m", "estimate", "reused", "estimate_kind",
                    "anchor"} <= step.keys()

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
        merged = decomp.run_superposed(system, config).merged
        assert diag["substitution_pairs"] == merged.substitution_pairs
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
            times, states, _ = cli.read_waveform_csv(fh)
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

    def test_failed_solver_gets_a_row(self, singular_file, capsys):
        rc = cli.main(
            ["compare", singular_file, "--solvers", "mexp,imatex",
             "--etol", "1e-8", "--oracle-h", "2e-12"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "mexp" in out and "failed:" in out
        assert "imatex" in out


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

    def test_structurally_singular(self, singular_file, capsys):
        rc = cli.main(["simulate", singular_file, "--solver", "mexp"])
        assert rc == 2
        assert "numerical error" in capsys.readouterr().err

    def test_mexp_names_singular_c(self, tmp_path, capsys):
        path = tmp_path / "vs.sp"
        path.write_text(VSOURCE_RC_NETLIST)
        rc = cli.main(["simulate", str(path), "--solver", "mexp"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "C cannot be factorized" in err
        assert "imatex" in err and "rmatex" in err

    def test_compare_rejects_config_before_oracle(
        self, netlist_file, capsys, monkeypatch
    ):
        def no_oracle(*args, **kwargs):
            raise AssertionError("the reference ran before the configs were checked")

        monkeypatch.setattr(stepper, "solve_transient_be", no_oracle)
        rc = cli.main(["compare", netlist_file, "--solvers", "tr"])
        assert rc == 2
        assert "fixed step" in capsys.readouterr().err

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

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_compare_rejects_workers_before_oracle(
        self, netlist_file, capsys, monkeypatch, workers
    ):
        def no_oracle(*args, **kwargs):
            raise AssertionError("the reference ran before the workers were checked")

        monkeypatch.setattr(stepper, "solve_transient_be", no_oracle)
        rc = cli.main(["compare", netlist_file, "--solvers", "rmatex",
                       "--workers", workers])
        assert rc == 2
        assert "numerical error: workers must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one(self, netlist_file, capsys, workers):
        rc = cli.main(["simulate", netlist_file, "--workers", workers])
        assert rc == 2
        assert "numerical error: workers must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("groups", ["0", "-3"])
    def test_compare_rejects_groups_before_oracle(
        self, netlist_file, capsys, monkeypatch, groups
    ):
        def no_oracle(*args, **kwargs):
            raise AssertionError("the reference ran before the groups were checked")

        monkeypatch.setattr(stepper, "solve_transient_be", no_oracle)
        rc = cli.main(["compare", netlist_file, "--solvers", "tr", "--h", "2e-12",
                       "--groups", groups])
        assert rc == 2
        assert "numerical error: max_groups must be at least 1" in capsys.readouterr().err

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


class TestCsvReader:
    def test_rejects_wrong_header(self):
        with pytest.raises(ValueError, match="header"):
            cli.read_waveform_csv(io.StringIO("volts,v(1)\n0,1\n"))

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError, match="malformed"):
            cli.read_waveform_csv(io.StringIO("time,v(1),v(2)\n0.0,1.0\n"))
