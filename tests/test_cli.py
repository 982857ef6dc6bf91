import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from homlab.cli import main
from homlab.numerics import GuardError, SolverError

STEP_1D = {"type": "periodic_step", "subdivisions": 2, "values": [1.5, 3.5],
           "dim": 1}
PERFORATION_EPS = {"kind": "perforation", "radius": 0.25, "resolution": 64,
                   "n_list": [4, 16], "eps_list": [0.5],
                   "lambda_resolution": 64, "cell_resolution": 32}


def spec_file(tmp_path, tree, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(tree), encoding="utf-8")
    return str(path)


class TestValidateCommand:
    def test_valid_spec(self, tmp_path, capsys):
        path = spec_file(tmp_path, {"kind": "counterexamples"})
        assert main(["validate", "--spec", path]) == 0
        assert "valid counterexamples spec" in capsys.readouterr().out

    def test_invalid_spec_lists_all_violations(self, tmp_path, capsys):
        tree = {"kind": "cell", "bogus": 1,
                "field": {"type": "constant", "alpha": 4.0, "beta": 1.0},
                "resolution": 64}
        path = spec_file(tmp_path, tree)
        assert main(["validate", "--spec", path]) == 2
        out = capsys.readouterr().out
        assert "field.bounds" in out
        assert "bogus" in out

    def test_misaligned_flip_width_exits_2_with_path(self, tmp_path, capsys):
        fam = {"type": "checkerboard_family", "values": [1.0, 4.0]}
        tree = {"kind": "stochastic", "family": fam, "resolution_per_unit": 4,
                "family_g": dict(fam, flip={"type": "power_of_two",
                                            "width": 0.3})}
        path = spec_file(tmp_path, tree)
        assert main(["validate", "--spec", path]) == 2
        assert "family_g.flip.width" in capsys.readouterr().out

    def test_missing_file(self, tmp_path):
        assert main(["validate", "--spec", str(tmp_path / "nope.json")]) == 2


class TestRunCommand:
    def test_kind_mismatch(self, tmp_path, capsys):
        path = spec_file(tmp_path, {"kind": "counterexamples"})
        assert main(["cell", "--spec", path]) == 2
        assert "does not match" in capsys.readouterr().err

    def test_cell_run_writes_table_and_plot(self, tmp_path):
        tree = {"kind": "cell", "field": {"type": "constant", "value": 2,
                                          "dim": 1},
                "resolutions": [8, 16]}
        path = spec_file(tmp_path, tree)
        out = tmp_path / "artifacts"
        assert main(["cell", "--spec", path, "--out", str(out)]) == 0
        table = (out / "cell.csv").read_text()
        assert table == "resolution,a_11\n8,2\n16,2\n"
        assert (out / "cell.svg").exists()
        assert (out / "run.log").exists()

    def test_large_p_energy_cell_stays_in_growth_sandwich(self, tmp_path):
        # a constant field's p-energy is alpha |xi|^p exactly; near 1e9 an
        # absolute slack of 1e-9 lies below one ulp, the relative one does not
        xi = [1000.0, 333.0]
        tree = {"kind": "cell", "field": {"type": "constant", "value": 1.0,
                                          "dim": 2},
                "p": 3, "xi": xi, "resolutions": [8]}
        path = spec_file(tmp_path, tree)
        out = tmp_path / "large"
        assert main(["cell", "--spec", path, "--out", str(out),
                     "--no-plots"]) == 0
        header, row = (out / "cell.csv").read_text().splitlines()
        assert header == "resolution,value"
        value = float(row.split(",")[1])
        assert value == pytest.approx(np.linalg.norm(xi) ** 3, rel=1e-12)

    def test_no_plots_skips_svg(self, tmp_path):
        tree = {"kind": "cell", "field": {"type": "constant", "value": 2,
                                          "dim": 1},
                "resolutions": [8, 16]}
        path = spec_file(tmp_path, tree)
        out = tmp_path / "noplots"
        assert main(["cell", "--spec", path, "--out", str(out),
                     "--no-plots"]) == 0
        assert (out / "cell.csv").exists()
        assert not (out / "cell.svg").exists()

    def test_stability_self_pair_psi_all_zero(self, tmp_path):
        tree = {"kind": "stability", "field": STEP_1D, "field_g": STEP_1D,
                "hom_resolution": 16, "label": "self"}
        path = spec_file(tmp_path, tree)
        out = tmp_path / "stab"
        assert main(["stability", "--spec", path, "--out", str(out)]) == 0
        lines = (out / "stability.csv").read_text().splitlines()
        assert lines[0] == "R,psi"
        assert [ln.split(",")[1] for ln in lines[1:]] == ["0", "0", "0", "0"]
        summary = json.loads((out / "stability_summary.json").read_text())
        assert summary["conclusion"] == "ConditionHoldsLimitsAgree"
        log = (out / "run.log").read_text()
        assert "conclusion" in log

    def test_counterexamples_run_emits_four_reports(self, tmp_path):
        path = spec_file(tmp_path, {"kind": "counterexamples"})
        out = tmp_path / "cx"
        assert main(["counterexamples", "--spec", path, "--out",
                     str(out)]) == 0
        reports = sorted(p.name for p in out.glob("counterexample_*.csv"))
        assert reports == ["counterexample_half-space.csv",
                           "counterexample_swapped-1d.csv",
                           "counterexample_swapped-layered.csv",
                           "counterexample_weak-mean-only.csv"]
        summary = json.loads((out / "counterexamples_summary.json")
                             .read_text())
        conclusions = {name: s["conclusion"] for name, s in summary.items()}
        assert conclusions["swapped-1d"] == "ConditionFailsLimitsAgree"

    def test_runtime_value_error_exits_2(self, tmp_path, capsys, monkeypatch):
        # an irrational frequency is not cell-solvable: refused before the run
        tree = {"kind": "cell", "resolution": 16,
                "field": {"type": "trig", "offset": 2.0, "beta": 3.5,
                          "terms": [[0.5, [1.4142135623730951], 0.0]],
                          "dim": 1}}
        path = spec_file(tmp_path, tree)
        out = tmp_path / "bad"
        assert main(["cell", "--spec", path, "--out", str(out)]) == 2
        assert "field.type" in capsys.readouterr().err
        assert not (out / "run.log").exists()

        def refused(*args, **kwargs):
            raise ValueError("refused at run time")

        monkeypatch.setattr("homlab.cli.homogenize_matrix", refused)
        path = spec_file(tmp_path, dict(tree, field=STEP_1D))
        assert main(["cell", "--spec", path, "--out", str(out)]) == 2
        assert "invalid parameters" in capsys.readouterr().err
        assert "invalid-parameters" in (out / "run.log").read_text()
        # the spec passed validate, so the message says what is at fault
        assert ("refused at run time; the spec passed validate, so this is a gap "
                "in validate's pre-flight checks or a program fault"
                in (out / "run.log").read_text())

    def test_soundness_guard_exits_3(self, tmp_path, capsys, monkeypatch):
        def tripped():
            raise GuardError("catalog no longer matches the analysis")

        monkeypatch.setattr("homlab.stability.counterexample_suite", tripped)
        path = spec_file(tmp_path, {"kind": "counterexamples"})
        out = tmp_path / "guard"
        assert main(["counterexamples", "--spec", path, "--out",
                     str(out)]) == 3
        assert "soundness guard" in capsys.readouterr().err
        assert "soundness-guard" in (out / "run.log").read_text()

    def test_other_runtime_error_exits_1(self, tmp_path, capsys, monkeypatch):
        # only GuardError means "soundness guard fired"; any other runtime
        # error is reported with its message under exit 1
        def broken():
            raise RuntimeError("unexpected state")

        monkeypatch.setattr("homlab.stability.counterexample_suite", broken)
        path = spec_file(tmp_path, {"kind": "counterexamples"})
        out = tmp_path / "error"
        assert main(["counterexamples", "--spec", path, "--out",
                     str(out)]) == 1
        err = capsys.readouterr().err
        assert "unexpected state" in err
        assert "soundness guard" not in err
        assert "unexpected state" in (out / "run.log").read_text()

    @pytest.mark.parametrize("case", ["under a file", "read-only"])
    def test_unwritable_out_exits_2_before_any_solve(self, tmp_path, capsys,
                                                      monkeypatch, case):
        # an --out under a regular file cannot be created, and a read-only
        # one cannot be written (reported as such by os.access, which a root
        # user's directory never is): exit 2 with one line naming the path,
        # and no runner starts
        from homlab import cli

        def refused(spec, log):
            raise AssertionError("the run started")

        monkeypatch.setitem(cli._RUNNERS, "cell", refused)
        if case == "under a file":
            blocker = tmp_path / "file"
            blocker.write_text("", encoding="utf-8")
            out = blocker / "out"
        else:
            out = tmp_path / "read-only"
            monkeypatch.setattr(cli.os, "access", lambda path, mode: Path(path) != out)
        path = spec_file(tmp_path, {"kind": "cell", "field": STEP_1D,
                                    "resolutions": [8]})
        assert main(["cell", "--spec", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"cannot write output directory {out}: ")
        assert not (out / "run.log").exists()

    def test_field_escaping_bounds_exits_3(self, tmp_path, capsys, monkeypatch):
        def escaping(self, pts):
            return np.full(len(pts), 9.0)

        monkeypatch.setattr("homlab.fields.PeriodicStep.values_impl", escaping)
        tree = {"kind": "cell", "field": STEP_1D, "resolutions": [8]}
        path = spec_file(tmp_path, tree)
        out = tmp_path / "bounds"
        assert main(["cell", "--spec", path, "--out", str(out)]) == 3
        assert "escaped bounds" in capsys.readouterr().err

    def test_solver_failure_exits_4(self, tmp_path, capsys, monkeypatch):
        def stalled(*args, **kwargs):
            raise SolverError("cg stalled at iteration 3")

        monkeypatch.setattr("homlab.stability.run_stability_pair", stalled)
        tree = {"kind": "stability", "field": STEP_1D, "field_g": STEP_1D}
        path = spec_file(tmp_path, tree)
        out = tmp_path / "solv"
        assert main(["stability", "--spec", path, "--out", str(out)]) == 4
        assert "solver failure" in capsys.readouterr().err
        assert "solver-failure" in (out / "run.log").read_text()

    def test_failure_keeps_artifacts_written_before_it(self, tmp_path, capsys,
                                                      monkeypatch):
        def stalled(*args, **kwargs):
            raise SolverError("lambda solve stalled")

        monkeypatch.setattr("homlab.perforation.lambda_problem_experiment", stalled)
        path = spec_file(tmp_path, PERFORATION_EPS)
        out = tmp_path / "partial"
        assert main(["perforation", "--spec", path, "--out", str(out)]) == 4
        assert "solver failure" in capsys.readouterr().err
        assert "solver-failure" in (out / "run.log").read_text()
        assert (out / "perforation.csv").exists()
        assert not (out / "lambda.csv").exists()

    def test_non_finite_table_value_exits_2(self, tmp_path, capsys,
                                            monkeypatch):
        report = SimpleNamespace(
            conclusion=SimpleNamespace(value="ConditionHoldsLimitsAgree"),
            statistic_trace=[(8.0, 0.5), (16.0, float("nan"))],
            summary=lambda: {"label": "nan-trace"})
        monkeypatch.setattr("homlab.stability.counterexample_suite",
                            lambda: {"nan-trace": report})
        path = spec_file(tmp_path, {"kind": "counterexamples"})
        out = tmp_path / "nan"
        assert main(["counterexamples", "--spec", path, "--out",
                     str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert "invalid-parameters" in (out / "run.log").read_text()

    @pytest.mark.parametrize("flags, names", [
        ([], ["perforation.csv", "perforation.svg", "lambda.csv",
              "perforation_summary.json", "lambda.svg"]),
        (["--no-plots"], ["perforation.csv", "lambda.csv",
                          "perforation_summary.json"]),
    ], ids=["plots", "no-plots"])
    def test_perforation_write_order(self, tmp_path, capsys, monkeypatch,
                                     flags, names):
        # the one kind whose tables and plots interleave; the lambda problem
        # is stubbed, only the order of the written files is under test
        report = SimpleNamespace(theta=0.2, hom_matrix=np.eye(2),
                                 epsilons=[0.5, 0.25], distances=[0.1, 0.05])
        monkeypatch.setattr("homlab.perforation.lambda_problem_experiment",
                            lambda *args, **kwargs: report)
        path = spec_file(tmp_path, dict(PERFORATION_EPS, eps_list=[0.5, 0.25]))
        out = tmp_path / "order"
        assert main(["perforation", "--spec", path, "--out", str(out)]
                    + flags) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"wrote {out / name}" for name in names]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            names + ["run.log"])

    @pytest.mark.parametrize("tree, names", [
        ({"kind": "perforation", "radius": 0.25, "resolution": 64,
          "n_list": [16]}, ["perforation.csv"]),
        (PERFORATION_EPS, ["perforation.csv", "perforation.svg", "lambda.csv",
                           "perforation_summary.json"]),
    ], ids=["one-n", "one-eps"])
    def test_one_entry_perforation_list_skips_its_plot(self, tmp_path, capsys,
                                                       tree, names):
        # a plot needs two points: a one-entry n_list leaves out
        # perforation.svg and a one-entry eps_list lambda.svg, and the run
        # still succeeds
        path = spec_file(tmp_path, tree)
        out = tmp_path / "one"
        assert main(["perforation", "--spec", path, "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"wrote {out / name}" for name in names]
        assert sorted(p.name for p in out.iterdir()) == sorted(
            names + ["run.log"])

    def test_seed_flag_overrides_spec(self, tmp_path):
        tree = {"kind": "stochastic", "seed": 5,
                "family": {"type": "checkerboard_family",
                           "values": [1.0, 4.0]},
                "family_g": {"type": "checkerboard_family",
                             "values": [1.0, 4.0]},
                "trials": 8, "torus_size": 2, "resolution_per_unit": 2,
                "statistic_sizes": [8, 16, 32]}
        path = spec_file(tmp_path, tree)
        out = tmp_path / "st"
        assert main(["stochastic", "--spec", path, "--out", str(out),
                     "--seed", "7"]) == 0
        summary = json.loads((out / "stochastic_summary.json").read_text())
        assert summary["seed"] == 7
        assert summary["intervals_overlap"] is True

    def test_seed_flag_only_on_stochastic(self, tmp_path, capsys):
        # no other kind reads a seed, so no other subcommand takes one
        path = spec_file(tmp_path, {"kind": "cell", "field": STEP_1D,
                                    "resolutions": [8]})
        with pytest.raises(SystemExit) as exc:
            main(["cell", "--spec", path, "--out", str(tmp_path / "c"),
                  "--seed", "7"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_near_symmetric_matrix_runs(self, tmp_path):
        # symmetry is read from the coefficients at 1e-12 relative: a
        # 1e-6 asymmetry is a nonsymmetric problem, not a broken guard
        near = {"type": "matrix", "entries": [[2.5, 1], [1.000001, 2.5]]}
        path = spec_file(tmp_path, {"kind": "cell", "field": near,
                                    "resolutions": [16]})
        out = tmp_path / "cell"
        assert main(["cell", "--spec", path, "--out", str(out)]) == 0
        assert (out / "cell.csv").read_text().splitlines() == [
            "resolution,a_11,a_12,a_21,a_22", "16,2.5,1,1.000001,2.5"]
        tree = {"kind": "stability", "field": near,
                "field_g": {"type": "matrix", "entries": [[2.5, 1], [1, 2.5]]},
                "R_list": [4, 8, 16], "hom_resolution": 16}
        path = spec_file(tmp_path, tree, "pair.json")
        assert main(["stability", "--spec", path, "--out",
                     str(tmp_path / "pair"), "--no-plots"]) == 0

    def test_perforation_run_penalized_sandwich(self, tmp_path):
        tree = {"kind": "perforation", "radius": 0.25, "resolution": 64,
                "n_list": [4, 16]}
        path = spec_file(tmp_path, tree)
        out = tmp_path / "perf"
        assert main(["perforation", "--spec", path, "--out", str(out)]) == 0
        lines = (out / "perforation.csv").read_text().splitlines()
        assert lines[0] == "n,penalized,masked"
        rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
        masked = rows[0][2]
        assert rows[0][1] > rows[1][1] >= masked
        assert (out / "perforation.svg").exists()

    def test_perforation_lambda_table(self, tmp_path):
        tree = {"kind": "perforation", "radius": 0.25, "resolution": 64,
                "n_list": [4, 16], "eps_list": [0.5],
                "lambda_resolution": 64, "cell_resolution": 32}
        path = spec_file(tmp_path, tree)
        out = tmp_path / "lam"
        assert main(["perforation", "--spec", path, "--out", str(out),
                     "--no-plots"]) == 0
        lines = (out / "lambda.csv").read_text().splitlines()
        assert lines[0] == "epsilon,l2_distance"
        assert float(lines[1].split(",")[1]) > 0.0
        summary = json.loads((out / "perforation_summary.json").read_text())
        assert 0.0 < summary["theta"] < 1.0

    def test_rve_run_reports_window_verdict(self, tmp_path):
        tree = {"kind": "rve",
                "field": {"type": "half_space", "gamma": 2.0, "c": 0.5,
                          "dim": 1},
                "center": [-4.0], "windows": [2, 4, 8],
                "resolution_per_unit": 8}
        path = spec_file(tmp_path, tree)
        out = tmp_path / "rve"
        assert main(["rve", "--spec", path, "--out", str(out)]) == 0
        table = (out / "rve.csv").read_text()
        assert table == "R,value\n2,1.5\n4,1.5\n8,1.5\n"
        summary = json.loads((out / "rve_summary.json").read_text())
        assert summary["limit_estimate"] == pytest.approx(1.5, abs=1e-12)
        assert summary["homogenizable_at_center"] is True

    def test_rerun_is_byte_identical(self, tmp_path):
        tree = {"kind": "stability", "field": STEP_1D, "field_g": STEP_1D,
                "hom_resolution": 16}
        path = spec_file(tmp_path, tree)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["stability", "--spec", path, "--out", str(out1)]) == 0
        assert main(["stability", "--spec", path, "--out", str(out2)]) == 0
        for name in ("stability.csv", "stability_summary.json",
                     "stability.svg"):
            assert ((out1 / name).read_bytes()
                    == (out2 / name).read_bytes()), name


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_default_run_uses_one_blas_thread(tmp_path):
    # a fresh launch with no BLAS setting writes the bytes of one with one
    # thread; with the threads left to OpenBLAS on two cores the lambda
    # distances of this spec move at about 1e-13 relative
    path = spec_file(tmp_path, dict(PERFORATION_EPS, eps_list=[0.5, 0.25]))
    src = str(Path(__file__).resolve().parents[1] / "src")
    base = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
    outs = []
    for extra in ({}, dict.fromkeys(BLAS_VARS, "1")):
        out = tmp_path / f"run{len(outs)}"
        subprocess.run([sys.executable, "-m", "homlab.cli", "perforation", "--spec", path,
                        "--out", str(out), "--no-plots"],
                       env={**base, **extra}, check=True, capture_output=True)
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir() if p.name != "run.log")
    assert names == ["lambda.csv", "perforation.csv", "perforation_summary.json"]
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
