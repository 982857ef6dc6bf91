"""Command-line front end: validate specs, run experiments, emit artifacts.

One subcommand per experiment kind plus ``validate``.  Each kind's runner
computes and yields its artifacts as (file name, payload) pairs; one writer,
``_write_artifacts``, emits them into the output directory in the order
yielded: CSV tables, JSON summaries and, unless ``--no-plots``, SVG plots.  Next to
them goes a ``run.log`` with per-stage diagnostics; the log is the one
artifact exempt from the byte-identical reproducibility rule, since it
carries timings.  A failed run keeps the files written before the failure.

Exit codes: 0 success, 1 any other runtime error, 2 invalid spec or
parameters, or an output directory that cannot be written (checked before
any solve), 3 a soundness guard fired (``GuardError``), 4 solver failure
(``SolverError``).

BLAS runs on one thread unless the environment sets its thread count, as
its long reductions round differently on more threads; a process that
loaded numpy before importing this module keeps its own setting.

The modules of a single kind (``perforation``, ``stability``, ``rve``) are
imported by the runner that needs them, so a run loads only its own.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

# before the package imports below load numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .cell import homogenize_matrix, p_energy_result
from .experiment_spec import (KINDS, ExperimentSpec, SpecValidationError,
                              build_density, build_family, build_perforation,
                              parse_spec)
from .numerics import GuardError, SolverError
from .svgplot import plot_series, write_csv, write_text_atomic

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INVALID = 2
EXIT_GUARD = 3
EXIT_SOLVER = 4


class _StageLog:
    """Collects per-stage diagnostics; flushed to ``run.log`` at the end."""

    def __init__(self, path: Path):
        self.path = path
        self.lines: list[str] = []
        self.t0 = time.perf_counter()

    def stage(self, name: str, message: str = ""):
        dt = time.perf_counter() - self.t0
        line = f"[{dt:9.3f}s] {name}" + (f": {message}" if message else "")
        self.lines.append(line)

    def flush(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text("\n".join(self.lines) + "\n", encoding="utf-8")


def _matrix_header(dim: int):
    return [f"a_{i + 1}{j + 1}" for i in range(dim) for j in range(dim)]


# ---------------------------------------------------------------------------
# runners: generators (spec, log) -> (file name, payload) pairs, in write
# order. The suffix says what the payload is: ".csv" (header, rows), ".json"
# a dict, ".svg" (series, plot_series labels). A runner computes; only
# _write_artifacts writes, and it draws the next pair once the last is on
# disk, so a failure mid-run keeps every file yielded before it.

def _run_cell(spec: ExperimentSpec, log):
    prm = spec.params
    density = build_density(prm["field"], prm["p"])
    dim = density.dim

    def solve(resolution):
        if prm["p"] == 2.0:
            result = homogenize_matrix(density.coeff, resolution)
            return [float(v) for v in result.matrix.ravel()], result
        result = p_energy_result(density.coeff, prm["p"], (prm["xi"],),
                                 resolution)
        return [result.energy_samples[0][1]], result

    log.stage("solve", f"{len(prm['resolutions'])} resolution(s)")
    solved = [solve(r) for r in prm["resolutions"]]
    for resolution, (_, result) in zip(prm["resolutions"], solved):
        log.stage("cell", f"resolution {resolution}: "
                          f"iterations {max(result.solver_iterations)}, "
                          f"residual {max(result.residuals):.3e}")

    value_header = (_matrix_header(dim) if prm["p"] == 2.0 else ["value"])
    rows = [[r] + vals for r, (vals, _) in zip(prm["resolutions"], solved)]
    yield "cell.csv", (["resolution"] + value_header, rows)
    if len(rows) >= 2:
        # the diagonal of the matrix, or the one p-energy value
        columns = ([(f"a_{i + 1}{i + 1}", i * dim + i) for i in range(dim)]
                   if prm["p"] == 2.0 else [("value", 0)])
        series = {name: [(float(row[0]), row[1 + k]) for row in rows]
                  for name, k in columns}
        yield "cell.svg", (series, {"x_label": "n"})


def _run_rve(spec: ExperimentSpec, log):
    from . import rve

    prm = spec.params
    density = build_density(prm["field"], prm["p"])
    log.stage("windows", f"R in {list(prm['windows'])} at "
                         f"{prm['resolution_per_unit']}/unit")
    est = rve.window_sequence(density, prm["center"], prm["xi"],
                              prm["windows"], prm["resolution_per_unit"])
    log.stage("verdict", f"limit {est.limit_estimate:.12g}, gap "
                         f"{est.cauchy_gap:.3e}, homogenizable "
                         f"{est.homogenizable_at_center}")
    yield "rve.csv", (["R", "value"],
                      [[R, v] for R, v in zip(est.window_sizes, est.values)])
    yield "rve_summary.json", {
        "center": list(est.center),
        "xi": list(est.xi),
        "p": est.p,
        "window_sizes": list(est.window_sizes),
        "values": list(est.values),
        "limit_estimate": est.limit_estimate,
        "cauchy_gap": est.cauchy_gap,
        "homogenizable_at_center": est.homogenizable_at_center,
        "resolution_per_unit": est.resolution_per_unit,
    }
    yield "rve.svg", (list(zip(est.window_sizes, est.values)), {})


def _run_stability(spec: ExperimentSpec, log):
    from . import stability

    prm = spec.params
    f = build_density(prm["field"], prm["p"])
    g = build_density(prm["field_g"], prm["p"])
    log.stage("pair", f"label {prm['label']!r}, R in {list(prm['R_list'])}")
    rep = stability.run_stability_pair(
        f, g, t_list=prm["t_list"], R_list=prm["R_list"],
        hom_resolution=prm["hom_resolution"], window_sizes=prm["window_sizes"],
        resolution_per_unit=prm["resolution_per_unit"],
        statistic_resolution=prm["statistic_resolution"], label=prm["label"])
    log.stage("conclusion", f"{rep.conclusion.value}, discrepancy "
                            f"{rep.discrepancy:.3e} vs tolerance "
                            f"{rep.tolerance:.3e}")
    yield "stability.csv", (["R", "psi"],
                            [[R, v] for R, v in rep.statistic_trace])
    yield "stability_summary.json", rep.summary()
    yield "stability.svg", (list(rep.statistic_trace), {"y_label": "psi"})


def _run_counterexamples(spec: ExperimentSpec, log):
    from . import stability

    log.stage("suite", "running the counterexample catalog")
    suite = stability.counterexample_suite()
    summary = {}
    series = {}
    for name, rep in suite.items():
        log.stage("case", f"{name}: {rep.conclusion.value}")
        yield f"counterexample_{name}.csv", (
            ["R", "psi"], [[R, v] for R, v in rep.statistic_trace])
        summary[name] = rep.summary()
        series[name] = [(R, v) for R, v in rep.statistic_trace]
    yield "counterexamples_summary.json", summary
    yield "counterexamples.svg", (series, {"y_label": "psi"})


def _run_perforation(spec: ExperimentSpec, log):
    from . import perforation

    prm = spec.params
    E = build_perforation(prm)
    log.stage("masked", f"shape {prm['shape']}, radius {prm['radius']:g}, "
                        f"resolution {prm['resolution']}")
    masked = perforation.masked_cell_value(E, prm["xi"], prm["resolution"])
    log.stage("penalized", f"n in {list(prm['n_list'])}")
    penalized = [perforation.penalized_cell_value(E, n, prm["xi"],
                                                  prm["resolution"])
                 for n in prm["n_list"]]
    for n, v in zip(prm["n_list"], penalized):
        log.stage("penalized", f"n {n:g}: {v:.12g} (masked {masked:.12g})")
    yield "perforation.csv", (
        ["n", "penalized", "masked"],
        [[n, v, masked] for n, v in zip(prm["n_list"], penalized)])
    if len(prm["n_list"]) >= 2:
        yield "perforation.svg", (
            {"penalized": list(zip(prm["n_list"], penalized)),
             "masked": [(prm["n_list"][0], masked),
                        (prm["n_list"][-1], masked)]},
            {"x_label": "n"})
    if not prm["eps_list"]:
        return

    log.stage("lambda", f"eps in {list(prm['eps_list'])}, "
                        f"lambda {prm['lam']:g}")
    report = perforation.lambda_problem_experiment(
        E, prm["lam"], perforation.GaussianSource(), prm["eps_list"],
        box_size=prm["box_size"], n_penal=prm["n_list"][-1],
        resolution=prm["lambda_resolution"],
        cell_resolution=prm["cell_resolution"])
    yield "lambda.csv", (["epsilon", "l2_distance"],
                         [[e, d] for e, d in zip(report.epsilons,
                                                 report.distances)])
    yield "perforation_summary.json", {
        "masked": masked,
        "theta": report.theta,
        "hom_matrix": [list(map(float, row)) for row in report.hom_matrix],
        "epsilons": list(report.epsilons),
        "distances": list(report.distances),
    }
    if len(report.epsilons) >= 2:
        yield "lambda.svg", (list(zip(report.epsilons, report.distances)),
                             {"x_label": "epsilon", "y_label": "l2 distance"})


def _run_stochastic(spec: ExperimentSpec, log):
    from . import stability

    prm = spec.params
    family_f = build_family(prm["family"])
    family_g = build_family(prm["family_g"])
    log.stage("trials", f"{prm['trials']} paired trials, torus "
                        f"{prm['torus_size']}, seed {prm['seed']}")
    rep = stability.stochastic_stability_experiment(
        family_f, family_g, prm["trials"], prm["seed"],
        torus_size=prm["torus_size"],
        resolution_per_unit=prm["resolution_per_unit"],
        statistic_sizes=prm["statistic_sizes"])
    log.stage("verdict", f"intervals_overlap {rep.intervals_overlap}")
    yield "stochastic.csv", (["R", "mean", "stderr"],
                             [[R, m, se] for R, m, se in rep.statistic_trace])
    yield "stochastic_summary.json", rep.summary()
    yield "stochastic.svg", ([(R, m) for R, m, _ in rep.statistic_trace],
                             {"y_label": "mean psi"})


_RUNNERS = {
    "cell": _run_cell,
    "rve": _run_rve,
    "stability": _run_stability,
    "perforation": _run_perforation,
    "stochastic": _run_stochastic,
    "counterexamples": _run_counterexamples,
}


def _write_artifacts(out: Path, artifacts, plots: bool) -> list[Path]:
    """Write the (file name, payload) pairs a runner yields, in order, and
    return their paths; without ``plots`` each ``.svg`` is skipped unrendered.
    """
    written = []
    for name, payload in artifacts:
        path = out / name
        if name.endswith(".csv"):
            write_csv(path, *payload)
        elif name.endswith(".json"):
            write_text_atomic(path, json.dumps(payload, indent=2,
                                               sort_keys=True) + "\n")
        elif plots:
            series, labels = payload
            write_text_atomic(path, plot_series(series, **labels))
        else:
            continue
        written.append(path)
    return written


def run_experiment(spec: ExperimentSpec, out_dir=None,
                   plots: bool = True) -> int:
    """Run one validated spec; returns the process exit code."""
    out = Path(out_dir if out_dir is not None else spec.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        unwritable = None if os.access(out, os.W_OK | os.X_OK) else "permission denied"
    except OSError as e:
        unwritable = e.strerror or str(e)
    if unwritable:
        print(f"cannot write output directory {out}: {unwritable}", file=sys.stderr)
        return EXIT_INVALID
    log = _StageLog(out / "run.log")
    seed = spec.params.get("seed")   # stochastic specs only
    log.stage("spec", f"kind {spec.kind}"
                      + ("" if seed is None else f", seed {seed}"))
    try:
        artifacts = _write_artifacts(out, _RUNNERS[spec.kind](spec, log),
                                     plots)
    except SolverError as e:
        log.stage("solver-failure", str(e))
        print(f"solver failure: {e}", file=sys.stderr)
        return EXIT_SOLVER
    except GuardError as e:
        log.stage("soundness-guard", str(e))
        print(f"soundness guard fired: {e}", file=sys.stderr)
        return EXIT_GUARD
    except ValueError as e:
        # the spec passed the same checks as ``validate``, which should
        # refuse every spec a run would refuse
        note = (f"{e}; the spec passed validate, so this is a gap in "
                f"validate's pre-flight checks or a program fault: please report it")
        log.stage("invalid-parameters", note)
        print(f"invalid parameters: {note}", file=sys.stderr)
        return EXIT_INVALID
    except RuntimeError as e:
        log.stage("error", str(e))
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        log.flush()
    for path in artifacts:
        print(f"wrote {path}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homlab",
        description="Homogenization experiments from JSON spec files.")
    sub = parser.add_subparsers(dest="command", required=True)

    val = sub.add_parser("validate", help="check a spec without running it")
    val.add_argument("--spec", required=True, help="path to the spec file")

    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} spec")
        p.add_argument("--spec", required=True, help="path to the spec file")
        p.add_argument("--out", default=None,
                       help="output directory (default: the spec's 'out')")
        if kind == "stochastic":
            p.add_argument("--seed", type=int, default=None,
                           help="override the spec's top-level seed")
        p.add_argument("--no-plots", action="store_true",
                       help="write tables only, skip SVG plots")
    return parser


def _pin_malloc_thresholds() -> None:
    """Fix glibc malloc's mmap threshold at 2 MB and its trim threshold at
    16 MB; without glibc nothing changes.

    glibc moves both thresholds each time a block it had mapped is freed,
    so whether the arrays of a repeated solve come from the heap or from
    freshly mapped pages, and whether the heap top goes back to the system
    after each solve, depends on the order of every earlier allocation:
    the same warm run reads 0 or up to ~18,000 minor page faults, and up
    to 1.7x the wall time, in processes that differ only in the checkout's
    path or in code the run never executes. With fixed thresholds every
    array below 2 MB (a 120^2 torus's stencil table is 1.04 MB) is served
    from the heap, which keeps up to 16 MB free at its top, more than one
    solve frees; larger arrays, like a 320^2 box's tables, are mapped and
    given back when freed, which keeps the peak resident memory where it
    was.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(-3, 2 << 20)        # M_MMAP_THRESHOLD
    mallopt(-1, 16 << 20)       # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _pin_malloc_thresholds()
    args = _build_parser().parse_args(argv)
    try:
        text = Path(args.spec).read_text(encoding="utf-8")
    except OSError as e:
        print(f"cannot read spec: {e}", file=sys.stderr)
        return EXIT_INVALID

    try:
        spec = parse_spec(text)
    except SpecValidationError as e:
        if args.command == "validate":
            print("\n".join(map(str, e.violations)))
        else:
            print(e, file=sys.stderr)
        return EXIT_INVALID
    if args.command == "validate":
        print(f"valid {spec.kind} spec")
        return EXIT_OK
    if spec.kind != args.command:
        print(f"spec kind {spec.kind!r} does not match the "
              f"{args.command!r} subcommand", file=sys.stderr)
        return EXIT_INVALID
    if getattr(args, "seed", None) is not None:
        if args.seed < 0:
            print("seed must be nonnegative", file=sys.stderr)
            return EXIT_INVALID
        spec = replace(spec, params={**spec.params, "seed": args.seed})
    return run_experiment(spec, out_dir=args.out, plots=not args.no_plots)


if __name__ == "__main__":
    sys.exit(main())
