"""homlab benchmark: run workloads through ``homlab.cli.main`` and print,
per workload, its metrics, each with its unit, then one JSON line.

    python3 perfbench/run.py --workload stochastic-torus --seed 3 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py              # all three workloads, untraced
    python3 perfbench/run.py --smoke

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``wall_s``      median seconds of one ``cli.main`` run, spec to artifacts
                  on disk, in a warm worker process;
* ``setup_s``     median seconds for a fresh interpreter to import
                  ``homlab.cli`` and validate and parse the spec;
* ``peak_rss_mb`` the worker's peak resident memory, the larger of
                  RUSAGE_SELF and RUSAGE_CHILDREN, so a process pool cannot
                  hide its memory.

``--trace 1`` makes two traced runs, with one untraced run between them, in a
worker and reports the per-layer split (see ``tracer.py`` and ``README.md``).
Both modes check every run's outputs; ``fail_ratio`` is failed runs over
attempted runs, and is carried by the ``failed`` and ``attempted`` keys of
the JSON line.

The run writes its result file and, when traced, its spans under
``.perfbench/`` in the checkout. ``--smoke`` runs the whole harness, traced
and untraced, on tiny versions of the three specs and asserts that every
metric of ``BENCHMARK.json`` appears with its unit: the benchmark's own test.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
SETUP_LAUNCHES = 9
DEADLINE_S = 170.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> tuple[dict, dict]:
    """Environment for the worker: BLAS threads default to 1 (one worker,
    single-threaded like the CLI's default) and never exceed nproc."""
    env = dict(os.environ)
    setting = {}
    for var in BLAS_VARS:
        try:
            threads = int(env.get(var, "1"))
        except ValueError:
            threads = 1
        env[var] = str(min(max(threads, 1), _nproc()))
        setting[var] = int(env[var])
    return env, setting


def _time_setup(spec: Path, env: dict, launches: int) -> list[float]:
    times = []
    for _ in range(launches):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"),
                                 str(spec)], env=env,
                                stdout=subprocess.DEVNULL)
        # a plain wait() returns as soon as the probe exits; wait(timeout)
        # polls every 50 ms and would round each time up to that step
        watchdog = threading.Timer(60.0, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise subprocess.CalledProcessError(code, proc.args)
    return times


def _per_layer(result: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the two traced runs: counts from the first
    (the worker checked that the second repeats them), times as the median
    of the two."""
    traced = result["traced"]
    untraced_s = next(r["seconds"] for r in result["runs"]
                      if r["label"] == "untraced")
    wall = statistics.median(r["seconds"] for r in result["runs"]
                             if r["label"].startswith("traced"))

    def row(name):
        return [t.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                             "counts": {}, "under": {}}) for t in traced]

    def secs(name, key="s"):
        return statistics.median(r[key] for r in row(name)), "s"

    def count(name, key="calls"):
        r = row(name)[0]
        return float(r["calls"] if key == "calls" else
                     r["counts"].get(key, 0)), "count"

    cg_unknown_iters = count("numerics.cg", "unknown_iters")[0]
    lbfgs_iters = count("numerics.lbfgs", "iters")[0]
    energy_evals = float(row("numerics.lbfgs.energy")[0]["under"]
                         .get("numerics.lbfgs", 0))
    m = {
        "numerics.cg.calls": count("numerics.cg"),
        "numerics.cg.iters": count("numerics.cg", "iters"),
        "numerics.cg.s": secs("numerics.cg"),
        "numerics.cg.self_s": secs("numerics.cg", "self_s"),
        "numerics.cg.unknown_iters": (cg_unknown_iters, "count"),
        "numerics.cg.s_per_unknown_iter": (
            secs("numerics.cg")[0] / cg_unknown_iters
            if cg_unknown_iters else 0.0, "s"),
        "numerics.cg.bytes_computed": (
            count("numerics.cg", "bytes_computed")[0], "bytes"),
        "numerics.bicgstab.calls": count("numerics.bicgstab"),
        "numerics.bicgstab.iters": count("numerics.bicgstab", "iters"),
        "numerics.bicgstab.s": secs("numerics.bicgstab"),
        "numerics.lbfgs.calls": count("numerics.lbfgs"),
        "numerics.lbfgs.iters": (lbfgs_iters, "count"),
        "numerics.lbfgs.s": secs("numerics.lbfgs"),
        "numerics.lbfgs.energy_evals": (energy_evals, "count"),
        "numerics.lbfgs.grad_evals": (
            float(row("numerics.lbfgs.grad")[0]["under"]
                  .get("numerics.lbfgs", 0)), "count"),
        "numerics.lbfgs.accept_ratio": (
            lbfgs_iters / energy_evals if energy_evals else 0.0, "ratio"),
        "numerics.assemble.calls": count("numerics.assemble"),
        "numerics.assemble.s": secs("numerics.assemble"),
        "numerics.system.calls": count("numerics.system"),
        "numerics.system.s": secs("numerics.system"),
        "fields.eval.calls": count("fields.eval"),
        "fields.eval.points": count("fields.eval", "points"),
        "fields.eval.s": secs("fields.eval"),
        "fields.statistic.calls": count("fields.statistic"),
        "fields.statistic.s": secs("fields.statistic"),
        "cell.homogenize.calls": count("cell.homogenize"),
        "cell.homogenize.self_s": secs("cell.homogenize", "self_s"),
        "perforation.masked.s": secs("perforation.masked"),
        "perforation.penalized.s": secs("perforation.penalized"),
        "perforation.lambda.self_s": secs("perforation.lambda", "self_s"),
        "perforation.membership.s": secs("perforation.membership"),
        "stability.stochastic.self_s": secs("stability.stochastic", "self_s"),
        "svgplot.io.calls": count("svgplot.io"),
        "svgplot.io.bytes": (count("svgplot.io", "bytes")[0], "bytes"),
        "svgplot.io.s": secs("svgplot.io"),
        "svgplot.plot.s": secs("svgplot.plot"),
        "experiment_spec.parse.s": secs("experiment_spec.parse"),
        "cli.run.self_s": secs("cli.run", "self_s"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_s": (wall - untraced_s, "s"),
    }
    return m


def _self_time_table(result: dict) -> list[str]:
    summary = result["traced"][0]
    wall = summary["cli.main"]["s"]
    lines = [f"  {'span':<26}{'calls':>8}{'incl s':>10}{'self s':>10}"
             f"{'self %':>8}  counts"]
    for name, r in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
        counts = " ".join(f"{k}={v}" for k, v in sorted(r["counts"].items()))
        lines.append(f"  {name:<26}{r['calls']:>8}{r['s']:>10.3f}"
                     f"{r['self_s']:>10.3f}{100 * r['self_s'] / wall:>7.1f}%"
                     f"  {counts}")
    return lines


def _role_line(workload: str, metrics: dict) -> str:
    """Whether the traced split shows the job the workload was chosen for.

    Informational: a later solver change may rightly move these shares."""
    wall = metrics["trace.wall_s"][0]
    cg_self = metrics["numerics.cg.self_s"][0] / wall
    cg_incl = metrics["numerics.cg.s"][0] / wall
    lbfgs = metrics["numerics.lbfgs.s"][0] / wall
    if workload == "penergy-cell":
        holds = lbfgs >= 0.90 and cg_incl <= 0.05
        claim = (f"numerics.lbfgs.s {lbfgs:.1%} of traced wall (>= 90%), "
                 f"numerics.cg.s {cg_incl:.1%} (<= 5%)")
    else:
        holds = cg_self >= 0.80
        claim = f"numerics.cg.self_s {cg_self:.1%} of traced wall (>= 80%)"
    return f"role {'holds' if holds else 'NOT met'}: {claim}"


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 size: str = "full",
                 setup_launches: int = SETUP_LAUNCHES) -> tuple[dict, int]:
    """Run one workload end to end; returns (JSON line object, exit code)."""
    started = time.monotonic()
    load_start = os.getloadavg()[0]
    env, blas = _child_env()
    work = STATE / "work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec_path = work / "spec.json"
    spec_path.write_text(wl.spec_text(workload, size), encoding="utf-8")

    setup = [] if trace else _time_setup(spec_path, env, setup_launches)
    result_path = work / "result.json"
    budget = DEADLINE_S - (time.monotonic() - started)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace), "--size", size, "--work", str(work / "worker"),
         "--result", str(result_path)],
        env=env, capture_output=True, text=True, timeout=budget)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    result = json.loads(result_path.read_text(encoding="utf-8"))

    runs = result["runs"]
    failed = [r for r in runs if r["failures"]]
    env_record = {
        **result["versions"], "nproc": _nproc(), "blas_threads": blas,
        "load1_start": load_start, "load1_end": os.getloadavg()[0],
        "seed": seed, "spec_seed": result["spec_seed"],
        "seeded": workload in wl.SEEDED,
    }
    if trace:
        metrics = _per_layer(result)
    else:
        walls = [r["seconds"] for r in runs]
        metrics = {"wall_s": (statistics.median(walls), "s"),
                   "setup_s": (statistics.median(setup), "s"),
                   "peak_rss_mb": (result["peak_rss_mb"], "MB")}

    seed_note = (f"spec seed {result['spec_seed']} = {seed} mod "
                 f"{wl.SEED_POOL}" if workload in wl.SEEDED
                 else "seedless workload, --seed unused")
    print(f"perfbench {workload} ({size}) trace={trace}: {seed_note}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env_record.items()))
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "wall_s":
            note = (f"  (median of {len(runs)} runs, min {min(walls):.4f},"
                    f" max {max(walls):.4f})")
        elif name == "setup_s":
            note = f"  (median of {len(setup)} launches)"
        print(f"  {name:<32} {value:.6g} {unit}{note}")
    print(f"  {'fail_ratio':<32} {len(failed)}/{len(runs)} = "
          f"{len(failed) / len(runs):.3g}")
    for r in failed[:5]:
        print(f"  FAILED {r['label']}: {'; '.join(r['failures'])}")
    if len(failed) > 5:
        print(f"  ... and {len(failed) - 5} more failed runs")
    if result["warmup_failures"]:
        print(f"  warm-up run failed: {result['warmup_failures']}")
    if trace:
        print("self time per span name (first traced run):")
        print("\n".join(_self_time_table(result)))
        if size == "full":
            print(_role_line(workload, metrics))
        shutil.copy(work / "worker" / "spans.jsonl",
                    STATE / f"spans-{workload}-seed{seed}.jsonl")

    correct = not failed and not result["warmup_failures"]
    line = {"correct": correct, "attempted": len(runs), "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}
    (STATE / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps({"line": line, "env": env_record, "runs": runs,
                    "setup_s": setup}, indent=1), encoding="utf-8")
    return line, 0 if correct else 1


def smoke() -> int:
    """Tiny specs through the whole harness; every metric of BENCHMARK.json
    must appear, with its unit, in the mode that reports it."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
            1: {m["name"]: m["unit"] for m in declared["per_layer"]}}
    problems = []
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            line, code = run_workload(workload, 0, 1.0, trace, size="tiny",
                                      setup_launches=2)
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            mismatch = set(got.items()) ^ set(want[trace].items())
            if mismatch:
                problems.append(f"{workload} trace={trace}: metrics "
                                f"{sorted(mismatch)} differ")
            if code != 0:
                problems.append(f"{workload} trace={trace}: not correct")
    for p in problems:
        print(f"smoke FAILED: {p}", file=sys.stderr)
    print("smoke ok" if not problems else "smoke failed")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="homlab benchmark")
    ap.add_argument("--workload", nargs="+", choices=wl.WORKLOADS,
                    default=list(wl.WORKLOADS),
                    help="workloads to run, in order (default: all three); "
                         "each prints its block and its JSON line")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run tiny specs traced and untraced, check metrics")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "homlab" / "cli.py").is_file():
        print(f"no homlab sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    code = 0
    try:
        if args.smoke:
            return smoke()
        for workload in args.workload:
            line, status = run_workload(workload, args.seed, args.seconds,
                                        args.trace)
            print(json.dumps(line))
            code = max(code, status)
    except (RuntimeError, subprocess.SubprocessError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
