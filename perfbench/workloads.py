"""The three benchmark workloads: their specs, key numbers and output checks.

Each workload is one experiment spec run through ``homlab.cli.main`` with the
default flags (one thread, plots on). Why each exists, and which layer metric
should move which end-to-end metric on it, is in ``README.md`` next to this
file; the short form:

* ``stochastic-torus`` -- 32 independent mean-zero CG solves on a 120^2
  torus. CG self time dominates, so a torus preconditioner or a process pool
  over trials shows here.
* ``perforation-box`` -- Jacobi CG on a 319^2 Dirichlet box with a lambda*M
  shift, masked Neumann-hole solves, and large assemblies. The same CG layer
  used differently: a torus-only speed-up that slows the box or masked path
  shows here.
* ``penergy-cell`` -- L-BFGS with Armijo backtracking on the torus; CG runs
  only as the warm start, so CG changes should leave it unmoved.

Only ``stochastic-torus`` takes a seed. The benchmark maps its ``--seed``
onto ``seed % SEED_POOL`` and hands that to the CLI's ``--seed``; every seed
of the pool has recorded reference values (``reference.json``), so every run
is checked against them. The other two workloads are seedless.

Every workload also has a tiny variant with the same kind and the same output
shape, used to warm a worker process up and by the smoke mode.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

SEED_POOL = 32

# Relative tolerance against the recorded reference values; the same level as
# the package's energy/flux cross-check (cell._CROSS_CHECK_TOL), with the
# same max(|ref|, 1) scale. A better-conditioned solver may move 12-digit
# outputs in the last digit, not beyond that.
REFERENCE_RTOL = 1e-8

_CHECKERBOARD = {"type": "checkerboard_family", "values": [1.0, 4.0]}
_FLIPPED = dict(_CHECKERBOARD, flip={"type": "power_of_two", "width": 1.0})

SPECS = {
    "stochastic-torus": {
        "full": {"kind": "stochastic", "seed": 11,
                 "family": _CHECKERBOARD, "family_g": _FLIPPED,
                 "trials": 8, "torus_size": 15, "resolution_per_unit": 8,
                 "statistic_sizes": [8, 16, 32]},
        "tiny": {"kind": "stochastic", "seed": 11,
                 "family": _CHECKERBOARD, "family_g": _FLIPPED,
                 "trials": 8, "torus_size": 8, "resolution_per_unit": 2,
                 "statistic_sizes": [8, 16, 32]},
    },
    "perforation-box": {
        "full": {"kind": "perforation", "shape": "ball", "radius": 0.25,
                 "resolution": 64, "n_list": [4, 16, 64, 256],
                 "eps_list": [0.25, 0.125], "lambda_resolution": 160,
                 "cell_resolution": 64},
        "tiny": {"kind": "perforation", "shape": "ball", "radius": 0.25,
                 "resolution": 64, "n_list": [4, 16],
                 "eps_list": [0.5, 0.25], "lambda_resolution": 64,
                 "cell_resolution": 32},
    },
    "penergy-cell": {
        "full": {"kind": "cell", "p": 3.0,
                 "field": {"type": "periodic_step", "subdivisions": 2,
                           "values": [1.0, 4.0, 4.0, 1.0], "dim": 2},
                 "resolutions": [32, 64]},
        "tiny": {"kind": "cell", "p": 3.0,
                 "field": {"type": "periodic_step", "subdivisions": 2,
                           "values": [1.0, 4.0, 4.0, 1.0], "dim": 2},
                 "resolutions": [8, 16]},
    },
}

WORKLOADS = tuple(SPECS)
SEEDED = {"stochastic-torus"}

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def spec_seed(workload: str, seed: int) -> int | None:
    """Seed handed to the CLI's ``--seed``, or None for seedless workloads."""
    return seed % SEED_POOL if workload in SEEDED else None


def spec_text(workload: str, size: str) -> str:
    return json.dumps(SPECS[workload][size], indent=2, sort_keys=True) + "\n"


def cli_argv(workload: str, spec_path: Path, out_dir: Path,
             seed: int | None) -> list[str]:
    argv = [SPECS[workload]["full"]["kind"], "--spec", str(spec_path),
            "--out", str(out_dir)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return argv


def reference_key(workload: str, size: str, seed: int | None) -> str:
    return f"{workload}/{size}" + ("" if seed is None else f"/seed={seed}")


def _csv_columns(path: Path) -> dict[str, list[float]]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return {k: [float(r[k]) for r in rows] for k in rows[0]}


def _flat(nested) -> list[float]:
    if isinstance(nested, (list, tuple)):
        return [x for item in nested for x in _flat(item)]
    return [float(nested)]


def key_numbers(workload: str, out: Path) -> dict[str, list[float]]:
    """The numbers a run is judged by, read back from its artifacts."""
    if workload == "stochastic-torus":
        summary = json.loads((out / "stochastic_summary.json").read_text())
        keys = ("mean_f", "mean_g", "stderr_f", "stderr_g",
                "paired_difference_mean", "paired_difference_stderr")
        numbers = {k: _flat(summary[k]) for k in keys}
        trace = summary["statistic_trace"]
        numbers["statistic_mean"] = [row[1] for row in trace]
        numbers["statistic_stderr"] = [row[2] for row in trace]
        numbers["intervals_overlap"] = [float(summary["intervals_overlap"])]
        return numbers
    if workload == "perforation-box":
        table = _csv_columns(out / "perforation.csv")
        summary = json.loads((out / "perforation_summary.json").read_text())
        return {"penalized": table["penalized"],
                "masked": [summary["masked"]],
                "theta": [summary["theta"]],
                "hom_matrix": _flat(summary["hom_matrix"]),
                "distances": summary["distances"]}
    if workload == "penergy-cell":
        return {"value": _csv_columns(out / "cell.csv")["value"]}
    raise KeyError(workload)


def _strictly_decreasing(xs) -> bool:
    return all(b < a for a, b in zip(xs, xs[1:]))


def invariant_failures(workload: str, numbers: dict) -> list[str]:
    """Properties the experiment must show whatever the solver."""
    bad = []
    if workload == "stochastic-torus":
        if not _strictly_decreasing(numbers["statistic_mean"]):
            bad.append("statistic means do not strictly decrease")
        if numbers["intervals_overlap"] != [1.0]:
            bad.append("intervals_overlap is false")
    elif workload == "perforation-box":
        pen, masked = numbers["penalized"], numbers["masked"][0]
        if not _strictly_decreasing(pen):
            bad.append("penalized values do not strictly decrease in n")
        if min(pen) < masked:
            bad.append("a penalized value falls below the masked value")
        if not _strictly_decreasing(numbers["distances"]):
            bad.append("lambda distances do not decrease with epsilon")
    elif workload == "penergy-cell":
        if not all(v > 0 for v in numbers["value"]):
            bad.append("a cell energy is not positive")
    return bad


def reference_failures(numbers: dict, reference: dict | None) -> list[str]:
    if reference is None:
        return ["no reference values recorded for this spec"]
    bad = []
    for name, want in reference.items():
        got = numbers.get(name)
        if got is None or len(got) != len(want):
            bad.append(f"{name}: shape differs from the reference")
            continue
        for i, (g, w) in enumerate(zip(got, want)):
            if abs(g - w) > REFERENCE_RTOL * max(abs(w), 1.0):
                bad.append(f"{name}[{i}] = {g!r}, reference {w!r}")
    return bad


def load_references() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def artifact_bytes(out: Path) -> dict[str, bytes]:
    """CSV/SVG artifacts, which reruns of the same code must reproduce."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.suffix in (".csv", ".svg")}
