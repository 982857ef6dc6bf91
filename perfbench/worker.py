"""One benchmark worker: runs a workload spec through ``homlab.cli.main`` in a
single warm process and checks every run's outputs.

Untraced mode repeats the spec until ``--seconds`` have passed (at least two
runs, so each run is compared with a repeat). Traced mode makes a traced, an
untraced and a second traced run; the traced runs' call and iteration counts
must repeat exactly. The result goes to ``--result`` as JSON; ``run.py`` starts
this script and turns that file into metrics.

    python3 perfbench/worker.py --workload penergy-cell --seed 0 \\
        --seconds 30 --trace 0 --size full --work DIR --result FILE
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import workloads as wl
from tracer import Tracer, summarize

ROOT = Path(__file__).resolve().parents[1]
MIN_RUNS = 2


class Runner:
    """Runs one spec repeatedly and checks each run against the first and
    against the recorded reference."""

    def __init__(self, cli, workload: str, size: str, seed: int | None,
                 work: Path):
        self.cli = cli
        self.workload = workload
        self.work = work
        self.spec_path = work / f"{workload}-{size}.json"
        self.spec_path.write_text(wl.spec_text(workload, size),
                                  encoding="utf-8")
        self.seed = seed
        self.reference = wl.load_references().get(
            wl.reference_key(workload, size, seed))
        self.first_artifacts: dict[str, bytes] | None = None
        self.runs: list[dict] = []

    def run(self, label: str, tracer: Tracer | None = None) -> dict:
        out = self.work / label
        shutil.rmtree(out, ignore_errors=True)
        argv = wl.cli_argv(self.workload, self.spec_path, out, self.seed)
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                t0 = time.perf_counter()
                code = self.cli.main(argv)
                seconds = time.perf_counter() - t0
            else:
                tracer.run_id = label
                with tracer.span("cli.main") as root:
                    code = self.cli.main(argv)
                seconds = root.seconds
        record = {"label": label, "seconds": seconds, "exit_code": code,
                  "failures": self._check(code, out)}
        self.runs.append(record)
        return record

    def _check(self, code: int, out: Path) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        try:
            numbers = wl.key_numbers(self.workload, out)
            artifacts = wl.artifact_bytes(out)
        except (OSError, KeyError, ValueError) as e:
            return [f"artifacts unreadable: {e!r}"]
        failures = wl.invariant_failures(self.workload, numbers)
        failures += wl.reference_failures(numbers, self.reference)
        if self.first_artifacts is None:
            self.first_artifacts = artifacts
        elif artifacts != self.first_artifacts:
            differ = sorted(k for k in artifacts.keys() | self.first_artifacts
                            if artifacts.get(k) != self.first_artifacts.get(k))
            failures.append(f"artifacts differ from the first run: {differ}")
        if self.runs:
            shutil.rmtree(out, ignore_errors=True)
        return failures


def _layer_counts(summary: dict) -> dict:
    return {name: dict(row["counts"], calls=row["calls"], under=row["under"])
            for name, row in summary.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy

    import homlab.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported homlab from {cli.__file__}, "
                         f"not from {ROOT / 'src'}")

    args.work.mkdir(parents=True, exist_ok=True)
    seed = wl.spec_seed(args.workload, args.seed)
    # warm the process (imports, lazily built caches) on the tiny spec; the
    # warm-up run is checked but not counted
    warm_dir = args.work / "warmup"
    warm_dir.mkdir(exist_ok=True)
    warmup = Runner(cli, args.workload, "tiny", seed, warm_dir).run("warmup")

    runner = Runner(cli, args.workload, args.size, seed, args.work)
    traced = []
    if args.trace:
        # the untraced run sits between the traced ones, so the overhead
        # estimate is not skewed by the first full-size run or by drift
        tracer = Tracer()
        for label in ("traced-1", "untraced", "traced-2"):
            if label == "untraced":
                runner.run(label)
            else:
                first_span = len(tracer.spans)
                with tracer.install():
                    runner.run(label, tracer)
                traced.append(summarize(tracer.spans[first_span:]))
        tracer.write_jsonl(args.work / "spans.jsonl")
        first, second = map(_layer_counts, traced)
        if first != second:
            print("traced runs disagree on call or iteration counts:\n"
                  f"  {first}\n  {second}", file=sys.stderr)
            return 1
    else:
        t0 = time.perf_counter()
        while (len(runner.runs) < MIN_RUNS
               or time.perf_counter() - t0 < args.seconds):
            runner.run(f"run-{len(runner.runs)}")

    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "workload": args.workload,
        "size": args.size,
        "spec_seed": seed,
        "warmup_failures": warmup["failures"],
        "runs": runner.runs,
        "traced": traced,
        "peak_rss_mb": usage / 1024.0,
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    args.result.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
