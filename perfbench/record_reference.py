"""Record the reference key numbers that every benchmark run is checked
against, into ``reference.json`` next to this file.

Run it only on a commit whose outputs are trusted (it records what the code
computes now), with the BLAS thread setting the benchmark uses:

    python3 perfbench/record_reference.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import workloads as wl
from run import BLAS_VARS, ROOT, STATE

for var in BLAS_VARS:
    os.environ.setdefault(var, "1")
sys.path.insert(0, str(ROOT / "src"))

import homlab.cli as cli  # noqa: E402


def record(workload: str, size: str, seed, tmp: Path) -> dict:
    spec = tmp / "spec.json"
    spec.write_text(wl.spec_text(workload, size), encoding="utf-8")
    out = tmp / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(wl.cli_argv(workload, spec, out, seed))
    if code != 0:
        raise SystemExit(f"{workload}/{size} seed {seed}: exit code {code}")
    numbers = wl.key_numbers(workload, out)
    bad = wl.invariant_failures(workload, numbers)
    if bad:
        raise SystemExit(f"{workload}/{size} seed {seed}: {bad}")
    return numbers


def main():
    refs = {}
    STATE.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=STATE) as tmp:
        for workload in wl.WORKLOADS:
            seeds = (range(wl.SEED_POOL) if workload in wl.SEEDED
                     else [None])
            for size in ("tiny", "full"):
                for seed in seeds:
                    key = wl.reference_key(workload, size, seed)
                    refs[key] = record(workload, size, seed, Path(tmp))
                    print(key, flush=True)
    wl.REFERENCE_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True)
                                 + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
