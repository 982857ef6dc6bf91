"""In-memory span tracing of homlab from outside the package.

The package itself carries no tracing. ``Tracer.install`` wraps the public
functions of each module listed in ``TARGETS`` and restores them on exit.
Modules bind names with ``from .numerics import cg_solve``, so a module-level
function is rebound in every ``homlab`` module that holds it (``cell``,
``rve``, ``perforation``, ``stability``, ``cli``, ...), not only where it is
defined. Methods are wrapped on their class.

A span records name (the layer), the wrapped function, start, end, parent
span and run id, plus counts taken from the call's arguments and result.
Spans stay in memory until ``write_jsonl`` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

# Vector passes per CG iteration, from the loop body of numerics.cg_solve:
# p@Ap 2, x += alpha*p 5, r -= alpha*Ap 5, r@z 2, p = z + beta*p 5,
# norm(r) 1, plus 3 for the Jacobi scaling z = inv_diag*r.
_CG_VECTOR_PASSES = 20
_CG_JACOBI_PASSES = 3


def _cg_counts(args, kwargs, result):
    system = args[0]
    iters = result[1].iterations
    n = system.n
    A = system.matrix
    jacobi = kwargs.get("jacobi", args[4] if len(args) > 4 else False)
    # computed, not measured: one CSR matvec (values, column indices, row
    # offsets, read p, write Ap) plus the vector passes, per iteration
    matvec = (A.data.itemsize * A.nnz + A.indices.itemsize * A.nnz
              + A.indptr.itemsize * (n + 1) + 2 * 8 * n)
    passes = _CG_VECTOR_PASSES + (_CG_JACOBI_PASSES if jacobi else 0)
    return {"iters": iters, "unknown_iters": n * iters,
            "bytes_computed": iters * (matvec + passes * 8 * n)}


def _iterations(args, kwargs, result):
    return {"iters": result[1].iterations}


def _points(args, kwargs, result):
    return {"points": len(result)}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute or Class.method, layer, counter)
TARGETS = (
    ("homlab.numerics", "cg_solve", "numerics.cg", _cg_counts),
    ("homlab.numerics", "krylov_solve_nonsymmetric", "numerics.bicgstab",
     _iterations),
    ("homlab.numerics", "minimize_p_energy", "numerics.lbfgs", _iterations),
    ("homlab.numerics", "PEnergyProblem.value", "numerics.lbfgs.energy", None),
    ("homlab.numerics", "PEnergyProblem.gradient", "numerics.lbfgs.grad",
     None),
    ("homlab.numerics", "ElementOps.assemble_stiffness", "numerics.assemble",
     None),
    ("homlab.numerics", "ElementOps.assemble_mass", "numerics.assemble", None),
    ("homlab.numerics", "SparseSystem.__post_init__", "numerics.system", None),
    ("homlab.fields", "eval_scalar", "fields.eval", _points),
    ("homlab.fields", "eval_matrix", "fields.eval", _points),
    ("homlab.fields", "element_coefficients", "fields.eval", _points),
    ("homlab.fields", "mean_abs_statistic", "fields.statistic", None),
    ("homlab.fields", "expectation_statistic", "fields.statistic", None),
    ("homlab.cell", "homogenize_matrix", "cell.homogenize", None),
    ("homlab.cell", "p_energy_result", "cell.homogenize", None),
    ("homlab.perforation", "masked_cell_value", "perforation.masked", None),
    ("homlab.perforation", "masked_cell_matrix", "perforation.masked", None),
    ("homlab.perforation", "penalized_cell_value", "perforation.penalized",
     None),
    ("homlab.perforation", "lambda_problem_experiment", "perforation.lambda",
     None),
    ("homlab.perforation", "PerforationSet.membership",
     "perforation.membership", None),
    ("homlab.stability", "stochastic_stability_experiment",
     "stability.stochastic", None),
    ("homlab.svgplot", "write_csv", "svgplot.io", _file_bytes),
    ("homlab.svgplot", "write_text_atomic", "svgplot.io", _file_bytes),
    ("homlab.svgplot", "plot_series", "svgplot.plot", None),
    ("homlab.experiment_spec", "validate_document", "experiment_spec.parse",
     None),
    ("homlab.experiment_spec", "parse_spec", "experiment_spec.parse", None),
    ("homlab.cli", "run_experiment", "cli.run", None),
)


@dataclass
class Span:
    id: int
    name: str
    fn: str
    start: float
    parent: int | None
    run_id: str
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder; one per traced process, spans kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.run_id = ""

    def open(self, name: str, fn: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, fn, time.perf_counter(), parent,
                    self.run_id)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span):
        span.end = time.perf_counter()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    @contextmanager
    def span(self, name: str, fn: str = ""):
        s = self.open(name, fn or name)
        try:
            yield s
        finally:
            self.close(s)

    def wrap(self, fn, name: str, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name, fn.__qualname__)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def install(self):
        """Wrap every target for the duration of the block."""
        undo = []
        try:
            for module_name, attr, name, counter in TARGETS:
                module = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self.wrap(original, name, counter))
                    undo.append((cls, meth, original))
                    continue
                original = getattr(module, attr)
                wrapped = self.wrap(original, name, counter)
                for mod_name, mod in list(sys.modules.items()):
                    if not mod_name.startswith("homlab") or mod is None:
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
                            undo.append((mod, key, original))
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s), sort_keys=True) + "\n")


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per layer: calls, inclusive seconds and summed counts over outermost
    spans (a span nested in one of the same name is not counted again), and
    self seconds over all spans.
    """
    by_id = {s.id: s for s in spans}
    child_seconds = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_seconds[s.parent] += s.seconds
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0,
                                                "self_s": 0.0,
                                                "counts": defaultdict(int),
                                                "under": defaultdict(int)})
    for s in spans:
        row = out[s.name]
        row["self_s"] += s.seconds - child_seconds[s.id]
        parent = by_id.get(s.parent)
        if parent is not None:
            row["under"][parent.name] += 1
        ancestor = parent
        while ancestor is not None and ancestor.name != s.name:
            ancestor = by_id.get(ancestor.parent)
        if ancestor is not None:
            continue
        row["calls"] += 1
        row["s"] += s.seconds
        for key, value in s.counts.items():
            row["counts"][key] += value
    return {name: {"calls": r["calls"], "s": r["s"], "self_s": r["self_s"],
                   "counts": dict(r["counts"]), "under": dict(r["under"])}
            for name, r in out.items()}
