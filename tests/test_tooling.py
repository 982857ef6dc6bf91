"""Checks on the structure the tooling relies on: every function the benchmark
tracer wraps still exists, the experiment layer leaves the solver policy to
``numerics``, and importing the CLI loads no solver module it may not need
(validating a spec and a p-energy cell run load no scipy, a p-energy window
run only scipy.fft, and a torus-only stochastic run no scipy.fft), the CLI's
runners leave every write to its one artifact writer, one type describes
every energy density, plots have one x axis, grid arrays take their tensor
layout from one helper pair and the Q1 reference element is one tensor
product with no branch on the dimension, and result records hold only fields
that something reads, and the solve path takes no solver options: symmetry is
read from the coefficients, and every term of the equation reaches the solve
kernel per element and is assembled on the solve's grid block as its whole
stencil table, one layout for every system, and ``validate`` calls the
runs' own rules instead of borrowing private helpers
or copying them, and every soundness guard reads its tolerance from one table
in ``numerics``, and an L-BFGS gradient reuses the point rows its line search
built, and an assembled matrix takes its slot order from the stencil
table, unsorted where a torus row wraps, and built slab by slab without an
array over the whole table, and a constant coefficient reaches the solve
kernel as a read-only broadcast view, read in place by ``is_symmetric``,
and every energy and flux read off a corrector comes from
``numerics.corrector_response``, and the symmetry check reads the stencil
table with no transpose map, and the lambda problem's box never builds the
element-to-node map."""

import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import platform
import subprocess
import sys
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    # the tracer defines dataclasses, which look their module up by name
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_tracer_targets_resolve(tracer):
    assert tracer.TARGETS
    for module_name, attr, _, _ in tracer.TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert callable(vars(getattr(module, cls_name)).get(meth)), attr
        else:
            assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


@pytest.mark.parametrize("module_name", ["homlab.cell", "homlab.rve",
                                         "homlab.perforation",
                                         "homlab.stability"])
def test_experiment_layer_takes_no_solver_config(module_name):
    module = importlib.import_module(module_name)
    functions = [(name, fn) for name, fn in inspect.getmembers(module,
                                                               inspect.isfunction)
                 if fn.__module__ == module_name and not name.startswith("_")]
    assert functions
    for name, fn in functions:
        assert "config" not in inspect.signature(fn).parameters, name


def test_cli_import_leaves_csgraph_unloaded(tmp_path):
    # neither the import nor a masked perforation run loads
    # scipy.sparse.csgraph, or the scipy.sparse.linalg and scipy.linalg it
    # would pull in: the masked solves' connectivity check is numpy alone.
    # scipy.special is not pinned, since scipy.fft loads it for the box
    # preconditioner
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys, homlab.cli; print('scipy.sparse.csgraph' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "False"

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(TINY_PERFORATION), encoding="utf-8")
    argv = ["perforation", "--spec", str(spec), "--out", str(tmp_path / "out"),
            "--no-plots"]
    code = ("import json, sys\n"
            "from homlab import cli\n"
            f"code = cli.main({argv!r})\n"
            f"print(json.dumps([code, {SCIPY_LOADED}]))")
    exit_code, loaded = _fresh_python(code)
    assert exit_code == 0
    assert "scipy.sparse" in loaded      # the run did assemble and solve
    unwanted = ("scipy.sparse.csgraph", "scipy.sparse.linalg", "scipy.linalg")
    assert [m for m in loaded if m.startswith(unwanted)] == []
    assert (tmp_path / "out" / "lambda.csv").is_file()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
@pytest.mark.parametrize("run", [False, True])
def test_cli_keeps_freed_arrays_in_the_heap(tmp_path, run):
    """Once ``cli.main`` has started, arrays of a repeated step are served
    from the heap they were freed to: after a 1 MB array is freed, rounds
    of three 880 KB arrays take no minor page fault. Without the fixed
    thresholds glibc's dynamic ones follow that freed 1 MB block, and each
    round's three frees give the heap top back to the system, so every
    round faults its pages in again (~600 faults a round)."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(P_ENERGY_CELL), encoding="utf-8")
    argv = ["validate", "--spec", str(spec)]
    code = ("import resource, numpy as np\n"
            + ("from homlab import cli\n"
               f"assert cli.main({argv!r}) == 0\n" if run else "")
            + "faults = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "np.ones(1 << 17)\n"
            "step = lambda: [np.ones(110_000) for _ in range(3)]\n"
            "step()\n"
            "before = faults()\n"
            "for _ in range(5):\n"
            "    step()\n"
            "print(faults() - before)")
    faults = _fresh_python(code)
    assert (faults < 50) if run else (faults > 5 * 300)


P_ENERGY_CELL = {"kind": "cell", "p": 3.0, "xi": [1.0],
                 "field": {"type": "periodic_step", "subdivisions": 2,
                           "values": [1.0, 4.0], "dim": 1},
                 "resolutions": [8, 16]}

SCIPY_LOADED = ("sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.'))")


def _fresh_python(code: str, stdin: str = "") -> list:
    """Run ``code`` in a new interpreter on the repo's sources and return
    what its last printed line evaluates to."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], input=stdin,
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    return json.loads(out.stdout.splitlines()[-1])


def test_validate_and_parse_load_no_scipy():
    # scipy.sparse is loaded by the first assembly; importing the CLI and
    # validating or parsing any spec need none of scipy
    from test_experiment_spec import ROUND_TRIP_DOCS

    docs = ROUND_TRIP_DOCS + [P_ENERGY_CELL]
    code = ("import json, sys\n"
            "import homlab.cli\n"
            "from homlab.experiment_spec import parse_spec, validate_document\n"
            "for doc in json.load(sys.stdin):\n"
            "    text = json.dumps(doc)\n"
            "    assert validate_document(text) == [], doc\n"
            "    parse_spec(text)\n"
            f"print(json.dumps({SCIPY_LOADED}))")
    assert _fresh_python(code, json.dumps(docs)) == []


def test_validate_and_parse_load_only_their_kind():
    # the perforation and stability rules are imported by the checks that
    # call them: a cell spec loads neither module, a stochastic spec (whose
    # flip alignment is a stability rule) does not load perforation
    code = ("import json, sys\n"
            "import homlab.cli\n"
            "from homlab.experiment_spec import parse_spec, validate_document\n"
            "text = sys.stdin.read()\n"
            "assert validate_document(text) == []\n"
            "parse_spec(text)\n"
            "print(json.dumps([m for m in ('homlab.perforation', 'homlab.stability')\n"
            "                  if m in sys.modules]))")
    assert _fresh_python(code, json.dumps(P_ENERGY_CELL)) == []
    assert "homlab.perforation" not in _fresh_python(code, json.dumps(TINY_STOCHASTIC))


def test_p_energy_cell_run_loads_no_scipy(tmp_path):
    # a p != 2 cell run minimizes by L-BFGS and assembles no matrix
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(P_ENERGY_CELL), encoding="utf-8")
    argv = ["cell", "--spec", str(spec), "--out", str(tmp_path / "out"), "--no-plots"]
    code = ("import json, sys\n"
            "from homlab import cli\n"
            f"code = cli.main({argv!r})\n"
            f"print(json.dumps([code, {SCIPY_LOADED}]))")
    assert _fresh_python(code) == [0, []]
    assert (tmp_path / "out" / "cell.csv").is_file()


P_ENERGY_RVE = {"kind": "rve", "p": 3.0,
                "field": {"type": "random_checkerboard", "values": [1.0, 4.0],
                          "seed": 3},
                "windows": [2, 4, 8], "resolution_per_unit": 4}


def test_p_energy_window_run_loads_only_scipy_fft(tmp_path):
    # a p != 2 window starts L-BFGS from w = 0 and assembles no matrix; only
    # its box preconditioner (DST-I) needs scipy.fft
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(P_ENERGY_RVE), encoding="utf-8")
    argv = ["rve", "--spec", str(spec), "--out", str(tmp_path / "out"), "--no-plots"]
    code = ("import json, sys\n"
            "from homlab import cli\n"
            f"code = cli.main({argv!r})\n"
            f"print(json.dumps([code, {SCIPY_LOADED}]))")
    exit_code, loaded = _fresh_python(code)
    assert exit_code == 0
    assert "scipy.fft" in loaded
    assert not any(m == "scipy.sparse" or m.startswith("scipy.sparse.") for m in loaded)
    assert (tmp_path / "out" / "rve.csv").is_file()


def test_lbfgs_gradients_reuse_the_line_search_rows(tmp_path, monkeypatch):
    # every gradient L-BFGS asks for is at the point whose energy it has just
    # evaluated, so it reads that evaluation's point rows instead of building
    # them again; a p-energy cell run asks for gradients only through L-BFGS
    from homlab import cli
    from homlab.numerics import PEnergyProblem

    point_rows, gradient = PEnergyProblem._point_rows, PEnergyProblem.gradient
    gradients, rows_in_gradients, inside = [], [], []

    def counting_rows(self, u_free):
        if inside:
            rows_in_gradients.append(1)
        return point_rows(self, u_free)

    def counting_gradient(self, u_free):
        gradients.append(1)
        inside.append(1)
        try:
            return gradient(self, u_free)
        finally:
            inside.pop()

    monkeypatch.setattr(PEnergyProblem, "_point_rows", counting_rows)
    monkeypatch.setattr(PEnergyProblem, "gradient", counting_gradient)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(P_ENERGY_CELL), encoding="utf-8")
    assert cli.main(["cell", "--spec", str(spec), "--out", str(tmp_path / "out"),
                     "--no-plots"]) == 0
    assert gradients and rows_in_gradients == []


TINY_STOCHASTIC = {"kind": "stochastic", "seed": 5,
                   "family": {"type": "checkerboard_family", "values": [1.0, 4.0]},
                   "family_g": {"type": "checkerboard_family", "values": [1.0, 4.0]},
                   "trials": 8, "torus_size": 2, "resolution_per_unit": 2,
                   "statistic_sizes": [8, 16, 32]}


def test_stochastic_run_loads_no_scipy_fft(tmp_path):
    # a stochastic run solves on the torus only; its preconditioner keeps
    # numpy's float64 FFT, since loading scipy.fft costs ~7 MB of peak RSS
    # and numpy's float32 FFT is no faster there
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(TINY_STOCHASTIC), encoding="utf-8")
    argv = ["stochastic", "--spec", str(spec), "--out", str(tmp_path / "out"),
            "--no-plots"]
    probe = ("import json, sys\n"
             "from homlab import cli\n"
             f"code = cli.main({argv!r})\n"
             f"print(json.dumps([code, {SCIPY_LOADED}]))")
    exit_code, loaded = _fresh_python(probe)
    assert exit_code == 0
    assert "scipy.sparse" in loaded      # the run did assemble and solve
    assert "scipy.fft" not in loaded


def test_p_energy_cell_builds_no_csr_pattern(monkeypatch):
    # the assembly pattern is built on a grid's first assembly; the p-energy
    # solves run L-BFGS only and must not pay for it, neither the torus cells
    # (penergy-cell) nor the box windows, which start from w = 0
    from homlab import cell, numerics, rve
    from homlab.fields import EnergyDensity, FieldBounds, checkerboard_step

    def refuse(*args):
        raise AssertionError("a CSR pattern was built")

    monkeypatch.setattr(numerics, "_csr_pattern", refuse)
    numerics.element_ops.cache_clear()
    field = checkerboard_step(1.0, 4.0, FieldBounds(1.0, 4.0))
    assert cell.homogenize_p_energy(field, 3.0, [1.0, 0.0], 8) > 0
    assert rve.local_min_energy(EnergyDensity(field, 3.0), 0.0, 4.0,
                                [1.0, 0.5], 8) > 0


def test_evaluations_call_no_einsum(monkeypatch):
    # element_ops builds its blocks with einsum once per grid; after that the
    # p-energy value/gradient, the corrector load and the energy/flux
    # cross-check are matrix products on those blocks
    import numpy as np

    from homlab import cell, numerics
    from homlab.fields import FieldBounds, checkerboard_step, eval_scalar

    field = checkerboard_step(1.0, 4.0, FieldBounds(1.0, 4.0))
    grid = cell.torus_grid(field, 8)
    coeff = eval_scalar(field, grid.element_centers())
    numerics.element_ops(grid)
    calls = []
    einsum = np.einsum

    def counting(*args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") == numerics.__name__:
            calls.append(args[0])
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counting)
    assert cell.homogenize_p_energy(field, 3.0, [1.0, 0.0], 8) > 0
    cell.homogenize_coefficients(grid, coeff, field.bounds)
    assert calls == []


def test_runners_yield_and_never_write():
    # every artifact goes through cli._write_artifacts; a runner only yields
    # (file name, payload) pairs and takes no output directory or plot flag
    from homlab import cli

    assert set(cli._RUNNERS) == set(cli.KINDS)
    for kind, fn in cli._RUNNERS.items():
        assert inspect.isgeneratorfunction(fn), kind
        assert list(inspect.signature(fn).parameters) == ["spec", "log"], kind
        names, codes = set(), [fn.__code__]
        while codes:  # the runner and the functions nested in it
            code = codes.pop()
            names |= set(code.co_names)
            codes += [c for c in code.co_consts if inspect.iscode(c)]
        assert not names & {"write_csv", "write_text_atomic", "plot_series"}, kind


def test_one_energy_density_type():
    # fields.EnergyDensity(coeff, p) is the one density type; no module keeps
    # the per-form classes or the helper that unwrapped them
    import homlab

    retired = {"QuadraticIsotropic", "QuadraticMatrix", "PPower",
               "_density_field"}
    names = ["homlab"] + [f"homlab.{m.name}"
                          for m in pkgutil.iter_modules(homlab.__path__)]
    for name in names:
        module = importlib.import_module(name)
        assert not retired & set(vars(module)), name


def test_plot_series_has_one_x_axis():
    # every plot is drawn against log2(x) and carries no title
    from homlab.svgplot import plot_series

    params = inspect.signature(plot_series).parameters
    assert not {"log_x", "title"} & set(params)


def test_grid_layout_has_one_home():
    # the x-fastest tensor layout of grid arrays is built only through
    # numerics._on_axis and numerics.tensor_points
    import homlab

    names = ["homlab"] + [f"homlab.{m.name}"
                          for m in pkgutil.iter_modules(homlab.__path__)]
    for name in names:
        source = inspect.getsource(importlib.import_module(name))
        assert "np.meshgrid" not in source, name


def test_reference_element_has_one_home():
    # the Q1 element is one tensor product of the 1D element, so numerics
    # compares no dim with an integer literal
    import ast

    from homlab import numerics

    for name in ("_G1", "_G2", "_reference_quadrature", "_reference_gradients"):
        assert not hasattr(numerics, name), name

    def is_dim(node):
        return ((isinstance(node, ast.Name) and node.id == "dim")
                or (isinstance(node, ast.Attribute) and node.attr == "dim"))

    def is_int(node):
        return isinstance(node, ast.Constant) and type(node.value) is int

    branches = []
    for node in ast.walk(ast.parse(inspect.getsource(numerics))):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, a, b in zip(node.ops, operands, operands[1:]):
                if (isinstance(op, (ast.Eq, ast.NotEq))
                        and (is_dim(a) and is_int(b) or is_int(a) and is_dim(b))):
                    branches.append(node.lineno)
    assert branches == []


def test_result_records_hold_only_read_fields():
    # a record field, or a parameter that only fills one, must have a
    # reader: the CLI, another module or a test
    import dataclasses

    from homlab import cell, perforation, stability

    def fields(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert fields(cell.HomogenizedResult) == {
        "matrix", "symmetric_input", "solver_iterations", "residuals",
        "bounds_alpha", "bounds_beta", "energy_samples", "extension_constant"}
    assert fields(perforation.LambdaReport) == {
        "epsilons", "distances", "hom_matrix", "theta"}
    assert fields(perforation.ExtensionResult) == {
        "inner_values", "annulus_mean", "gradient_ratio"}
    params = inspect.signature(cell.homogenize_coefficients).parameters
    assert "resolution" not in params
    assert not hasattr(perforation, "VolumeFraction")
    assert not hasattr(cell, "_p_energy_solve")
    assert not hasattr(stability.ApproximationTrace, "summary")


def test_run_rules_have_one_home():
    # validate calls the rules the runs apply (cell.torus_grid,
    # stability.check_hom_resolution, numerics.MAX_DIM) instead of keeping
    # copies, and no module borrows another's private helper
    import ast

    from homlab import cell, experiment_spec, perforation, stability

    for module in (experiment_spec, stability, perforation):
        tree = ast.parse(inspect.getsource(module))
        borrowed = [alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    and (node.level or node.module.startswith("homlab"))
                    for alias in node.names if alias.name.startswith("_")]
        assert borrowed == [], module.__name__
    assert not hasattr(experiment_spec, "_even")
    assert not hasattr(stability, "_is_periodic")
    assert not hasattr(cell, "_check_alignment")


def test_guard_tolerances_have_one_home():
    # every soundness guard reads its tolerance from the numerics table: no
    # function that raises GuardError, and none of the ValueError symmetry
    # and ellipticity checks, holds a float literal in [1e-299, 1e-6] (the
    # 1e-300 zero-scale floor lies below that range)
    import ast

    from homlab import cell, fields, numerics, rve, stability

    also = {"SparseSystem.__post_init__", "is_symmetric", "constant_matrix"}

    def raises_guard(fn):
        for node in ast.walk(fn):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "GuardError":
                    return True
        return False

    def functions(node, prefix=""):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                yield prefix + child.name, child
                yield from functions(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                yield from functions(child, prefix + child.name + ".")

    found, checked = [], set()
    for module in (numerics, fields, cell, rve, stability):
        tree = ast.parse(inspect.getsource(module))
        for name, fn in functions(tree):
            if name in also or raises_guard(fn):
                checked.add(name)
                found += [(module.__name__, name, node.value)
                          for node in ast.walk(fn)
                          if isinstance(node, ast.Constant)
                          and type(node.value) is float
                          and 1e-299 <= abs(node.value) <= 1e-6]
    assert found == []
    assert also | {"eval_scalar", "HomogenizedResult.__post_init__",
                   "corrector_response", "check_growth",
                   "run_stability_pair"} <= checked
    assert not hasattr(numerics, "_DUPLICATE_TOL")
    assert not hasattr(cell, "_CROSS_CHECK_TOL")
    # one row per identity: the energy/flux pairing and the growth sandwich
    assert not {"CELL_PAIRING_RTOL", "WINDOW_PAIRING_RTOL", "CELL_GROWTH_ATOL",
                "WINDOW_GROWTH_RTOL"} & set(vars(numerics))
    assert not hasattr(rve, "_check_growth")


def test_corrector_postprocessing_has_one_home():
    # every energy, flux and p-energy the package reads off a corrector comes
    # from numerics.corrector_response: no function in cell, rve or
    # perforation evaluates one, and solve_corrector is called there only for
    # the source (lambda) problem
    import ast

    from homlab import cell, perforation, rve

    evaluators = {"energy_quadratic", "flux_average", "minimize_p_energy",
                  "PEnergyProblem"}
    for module in (cell, rve, perforation):
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            assert name not in evaluators, (module.__name__, name)
            if name == "solve_corrector":
                assert "source" in {k.arg for k in node.keywords}, module.__name__


def test_solve_path_takes_no_knobs():
    # the solver policy is a set of numerics constants and symmetry is read
    # from the coefficients; only SparseSystem still takes a declaration,
    # which its constructor checks, and the solvers read the torus's
    # constant kernel off the system's pattern
    import dataclasses

    from homlab import cell, fields, numerics

    assert not {"SolverConfig", "DEFAULT_CONFIG", "_iter_cap"} & set(vars(numerics))
    functions = [fn for name, fn in inspect.getmembers(numerics, inspect.isfunction)
                 if fn.__module__ == numerics.__name__ and not name.startswith("_")]
    # and the holes from where the coefficient is zero: no element mask
    for fn in functions + [cell.homogenize_coefficients]:
        assert not ({"config", "symmetric", "active", "mean_zero"}
                    & set(inspect.signature(fn).parameters)), fn
    assert {f.name for f in dataclasses.fields(fields.MatrixField)} == {"entries", "dim"}
    assert {f.name for f in dataclasses.fields(fields.FieldBounds)} == {"alpha", "beta"}
    assert not hasattr(fields.EnergyDensity, "symmetric")
    # a box direction solve takes the torus's form: no affine lift, no
    # window center, and the p-energy unknowns follow from the topology
    assert "center" not in inspect.signature(numerics.solve_corrector).parameters
    assert {f.name for f in dataclasses.fields(numerics.PEnergyProblem)
            if f.init} == {"grid", "coeff", "p", "xi"}
    assert not hasattr(numerics, "interpolate_affine")
    assert not hasattr(numerics.Grid, "node_coords")
    # every p-energy solve starts from w = 0: no warm start to pass in
    assert list(inspect.signature(numerics.minimize_p_energy).parameters) == ["problem"]


def test_stencil_table_order_is_csr_order():
    # a pattern's slots are its stencil table's present entries in table
    # order: no builder sorts the columns, no matrix is marked canonical (a
    # wrapped torus row lists its columns unsorted) and no system sorts or
    # merges the matrix it is given
    from homlab import numerics

    assert not hasattr(numerics, "_axis_stencil")
    assert not hasattr(numerics, "_tensor_entries")
    assert "has_canonical_format" not in inspect.getsource(numerics.CsrPattern.matrix)
    source = inspect.getsource(numerics.SparseSystem)
    assert "sort_indices" not in source and "sum_duplicates" not in source


def test_box_assembly_holds_no_whole_table():
    # the stencil table is built slab by slab: the allocation peak of a
    # matrix-coefficient, shifted assembly on the interior of a 160^2 box
    # is the CSR data and the padded parameters plus one slab's buffers. A
    # whole-table build also holds the corner stack and the table at once,
    # 2.5x the data plus the padded parameters here
    import tracemalloc

    import numpy as np

    from homlab import numerics

    g = numerics.build_grid(2, 160, (0.0, 0.0), 1.0, numerics.BOX)
    ops = numerics.element_ops(g)
    pattern = ops.block_pattern
    rng = np.random.default_rng(0)
    coeff = rng.uniform(-1.0, 1.0, (g.n_elements, 2, 2)) + 3.0 * np.eye(2)
    shift = rng.uniform(0.5, 2.0, g.n_elements)
    ops.assemble_stiffness(coeff, shift, pattern)    # loads scipy.sparse if not yet
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        mat = ops.assemble_stiffness(coeff, shift, pattern)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    padded = 5 * (g.cells_per_axis + 2) ** 2 * 8    # 4 coefficient entries + the shift
    assert peak <= 1.75 * (mat.data.nbytes + padded)


def test_box_solve_holds_each_vector_once(monkeypatch):
    # after a warm-up, one shifted source solve on a 160^2 box allocates, on
    # top of the CSR data, at most 7.5 vectors of its n unknowns (7.2 here,
    # set by the assembly), and its CG call at most 5.25 beyond what is
    # live when it starts (5.03): x, r, p, A p and one temporary, with the
    # caller's right-hand side read in place and z made after A p is gone.
    # A copy of the right-hand side, a second A p, z or p beside its
    # successor lifts the CG call to 5.5-6.0, a fresh interior node list
    # per solve lifts the solve to 8.2, and the earlier kernel read 8.0 and
    # 11.7
    import tracemalloc

    import numpy as np

    from homlab import numerics

    g = numerics.build_grid(2, 160, (0.0, 0.0), 1.0, numerics.BOX)
    rng = np.random.default_rng(0)
    coeff = rng.uniform(1.0, 4.0, g.n_elements)
    shift = rng.uniform(0.5, 2.0, g.n_elements)
    source = rng.uniform(-1.0, 1.0, g.n_elements)
    numerics.solve_corrector(g, coeff, shift=shift, source=source)
    pattern = numerics._csr_pattern(2, 160, numerics.BOX, interior=True)
    n, data = len(pattern.indptr) - 1, len(pattern.indices) * 8
    seen = []       # (the solve's peak before CG, CG's own peak)
    cg_solve = numerics.cg_solve

    def measured(*args, **kwargs):
        before = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        out = cg_solve(*args, **kwargs)
        seen.append((before, tracemalloc.get_traced_memory()[1] - start))
        return out

    monkeypatch.setattr(numerics, "cg_solve", measured)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        [(w, stats)] = numerics.solve_corrector(g, coeff, shift=shift, source=source)
        [(before, cg_peak)] = seen
        peak = max(before, tracemalloc.get_traced_memory()[1]) - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert stats.iterations > 2
    assert cg_peak <= 5.25 * n * 8
    assert peak - data <= 7.5 * n * 8


@pytest.mark.parametrize("topology", ["box", "torus"])
def test_unrestricted_preconditioner_keeps_no_node_list(topology):
    # the closure of a preconditioner over every lattice node (every node of
    # a torus, the interior of a box) keeps its inverse symbol and no array
    # as long as the lattice, whether unknowns is None or the whole lattice
    import numpy as np

    from homlab import numerics

    g = numerics.build_grid(2, 24, (0.0, 0.0), 1.0, topology)
    lattice = (np.arange(g.n_nodes) if topology == "torus"
               else np.flatnonzero(~g.boundary_node_mask()))
    for unknowns in (None, lattice):
        apply = numerics.spectral_preconditioner(g, 2.0, 1.0, unknowns)
        kept = []
        for cell in apply.__closure__:
            try:
                kept.append(cell.cell_contents)
            except ValueError:      # scipy's dstn, bound on a box only
                pass
        assert not any(isinstance(v, np.ndarray) and v.ndim == 1 and len(v) == len(lattice)
                       for v in kept)
        r = np.random.default_rng(1).standard_normal(len(lattice))
        assert apply(r).shape == r.shape


def test_symmetry_check_keeps_no_transpose_map():
    # the symmetry check reads the matrix in stencil-table order: no pattern
    # holds a slot map, SparseSystem takes no map and no matrix without its
    # pattern (no key search for transposed entries), and the cached pattern
    # of the 320-cell box interior (the lambda-problem's) holds no intp
    # array as long as its slots or its table
    import dataclasses

    import numpy as np

    from homlab import numerics

    assert not hasattr(numerics.CsrPattern, "transpose")
    assert "transpose" not in {f.name for f in dataclasses.fields(numerics.CsrPattern)}
    assert "transpose" not in inspect.signature(numerics.SparseSystem).parameters
    assert not hasattr(numerics, "_stored_transpose")
    assert inspect.signature(numerics.SparseSystem).parameters["pattern"].default \
        is inspect.Parameter.empty
    g = numerics.build_grid(2, 320, (0.0, 0.0), 2.0, numerics.BOX)
    ops = numerics.element_ops(g)
    pattern = ops.block_pattern
    assert pattern is numerics._csr_pattern(2, 320, numerics.BOX, interior=True)
    lengths = {len(pattern.indices)}
    for f in dataclasses.fields(pattern):
        value = getattr(pattern, f.name)
        if isinstance(value, np.ndarray):
            assert not (value.dtype == np.intp and len(value) in lengths), f.name


def test_one_stencil_layout_for_every_system():
    # every matrix is the whole stencil table of its grid block, so no
    # pattern keeps a mask of present entries or derives a renumbered
    # pattern for a set of unknowns, and the symmetry check reads every
    # table, torus or box, with or without unknowns, on one code path of
    # shifted views
    import ast
    import dataclasses
    import textwrap

    from homlab import numerics

    assert {f.name for f in dataclasses.fields(numerics.CsrPattern)} == {
        "indptr", "indices", "first", "side", "torus", "incidence"}
    assert not hasattr(numerics.CsrPattern, "gather")
    assert not hasattr(numerics.CsrPattern, "restricted")
    assert not hasattr(numerics.ElementOps, "restricted_pattern")
    for name in ("_flat_views", "_wrapped_views", "_max_difference"):
        assert not hasattr(numerics, name), name
    source = textwrap.dedent(inspect.getsource(numerics.CsrPattern.symmetry_defect))
    assert not any(isinstance(node, ast.If) for node in ast.walk(ast.parse(source)))
    assert "np.zeros" not in source


def test_solve_corrector_takes_a_broadcast_coefficient():
    # one constant matrix reaches the kernel as a read-only broadcast view
    # of every element, not a copy, and gives the copy's solution to the bit
    import numpy as np

    from homlab import numerics

    matrix = np.array([[2.0, 0.3], [0.3, 1.5]])
    box = numerics.build_grid(2, 24, (0.0, 0.0), 1.0, numerics.BOX)
    torus = numerics.build_grid(2, 24, (0.0, 0.0), 1.0, numerics.TORUS)
    source = np.cos(3.0 * box.element_centers()).sum(axis=1)
    for grid, kwargs in ((box, {"shift": np.full(box.n_elements, 2.0), "source": source}),
                         (torus, {"xis": [np.array([1.0, 0.3])]})):
        view = np.broadcast_to(matrix, (grid.n_elements, 2, 2))
        assert not view.flags.writeable
        [(w, stats)] = numerics.solve_corrector(grid, view, **kwargs)
        [(w_copy, stats_copy)] = numerics.solve_corrector(
            grid, np.ascontiguousarray(view), **kwargs)
        assert stats.iterations == stats_copy.iterations
        assert w.tobytes() == w_copy.tobytes()


def test_is_symmetric_reads_a_broadcast_view_in_place():
    # the symmetry of one constant matrix broadcast to every element of the
    # 320^2 lambda box is read one (k, l) column at a time: the check
    # allocates less than the n_e d^2 doubles a copy of the view would take
    import tracemalloc

    import numpy as np

    from homlab import numerics

    n_e, d = 320 ** 2, 2
    for matrix, expected in (([[2.0, 0.3], [0.3, 1.5]], True), ([[2.0, 0.3], [0.2, 1.5]], False)):
        view = np.broadcast_to(np.array(matrix), (n_e, d, d))
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert numerics.is_symmetric(view) is expected
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < n_e * d * d * 8


TINY_PERFORATION = {"kind": "perforation", "shape": "ball", "radius": 0.25,
                    "resolution": 64, "n_list": [4, 16],
                    "eps_list": [0.5, 0.25], "lambda_resolution": 64,
                    "cell_resolution": 32}


def test_solve_corrector_takes_terms_per_element(tmp_path, monkeypatch):
    # the lambda-problem hands the kernel its zeroth-order term and source
    # per element, like the coefficient, and the kernel assembles them; no
    # caller builds a mass matrix or a nodal load for it
    import homlab
    import numpy as np

    from homlab import cli, numerics

    calls = []
    solve = numerics.solve_corrector

    def recording(grid, *args, **kwargs):
        calls.append((grid.n_elements, kwargs.get("shift"), kwargs.get("source")))
        return solve(grid, *args, **kwargs)

    for m in pkgutil.iter_modules(homlab.__path__):
        module = importlib.import_module(f"homlab.{m.name}")
        if getattr(module, "solve_corrector", None) is solve:
            monkeypatch.setattr(module, "solve_corrector", recording)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(TINY_PERFORATION), encoding="utf-8")
    argv = ["perforation", "--spec", str(spec), "--out", str(tmp_path / "out"),
            "--no-plots"]
    assert cli.main(argv) == 0
    shifted = [c for c in calls if c[1] is not None]
    assert len(shifted) == 1 + len(TINY_PERFORATION["eps_list"])
    for n_elements, *terms in calls:
        for values in terms:
            assert values is None or (isinstance(values, np.ndarray)
                                      and values.dtype == float
                                      and values.shape == (n_elements,))
    assert not hasattr(numerics.CsrPattern, "holds")


def test_lambda_box_builds_no_element_nodes(tmp_path, monkeypatch):
    # the element-to-node map is built on first read; the lambda problem's
    # box solves (source solves with scalar loads) and its interior mass
    # read none, so the box's ElementOps never holds it
    import homlab
    import numpy as np

    from homlab import cli, numerics

    boxes = []
    solve = numerics.solve_corrector

    def recording(grid, *args, **kwargs):
        out = solve(grid, *args, **kwargs)
        if kwargs.get("source") is not None:
            boxes.append(numerics.element_ops(grid))
        return out

    for m in pkgutil.iter_modules(homlab.__path__):
        module = importlib.import_module(f"homlab.{m.name}")
        if getattr(module, "solve_corrector", None) is solve:
            monkeypatch.setattr(module, "solve_corrector", recording)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(TINY_PERFORATION), encoding="utf-8")
    argv = ["perforation", "--spec", str(spec), "--out", str(tmp_path / "out"),
            "--no-plots"]
    assert cli.main(argv) == 0
    assert len(boxes) == 1 + len(TINY_PERFORATION["eps_list"])
    assert all(ops is boxes[0] for ops in boxes)
    assert boxes[0] is numerics.element_ops(boxes[0].grid)
    assert "elem_nodes" not in vars(boxes[0])
    nodes = boxes[0].elem_nodes     # built on the first read, read-only
    assert "elem_nodes" in vars(boxes[0]) and not nodes.flags.writeable
    assert nodes.dtype == boxes[0].grid.element_nodes().dtype
    assert np.array_equal(nodes, boxes[0].grid.element_nodes())



@pytest.mark.parametrize("tree", [TINY_PERFORATION, TINY_STOCHASTIC],
                         ids=["perforation", "stochastic"])
def test_solves_assemble_only_their_unknowns(tmp_path, monkeypatch, tree):
    # every system is assembled on its grid block and solves for its
    # unknowns there: no matrix on a box grid spans the boundary nodes,
    # every assembled matrix has the full classes**dim slots per row, each
    # SparseSystem has as many unknowns as its solve (the nodes of the
    # elements where the recorded coefficient is not zero, off a box's
    # boundary) on a matrix of the block's rows, and solve_corrector slices
    # no CSR matrix
    import homlab
    import numpy as np
    import scipy.sparse as sp

    from homlab import cli, numerics

    solves, slices, box_matrices = [], [], []
    running = []    # the system sizes of the solve in progress
    solve = numerics.solve_corrector

    def recording(grid, coeff, *args, **kwargs):
        entries = np.asarray(coeff).reshape(grid.n_elements, -1)
        solves.append((grid, np.any(entries != 0, axis=1), []))
        running.append(solves[-1][2])
        try:
            return solve(grid, coeff, *args, **kwargs)
        finally:
            running.pop()

    post_init = numerics.SparseSystem.__post_init__

    def system_recording(self):
        post_init(self)
        if running:
            running[-1].append((self.n, self.matrix.shape[0]))

    getitem = sp.csr_matrix.__getitem__

    def getitem_recording(self, key):
        if running:
            slices.append(key)
        return getitem(self, key)

    def assembling(method):
        def wrapped(self, *args, **kwargs):
            mat = method(self, *args, **kwargs)
            assert set(np.diff(mat.indptr)) == {3 ** self.grid.dim}
            if self.grid.topology == numerics.BOX:
                box_matrices.append((self.grid.n_nodes, mat.shape[0]))
            return mat
        return wrapped

    for m in pkgutil.iter_modules(homlab.__path__):
        module = importlib.import_module(f"homlab.{m.name}")
        if getattr(module, "solve_corrector", None) is solve:
            monkeypatch.setattr(module, "solve_corrector", recording)
    monkeypatch.setattr(numerics.SparseSystem, "__post_init__", system_recording)
    monkeypatch.setattr(sp.csr_matrix, "__getitem__", getitem_recording)
    for name in ("assemble_stiffness", "assemble_mass"):
        monkeypatch.setattr(numerics.ElementOps, name,
                            assembling(getattr(numerics.ElementOps, name)))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(tree), encoding="utf-8")
    argv = [tree["kind"], "--spec", str(spec), "--out", str(tmp_path / "out"),
            "--no-plots"]
    assert cli.main(argv) == 0
    assert solves and slices == []
    # only the perforation run has solves with holes
    assert any(not active.all() for _, active, _ in solves) == (tree is TINY_PERFORATION)
    for grid, active, systems in solves:
        free = np.zeros(grid.n_nodes, dtype=bool)
        free[grid.element_nodes()[active]] = True
        block = grid.n_nodes
        if grid.topology == numerics.BOX:
            free &= ~grid.boundary_node_mask()
            block = (grid.cells_per_axis - 1) ** grid.dim
        assert systems == [(int(free.sum()), block)]
    assert all(rows < n_nodes for n_nodes, rows in box_matrices)
    assert (tree is TINY_STOCHASTIC) == (box_matrices == [])
