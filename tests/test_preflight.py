"""``validate`` is a faithful pre-flight: a spec it accepts never exits 2
when it runs, because it applies the runs' own rules."""

import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from homlab.cli import EXIT_ERROR, EXIT_GUARD, EXIT_OK, EXIT_SOLVER, main
from homlab.experiment_spec import validate_document

VALUE = st.sampled_from([1.0, 1.5, 2.5, 4.0])
FREQUENCY = st.sampled_from([0.0, 0.5, 1.0, 1.0 / 3.0, 0.41421356237])
SIZES = st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]), min_size=3,
                 max_size=3, unique=True).map(sorted)
FLIP = st.sampled_from([None, 0.25, 0.3, 0.5, 1.0]).map(
    lambda w: None if w is None else {"type": "power_of_two", "width": w})


@st.composite
def fields(draw, dim):
    kind = draw(st.sampled_from(["constant", "periodic_step",
                                 "random_checkerboard", "half_space", "trig",
                                 "matrix", "perturbed"]))
    if kind == "constant":
        return {"type": kind, "value": draw(VALUE), "dim": dim}
    if kind == "periodic_step":
        n = draw(st.integers(1, 3))
        return {"type": kind, "subdivisions": n, "dim": dim,
                "values": draw(st.lists(VALUE, min_size=n ** min(dim, 2),
                                        max_size=n ** min(dim, 2)))}
    if kind == "random_checkerboard":
        return {"type": kind, "values": [1.0, 4.0], "dim": dim,
                "seed": draw(st.integers(0, 3)), "flip": draw(FLIP)}
    if kind == "half_space":
        return {"type": kind, "gamma": 2.0, "dim": dim,
                "c": draw(st.sampled_from([0.0, 0.5, 1.25]))}
    if kind == "trig":
        return {"type": kind, "offset": 2.5, "dim": dim,
                "terms": [[0.5, draw(st.lists(FREQUENCY, min_size=dim,
                                              max_size=dim)), 0.25]]}
    if kind == "matrix":
        off = draw(st.sampled_from([0.0, 0.5]))
        return {"type": kind, "dim": dim,
                "entries": [[2.0 if i == j else off for j in range(dim)]
                            for i in range(dim)]}
    rule = draw(st.sampled_from([{"type": "power_of_two", "width": 0.5},
                                 {"type": "ball", "radius": 1.0},
                                 {"type": "lp_decay", "exponent": 2.0}]))
    return {"type": kind, "base": {"type": "constant", "value": 2.0,
                                   "dim": dim},
            "rule": rule, "amplitude": 0.5}


@st.composite
def specs(draw):
    dim = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["cell", "rve", "stability", "stochastic"]))
    p = draw(st.sampled_from([2.0, 3.0]))
    if kind == "cell":
        return {"kind": kind, "field": draw(fields(dim)), "p": p,
                "resolutions": draw(st.lists(st.integers(2, 12), min_size=1,
                                             max_size=2))}
    if kind == "rve":
        return {"kind": kind, "field": draw(fields(dim)), "p": p,
                "windows": draw(SIZES),
                "resolution_per_unit": draw(st.sampled_from([8, 16]))}
    if kind == "stability":
        return {"kind": kind, "field": draw(fields(dim)),
                "field_g": draw(fields(dim)), "p": p, "R_list": draw(SIZES),
                "window_sizes": draw(SIZES),
                "hom_resolution": draw(st.integers(2, 12)),
                "resolution_per_unit": draw(st.sampled_from([8, 16])),
                "statistic_resolution": draw(st.sampled_from([2, 4, 8]))}
    family = {"values": [1.0, 4.0], "dim": dim}
    return {"kind": kind, "trials": 8, "torus_size": draw(st.integers(2, 3)),
            "resolution_per_unit": draw(st.sampled_from([2, 4])),
            "statistic_sizes": draw(SIZES), "family": family,
            "family_g": dict(family, flip=draw(FLIP))}


@st.composite
def perforation_specs(draw):
    tree = {"kind": "perforation",
            "shape": draw(st.sampled_from(["ball", "square"])),
            # the floats and radii near 1/2, where holes pinch the cell
            "radius": draw(st.one_of(st.floats(0.0, 0.5, exclude_max=True),
                                     st.sampled_from([0.45, 0.49, 0.495]))),
            "removal": draw(st.booleans()),
            "resolution": draw(st.integers(64, 96)),
            "n_list": draw(st.lists(st.sampled_from([1.0, 4.0, 16.0, 64.0]),
                                    min_size=1, max_size=2,
                                    unique=True).map(sorted))}
    if draw(st.booleans()):
        # box_size * lambda_resolution must be a whole number of cells
        tree.update(eps_list=draw(st.lists(st.sampled_from([1.0, 0.5, 0.25]),
                                           min_size=1, max_size=2)),
                    lambda_resolution=64,
                    box_size=draw(st.integers(32, 96)) / 64,
                    cell_resolution=draw(st.integers(32, 64)))
    return tree


def run(tree, command) -> int:
    """``homlab <command> --spec <tree>`` in-process; a run writes tables
    only, into a temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(tree), encoding="utf-8")
        argv = [command, "--spec", str(path)]
        if command != "validate":
            argv += ["--out", str(Path(tmp) / "out"), "--no-plots"]
        return main(argv)


def test_odd_hom_resolution_runs_for_window_estimated_pairs():
    # only periodic densities are cell-solved at hom_resolution and half of
    # it; this spec failed validate with "must be even" and ran
    tree = {"kind": "stability", "hom_resolution": 33,
            "field": {"type": "half_space", "gamma": 2, "c": 0.5},
            "field_g": {"type": "half_space", "gamma": 2, "c": 0.25},
            "R_list": [1, 2, 3], "resolution_per_unit": 8}
    assert run(tree, "validate") == 0
    assert run(tree, "stability") == 0


@settings(derandomize=True, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(specs())
def test_accepted_specs_never_exit_2(tree):
    # tiny specs of dim 1 to 3; a run may fail a guard or a solve, but
    # never on parameters that validate let through
    if not validate_document(json.dumps(tree)):
        assert run(tree, tree["kind"]) in (EXIT_OK, EXIT_ERROR, EXIT_GUARD,
                                           EXIT_SOLVER)


@settings(derandomize=True, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(perforation_specs())
def test_accepted_perforation_specs_never_exit_2(tree):
    # tiny perforated cells and lambda problems; holes may pinch the cell
    # (a guard fires), but never on parameters that validate let through
    if not validate_document(json.dumps(tree)):
        assert run(tree, tree["kind"]) in (EXIT_OK, EXIT_ERROR, EXIT_GUARD,
                                           EXIT_SOLVER)
