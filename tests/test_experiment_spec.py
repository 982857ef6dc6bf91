import importlib.util
import json
from pathlib import Path

import pytest

from homlab.experiment_spec import (SpecValidationError, build_density,
                                    build_family, build_perforation,
                                    parse_spec, serialize_spec,
                                    validate_document)
from homlab.fields import (BallSupport, FieldBounds, Perturbed,
                           PowerOfTwoCells, element_coefficients)
from homlab.numerics import TORUS, build_grid, is_symmetric
from homlab.perforation import SparseRemoval


def doc(tree) -> str:
    return json.dumps(tree)


MINIMAL_CELL = {"kind": "cell", "field": {"type": "constant", "value": 2},
                "resolution": 64}


class TestParsing:
    def test_minimal_cell_fills_defaults(self):
        spec = parse_spec(doc(MINIMAL_CELL))
        assert spec.kind == "cell"
        assert spec.out == "out"
        assert "seed" not in spec.params
        assert spec.params["field"] == {"type": "constant", "value": 2.0,
                                        "alpha": 1.0, "beta": 4.0, "dim": 1}
        assert spec.params["p"] == 2.0
        assert spec.params["xi"] == (1.0,)
        assert spec.params["resolutions"] == (64,)

    def test_counterexamples_needs_no_parameters(self):
        spec = parse_spec(doc({"kind": "counterexamples"}))
        assert spec.params == {}

    def test_alpha_above_beta_names_bounds(self):
        tree = dict(MINIMAL_CELL,
                    field={"type": "constant", "value": 2,
                           "alpha": 4.0, "beta": 1.0})
        violations = validate_document(doc(tree))
        assert any(v.path == "field.bounds" for v in violations)

    def test_all_violations_reported_at_once(self):
        tree = {"kind": "cell", "bogus": 1,
                "field": {"type": "constant", "alpha": 4.0, "beta": 1.0},
                "resolution": 64}
        paths = {v.path for v in validate_document(doc(tree))}
        assert {"field.value", "field.bounds", "bogus"} <= paths

    def test_invalid_json_is_one_violation(self):
        violations = validate_document("{not json")
        assert len(violations) == 1
        assert violations[0].path == "$"

    def test_integer_beyond_float_range_is_one_violation(self):
        family = '{"values": [1, 4]}'
        text = ('{"kind": "stochastic", "seed": 1' + "0" * 400
                + f', "family": {family}, "family_g": {family}}}')
        assert [v.path for v in validate_document(text)] == ["seed"]

    def test_integer_beyond_float_range_is_out_of_range(self):
        # integer and number keys both name the range, and the echoed value
        # is a bounded excerpt, not all 401 digits
        huge = "1" + "0" * 400
        family = '{"values": [1, %s]}'
        text = ('{"kind": "stochastic", "seed": -' + huge
                + f', "family": {family % 4}, "family_g": {family % huge}}}')
        violations = validate_document(text)
        assert [v.path for v in violations] == ["seed", "family_g.values[1]"]
        for v in violations:
            assert v.message.startswith("value out of range"), v.message
            assert v.message.endswith(("(401 characters)", "(402 characters)"))
            assert len(v.message) < 120, v.message

    def test_seed_is_a_stochastic_key(self):
        # only the stochastic runner reads a seed; elsewhere it is unknown
        tree = {"kind": "rve", "seed": 3,
                "field": {"type": "half_space", "gamma": 2.0, "c": 0.5}}
        assert [(v.path, v.message) for v in validate_document(doc(tree))] == [
            ("seed", "unknown key")]
        assert parse_spec(doc(ROUND_TRIP_DOCS[5])).params["seed"] == 11

    def test_unknown_kind_and_field_type(self):
        assert any(v.path == "kind"
                   for v in validate_document(doc({"kind": "banana"})))
        tree = dict(MINIMAL_CELL, field={"type": "banana"})
        assert any(v.path == "field.type"
                   for v in validate_document(doc(tree)))

    def test_cell_rejects_non_periodic_fields(self):
        tree = dict(MINIMAL_CELL,
                    field={"type": "half_space", "gamma": 2.0, "c": 0.5})
        violations = validate_document(doc(tree))
        assert any(v.path == "field.type" and "periodic" in v.message
                   for v in violations)

    def test_resolution_shorthand_conflicts(self):
        tree = dict(MINIMAL_CELL, resolutions=[64, 128])
        violations = validate_document(doc(tree))
        assert any("not both" in v.message for v in violations)

    def test_trig_term_shape_checked(self):
        tree = dict(MINIMAL_CELL,
                    field={"type": "trig", "offset": 2.0, "dim": 2,
                           "terms": [[0.5, [1.0], 0.0]]})
        violations = validate_document(doc(tree))
        assert any(v.path == "field.terms[0]" for v in violations)

    def test_matrix_must_be_elliptic(self):
        tree = {"kind": "cell", "resolution": 32,
                "field": {"type": "matrix", "entries": [[0.5, 0], [0, 2]]}}
        violations = validate_document(doc(tree))
        assert any(v.path == "field.entries" for v in violations)
        good = {"kind": "cell", "resolution": 32,
                "field": {"type": "matrix", "entries": [[2, 1], [-1, 2]]}}
        assert validate_document(doc(good)) == []

    def test_stability_field_signatures_must_match(self):
        step1 = {"type": "periodic_step", "subdivisions": 2,
                 "values": [1.0, 4.0], "dim": 1}
        step2 = {"type": "periodic_step", "subdivisions": 2,
                 "values": [1.0, 4.0, 1.0, 4.0], "dim": 2}
        tree = {"kind": "stability", "field": step1, "field_g": step2}
        violations = validate_document(doc(tree))
        assert any(v.path == "field_g.dim" for v in violations)
        other_bounds = dict(step1, values=[1.0, 3.5], beta=3.5)
        tree = {"kind": "stability", "field": step1, "field_g": other_bounds}
        violations = validate_document(doc(tree))
        assert any(v.path == "field_g.bounds" for v in violations)

    def test_stability_t_list_follows_p(self):
        step = {"type": "periodic_step", "subdivisions": 2,
                "values": [1.0, 4.0], "dim": 1}
        tree = {"kind": "stability", "field": step, "field_g": step}
        assert parse_spec(doc(tree)).params["t_list"] == (1.0,)
        spec = parse_spec(doc(dict(tree, p=3.0)))
        assert spec.params["t_list"] == (1.0, 2.0)
        spec = parse_spec(doc(tree))
        assert spec.params["window_sizes"] == spec.params["R_list"]

    def test_window_grid_must_be_integral(self):
        tree = {"kind": "rve",
                "field": {"type": "half_space", "gamma": 2.0, "c": 0.5},
                "windows": [2.5, 5.0, 7.5], "resolution_per_unit": 3}
        violations = validate_document(doc(tree))
        assert any("must be an integer" in v.message for v in violations)

    STEP_1D = {"type": "periodic_step", "subdivisions": 2,
               "values": [1.0, 4.0], "dim": 1}
    FAMILY = {"type": "checkerboard_family", "values": [1.0, 4.0]}

    @pytest.mark.parametrize("tree, path", [
        ({"kind": "stochastic", "family": FAMILY, "family_g": FAMILY,
          "statistic_sizes": [8, 16.03, 32]}, "statistic_sizes[1]"),
        ({"kind": "stability", "field": STEP_1D, "field_g": STEP_1D,
          "R_list": [4, 8.03, 16]}, "R_list[1]"),
        ({"kind": "stability", "field": STEP_1D, "field_g": STEP_1D,
          "window_sizes": [4, 8.1, 16]}, "window_sizes[1]"),
    ])
    def test_statistic_and_window_sizes_must_be_integral(self, tree, path):
        violations = validate_document(doc(tree))
        assert [v.path for v in violations] == [path]
        assert "must be an integer" in violations[0].message

    HALF_SPACE = {"type": "half_space", "gamma": 2, "c": 0.5}

    @pytest.mark.parametrize("tree, path", [
        ({"kind": "rve", "field": HALF_SPACE, "windows": [0.25, 0.5, 1],
          "resolution_per_unit": 16}, "windows[0]"),
        ({"kind": "stability", "field": HALF_SPACE, "field_g": HALF_SPACE,
          "window_sizes": [0.5, 1, 2]}, "window_sizes[0]"),
    ])
    def test_windows_need_min_cells(self, tree, path):
        # rve.MIN_WINDOW_CELLS (8) cells per axis, as the window grid demands
        violations = validate_document(doc(tree))
        assert [v.path for v in violations] == [path]
        assert "at least 8 cells" in violations[0].message
        key = path.split("[")[0]
        assert validate_document(doc({**tree, key: [4, 8, 16]})) == []

    STEP_3 = {"type": "periodic_step", "subdivisions": 3,
              "values": [1.0, 2.0, 4.0], "dim": 1}

    def test_cell_field_must_be_periodic(self):
        trig = {"type": "trig", "offset": 2.0,
                "terms": [[0.5, [0.41421356237], 0.0]]}
        violations = validate_document(doc(dict(MINIMAL_CELL, field=trig)))
        assert [v.path for v in violations] == ["field.type"]
        assert "periodic" in violations[0].message
        rational = dict(trig, terms=[[0.5, [0.4], 0.0]])
        assert validate_document(doc(dict(MINIMAL_CELL, field=rational))) == []

    def test_cell_resolution_must_align_with_steps(self):
        tree = {"kind": "cell", "field": self.STEP_3, "resolution": 16}
        violations = validate_document(doc(tree))
        assert [v.path for v in violations] == ["resolutions"]
        assert "multiple of 3" in violations[0].message
        assert validate_document(doc(dict(tree, resolution=24))) == []

    def test_stability_hom_resolution_must_align_with_steps(self):
        # periodic pairs are cell-solved at hom_resolution and half of it
        tree = {"kind": "stability", "field": self.STEP_3,
                "field_g": self.STEP_3, "hom_resolution": 64}
        violations = validate_document(doc(tree))
        assert [v.path for v in violations] == ["hom_resolution"]
        assert "multiple of 3" in violations[0].message
        assert validate_document(doc(dict(tree, hom_resolution=96))) == []

    HALF_SPACE_G = {"type": "half_space", "gamma": 2, "c": 0.25}

    def test_hom_resolution_rules_apply_to_periodic_pairs_only(self):
        # run_stability_pair cell-solves periodic densities only, at
        # hom_resolution and half of it; window-estimated pairs ignore it
        tree = {"kind": "stability", "field": self.HALF_SPACE,
                "field_g": self.HALF_SPACE_G, "hom_resolution": 33}
        assert validate_document(doc(tree)) == []
        for field, resolution, message in [
                (self.STEP_1D, 33, "must be even"),
                # half of 2 is one cell per period, too few for a torus
                ({"type": "constant", "value": 2}, 2, "cells_per_axis")]:
            violations = validate_document(doc(dict(
                tree, field_g=field, hom_resolution=resolution)))
            assert [v.path for v in violations] == ["hom_resolution"]
            assert message in violations[0].message

    CUBE = [[2, 0, 0], [0, 2, 0], [0, 0, 2]]

    @pytest.mark.parametrize("tree, path", [
        ({"kind": "cell", "field": {"type": "constant", "value": 2}},
         "field.dim"),
        ({"kind": "cell", "field": {"type": "matrix", "entries": CUBE}},
         "field.dim"),
        ({"kind": "rve", "field": {"type": "random_checkerboard",
                                   "values": [1, 4]}}, "field.dim"),
        ({"kind": "rve", "field": HALF_SPACE}, "field.dim"),
        ({"kind": "rve", "field": {"type": "trig", "offset": 2,
                                   "terms": [[0.5, [1, 0, 0], 0]]}},
         "field.dim"),
        ({"kind": "stochastic", "family": {"values": [1, 4]},
          "family_g": {"values": [1, 4], "dim": 2}}, "family.dim"),
    ], ids=["constant", "matrix", "random_checkerboard", "half_space", "trig",
            "checkerboard_family"])
    def test_dim_above_the_grids_is_one_violation(self, tree, path):
        # numerics grids are 1D or 2D; a dim 3 field used to validate and
        # then exit 2 with "dim must be 1 or 2"
        node = path.split(".")[0]
        tree = {**tree, node: {**tree[node], "dim": 3}}
        violations = validate_document(doc(tree))
        assert [v.path for v in violations] == [path]
        assert violations[0].message == "value must be <= 2, got 3"

    def test_stability_pair_shares_one_energy_form(self):
        tree = {"kind": "stability",
                "field": {"type": "matrix", "entries": [[2, 0], [0, 2]]},
                "field_g": {"type": "constant", "value": 2, "dim": 2}}
        violations = validate_document(doc(tree))
        assert [v.path for v in violations] == ["field_g.type"]

    def test_stochastic_family_bounds_must_match(self):
        fam = {"type": "checkerboard_family", "values": [1.0, 4.0]}
        other = dict(fam, beta=5.0)
        tree = {"kind": "stochastic", "family": fam, "family_g": other}
        violations = validate_document(doc(tree))
        assert any(v.path == "family_g.bounds" for v in violations)

    def test_stochastic_flip_width_aligns_with_resolution(self):
        # the library refuses flip edges inside an element; so does validate
        fam = {"type": "checkerboard_family", "values": [1.0, 4.0]}
        for width, ok in ((0.3, False), (0.25, True), (1.0, True)):
            for key in ("family", "family_g"):
                tree = {"kind": "stochastic", "family": fam, "family_g": fam,
                        "resolution_per_unit": 4,
                        key: dict(fam, flip={"type": "power_of_two",
                                             "width": width})}
                paths = [v.path for v in validate_document(doc(tree))]
                assert paths == ([] if ok else [f"{key}.flip.width"]), (width, key)

    def test_perforation_hole_resolution_guard(self):
        # every grid that resolves a hole needs MIN_CELLS_ACROSS_HOLE (8)
        # elements across it, as the library demands at run time; radius
        # 0.05 at resolution 64 (6.4 elements) passed validation before
        lam = {"eps_list": [1.0], "lambda_resolution": 64}
        for extra, path in [
                ({"radius": 0.01, "resolution": 64}, "resolution"),
                ({"radius": 0.05, "resolution": 64, "n_list": [4, 16]},
                 "resolution"),
                ({"radius": 0.1, "resolution": 64, "cell_resolution": 32, **lam},
                 "cell_resolution")]:
            violations = validate_document(doc({"kind": "perforation", **extra}))
            assert any(v.path == path for v in violations), extra
        # the cell grid matters only when the lambda problem runs
        tree = {"kind": "perforation", "radius": 0.1, "resolution": 64,
                "cell_resolution": 32}
        assert validate_document(doc(tree)) == []
        assert validate_document(doc({**tree, **lam, "cell_resolution": 40})) == []

    def test_perforation_holes_covering_the_cell_fail_validate(self):
        # square holes that hold every element centre of a cell used to
        # validate and then exit 1 at the masked solve ("perforation removed
        # every element"); validate now calls perforation.check_hole_cell
        covered = {"kind": "perforation", "shape": "square", "radius": 0.495,
                   "resolution": 64, "n_list": [1, 4]}
        violations = validate_document(doc(covered))
        assert [v.path for v in violations] == ["resolution"]
        assert "every element centre" in violations[0].message
        # the lambda problem's cell: square 0.49 covers it at 32, not at 64
        lam = {"kind": "perforation", "shape": "square", "radius": 0.49,
               "resolution": 64, "n_list": [1, 4], "eps_list": [0.5],
               "lambda_resolution": 64, "cell_resolution": 32}
        violations = validate_document(doc(lam))
        assert [v.path for v in violations] == ["cell_resolution"]
        assert "every element centre" in violations[0].message
        assert validate_document(doc({**lam, "cell_resolution": 64})) == []
        assert validate_document(doc({**lam, "eps_list": []})) == []
        # ball holes leave the cell's corners
        for radius in (0.495, 0.499):
            assert validate_document(doc({**covered, "shape": "ball",
                                          "radius": radius})) == []

    def test_perforation_lambda_box_spans_whole_cells(self):
        # the lambda problem meshes its box with box_size * lambda_resolution
        # cells; 1.01 * 64 used to validate and then run on 65 cells
        tree = {"kind": "perforation", "box_size": 1.01,
                "lambda_resolution": 64, "eps_list": [0.5]}
        assert [v.path for v in validate_document(doc(tree))] == ["box_size"]
        # 0.015625 * 64 is one cell, and the box grid needs two; this used to
        # validate and then fail after the masked and penalized solves
        tiny = {**tree, "box_size": 0.015625}
        assert [v.path for v in validate_document(doc(tiny))] == ["box_size"]
        # the box is built only when the lambda problem runs
        assert validate_document(doc({**tree, "eps_list": []})) == []
        # the benchmark's boxes: 2.0 x 160 and 2.0 x 64
        for eps_list, lambda_resolution in (([0.25, 0.125], 160),
                                            ([0.5, 0.25], 64)):
            good = {"kind": "perforation", "box_size": 2.0,
                    "eps_list": eps_list,
                    "lambda_resolution": lambda_resolution}
            assert validate_document(doc(good)) == []

    def test_parse_spec_raises_with_every_violation(self):
        tree = {"kind": "cell", "bogus": 1,
                "field": {"type": "constant", "alpha": 4.0, "beta": 1.0},
                "resolution": 64}
        with pytest.raises(SpecValidationError) as err:
            parse_spec(doc(tree))
        assert len(err.value.violations) >= 3


ROUND_TRIP_DOCS = [
    MINIMAL_CELL,
    {"kind": "cell", "p": 3.0, "xi": [1.0],
     "field": {"type": "periodic_step", "subdivisions": 2,
               "values": [1.0, 4.0], "dim": 1},
     "resolutions": [64, 128]},
    {"kind": "rve", "out": "artifacts",
     "field": {"type": "perturbed",
               "base": {"type": "periodic_step", "subdivisions": 2,
                        "values": [1.5, 3.5], "dim": 1},
               "rule": {"type": "ball", "radius": 2.0},
               "amplitude": -0.5},
     "windows": [4, 8, 16]},
    {"kind": "stability",
     "field": {"type": "trig", "offset": 2.0, "dim": 1,
               "terms": [[0.8, [1.0], 0.0]], "beta": 3.5},
     "field_g": {"type": "trig", "offset": 2.0, "dim": 1,
                 "terms": [[0.8, [0.5], 0.25]], "beta": 3.5},
     "label": "trig pair"},
    {"kind": "perforation", "radius": 0.25, "removal": True,
     "eps_list": [0.5, 0.25], "n_list": [4, 64]},
    {"kind": "stochastic", "seed": 11,
     "family": {"type": "checkerboard_family", "values": [1.0, 4.0]},
     "family_g": {"type": "checkerboard_family", "values": [1.0, 4.0],
                  "flip": {"type": "power_of_two", "width": 0.5}}},
    {"kind": "counterexamples"},
    {"kind": "stability",
     "field": {"type": "random_checkerboard", "values": [1.0, 4.0],
               "seed": 3},
     "field_g": {"type": "random_checkerboard", "values": [1.0, 4.0],
                 "probability": 0.25, "seed": 3,
                 "flip": {"type": "power_of_two", "width": 0.5}}},
    {"kind": "rve",
     "field": {"type": "half_space", "gamma": 2.0, "c": 0.5}},
    {"kind": "cell", "resolution": 32,
     "field": {"type": "matrix", "entries": [[2, 1], [-1, 2]]}},
    {"kind": "rve", "resolution_per_unit": 8,
     "field": {"type": "perturbed",
               "base": {"type": "constant", "value": 2.0, "dim": 2},
               "rule": {"type": "power_of_two", "width": 0.25},
               "amplitude": 1.0}},
    {"kind": "stability", "p": 3.0,
     "field": {"type": "perturbed",
               "base": {"type": "half_space", "gamma": 2.0, "c": 0.5},
               "rule": {"type": "lp_decay", "exponent": 1.5},
               "amplitude": 0.5},
     "field_g": {"type": "half_space", "gamma": 2.0, "c": 0.5}},
]


BENCHMARK_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_benchmark_specs_validate():
    # the benchmark runs these specs; ROUND_TRIP_DOCS parse in TestRoundTrip
    spec = importlib.util.spec_from_file_location("_perfbench_workloads",
                                                  BENCHMARK_WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name, sizes in workloads.SPECS.items():
        for size in sizes:
            assert validate_document(workloads.spec_text(name, size)) == [], \
                (name, size)


class TestRoundTrip:
    @pytest.mark.parametrize("tree", ROUND_TRIP_DOCS,
                             ids=[t["kind"] + str(i) for i, t in
                                  enumerate(ROUND_TRIP_DOCS)])
    def test_parse_serialize_parse(self, tree):
        spec = parse_spec(doc(tree))
        text = serialize_spec(spec)
        assert parse_spec(text) == spec

    def test_serialization_is_deterministic(self):
        spec = parse_spec(doc(MINIMAL_CELL))
        assert serialize_spec(spec) == serialize_spec(spec)


class TestBuilders:
    def test_perturbed_density(self):
        spec = parse_spec(doc(ROUND_TRIP_DOCS[2]))
        density = build_density(spec.params["field"], spec.params["p"])
        assert density.p == 2.0 and not density.is_matrix
        assert isinstance(density.coeff, Perturbed)
        assert density.coeff.rule == BallSupport(2.0)
        assert density.coeff.amplitude == -0.5

    def test_p_power_density(self):
        spec = parse_spec(doc(ROUND_TRIP_DOCS[1]))
        density = build_density(spec.params["field"], spec.params["p"])
        assert not density.is_matrix
        assert density.p == 3.0

    def test_matrix_density(self):
        tree = {"kind": "cell", "resolution": 32,
                "field": {"type": "matrix", "entries": [[2, 1], [-1, 2]]}}
        spec = parse_spec(doc(tree))
        density = build_density(spec.params["field"], 2.0)
        assert density.is_matrix and density.p == 2.0
        grid = build_grid(2, 4, (0.0, 0.0), 1.0, TORUS)
        assert not is_symmetric(element_coefficients(density.coeff, grid))

    def test_family_with_flip(self):
        spec = parse_spec(doc(ROUND_TRIP_DOCS[5]))
        family = build_family(spec.params["family_g"])
        assert family.flip_cells == PowerOfTwoCells(0.5)
        plain = build_family(spec.params["family"])
        assert plain.flip_cells is None

    def test_perforation_with_removal(self):
        spec = parse_spec(doc(ROUND_TRIP_DOCS[4]))
        E = build_perforation(spec.params)
        assert isinstance(E.perturbation, SparseRemoval)
        assert E.radius == 0.25

    def test_matrix_descriptor_has_no_scalar_field(self):
        # a perturbation needs a scalar base, so a matrix base is refused
        tree = {"kind": "rve",
                "field": {"type": "perturbed",
                          "base": {"type": "matrix",
                                   "entries": [[2, 0], [0, 2]]},
                          "rule": {"type": "ball", "radius": 2.0},
                          "amplitude": 0.5}}
        violations = validate_document(doc(tree))
        assert [v.path for v in violations] == ["field.base.type"]

    def test_field_signature_follows_perturbation_base(self):
        spec = parse_spec(doc(ROUND_TRIP_DOCS[2]))
        assert spec.params["field"]["type"] == "perturbed"
        density = build_density(spec.params["field"], spec.params["p"])
        assert density.dim == 1
        assert density.bounds == FieldBounds(1.0, 4.0)

    def test_family_spec_shape(self):
        spec = parse_spec(doc(ROUND_TRIP_DOCS[5]))
        assert spec.params["family"]["type"] == "checkerboard_family"
        assert spec.params["trials"] == 16
        assert spec.params["statistic_sizes"] == (8.0, 16.0, 32.0, 64.0)
