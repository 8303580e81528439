import json

import numpy as np
import pytest

from phasemin.distributions import (
    BallIndicator,
    EllipsoidIndicator,
    Gaussian,
    Grid,
    Mixture,
    Particles,
)
from phasemin.errors import SchemaError
from phasemin.problems import (
    load_grid_file,
    load_problem,
    parse_problem,
)


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def gaussian_problem_dict(eps=0.5):
    return {
        "n": 2,
        "potential": {
            "V0": 0.0,
            "d": [0.0, 0.0, 0.0, 0.0],
            "V": [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, eps**2, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ],
        },
        "distribution": {
            "type": "gaussian",
            "weight": 1.0,
            "mean": [0.0, 0.0, 0.0, 0.0],
            "covariance": [
                [4.0, 0.0, 0.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ],
        },
    }


def inline_grid(**fields):
    """A one-cell 4-D inline grid, with ``fields`` replaced."""
    grid = {
        "type": "grid",
        "origin": [0.0] * 4,
        "spacing": 1.0,
        "shape": [1, 1, 1, 1],
        "values": [1.0],
    }
    return {**grid, **fields}


def test_round_trip_gaussian_problem(tmp_path):
    problem = load_problem(
        write_json(tmp_path / "p.json", gaussian_problem_dict())
    )
    assert problem.dim == 4
    assert problem.dof == 2
    assert isinstance(problem.distribution, Gaussian)
    assert problem.potential.matrix[1, 1] == pytest.approx(0.25)
    assert problem.box is None


def test_every_distribution_type_parses(tmp_path):
    grid_values = [0.0, 1.0, 2.0, 3.0]
    spec = {
        "dim": 2,
        "potential": {"V0": 0.5, "d": [0.0, 0.0], "V": [[1.0, 0.0], [0.0, 1.0]]},
        "distribution": {
            "type": "mixture",
            "components": [
                {"type": "ball", "radius": 1.0, "center": [0.0, 0.0]},
                {
                    "type": "ellipsoid",
                    "matrix": [[1.0, 0.0], [0.0, 2.0]],
                    "center": [1.0, 0.0],
                    "amplitude": 2.0,
                },
                {
                    "type": "particles",
                    "points": [[0.0, 0.0], [1.0, 1.0]],
                    "weights": [1.0, 2.0],
                },
                {
                    "type": "grid",
                    "origin": [0.0, 0.0],
                    "spacing": 0.5,
                    "shape": [2, 2],
                    "values": grid_values,
                },
            ],
        },
        "box": {"lo": [-2.0, -2.0], "hi": [2.0, 2.0]},
    }
    problem = load_problem(write_json(tmp_path / "p.json", spec))
    mixture = problem.distribution
    assert isinstance(mixture, Mixture)
    kinds = [type(c) for c in mixture.components]
    assert kinds == [BallIndicator, EllipsoidIndicator, Particles, Grid]
    lo, hi = problem.box
    np.testing.assert_allclose(lo, [-2.0, -2.0])
    np.testing.assert_allclose(hi, [2.0, 2.0])


def test_exactly_one_size_field():
    base = gaussian_problem_dict()
    both = dict(base)
    both["dim"] = 4
    with pytest.raises(SchemaError) as info:
        parse_problem(both)
    assert info.value.path == "/"
    neither = {k: v for k, v in base.items() if k != "n"}
    with pytest.raises(SchemaError):
        parse_problem(neither)


def test_dof_requires_even_dimension():
    spec = {
        "dim": 3,
        "potential": {"V0": 0.0, "d": [0.0] * 3, "V": np.eye(3).tolist()},
        "distribution": {
            "type": "gaussian",
            "weight": 1.0,
            "mean": [0.0] * 3,
            "covariance": np.eye(3).tolist(),
        },
    }
    problem = parse_problem(spec)
    with pytest.raises(SchemaError) as info:
        problem.dof
    assert info.value.path == "/dim"


@pytest.mark.parametrize(
    "mutate,path",
    [
        (lambda s: s["potential"].pop("V0"), "/potential/V0"),
        (lambda s: s["potential"].pop("V"), "/potential/V"),
        (lambda s: s["potential"].update(d=[0.0, 0.0]), "/potential/d"),
        (
            lambda s: s["potential"].update(V=[[1.0, 2.0], [3.0, 4.0]]),
            "/potential/V",
        ),
        (lambda s: s["distribution"].update(type="unknown"), "/distribution/type"),
        (lambda s: s["distribution"].pop("covariance"), "/distribution/covariance"),
        (lambda s: s.update(box={"lo": [0.0] * 4}), "/box/hi"),
        (
            lambda s: s.update(box={"lo": [0.0] * 4, "hi": [0.0] * 4}),
            "/box",
        ),
        (lambda s: s.update(distribution=inline_grid(shape=5)), "/distribution/shape"),
        (
            lambda s: s.update(distribution=inline_grid(shape=[1, 1, 1])),
            "/distribution/shape",
        ),
        (
            lambda s: s.update(distribution=inline_grid(shape=[0, 1, 1, 1])),
            "/distribution/shape/0",
        ),
        (
            lambda s: s.update(distribution=inline_grid(values=[-1.0])),
            "/distribution/values",
        ),
        (
            lambda s: s.update(distribution={"type": "grid", "file": 5}),
            "/distribution/file",
        ),
        (lambda s: s["distribution"].update(weight=0), "/distribution/weight"),
        (
            lambda s: s.update(
                distribution={"type": "ball", "radius": 1.0, "center": [0.0] * 4,
                              "amplitude": 0}
            ),
            "/distribution/amplitude",
        ),
        (lambda s: s.update(distribution=inline_grid(spacing=0)), "/distribution/spacing"),
        (
            lambda s: s.update(
                distribution={"type": "particles", "points": [[0.0] * 4, [1.0] * 4],
                              "weights": [1.0]}
            ),
            "/distribution/weights",
        ),
        # pointers of errors inside a grid file point into that file
        (lambda s: s.update(distribution={"type": "grid", "file": "nan.json"}), "/values"),
        (lambda s: s.update(distribution={"type": "grid", "file": "1e400.json"}), "/values"),
    ],
)
def test_schema_violations_carry_json_pointers(tmp_path, mutate, path):
    # one-cell grid files whose CSV value np.loadtxt reads as nan or inf
    for text in ("nan", "1e400"):
        (tmp_path / f"{text}.csv").write_text(text + "\n", encoding="utf-8")
        grid = {"dim": 4, "shape": [1] * 4, "origin": [0.0] * 4, "spacing": 1.0}
        write_json(tmp_path / f"{text}.json", {**grid, "values_csv": f"{text}.csv"})
    spec = gaussian_problem_dict()
    mutate(spec)
    with pytest.raises(SchemaError) as info:
        parse_problem(spec, str(tmp_path))
    assert info.value.path == path
    assert str(info.value).startswith(path + ": ")


def test_asymmetric_potential_matrix_is_rejected():
    spec = gaussian_problem_dict()
    spec["potential"]["V"][0][1] = 0.5
    with pytest.raises(SchemaError) as info:
        parse_problem(spec)
    assert info.value.path == "/potential/V"


def test_indefinite_potential_matrix_is_rejected():
    spec = gaussian_problem_dict()
    spec["potential"]["V"][0][0] = -1.0
    with pytest.raises(SchemaError) as info:
        parse_problem(spec)
    assert info.value.path == "/potential/V"


def test_nonpositive_gaussian_covariance_is_rejected():
    spec = gaussian_problem_dict()
    spec["distribution"]["covariance"][0][0] = -4.0
    with pytest.raises(SchemaError) as info:
        parse_problem(spec)
    assert info.value.path == "/distribution"


def test_mixture_errors_locate_the_component():
    spec = {
        "n": 1,
        "potential": {"V0": 0.0, "d": [0.0, 0.0], "V": [[1.0, 0.0], [0.0, 1.0]]},
        "distribution": {
            "type": "mixture",
            "components": [
                {"type": "ball", "radius": 1.0, "center": [0.0, 0.0]},
                {"type": "ball", "radius": -1.0, "center": [0.0, 0.0]},
            ],
        },
    }
    with pytest.raises(SchemaError) as info:
        parse_problem(spec)
    assert info.value.path == "/distribution/components/1/radius"


def test_particle_weight_validation():
    spec = {
        "n": 1,
        "potential": {"V0": 0.0, "d": [0.0, 0.0], "V": [[1.0, 0.0], [0.0, 1.0]]},
        "distribution": {
            "type": "particles",
            "points": [[0.0, 0.0]],
            "weights": [0.0],
        },
    }
    with pytest.raises(SchemaError) as info:
        parse_problem(spec)
    assert info.value.path == "/distribution/weights"


def test_inline_grid_value_count():
    spec = {
        "dim": 2,
        "potential": {"V0": 0.0, "d": [0.0, 0.0], "V": [[1.0, 0.0], [0.0, 1.0]]},
        "distribution": {
            "type": "grid",
            "origin": [0.0, 0.0],
            "spacing": 1.0,
            "shape": [2, 2],
            "values": [1.0, 2.0, 3.0],
        },
    }
    with pytest.raises(SchemaError) as info:
        parse_problem(spec)
    assert info.value.path == "/distribution/values"


def test_grid_file_inline_values(tmp_path):
    grid_path = write_json(
        tmp_path / "grid.json",
        {
            "dim": 1,
            "shape": [3],
            "origin": [-1.5],
            "spacing": 1.0,
            "values": [0.0, 2.0, 1.0],
        },
    )
    grid = load_grid_file(grid_path)
    assert grid.shape == (3,)
    np.testing.assert_allclose(grid.values, [0.0, 2.0, 1.0])


def test_grid_file_with_csv_sidecar(tmp_path):
    (tmp_path / "values.csv").write_text("0.0\n2.5\n1.5\n4.0\n", encoding="utf-8")
    grid_path = write_json(
        tmp_path / "grid.json",
        {
            "dim": 2,
            "shape": [2, 2],
            "origin": [0.0, 0.0],
            "spacing": 0.5,
            "values_csv": "values.csv",
        },
    )
    grid = load_grid_file(grid_path)
    np.testing.assert_allclose(grid.values, [[0.0, 2.5], [1.5, 4.0]])


def test_grid_file_requires_some_values(tmp_path):
    grid_path = write_json(
        tmp_path / "grid.json",
        {"dim": 1, "shape": [2], "origin": [0.0], "spacing": 1.0},
    )
    with pytest.raises(SchemaError) as info:
        load_grid_file(grid_path)
    assert info.value.path == "/values"


def test_problem_references_grid_file(tmp_path):
    write_json(
        tmp_path / "grid.json",
        {
            "dim": 2,
            "shape": [2, 2],
            "origin": [-1.0, -1.0],
            "spacing": 1.0,
            "values": [1.0, 1.0, 1.0, 1.0],
        },
    )
    spec = {
        "dim": 2,
        "potential": {"V0": 0.0, "d": [0.0, 0.0], "V": [[1.0, 0.0], [0.0, 1.0]]},
        "distribution": {"type": "grid", "file": "grid.json"},
    }
    problem = load_problem(write_json(tmp_path / "p.json", spec))
    assert isinstance(problem.distribution, Grid)
    assert problem.distribution.shape == (2, 2)


def test_grid_file_dimension_must_match_problem(tmp_path):
    write_json(
        tmp_path / "grid.json",
        {
            "dim": 1,
            "shape": [2],
            "origin": [0.0],
            "spacing": 1.0,
            "values": [1.0, 1.0],
        },
    )
    spec = {
        "dim": 2,
        "potential": {"V0": 0.0, "d": [0.0, 0.0], "V": [[1.0, 0.0], [0.0, 1.0]]},
        "distribution": {"type": "grid", "file": "grid.json"},
    }
    with pytest.raises(SchemaError) as info:
        load_problem(write_json(tmp_path / "p.json", spec))
    assert info.value.path == "/distribution/file"


GRID_HEAD = b'{"dim": 1, "shape": [2], "origin": [0.0], "spacing": 1.0'


@pytest.mark.parametrize(
    "content, path",
    [
        (b'{"dim": 1, "shape": 2, "origin": [0.0], "spacing": 1.0}', "/shape"),
        (b'{"dim": 1, "shape": [0], "origin": [0.0], "spacing": 1.0}', "/shape/0"),
        (GRID_HEAD + b', "values": "ab"}', "/values"),
        (GRID_HEAD + b', "values_csv": 5}', "/values_csv"),
        (b"\xff\xfe{}", "/"),
        (b"[" * 5_000 + b"]" * 5_000, "/"),
    ],
    ids=[
        "shape-not-a-list",
        "empty-axis",
        "values-not-a-list",
        "csv-name-not-a-string",
        "not-utf8",
        "nested-too-deeply",
    ],
)
def test_grid_file_violations_carry_json_pointers(tmp_path, content, path):
    grid_path = tmp_path / "grid.json"
    grid_path.write_bytes(content)
    with pytest.raises(SchemaError) as info:
        load_grid_file(str(grid_path))
    assert info.value.path == path


def test_integers_beyond_int64_are_numbers():
    spec = gaussian_problem_dict()
    spec["potential"]["V0"] = -(2**63) - 1
    assert parse_problem(spec).potential.offset == -(2.0**63)
    spec["potential"]["V0"] = 10**400
    with pytest.raises(SchemaError) as info:
        parse_problem(spec)
    assert info.value.path == "/potential/V0"


def test_invalid_json_is_a_schema_error(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(SchemaError) as info:
        load_problem(str(bad))
    assert info.value.path == "/"


def test_missing_file_is_an_io_error(tmp_path):
    with pytest.raises(OSError):
        load_problem(str(tmp_path / "absent.json"))


def test_booleans_are_not_numbers():
    spec = gaussian_problem_dict()
    spec["potential"]["V0"] = True
    with pytest.raises(SchemaError) as info:
        parse_problem(spec)
    assert info.value.path == "/potential/V0"
