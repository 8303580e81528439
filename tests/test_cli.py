import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import SCHUR_FAILURE_COVARIANCE
import phasemin.cli
import phasemin.energy
import phasemin.linalg
from phasemin.cli import (
    EXIT_DEGENERATE,
    EXIT_IO,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_SCHEMA,
    EXIT_VERIFY_FAILED,
    RESTACK_CSV_HEADER,
    SWEEP_CSV_HEADER,
    SWEEP_MAX_POINTS,
    VERIFY_MAX_DOF,
    main,
)
from phasemin.distributions import moment_energy, moments
from phasemin.energy import inaccessible_fraction, linear_gardner_energy, linear_gromov_energy
from phasemin.linalg import symplectic_residual
from phasemin.problems import parse_problem
from phasemin.restack import DEFAULT_CELL_CAP


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def gaussian_problem(eps):
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


def uniform_interval_problem():
    return {
        "dim": 1,
        "potential": {"V0": 0.0, "d": [0.0], "V": [[0.5]]},
        "distribution": {"type": "ball", "radius": 0.5, "center": [0.0]},
        "box": {"lo": [-1.0], "hi": [1.0]},
    }


def sweep_spec(start, stop, points, spacing="linear"):
    template = gaussian_problem(1.0)
    template["potential"]["V"][1][1] = "epsilon**2"
    return {
        "parameter": "epsilon",
        "template": template,
        "range": {"start": start, "stop": stop, "points": points, "spacing": spacing},
    }


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# bounds


def test_bounds_reports_both_group_energies(tmp_path, capsys):
    path = write_json(tmp_path / "p.json", gaussian_problem(0.25))
    code, out, _ = run(capsys, ["bounds", path])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["dim"] == 4
    assert payload["dof"] == 2
    assert payload["mass"] == pytest.approx(1.0, rel=1e-12)
    assert payload["initial_energy"] == pytest.approx(6.0625, rel=1e-12)
    assert payload["sl"]["energy"] == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)
    assert payload["sp"]["energy"] == pytest.approx(3.0, rel=1e-12)
    np.testing.assert_allclose(payload["potential_spectrum"], [1.0, 0.25], rtol=1e-12)
    np.testing.assert_allclose(payload["moment_spectrum"], [2.0, 1.0], rtol=1e-12)
    for group in ("sl", "sp"):
        assert payload[group]["optimality_gap"] <= 1e-10
        # the inaccessible fraction is the ratio of minimal to initial energy
        expected = payload[group]["energy"] / 6.0625
        assert payload[group]["fraction"] == pytest.approx(expected, rel=1e-12)
    sp_map = np.array(payload["sp"]["map"]["matrix"])
    assert symplectic_residual(sp_map) <= 1e-10
    sl_map = np.array(payload["sl"]["map"]["matrix"])
    assert np.linalg.det(sl_map) == pytest.approx(1.0, rel=1e-10)


def test_bounds_output_is_byte_identical_across_runs(tmp_path, capsys):
    path = write_json(tmp_path / "p.json", gaussian_problem(0.7))
    _, first, _ = run(capsys, ["bounds", path])
    _, second, _ = run(capsys, ["bounds", path])
    assert first == second


def test_bounds_output_file_matches_stdout(tmp_path, capsys):
    path = write_json(tmp_path / "p.json", gaussian_problem(0.25))
    _, out, _ = run(capsys, ["bounds", path])
    target = tmp_path / "report.json"
    code, silent, _ = run(capsys, ["bounds", path, "-o", str(target)])
    assert code == EXIT_OK
    assert silent == ""
    assert target.read_text(encoding="utf-8") == out


def test_bounds_computes_the_initial_energy_once(tmp_path, capsys, monkeypatch):
    calls = []
    energy = phasemin.cli.moment_energy

    def counting(m, potential):
        calls.append(potential)
        return energy(m, potential)

    monkeypatch.setattr(phasemin.cli, "moment_energy", counting)
    path = write_json(tmp_path / "p.json", gaussian_problem(0.25))
    code, out, _ = run(capsys, ["bounds", path])
    assert code == EXIT_OK
    assert len(calls) == 1
    payload = json.loads(out)
    for group in ("sl", "sp"):
        assert payload[group]["fraction"] == payload[group]["energy"] / payload["initial_energy"]


def odd_dimension_problem():
    return {
        "dim": 3,
        "potential": {"V0": 0.0, "d": [0.0] * 3, "V": np.eye(3).tolist()},
        "distribution": {
            "type": "gaussian",
            "weight": 1.0,
            "mean": [0.0] * 3,
            "covariance": np.eye(3).tolist(),
        },
    }


def zero_potential(spec):
    spec["potential"] = {"V0": 0.0, "d": [0.0] * 4, "V": np.zeros((4, 4)).tolist()}
    return spec


def test_zero_initial_energy_has_no_fraction(tmp_path, capsys):
    path = write_json(tmp_path / "p.json", zero_potential(gaussian_problem(1.0)))
    code, out, _ = run(capsys, ["bounds", path])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["initial_energy"] == 0.0
    assert payload["sl"]["fraction"] is None
    assert payload["sp"]["fraction"] is None
    spec = sweep_spec(0.5, 1.5, 3)
    zero_potential(spec["template"])["potential"]["V"][1][1] = "0*epsilon"
    code, out, _ = run(capsys, ["sweep", write_json(tmp_path / "s.json", spec)])
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert len(rows) == 3
    assert all(row[4:] == ["nan", "nan"] for row in rows)


def test_a_solver_that_does_not_converge_exits_1_in_one_line(tmp_path, capsys, monkeypatch):
    def diverging(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", diverging)
    path = write_json(tmp_path / "p.json", gaussian_problem(0.5))
    code, out, err = run(capsys, ["bounds", path])
    assert (code, out) == (EXIT_VERIFY_FAILED, "")
    assert err == "error: symmetric eigensolver did not converge: Eigenvalues did not converge\n"


def test_bounds_rejects_odd_dimension(tmp_path, capsys):
    path = write_json(tmp_path / "p.json", odd_dimension_problem())
    code, _, err = run(capsys, ["bounds", path])
    assert code == EXIT_SCHEMA
    assert "/dim" in err


def test_bounds_answers_the_input_that_failed_the_schur_form(tmp_path, capsys):
    spec = gaussian_problem(1.0)
    spec["distribution"]["covariance"] = SCHUR_FAILURE_COVARIANCE
    code, out, _ = run(capsys, ["bounds", write_json(tmp_path / "p.json", spec)])
    assert code == EXIT_OK
    payload = json.loads(out)
    # V = I and H have the symplectic spectra (1, 1) and (1, 1): both bounds are 4
    for group in ("sl", "sp"):
        assert payload[group]["energy"] == pytest.approx(4.0, rel=1e-12)
    assert payload["sp"]["optimality_gap"] <= 1e-12 * payload["sp"]["energy"]
    assert symplectic_residual(np.array(payload["sp"]["map"]["matrix"])) <= 1e-12


def test_missing_problem_file_is_an_io_error(tmp_path, capsys):
    code, _, err = run(capsys, ["bounds", str(tmp_path / "absent.json")])
    assert code == EXIT_IO
    assert "i/o error" in err


def test_invalid_problem_json_is_a_schema_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops", encoding="utf-8")
    code, _, err = run(capsys, ["bounds", str(path)])
    assert code == EXIT_SCHEMA
    assert "schema error" in err


def test_point_mass_moments_are_degenerate(tmp_path, capsys):
    spec = {
        "n": 1,
        "potential": {"V0": 0.0, "d": [0.0, 0.0], "V": [[1.0, 0.0], [0.0, 1.0]]},
        "distribution": {
            "type": "particles",
            "points": [[0.0, 0.0]],
            "weights": [1.0],
        },
    }
    path = write_json(tmp_path / "p.json", spec)
    code, _, err = run(capsys, ["bounds", path])
    assert code == EXIT_DEGENERATE
    assert "degenerate" in err


@pytest.mark.parametrize(
    "argv", [["bounds"], ["verify", "theorem", "--problem"]], ids=["bounds", "verify-theorem"]
)
def test_singular_moments_are_degenerate_input(tmp_path, capsys, argv):
    # two particles on one axis in 4-D: H has rank one
    spec = gaussian_problem(1.0)
    spec["distribution"] = {
        "type": "particles",
        "points": [[-1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]],
        "weights": [1.0, 1.0],
    }
    path = write_json(tmp_path / "p.json", spec)
    code, out, err = run(capsys, argv + [path])
    assert code == EXIT_DEGENERATE
    assert out == ""
    assert err.startswith("degenerate input: second-moment matrix is singular")


# ---------------------------------------------------------------------------
# sweep


def test_sweep_tracks_the_symplectic_kink(tmp_path, capsys):
    path = write_json(tmp_path / "s.json", sweep_spec(0.5, 1.5, 3))
    code, out, _ = run(capsys, ["sweep", path])
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == SWEEP_CSV_HEADER
    rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
    assert len(rows) == 3
    for row, eps, e_sp in zip(rows, (0.5, 1.0, 1.5), (4.0, 6.0, 7.0)):
        assert row[0] == pytest.approx(eps, rel=1e-12)
        assert row[1] == pytest.approx(6.0 + eps**2, rel=1e-12)
        assert row[2] == pytest.approx(4.0 * math.sqrt(2.0 * eps), rel=1e-12)
        assert row[3] == pytest.approx(e_sp, rel=1e-12)
        assert row[5] == pytest.approx(e_sp / (6.0 + eps**2), rel=1e-12)


def test_sweep_is_deterministic(tmp_path, capsys):
    path = write_json(tmp_path / "s.json", sweep_spec(0.2, 2.0, 5))
    _, first, _ = run(capsys, ["sweep", path])
    _, second, _ = run(capsys, ["sweep", path])
    assert first == second


def test_sweep_evaluates_each_point_once(tmp_path, capsys, monkeypatch):
    blocks = []
    evaluate = phasemin.cli._sweep_point

    def counting(m, potential, values):
        blocks.append(list(values))
        return evaluate(m, potential, values)

    monkeypatch.setattr(phasemin.cli, "_sweep_point", counting)
    # two points per stacked block at side 4
    monkeypatch.setattr(phasemin.linalg, "STACK_ENTRIES", 2 * 16)
    path = write_json(tmp_path / "s.json", sweep_spec(0.2, 2.0, 5))
    code, out, _ = run(capsys, ["sweep", path])
    assert code == EXIT_OK
    assert len(out.strip().split("\n")) == 6
    # the first point alone, then stacks of at most two points
    assert [len(block) for block in blocks] == [1, 2, 2]
    evaluated = [value for block in blocks for value in block]
    np.testing.assert_allclose(evaluated, [0.2, 0.65, 1.1, 1.55, 2.0], rtol=1e-12)


def test_sweep_holds_each_row_once_as_its_csv_line(tmp_path, monkeypatch):
    # stacks of 1,024 points keep the batched arrays small beside the rows
    monkeypatch.setattr(phasemin.linalg, "STACK_ENTRIES", 1024 * 16)
    points = 20_000
    path = write_json(tmp_path / "s.json", sweep_spec(0.1, 3.0, points))
    target = tmp_path / "curves.csv"
    tracemalloc.start()
    try:
        code = main(["sweep", path, "-o", str(target)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert len(target.read_text(encoding="utf-8").splitlines()) == points + 1
    # the lines, the joined text and its encoding take about 440 B per point;
    # a second copy of each row, as a tuple of floats, would take about 650 B
    assert peak / points < 540


def test_sweep_rows_match_per_point_evaluation(tmp_path, capsys):
    spec = sweep_spec(0.2, 2.0, 5, spacing="log")
    spec["template"]["potential"]["V"][0][1] = "0.1*epsilon"
    spec["template"]["potential"]["V"][1][0] = "0.1*epsilon"
    path = write_json(tmp_path / "s.json", spec)
    code, out, _ = run(capsys, ["sweep", path])
    assert code == EXIT_OK
    expected = [SWEEP_CSV_HEADER]
    for eps in np.logspace(np.log10(0.2), np.log10(2.0), 5):
        eps = float(eps)
        problem_spec = gaussian_problem(eps)
        problem_spec["potential"]["V"][0][1] = 0.1 * eps
        problem_spec["potential"]["V"][1][0] = 0.1 * eps
        problem = parse_problem(problem_spec)
        m = moments(problem.distribution)
        sl = linear_gardner_energy(m, problem.potential)
        sp = linear_gromov_energy(m, problem.potential)
        initial = moment_energy(m, problem.potential)
        row = (eps, initial, sl.energy, sp.energy, inaccessible_fraction(sl.energy, initial),
               inaccessible_fraction(sp.energy, initial))
        expected.append(",".join(f"{x:.17g}" for x in row))
    assert out == "\n".join(expected) + "\n"


def per_point_rows(template, epsilons):
    """The CSV of a sweep, with each point read and evaluated on its own.

    The string entries of V are evaluated by Python itself, which agrees with
    the sweep's arithmetic for expressions whose numbers are float literals.
    """
    lines = [SWEEP_CSV_HEADER]
    for eps in epsilons:
        eps = float(eps)
        problem_spec = json.loads(json.dumps(template))
        problem_spec["potential"]["V"] = [
            [eval(x, {"__builtins__": {}}, {"epsilon": eps}) if isinstance(x, str) else x
             for x in row]
            for row in template["potential"]["V"]
        ]
        problem = parse_problem(problem_spec)
        m = moments(problem.distribution)
        sl = linear_gardner_energy(m, problem.potential)
        sp = linear_gromov_energy(m, problem.potential)
        initial = moment_energy(m, problem.potential)
        row = (eps, initial, sl.energy, sp.energy, inaccessible_fraction(sl.energy, initial),
               inaccessible_fraction(sp.energy, initial))
        lines.append(",".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"


def sweep_epsilons(start, stop, points, spacing):
    if spacing == "log":
        return np.logspace(np.log10(start), np.log10(stop), points)
    return np.linspace(start, stop, points)


# arithmetic in epsilon over + - * / and **, with float literals only
EPSILON_EXPRESSIONS = st.recursive(
    st.just("epsilon") | st.floats(0.25, 2.0).map(repr),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: "({} {} {})".format(*t)),
        st.tuples(inner, st.sampled_from(["2.0", "3.0"])).map(lambda t: "({})**{}".format(*t)),
        inner.map("-{}".format),
    ),
    max_leaves=5,
)


@settings(deadline=None, max_examples=60, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    n=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    expressions=st.lists(EPSILON_EXPRESSIONS, min_size=1, max_size=4),
    points=st.integers(2, 9),
    spacing=st.sampled_from(["linear", "log"]),
    block=st.sampled_from([None, 1, 2, 3]),
)
def test_sweep_csv_equals_per_point_evaluation(
    tmp_path, capsys, n, seed, expressions, points, spacing, block
):
    rng = np.random.default_rng(seed)
    dim = 2 * n
    # V stays definite at every epsilon: each diagonal entry is at least 1 and
    # each off-diagonal one at most 1/(2 dim) in magnitude, as c x/(1 + x^2) is
    v = np.diag(rng.uniform(1.0, 2.0, dim)).tolist()
    for expression in expressions:
        i, j = sorted(rng.integers(0, dim, 2).tolist())
        if i == j:
            v[i][i] = f"{v[i][i]} + ({expression})**2.0"
        else:
            c = float(rng.uniform(-1.0, 1.0)) / dim
            v[i][j] = v[j][i] = f"{c!r}*({expression})/(1.0 + ({expression})**2.0)"
    a = rng.normal(size=(dim, dim))
    template = {
        "n": n,
        "potential": {"V0": float(rng.uniform(0, 1)), "d": rng.normal(size=dim).tolist(),
                      "V": v},
        "distribution": {"type": "gaussian", "weight": float(rng.uniform(0.5, 2.0)),
                         "mean": rng.normal(size=dim).tolist(),
                         "covariance": (a @ a.T + 0.5 * np.eye(dim)).tolist()},
    }
    start, stop = float(rng.uniform(0.1, 1.0)), float(rng.uniform(1.5, 3.0))
    try:
        expected = per_point_rows(template, sweep_epsilons(start, stop, points, spacing))
    except ArithmeticError:
        # an expression divides by zero or leaves the float range at some point
        assume(False)
    spec = {"template": template,
            "range": {"start": start, "stop": stop, "points": points, "spacing": spacing}}
    path = write_json(tmp_path / "s.json", spec)
    with pytest.MonkeyPatch.context() as patch:
        if block is not None:
            patch.setattr(phasemin.linalg, "STACK_ENTRIES", block * dim * dim)
        code, out, err = run(capsys, ["sweep", path])
    assert (code, err) == (EXIT_OK, "")
    assert out == expected


def test_sweep_longer_than_one_block_matches_across_the_boundary(
    tmp_path, capsys, monkeypatch
):
    spec = sweep_spec(0.2, 2.0, phasemin.linalg.STACK_ENTRIES // 16 + 2)
    spec["template"]["potential"]["V"][0][1] = "0.1*epsilon"
    spec["template"]["potential"]["V"][1][0] = "0.1*epsilon"
    path = write_json(tmp_path / "s.json", spec)
    code, out, _ = run(capsys, ["sweep", path])
    assert code == EXIT_OK
    lines = out.split("\n")
    # the first point, one whole block, and one point in a second block
    epsilons = np.linspace(0.2, 2.0, len(lines) - 2)
    for k in (1, 2, len(lines) - 4, len(lines) - 3, len(lines) - 2):
        row = per_point_rows(spec["template"], epsilons[k - 1:k]).split("\n")[1]
        assert lines[k] == row
    monkeypatch.setattr(phasemin.linalg, "STACK_ENTRIES", 1000 * 16)
    assert run(capsys, ["sweep", path])[1] == out


def test_sweep_parses_each_expression_once(tmp_path, capsys, monkeypatch):
    parsed = []
    parse = phasemin.cli.ast.parse

    def counting(text, *args, **kwargs):
        parsed.append(text)
        return parse(text, *args, **kwargs)

    monkeypatch.setattr(phasemin.cli.ast, "parse", counting)
    spec = sweep_spec(0.2, 2.0, 7)
    spec["template"]["potential"]["V"][0][0] = "1 + epsilon/10"
    spec["template"]["potential"]["V"][0][1] = "0.1*epsilon"
    spec["template"]["potential"]["V"][1][0] = "0.1*epsilon"
    code, out, _ = run(capsys, ["sweep", write_json(tmp_path / "s.json", spec)])
    assert code == EXIT_OK
    assert len(out.strip().split("\n")) == 8
    assert parsed == ["1 + epsilon/10", "0.1*epsilon", "0.1*epsilon", "epsilon**2"]


def one_dof_sweep(v, start, stop, points, covariance=1.0):
    return {
        "template": {
            "n": 1,
            "potential": {"V0": 0.0, "d": [0.0, 0.0], "V": v},
            "distribution": {"type": "gaussian", "weight": 1.0, "mean": [0.0, 0.0],
                             "covariance": [[covariance, 0.0], [0.0, covariance]]},
        },
        "range": {"start": start, "stop": stop, "points": points},
    }


# each sweep fails at two points or more; the first failing point wins, with
# the message it has when the points are read and evaluated one at a time
@pytest.mark.parametrize(
    "spec, block, err",
    [
        # epsilon = 1, 2, 3, 4: tr(V H) leaves the float range at 3, the
        # expression at 4
        (one_dof_sweep([["10.0**(100*epsilon)", 0.0], [0.0, 1.0]], 1.0, 4.0, 4, 1e10),
         None, "/template/potential/V: a computed value is beyond the float range"),
        # epsilon = 1, 2, 3, 4: the expression fails at 2, V is indefinite at 4
        (one_dof_sweep([["1 + 1/(epsilon - 2)**2", 0.0], [0.0, "3 - epsilon"]], 1.0, 4.0, 4),
         None, "/template/potential/V/0/0: expression '1 + 1/(epsilon - 2)**2' fails at "
               "epsilon = 2.0: float division by zero"),
        # epsilon = 0, ..., 6 in stacks of two points after the first: V is
        # indefinite from 4 on, in the second stack, and the expression
        # fails at 6, in the third
        (one_dof_sweep([["1 + 1/(epsilon - 6)**2", 0.0], [0.0, "3 - epsilon"]], 0.0, 6.0, 7),
         2, "/template/potential/V: potential matrix has negative eigenvalue -1.000000e+00"),
    ],
    ids=["overflow-before-expression", "expression-before-indefinite",
         "indefinite-in-the-second-block"],
)
def test_the_first_failing_point_of_a_sweep_wins(tmp_path, capsys, monkeypatch, spec, block, err):
    if block is not None:
        monkeypatch.setattr(phasemin.linalg, "STACK_ENTRIES", block * 4)
    code, out, stderr = run(capsys, ["sweep", write_json(tmp_path / "s.json", spec)])
    assert (code, out) == (EXIT_SCHEMA, "")
    assert stderr == f"schema error at {err}\n"


def test_sweep_builds_no_maps_and_bounds_builds_one_of_each(
    tmp_path, capsys, monkeypatch
):
    built = []
    for name in ("sl_optimal_map", "sp_optimal_map"):

        def counting(v, h, name=name, build=getattr(phasemin.energy, name)):
            built.append(name)
            return build(v, h)

        monkeypatch.setattr(phasemin.energy, name, counting)
    sweep = write_json(tmp_path / "s.json", sweep_spec(0.2, 2.0, 5))
    assert run(capsys, ["sweep", sweep])[0] == EXIT_OK
    assert built == []
    problem = write_json(tmp_path / "p.json", gaussian_problem(0.5))
    assert run(capsys, ["bounds", problem])[0] == EXIT_OK
    assert sorted(built) == ["sl_optimal_map", "sp_optimal_map"]


# (eigh, eigvalsh, complex eigh) matrices decomposed per command; a stacked
# call counts each matrix of its stack.  The real eigh calls decompose each
# input matrix once: the covariance or ellipsoid matrix, V and H (each sweep
# point's V); restack needs no H.  A singular V adds one more: the ridged V
# that both maps are built from.  The eigvalsh calls are the Gram spectra of
# V and H (each sweep point's V, and H once per sweep).  The complex eigh
# calls are the Hermitian kernels of the two Williamson transforms that the
# Sp map is built from.
@pytest.mark.parametrize(
    "argv, counts",
    [
        (["bounds", "GAUSSIAN"], (3, 2, 2)),
        (["bounds", "ELLIPSOID"], (3, 2, 2)),
        (["bounds", "SINGULAR"], (4, 2, 2)),
        (["sweep", "SWEEP"], (7, 6, 0)),
        (["restack", "GAUSSIAN", "--levels", "0"], (2, 0, 0)),
        (["verify", "theorem", "--problem", "GAUSSIAN", "--trials", "10"], (3, 2, 2)),
        (["verify", "ellipsoid", "--first", "[[2.0, 0.0], [0.0, 0.5]]",
          "--second", "[[1.0, 0.0], [0.0, 1.0]]"], (2, 2, 0)),
        (["verify", "nonsqueeze", "--dof", "2", "--trials", "10"], (0, 0, 0)),
    ],
    ids=["bounds-gaussian", "bounds-ellipsoid", "bounds-singular", "sweep", "restack-gaussian",
         "verify-theorem", "verify-ellipsoid", "verify-nonsqueeze"],
)
def test_each_matrix_is_decomposed_once(tmp_path, capsys, monkeypatch, argv, counts):
    gaussian = {**gaussian_problem(0.5), "box": {"lo": [-2.0] * 4, "hi": [2.0] * 4}}
    ellipsoid = gaussian_problem(0.5)
    ellipsoid["distribution"] = {
        "type": "ellipsoid",
        "matrix": gaussian["distribution"]["covariance"],
        "center": [0.0] * 4,
    }
    singular = gaussian_problem(0.5)
    singular["potential"]["V"] = np.diag([1.0, 0.0, 1.0, 0.0]).tolist()
    files = {
        "GAUSSIAN": write_json(tmp_path / "g.json", gaussian),
        "ELLIPSOID": write_json(tmp_path / "e.json", ellipsoid),
        "SINGULAR": write_json(tmp_path / "v.json", singular),
        "SWEEP": write_json(tmp_path / "s.json", sweep_spec(0.2, 2.0, 5)),
    }
    calls = []
    for name in ("eigh", "eigvalsh"):

        def counting(a, *args, name=name, solve=getattr(np.linalg, name), **kwargs):
            kind = name if np.isrealobj(a) else "complex " + name
            calls.extend([kind] * math.prod(np.shape(a)[:-2]))
            return solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    assert run(capsys, [files.get(a, a) for a in argv])[0] == EXIT_OK
    assert tuple(map(calls.count, ("eigh", "eigvalsh", "complex eigh"))) == counts
    assert len(calls) == sum(counts)


def test_sweep_log_spacing(tmp_path, capsys):
    path = write_json(tmp_path / "s.json", sweep_spec(0.1, 10.0, 3, spacing="log"))
    code, out, _ = run(capsys, ["sweep", path])
    assert code == EXIT_OK
    values = [float(line.split(",")[0]) for line in out.strip().split("\n")[1:]]
    np.testing.assert_allclose(values, [0.1, 1.0, 10.0], rtol=1e-12)


def test_sweep_log_spacing_needs_positive_endpoints(tmp_path, capsys):
    path = write_json(tmp_path / "s.json", sweep_spec(0.0, 1.0, 3, spacing="log"))
    code, _, err = run(capsys, ["sweep", path])
    assert code == EXIT_SCHEMA
    assert "/range" in err


@pytest.mark.parametrize("expression", ["epsilon**", "abs(epsilon)", "delta + 1"])
def test_sweep_rejects_unsafe_expressions(tmp_path, capsys, expression):
    spec = sweep_spec(0.5, 1.5, 3)
    spec["template"]["potential"]["V"][1][1] = expression
    path = write_json(tmp_path / "s.json", spec)
    code, _, err = run(capsys, ["sweep", path])
    assert code == EXIT_SCHEMA
    assert "/template/potential/V/1/1" in err


def test_sweep_range_needs_at_least_two_points(tmp_path, capsys):
    path = write_json(tmp_path / "s.json", sweep_spec(0.5, 1.5, 1))
    code, _, err = run(capsys, ["sweep", path])
    assert code == EXIT_SCHEMA
    assert "/range/points" in err


@pytest.mark.parametrize("points", [2**62, SWEEP_MAX_POINTS + 1], ids=["2**62", "cap+1"])
def test_sweep_caps_the_point_count(tmp_path, capsys, points):
    path = write_json(tmp_path / "s.json", sweep_spec(0.5, 1.5, points))
    code, out, err = run(capsys, ["sweep", path])
    assert code == EXIT_RESOURCE
    assert out == ""
    assert err == (
        f"resource cap: /range/points: sweep needs {points} points, "
        f"exceeding the cap of {SWEEP_MAX_POINTS}\n"
    )


def test_sweep_supports_only_the_epsilon_parameter(tmp_path, capsys):
    spec = sweep_spec(0.5, 1.5, 3)
    spec["parameter"] = "delta"
    path = write_json(tmp_path / "s.json", spec)
    code, _, err = run(capsys, ["sweep", path])
    assert code == EXIT_SCHEMA
    assert "/parameter" in err


# ---------------------------------------------------------------------------
# restack


def lattice_law(level):
    m = 2 ** (level - 1)
    return 1.0 / 24.0 - 1.0 / (96.0 * m * m)


def test_restack_follows_the_lattice_law(tmp_path, capsys):
    path = write_json(tmp_path / "p.json", uniform_interval_problem())
    code, out, _ = run(capsys, ["restack", path, "--levels", "1,2,3"])
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == RESTACK_CSV_HEADER
    assert len(lines) == 4
    for line, level in zip(lines[1:], (1, 2, 3)):
        tokens = line.split(",")
        assert int(tokens[0]) == level
        assert float(tokens[1]) == 2.0**-level
        assert int(tokens[2]) == 2 ** (level + 1)
        assert float(tokens[3]) == pytest.approx(lattice_law(level), rel=1e-12)
        # a centered uniform slab is already optimally stacked
        assert float(tokens[4]) == float(tokens[3])


def test_restack_output_file_matches_stdout(tmp_path, capsys):
    path = write_json(tmp_path / "p.json", uniform_interval_problem())
    _, out, _ = run(capsys, ["restack", path, "--levels", "2,4"])
    target = tmp_path / "table.csv"
    code, silent, _ = run(
        capsys, ["restack", path, "--levels", "2,4", "-o", str(target)]
    )
    assert code == EXIT_OK
    assert silent == ""
    assert target.read_text(encoding="utf-8") == out


def test_restack_grid_problem_uses_its_native_box(tmp_path, capsys):
    spec = {
        "dim": 1,
        "potential": {"V0": 0.0, "d": [0.0], "V": [[0.5]]},
        "distribution": {
            "type": "grid",
            "origin": [-1.0],
            "spacing": 0.5,
            "shape": [4],
            "values": [0.0, 1.0, 1.0, 0.0],
        },
    }
    path = write_json(tmp_path / "p.json", spec)
    code, out, _ = run(capsys, ["restack", path, "--levels", "2"])
    assert code == EXIT_OK
    tokens = out.strip().split("\n")[1].split(",")
    assert int(tokens[2]) == 8
    assert float(tokens[3]) == pytest.approx(lattice_law(2), rel=1e-12)


def test_restack_ellipsoid_without_a_box_uses_its_bounding_box(tmp_path, capsys):
    spec = {
        "dim": 2,
        "potential": {"V0": 0.0, "d": [0.0, 0.0], "V": [[1.0, 0.0], [0.0, 1.0]]},
        "distribution": {
            "type": "ellipsoid", "matrix": [[4.0, 1.0], [1.0, 2.0]], "center": [0.5, -0.2],
        },
    }
    path = write_json(tmp_path / "p.json", spec)
    code, out, _ = run(capsys, ["restack", path, "--levels", "0,2,4", "--base-spacing", "0.5"])
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    # half-widths sqrt(diag(M^-1)) = (sqrt(2/7), sqrt(4/7)) around the centre
    assert [int(row[2]) for row in rows] == [12, 117, 1715]
    np.testing.assert_allclose(
        [float(row[3]) for row in rows],
        [0.47980313506456707, 0.45422655165036757, 0.44672314724875295],
        rtol=1e-12,
    )


def test_restack_honors_the_cell_cap_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PHASEMIN_MAX_CELLS", "16")
    path = write_json(tmp_path / "p.json", uniform_interval_problem())
    code, _, err = run(capsys, ["restack", path, "--levels", "5"])
    assert code == EXIT_RESOURCE
    assert "resource cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--base-spacing", "1e-30", "--levels", "0"],
        ["--levels", "1100"],
        ["--levels", "0,1" + "0" * 400],
    ],
    ids=["counts-beyond-int64", "spacing-underflows-to-zero", "level-beyond-every-float"],
)
def test_restack_counts_cells_beyond_int64_against_the_cap(tmp_path, capsys, argv):
    spec = {
        "n": 1,
        "potential": {"V0": 0.0, "d": [0.0, 0.0], "V": [[1.0, 0.0], [0.0, 1.0]]},
        "distribution": {"type": "ball", "radius": 1.0, "center": [0.0, 0.0]},
    }
    path = write_json(tmp_path / "p.json", spec)
    code, out, err = run(capsys, ["restack", path] + argv)
    assert code == EXIT_RESOURCE
    assert out == ""
    assert err.startswith("resource cap: ")


@pytest.mark.parametrize(
    "cap, code, err",
    [
        (None, EXIT_RESOURCE, f"resource cap: refinement needs 8388608 cells, "
                              f"exceeding the cap of {DEFAULT_CELL_CAP}"),
        ("512", EXIT_RESOURCE, "resource cap: refinement needs 8388608 cells, "
                               "exceeding the cap of 512"),
        ("abc", EXIT_SCHEMA, "schema error at /PHASEMIN_MAX_CELLS: "
                             "expected an integer, got 'abc'"),
        ("0", EXIT_SCHEMA, "schema error at /PHASEMIN_MAX_CELLS: must be positive, got 0"),
        ("-3", EXIT_SCHEMA, "schema error at /PHASEMIN_MAX_CELLS: must be positive, got -3"),
    ],
    ids=["unset", "512", "abc", "zero", "negative"],
)
def test_restack_reads_the_cell_cap_from_the_environment(
    tmp_path, capsys, monkeypatch, cap, code, err
):
    if cap is None:
        monkeypatch.delenv("PHASEMIN_MAX_CELLS", raising=False)
    else:
        monkeypatch.setenv("PHASEMIN_MAX_CELLS", cap)
    path = write_json(tmp_path / "p.json", uniform_interval_problem())
    # level 22 needs 2^23 cells: more than either cap, and none are allocated
    assert run(capsys, ["restack", path, "--levels", "22"]) == (code, "", err + "\n")


def test_restack_dimension_cap(tmp_path, capsys):
    spec = {
        "n": 3,
        "potential": {"V0": 0.0, "d": [0.0] * 6, "V": np.eye(6).tolist()},
        "distribution": {
            "type": "gaussian",
            "weight": 1.0,
            "mean": [0.0] * 6,
            "covariance": np.eye(6).tolist(),
        },
    }
    path = write_json(tmp_path / "p.json", spec)
    code, _, err = run(capsys, ["restack", path, "--levels", "1"])
    assert code == EXIT_SCHEMA
    assert "/dim" in err


def test_restack_rejects_particle_distributions(tmp_path, capsys):
    spec = {
        "n": 1,
        "potential": {"V0": 0.0, "d": [0.0, 0.0], "V": [[1.0, 0.0], [0.0, 1.0]]},
        "distribution": {
            "type": "particles",
            "points": [[0.5, 0.0]],
            "weights": [1.0],
        },
        "box": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
    }
    path = write_json(tmp_path / "p.json", spec)
    code, _, err = run(capsys, ["restack", path, "--levels", "1"])
    assert code == EXIT_SCHEMA
    assert "/distribution/type" in err


@pytest.mark.parametrize("levels", ["3,2", "2,2", "abc", ""])
def test_restack_levels_must_strictly_increase(tmp_path, capsys, levels):
    path = write_json(tmp_path / "p.json", uniform_interval_problem())
    code, _, err = run(capsys, ["restack", path, "--levels", levels])
    assert code == EXIT_SCHEMA
    assert "/levels" in err


def test_restack_box_collapsed_in_floating_point_is_degenerate(tmp_path, capsys):
    # center ± radius rounds back to the center: one cell, and the ball misses
    # its midpoint
    spec = wide_ball_problem(radius=1e-10)
    spec["distribution"]["center"] = [1e10, 1e10]
    path = write_json(tmp_path / "p.json", spec)
    code, out, err = run(capsys, ["restack", path, "--levels", "0"])
    assert code == EXIT_DEGENERATE
    assert out == ""
    assert err == "degenerate input: no cell carries positive density\n"


def test_restack_without_a_box_needs_a_bounded_distribution(tmp_path, capsys):
    spec = gaussian_problem(0.5)
    path = write_json(tmp_path / "p.json", spec)
    code, _, err = run(capsys, ["restack", path, "--levels", "1"])
    assert code == EXIT_SCHEMA
    assert "/box" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_theorem_needs_a_problem(capsys):
    code, _, err = run(capsys, ["verify", "theorem"])
    assert code == EXIT_SCHEMA
    assert "/problem" in err


def test_verify_theorem_confirms_the_trace_bound(tmp_path, capsys):
    path = write_json(tmp_path / "p.json", gaussian_problem(0.25))
    code, out, _ = run(
        capsys, ["verify", "theorem", "--problem", path, "--trials", "200", "--seed", "3"]
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["kind"] == "theorem"
    assert payload["violations"] == 0
    assert payload["bound"] == pytest.approx(3.0, rel=1e-10)
    assert payload["min_observed"] >= payload["bound"] - 1e-8 * payload["bound"]


def test_verify_nonsqueeze_finds_no_squeezing(capsys):
    code, out, _ = run(
        capsys,
        [
            "verify",
            "nonsqueeze",
            "--dof",
            "1",
            "--trials",
            "300",
            "--cylinder-radius",
            "0.5",
            "--seed",
            "2",
        ],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["successes"] == 0
    assert payload["min_energy_seen"] >= math.pi / 2.0 - 1e-9


def identity_problem(dof):
    eye = np.eye(2 * dof).tolist()
    return {
        "n": dof,
        "potential": {"V0": 0.0, "d": [0.0] * (2 * dof), "V": eye},
        "distribution": {
            "type": "gaussian", "weight": 1.0, "mean": [0.0] * (2 * dof), "covariance": eye,
        },
    }


@pytest.mark.parametrize("kind", ["theorem", "nonsqueeze"])
@pytest.mark.parametrize("dof", [1, 2, 3])
def test_verify_certifies_samples_squeezed_up_to_scale_5(tmp_path, capsys, kind, dof):
    problem = write_json(tmp_path / "p.json", identity_problem(dof))
    source = ["--dof", str(dof)] if kind == "nonsqueeze" else ["--problem", problem]
    code, _, err = run(
        capsys, ["verify", kind, "--scale", "5", "--trials", "1000", "--seed", "1"] + source
    )
    assert (code, err) == (EXIT_OK, "")


@pytest.mark.parametrize("kind, pointer", [("nonsqueeze", "/dof"), ("theorem", "/dim")])
@pytest.mark.parametrize("dof", [VERIFY_MAX_DOF, VERIFY_MAX_DOF + 1], ids=["cap", "cap+1"])
def test_verify_caps_the_sampler_degrees_of_freedom(tmp_path, capsys, kind, pointer, dof):
    problem = write_json(tmp_path / "p.json", identity_problem(dof))
    source = ["--dof", str(dof)] if kind == "nonsqueeze" else ["--problem", problem]
    code, out, err = run(capsys, ["verify", kind, "--trials", "1"] + source)
    if dof <= VERIFY_MAX_DOF:
        assert code == EXIT_OK
        return
    assert (code, out) == (EXIT_RESOURCE, "")
    assert err == (
        f"resource cap: {pointer}: the sampler needs {dof} degrees of freedom, "
        f"exceeding the cap of {VERIFY_MAX_DOF}\n"
    )


def test_verify_ellipsoid_equivalence_inline(capsys):
    code, out, _ = run(
        capsys,
        [
            "verify",
            "ellipsoid",
            "--first",
            "[[2.0, 0.0], [0.0, 0.5]]",
            "--second",
            "[[1.0, 0.0], [0.0, 1.0]]",
        ],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["equivalent"] is True
    np.testing.assert_allclose(payload["first_spectrum"], [1.0], rtol=1e-12)


def test_verify_ellipsoid_distinguishes_spectra(capsys):
    code, out, _ = run(
        capsys,
        [
            "verify",
            "ellipsoid",
            "--first",
            "[[2.0, 0.0], [0.0, 1.0]]",
            "--second",
            "[[1.0, 0.0], [0.0, 1.0]]",
        ],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["equivalent"] is False
    np.testing.assert_allclose(payload["first_spectrum"], [math.sqrt(2.0)], rtol=1e-12)


def test_verify_ellipsoid_needs_both_matrices(capsys):
    code, _, err = run(
        capsys, ["verify", "ellipsoid", "--first", "[[1.0, 0.0], [0.0, 1.0]]"]
    )
    assert code == EXIT_SCHEMA
    assert "/first" in err


def test_verify_ellipsoid_reads_matrix_files(tmp_path, capsys):
    first = tmp_path / "first.json"
    first.write_text("[[3.0, 0.0], [0.0, 3.0]]", encoding="utf-8")
    code, out, _ = run(
        capsys,
        [
            "verify",
            "ellipsoid",
            "--first",
            str(first),
            "--second",
            "[[9.0, 0.0], [0.0, 1.0]]",
        ],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["equivalent"] is True


def test_verify_ellipsoid_rejects_a_broken_matrix_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[[1.0,", encoding="utf-8")
    code, _, err = run(
        capsys,
        [
            "verify",
            "ellipsoid",
            "--first",
            str(bad),
            "--second",
            "[[1.0, 0.0], [0.0, 1.0]]",
        ],
    )
    assert code == EXIT_SCHEMA
    assert "/first" in err


IDENTITY_2 = "[[1.0, 0.0], [0.0, 1.0]]"
IDENTITY_4 = json.dumps(np.eye(4).tolist())


@pytest.mark.parametrize(
    "argv, pointer",
    [
        (["theorem", "--problem", "PROBLEM", "--trials", "0"], "/trials"),
        (["theorem", "--problem", "PROBLEM", "--trials", "-5"], "/trials"),
        (["nonsqueeze", "--trials", "-3"], "/trials"),
        (["nonsqueeze", "--dof", "0"], "/dof"),
        (["ellipsoid", "--first", "[[1.0, 0.0], [0.0, 0.0]]", "--second", IDENTITY_2],
         "/first"),
        (["ellipsoid", "--first", IDENTITY_2, "--second", "[[1.0, 2.0], [2.0, 1.0]]"],
         "/second"),
        (["theorem", "--problem", "PROBLEM", "--scale", "-1"], "/scale"),
        (["nonsqueeze", "--scale", "-1"], "/scale"),
        # squeezes of e^1000 overflow while sampling, inside either search
        (["theorem", "--problem", "PROBLEM", "--scale", "1e3"], "/scale"),
        (["nonsqueeze", "--dof", "2", "--scale", "1e3"], "/scale"),
        # squeezes of e^10 stay in range, but the samples fail their
        # symplecticity check
        (["theorem", "--problem", "PROBLEM", "--scale", "10"], "/scale"),
        (["nonsqueeze", "--dof", "1", "--scale", "10"], "/scale"),
        (["nonsqueeze", "--cylinder-radius", "2"], "/cylinder-radius"),
        (["nonsqueeze", "--cylinder-radius", "0"], "/cylinder-radius"),
        (["nonsqueeze", "--ball-radius", "inf"], "/ball-radius"),
        # the radius is positive; its square underflows to zero
        (["nonsqueeze", "--ball-radius", "1e-200", "--cylinder-radius", "1e-201"],
         "/ball-radius"),
        # the radius squares to a subnormal float, then to zero in the search
        (["nonsqueeze", "--ball-radius", "1e-160", "--cylinder-radius", "5e-301"],
         "/cylinder-radius"),
        # both radii square to normal floats; the ball's energy underflows
        (["nonsqueeze", "--ball-radius", "1e-100", "--cylinder-radius", "5e-101"],
         "/ball-radius"),
        (["theorem", "--problem", "SEMIDEFINITE"], "/potential/V"),
        (["ellipsoid", "--first", IDENTITY_2, "--second", IDENTITY_2, "--tol", "-1"],
         "/tol"),
        (["ellipsoid", "--first", IDENTITY_2, "--second", IDENTITY_2, "--tol", "nan"],
         "/tol"),
        (["nonsqueeze", "--seed", "-1"], "/seed"),
        (["theorem", "--problem", "PROBLEM", "--seed", "-1"], "/seed"),
        (["ellipsoid", "--first", "[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]",
          "--second", IDENTITY_2], "/first"),
        (["ellipsoid", "--first", IDENTITY_2, "--second", IDENTITY_4], "/second"),
        (["ellipsoid", "--first", '[["a"]]', "--second", IDENTITY_2], "/first/0/0"),
        (["ellipsoid", "--first", "[[1.0, 0.0], [0.0]]", "--second", IDENTITY_2],
         "/first"),
        (["ellipsoid", "--first", "{}", "--second", IDENTITY_2], "/first"),
        (["ellipsoid", "--first", "[" * 5_000 + "]" * 5_000, "--second", IDENTITY_2],
         "/first"),
    ],
    ids=[
        "theorem-zero-trials",
        "theorem-negative-trials",
        "nonsqueeze-negative-trials",
        "nonsqueeze-zero-dof",
        "ellipsoid-singular-first",
        "ellipsoid-indefinite-second",
        "theorem-negative-scale",
        "nonsqueeze-negative-scale",
        "theorem-scale-overflows",
        "nonsqueeze-scale-overflows",
        "theorem-samples-fail-their-certificate",
        "nonsqueeze-samples-fail-their-certificate",
        "nonsqueeze-cylinder-wider-than-ball",
        "nonsqueeze-zero-cylinder",
        "nonsqueeze-infinite-ball",
        "nonsqueeze-ball-radius-squares-to-zero",
        "nonsqueeze-cylinder-radius-squares-below-the-normal-range",
        "nonsqueeze-ball-energy-underflows",
        "theorem-semidefinite-potential",
        "ellipsoid-negative-tol",
        "ellipsoid-nan-tol",
        "nonsqueeze-negative-seed",
        "theorem-negative-seed",
        "ellipsoid-odd-dimension",
        "ellipsoid-sizes-differ",
        "ellipsoid-string-entry",
        "ellipsoid-ragged",
        "ellipsoid-object",
        "ellipsoid-nested-too-deeply",
    ],
)
def test_verify_rejects_inputs_outside_the_contract(tmp_path, capsys, argv, pointer):
    files = {
        "PROBLEM": write_json(tmp_path / "p.json", gaussian_problem(0.25)),
        # V = diag(1, 0, 1, 1): bounds accepts it, the trace bound needs definite V
        "SEMIDEFINITE": write_json(tmp_path / "semi.json", gaussian_problem(0.0)),
    }
    argv = ["verify"] + [files.get(a, a) for a in argv]
    code, out, err = run(capsys, argv)
    assert code == EXIT_SCHEMA
    assert out == ""
    assert err.startswith(f"schema error at {pointer}: ")


@pytest.mark.parametrize(
    "argv, foreign",
    [
        (["theorem", "--problem", "PROBLEM", "--trials", "5"], ["--dof", "7", "--tol", "-3",
                                                                 "--first", "x"]),
        (["nonsqueeze", "--trials", "5"], ["--problem", "p.json", "--first", "x"]),
        (["ellipsoid", "--first", IDENTITY_2, "--second", IDENTITY_2],
         ["--trials", "5", "--seed", "1", "--dof", "2"]),
    ],
    ids=["theorem", "nonsqueeze", "ellipsoid"],
)
def test_verify_kinds_reject_the_options_of_other_kinds(tmp_path, capsys, argv, foreign):
    problem = write_json(tmp_path / "p.json", gaussian_problem(0.25))
    with pytest.raises(SystemExit) as info:
        main(["verify"] + [problem if a == "PROBLEM" else a for a in argv] + foreign)
    out, err = capsys.readouterr()
    assert (info.value.code, out) == (2, "")
    assert err.endswith(f"unrecognized arguments: {' '.join(foreign)}\n")


@pytest.mark.parametrize(
    "kind, last", [("theorem", "/problem"), ("nonsqueeze", "/dof")]
)
def test_verify_checks_trials_then_scale_then_seed(capsys, kind, last):
    # each bad option is dropped once its error shows, so the next check's shows;
    # theorem, given no --problem, ends at /problem
    bad = {"/trials": ["--trials", "0"], "/scale": ["--scale", "-1"], "/seed": ["--seed", "-1"]}
    if kind == "nonsqueeze":
        bad["/dof"] = ["--dof", "0"]
    for pointer in ("/trials", "/scale", "/seed", last):
        argv = ["verify", kind] + [token for option in bad.values() for token in option]
        code, out, err = run(capsys, argv)
        assert (code, out) == (EXIT_SCHEMA, "")
        assert err.startswith(f"schema error at {pointer}: ")
        bad.pop(pointer, None)


def stiff_problem():
    # V and H are each in range; tr(V H) and det(V H) are not
    spec = gaussian_problem(1.0)
    spec.update(n=1, potential={"V0": 0.0, "d": [0.0, 0.0], "V": [[1e300, 0], [0, 1e300]]})
    spec["distribution"].update(mean=[0.0, 0.0], covariance=[[1e10, 0], [0, 1e10]])
    return spec


def wide_ball_problem(radius=1e200, amplitude=1.0):
    spec = stiff_problem()
    spec["potential"]["V"] = [[1.0, 0.0], [0.0, 1.0]]
    spec["distribution"] = {
        "type": "ball", "radius": radius, "amplitude": amplitude, "center": [0.0, 0.0],
    }
    return spec


# a Gaussian whose form is inf - inf = nan at cell midpoints near (1e150, 1e150)
NAN_FORM_GAUSSIAN = {"type": "gaussian", "weight": 1.0, "mean": [0.0, 0.0],
                     "covariance": [[2e-160, 1e-160], [1e-160, 2e-160]]}


def huge_ball_problem(*others, v=1.0):
    """A ball of radius 1e150 in the box of side 2e150, with other mixture
    components, if any, and V = v * I."""
    spec = wide_ball_problem(1e150)
    spec["potential"]["V"] = [[v, 0.0], [0.0, v]]
    spec["box"] = {"lo": [-1e150] * 2, "hi": [1e150] * 2}
    if others:
        spec["distribution"] = {"type": "mixture", "components": [spec["distribution"], *others]}
    return spec


def sharp_gaussian_problem():
    return {
        "dim": 1,
        "potential": {"V0": 0.0, "d": [0.0], "V": [[1.0]]},
        "distribution": {
            "type": "gaussian", "weight": 1e300, "mean": [0.0], "covariance": [[1e-300]],
        },
        "box": {"lo": [-0.5], "hi": [0.5]},
    }


def sweep_of(problem):
    problem["potential"]["V"][1][1] = "epsilon*" + repr(problem["potential"]["V"][1][1])
    return {"template": problem, "range": {"start": 1.0, "stop": 2.0, "points": 3}}


WIDE_2 = "[[1e200, 0.0], [0.0, 1e200]]"


@pytest.mark.parametrize(
    "argv, pointer",
    [
        (["bounds", "WIDE_BALL"], "/distribution"),
        # the mass alone overflows, without an exception on the way
        (["bounds", "HEAVY_BALL"], "/distribution"),
        (["bounds", "STIFF"], "/potential/V"),
        (["verify", "ellipsoid", "--first", WIDE_2, "--second", IDENTITY_2], "/first"),
        (["verify", "ellipsoid", "--first", IDENTITY_2, "--second", WIDE_2], "/second"),
        (["verify", "theorem", "--trials", "10", "--problem", "WIDE_BALL"], "/distribution"),
        (["verify", "theorem", "--trials", "10", "--problem", "STIFF"], "/potential/V"),
        (["verify", "nonsqueeze", "--dof", "1", "--trials", "10", "--ball-radius", "1e200",
          "--cylinder-radius", "1e199"], "/ball-radius"),
        (["sweep", "SWEEP_WIDE_BALL"], "/template/distribution"),
        (["sweep", "SWEEP_STIFF"], "/template/potential/V"),
        (["restack", "WIDE_BALL", "--levels", "0", "--base-spacing", "1e199"],
         "/distribution"),
        # the density is in range; the cell energies of V are not
        (["restack", "STIFF_BALL", "--levels", "0", "--base-spacing", "1e4"],
         "/potential/V"),
        # the density at the mean is beyond the float range
        (["restack", "SHARP_GAUSSIAN", "--levels", "0"], "/distribution"),
        # V_aa * dz_a overflows inside the quadratic form
        (["restack", "STIFF_WIDE_BALL", "--levels", "0,1", "--base-spacing", "1e9"],
         "/potential/V"),
        # each cell energy is in range; times the cell volume they are not
        (["restack", "HUGE_BALL", "--levels", "0", "--base-spacing", "1e149"], "/potential/V"),
        # as above, with a Gaussian component whose form is inf - inf = nan
        (["restack", "HUGE_BALL_AND_NAN_GAUSSIAN", "--levels", "0", "--base-spacing", "1e149"],
         "/potential/V"),
    ],
    ids=[
        "bounds-ball-volume",
        "bounds-ball-mass",
        "bounds-energy",
        "ellipsoid-first-spectrum",
        "ellipsoid-second-spectrum",
        "theorem-ball-volume",
        "theorem-bound",
        "nonsqueeze-radius",
        "sweep-ball-volume",
        "sweep-energy",
        "restack-ball-radius",
        "restack-cell-energy",
        "restack-gaussian-density",
        "restack-cell-energy-product",
        "restack-cell-volume-product",
        "restack-nan-gaussian-form",
    ],
)
def test_values_beyond_the_float_range_fail_at_their_input(tmp_path, capsys, argv, pointer):
    files = {
        "SHARP_GAUSSIAN": write_json(tmp_path / "sharp.json", sharp_gaussian_problem()),
        "WIDE_BALL": write_json(tmp_path / "ball.json", wide_ball_problem()),
        "HEAVY_BALL": write_json(tmp_path / "heavy.json", wide_ball_problem(1.0, 1e308)),
        "STIFF": write_json(tmp_path / "stiff.json", stiff_problem()),
        "SWEEP_WIDE_BALL": write_json(tmp_path / "s1.json", sweep_of(wide_ball_problem())),
        "SWEEP_STIFF": write_json(tmp_path / "s2.json", sweep_of(stiff_problem())),
        "STIFF_BALL": write_json(
            tmp_path / "stiff_ball.json",
            {**wide_ball_problem(1e5), "potential": stiff_problem()["potential"]},
        ),
        "STIFF_WIDE_BALL": write_json(
            tmp_path / "stiff_wide_ball.json",
            {**wide_ball_problem(1e10), "potential": stiff_problem()["potential"]},
        ),
        "HUGE_BALL": write_json(tmp_path / "huge_ball.json", huge_ball_problem()),
        "HUGE_BALL_AND_NAN_GAUSSIAN": write_json(
            tmp_path / "huge_mixture.json", huge_ball_problem(NAN_FORM_GAUSSIAN)
        ),
    }
    code, out, err = run(capsys, [files.get(a, a) for a in argv])
    assert code == EXIT_SCHEMA
    assert out == ""
    assert err == f"schema error at {pointer}: a computed value is beyond the float range\n"


@pytest.mark.parametrize(
    "distribution, half_width, spacing",
    [
        ({"type": "ellipsoid", "matrix": [[1e300, 0.0], [0.0, 1e300]], "center": [0.0, 0.0]},
         1e10, 1e9),
        ({"type": "gaussian", "weight": 1.0, "mean": [0.0, 0.0],
          "covariance": [[1e-300, 0.0], [0.0, 1e-300]]}, 1e200, 1e199),
    ],
    ids=["ellipsoid-indicator", "gaussian-exponent"],
)
def test_a_density_whose_quadratic_form_overflows_is_zero_there(
    tmp_path, capsys, distribution, half_width, spacing
):
    # dz @ M overflows at every cell midpoint: the ellipsoid excludes the cell
    # and the Gaussian underflows to zero, so no cell carries density
    spec = {**wide_ball_problem(), "distribution": distribution,
            "box": {"lo": [-half_width] * 2, "hi": [half_width] * 2}}
    path = write_json(tmp_path / "p.json", spec)
    code, out, err = run(capsys, ["restack", path, "--levels", "0", "--base-spacing", repr(spacing)])
    assert (code, out) == (EXIT_DEGENERATE, "")
    assert err == "degenerate input: no cell carries positive density\n"


def test_a_gaussian_whose_form_is_nan_is_zero_there(tmp_path, capsys):
    # every cell energy and energy sum is in range at V = 1e-300 * I; the
    # Gaussian adds nothing to the ball at any midpoint, nan forms included
    outputs = []
    for spec in (huge_ball_problem(v=1e-300), huge_ball_problem(NAN_FORM_GAUSSIAN, v=1e-300)):
        path = write_json(tmp_path / "p.json", spec)
        outputs.append(run(capsys, ["restack", path, "--levels", "0", "--base-spacing", "1e149"]))
    assert outputs[0] == outputs[1]
    code, out, err = outputs[1]
    assert (code, err) == (EXIT_OK, "")
    row = out.splitlines()[1].split(",")
    assert row[:3] == ["0", "1e+149", "400"]
    assert all(math.isfinite(float(value)) and float(value) > 0 for value in row[3:])


def test_a_grid_is_zero_beyond_the_int64_range_of_its_cell_indices(tmp_path, capsys):
    # the midpoints off the centre lie 5e19 grid cells from the grid, past
    # int64; the centre midpoint falls in the grid's cell of value 4
    spec = {**wide_ball_problem(), "box": {"lo": [-0.75] * 2, "hi": [0.75] * 2}}
    spec["potential"]["d"] = [0.1, 0.2]
    spec["distribution"] = {"type": "grid", "origin": [-1e-20] * 2, "spacing": 1e-20,
                            "shape": [2, 2], "values": [1.0, 2.0, 3.0, 4.0]}
    path = write_json(tmp_path / "p.json", spec)
    code, out, err = run(capsys, ["restack", path, "--levels", "0", "--base-spacing", "0.5"])
    assert (code, err) == (EXIT_OK, "")
    # 0.25 (the cell area) * 4 * (0.1^2 + 0.2^2)
    assert out.splitlines()[1] == "0,0.5,9,0.05000000000000001,0.05000000000000001"


def test_an_empty_csv_sidecar_prints_only_its_schema_error(tmp_path):
    # a fresh interpreter shows stderr as a user sees it, numpy's warnings included
    (tmp_path / "values.csv").write_text("", encoding="utf-8")
    write_json(tmp_path / "grid.json", {"dim": 2, "shape": [2, 2], "origin": [0.0, 0.0],
                                        "spacing": 0.5, "values_csv": "values.csv"})
    spec = {**wide_ball_problem(), "distribution": {"type": "grid", "file": "grid.json"}}
    path = write_json(tmp_path / "p.json", spec)
    env = {**os.environ, "PYTHONPATH": str(Path(phasemin.cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "phasemin", "bounds", path],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (EXIT_SCHEMA, "")
    assert proc.stderr == "schema error at /values: expected 4 values for shape [2, 2], got 0\n"


# finite entries whose larger eigenvalue, 2.7e308, is beyond the float range
OVERFLOWING_2 = "[[1.7e308, 1e308], [1e308, 1.7e308]]"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["verify", "ellipsoid", "--first", OVERFLOWING_2, "--second", IDENTITY_2],
         "/first: matrix"),
        (["bounds", "PROBLEM"], "/distribution: covariance"),
    ],
    ids=["ellipsoid-first", "bounds-covariance"],
)
def test_eigenvalues_beyond_the_float_range_fail_at_their_input(tmp_path, capsys, argv, err):
    spec = stiff_problem()
    spec["distribution"]["covariance"] = json.loads(OVERFLOWING_2)
    files = {"PROBLEM": write_json(tmp_path / "p.json", spec)}
    code, out, stderr = run(capsys, [files.get(a, a) for a in argv])
    assert (code, out) == (EXIT_SCHEMA, "")
    assert stderr == f"schema error at {err} has an eigenvalue beyond the float range\n"


def sweep_with(entry="epsilon**2", start=0.5, **template_fields):
    spec = sweep_spec(start, 1.5, 3)
    spec["template"]["potential"]["V"][1][1] = entry
    spec["template"].update(template_fields)
    return spec


GAUSSIAN_1 = {"type": "gaussian", "weight": 1.0, "mean": [0.0], "covariance": [[0.1]]}
BALL_1 = {"type": "ball", "radius": 0.5, "center": [0.0]}
PARTICLES_1 = {"type": "particles", "points": [[0.25]], "weights": [1.0]}


def restack_mixture(*components):
    return {**uniform_interval_problem(),
            "distribution": {"type": "mixture", "components": list(components)}}


@pytest.mark.parametrize(
    "argv, spec, pointer",
    [
        (["sweep"], sweep_with("epsilon/0"), "/template/potential/V/1/1"),
        (["sweep"], sweep_with("10.0**400*epsilon"), "/template/potential/V/1/1"),
        (["sweep"], sweep_with("(-epsilon)**0.5"), "/template/potential/V/1/1"),
        (["sweep"], sweep_with("1 - epsilon"), "/template/potential/V"),
        (["sweep"], sweep_with("-" * 100_000 + "epsilon"), "/template/potential/V/1/1"),
        (["sweep"], sweep_with("-" * 5_000 + "epsilon"), "/template/potential/V/1/1"),
        (["sweep"], sweep_with("epsilon+" * 1_500 + "epsilon"), "/template/potential/V/1/1"),
        (["sweep"], sweep_with(start="a"), "/range/start"),
        (["sweep"], sweep_with(start=True), "/range/start"),
        (["sweep"], sweep_with(start="0.5"), "/range/start"),
        (["sweep"], sweep_with(n=0), "/template/n"),
        (["sweep"], sweep_of(odd_dimension_problem()), "/template/dim"),
        (["sweep"], sweep_with(distribution={"type": "cube"}),
         "/template/distribution/type"),
        # pointers of errors inside a named grid file point into that file
        (["sweep"], sweep_with(distribution={"type": "grid", "file": "grid.json"}),
         "/shape/0"),
        (["restack", "--levels", "0", "--base-spacing", "0"],
         uniform_interval_problem(), "/base-spacing"),
        (["restack", "--levels", "-1"], uniform_interval_problem(), "/levels"),
        (["restack", "--levels", "0"], restack_mixture(GAUSSIAN_1, PARTICLES_1),
         "/distribution/components/1/type"),
        (["restack", "--levels", "0"],
         restack_mixture(GAUSSIAN_1, {"type": "mixture", "components": [BALL_1, PARTICLES_1]}),
         "/distribution/components/1/components/1/type"),
        (["restack", "--levels", "0"],
         restack_mixture({"type": "mixture", "components": [PARTICLES_1]}, PARTICLES_1),
         "/distribution/components/0/components/0/type"),
        (["sweep"], [sweep_with()], "/"),
        (["sweep"], {**sweep_with(), "template": []}, "/template"),
        (["sweep"], {**sweep_with(), "range": 3}, "/range"),
        (["sweep"], sweep_spec(0.5, 1.5, 3, spacing="cubic"), "/range/spacing"),
        (["sweep"], sweep_with(potential={"V0": 0.0, "d": [0.0] * 4}),
         "/template/potential/V"),
        (["sweep"], sweep_with(potential={"V0": 0.0, "d": [0.0] * 4, "V": [[1.0] * 4, 1.0]}),
         "/template/potential/V/1"),
    ],
    ids=[
        "sweep-division-by-zero",
        "sweep-overflow",
        "sweep-complex-value",
        "sweep-indefinite-at-a-later-point",
        # parser stack overflow (MemoryError), parser recursion, walk recursion
        "sweep-nesting-beyond-the-parser-stack",
        "sweep-nesting-beyond-the-parser-recursion",
        "sweep-nesting-beyond-the-walk-recursion",
        "sweep-non-numeric-start",
        "sweep-boolean-start",
        "sweep-string-number-start",
        "sweep-template-size",
        "sweep-template-odd-dimension",
        "sweep-template-distribution",
        "sweep-template-grid-file",
        "restack-zero-base-spacing",
        "restack-negative-level",
        "restack-mixture-with-particles",
        "restack-nested-mixture-with-particles",
        "restack-first-of-two-particle-components",
        "sweep-file-holds-a-list",
        "sweep-template-not-an-object",
        "sweep-range-not-an-object",
        "sweep-unknown-spacing",
        "sweep-potential-without-V",
        "sweep-V-row-not-a-list",
    ],
)
def test_sweep_and_restack_reject_inputs_outside_the_contract(
    tmp_path, capsys, argv, spec, pointer
):
    write_json(tmp_path / "grid.json", {"dim": 2, "shape": [2.5, 2]})
    path = write_json(tmp_path / "input.json", spec)
    code, out, err = run(capsys, [argv[0], path] + argv[1:])
    assert code == EXIT_SCHEMA
    assert out == ""
    assert err.startswith(f"schema error at {pointer}: ")


def test_an_expression_fails_where_its_evaluation_first_fails(tmp_path, capsys):
    # the division fails before the evaluation reaches the deeply nested operand
    expression = "1/0 + " + "-" * 1_500 + "epsilon"
    code, out, err = run(capsys, ["sweep", write_json(tmp_path / "s.json", sweep_with(expression))])
    assert (code, out) == (EXIT_SCHEMA, "")
    assert err == (
        f"schema error at /template/potential/V/1/1: expression {expression!r} "
        "fails at epsilon = 0.5: float division by zero\n"
    )


# ---------------------------------------------------------------------------
# fuzzed inputs


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda children: st.lists(children, max_size=4),
    max_leaves=8,
)
DISTRIBUTION_KINDS = (
    "gaussian", "ball", "ellipsoid", "particles", "grid", "mixture", "cube",
)
DISTRIBUTION_FIELDS = (
    "weight", "mean", "covariance", "radius", "center", "amplitude", "matrix",
    "points", "weights", "origin", "spacing", "shape", "values", "values_csv",
)
# grid "file" is left out: a random file name is an I/O error (exit 4)
DISTRIBUTIONS = st.deferred(
    lambda: JSON_VALUES
    | st.builds(
        lambda kind, fields, components: {"type": kind, **fields, **components},
        st.sampled_from(DISTRIBUTION_KINDS),
        st.dictionaries(st.sampled_from(DISTRIBUTION_FIELDS), JSON_VALUES, max_size=4),
        st.fixed_dictionaries(
            {}, optional={"components": st.lists(DISTRIBUTIONS, max_size=2)}
        ),
    )
)
FUZZ_SETTINGS = settings(
    derandomize=True,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@FUZZ_SETTINGS
@given(matrix=JSON_VALUES)
def test_verify_ellipsoid_reads_any_json_matrix(capsys, matrix):
    first = f"--first={json.dumps(matrix)}"
    code, _, err = run(capsys, ["verify", "ellipsoid", first, f"--second={IDENTITY_2}"])
    assert code in (EXIT_OK, EXIT_SCHEMA, EXIT_DEGENERATE), err


def mostly(valid, junk=JSON_VALUES):
    """``valid`` nine times in ten and ``junk`` otherwise, so that most fuzzed
    inputs get past the schema checks and reach the energies."""
    return st.integers(0, 9).flatmap(lambda k: junk if k == 0 else valid)


# sweep expressions: short strings over the tokens the expression grammar knows
EXPRESSIONS = st.lists(
    st.sampled_from(["epsilon", *"0123456789.+-*/()"]), max_size=6
).map("".join)


def symmetric_2x2(diagonal):
    off_diagonal = mostly(st.floats(-0.5, 0.5))
    return mostly(
        st.builds(lambda a, b, c: [[a, b], [b, c]], diagonal, off_diagonal, diagonal)
    )


def pairs(low, high):
    return mostly(st.lists(st.floats(low, high), min_size=2, max_size=2))


SWEEP_RANGES = mostly(
    st.fixed_dictionaries(
        # every point is evaluated, so counts stay small: a sweep of any
        # length is allowed, and a huge count is a known fault of its own
        {"points": mostly(st.integers(-2, 40), JSON_VALUES.filter(
            lambda x: not isinstance(x, int)
        ))},
        optional={
            "start": mostly(st.floats(0.1, 3.0)),
            "stop": mostly(st.floats(0.1, 3.0)),
            "spacing": mostly(st.sampled_from(["linear", "log"])),
        },
    )
)
GAUSSIAN_2 = {
    "type": "gaussian", "weight": 1.0, "mean": [0.0, 0.0],
    "covariance": [[2.0, 0.5], [0.5, 1.0]],
}


@FUZZ_SETTINGS
@given(
    sweep_range=SWEEP_RANGES,
    v=symmetric_2x2(
        mostly(st.floats(0.5, 3.0) | st.sampled_from(["epsilon", "2*epsilon"]) | EXPRESSIONS)
    ),
)
def test_sweep_reads_any_json_spec(tmp_path, capsys, sweep_range, v):
    spec = {
        "parameter": "epsilon",
        "range": sweep_range,
        "template": {
            "n": 1,
            "potential": {"V0": 0.0, "d": [0.0, 0.0], "V": v},
            "distribution": GAUSSIAN_2,
        },
    }
    code, _, err = run(capsys, ["sweep", write_json(tmp_path / "s.json", spec)])
    assert code in (EXIT_OK, EXIT_SCHEMA, EXIT_DEGENERATE), err


@FUZZ_SETTINGS
@given(
    size=mostly(
        st.sampled_from([{"n": 1}, {"dim": 2}]),
        st.fixed_dictionaries({}, optional={"n": JSON_VALUES, "dim": JSON_VALUES}),
    ),
    potential=mostly(
        st.fixed_dictionaries(
            {
                "V0": mostly(st.floats(-1.0, 1.0)),
                "d": pairs(-2.0, 2.0),
                "V": symmetric_2x2(mostly(st.floats(0.0, 3.0))),
            }
        )
    ),
    box=st.fixed_dictionaries(
        {}, optional={"box": mostly(
            st.fixed_dictionaries({"lo": pairs(-2.0, 0.5), "hi": pairs(-0.5, 2.0)})
        )}
    ),
)
def test_bounds_reads_any_json_problem(tmp_path, capsys, size, potential, box):
    spec = {**size, "potential": potential, "distribution": GAUSSIAN_2, **box}
    code, _, err = run(capsys, ["bounds", write_json(tmp_path / "p.json", spec)])
    assert code in (EXIT_OK, EXIT_SCHEMA, EXIT_DEGENERATE), err


@FUZZ_SETTINGS
@given(distribution=DISTRIBUTIONS)
def test_bounds_reads_any_json_distribution(tmp_path, capsys, distribution):
    spec = {
        "n": 1,
        "potential": {"V0": 0.0, "d": [0.0, 0.0], "V": [[1.0, 0.0], [0.0, 1.0]]},
        "distribution": distribution,
    }
    code, _, err = run(capsys, ["bounds", write_json(tmp_path / "p.json", spec)])
    assert code in (EXIT_OK, EXIT_SCHEMA, EXIT_DEGENERATE), err


# well-formed objects of the rasterizable types: their numbers are mostly
# moderate, and otherwise any finite float
FINITE = mostly(st.floats(-3.0, 3.0), st.floats(allow_nan=False, allow_infinity=False))
FINITE_PAIRS = st.lists(FINITE, min_size=2, max_size=2)
RASTERIZABLE = st.one_of(
    st.fixed_dictionaries(
        {"type": st.just("ball"), "radius": FINITE, "center": FINITE_PAIRS},
        optional={"amplitude": FINITE},
    ),
    st.fixed_dictionaries(
        {"type": st.just("ellipsoid"), "matrix": symmetric_2x2(FINITE),
         "center": FINITE_PAIRS},
        optional={"amplitude": FINITE},
    ),
    st.fixed_dictionaries(
        {"type": st.just("grid"), "origin": FINITE_PAIRS, "spacing": FINITE,
         "shape": st.just([2, 2]), "values": st.lists(FINITE, min_size=4, max_size=4)}
    ),
)


@FUZZ_SETTINGS
@given(distribution=DISTRIBUTIONS | RASTERIZABLE)
def test_restack_reads_any_json_distribution(tmp_path, capsys, monkeypatch, distribution):
    monkeypatch.setenv("PHASEMIN_MAX_CELLS", "4096")
    spec = {
        "n": 1,
        "potential": {"V0": 0.0, "d": [0.0, 0.0], "V": [[1.0, 0.0], [0.0, 1.0]]},
        "distribution": distribution,
    }
    path = write_json(tmp_path / "p.json", spec)
    code, _, err = run(capsys, ["restack", path, "--levels", "0,1"])
    assert code in (EXIT_OK, EXIT_SCHEMA, EXIT_DEGENERATE, EXIT_RESOURCE), err
