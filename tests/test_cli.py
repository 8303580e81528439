import json
import math

import numpy as np
import pytest

import phasemin.cli
from phasemin.cli import (
    EXIT_DEGENERATE,
    EXIT_IO,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_SCHEMA,
    RESTACK_CSV_HEADER,
    SWEEP_CSV_HEADER,
    main,
)
from phasemin.linalg import symplectic_residual


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


def test_bounds_rejects_odd_dimension(tmp_path, capsys):
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
    path = write_json(tmp_path / "p.json", spec)
    code, _, err = run(capsys, ["bounds", path])
    assert code == EXIT_SCHEMA
    assert "/dim" in err


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


def test_sweep_is_deterministic_and_worker_count_invariant(tmp_path, capsys):
    path = write_json(tmp_path / "s.json", sweep_spec(0.2, 2.0, 5))
    _, serial_a, _ = run(capsys, ["sweep", path])
    _, serial_b, _ = run(capsys, ["sweep", path])
    assert serial_a == serial_b
    code, parallel, _ = run(capsys, ["sweep", path, "--workers", "2"])
    assert code == EXIT_OK
    assert parallel == serial_a


def test_sweep_evaluates_each_point_once(tmp_path, capsys, monkeypatch):
    evaluated = []
    evaluate = phasemin.cli._sweep_point

    def counting(payload):
        evaluated.append(payload[2])
        return evaluate(payload)

    monkeypatch.setattr(phasemin.cli, "_sweep_point", counting)
    path = write_json(tmp_path / "s.json", sweep_spec(0.2, 2.0, 5))
    code, out, _ = run(capsys, ["sweep", path])
    assert code == EXIT_OK
    assert len(out.strip().split("\n")) == 6
    np.testing.assert_allclose(evaluated, [0.2, 0.65, 1.1, 1.55, 2.0], rtol=1e-12)


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


def test_restack_honors_the_cell_cap_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PHASEMIN_MAX_CELLS", "16")
    path = write_json(tmp_path / "p.json", uniform_interval_problem())
    code, _, err = run(capsys, ["restack", path, "--levels", "5"])
    assert code == EXIT_RESOURCE
    assert "resource cap" in err


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
    ],
    ids=[
        "theorem-zero-trials",
        "theorem-negative-trials",
        "nonsqueeze-negative-trials",
        "nonsqueeze-zero-dof",
        "ellipsoid-singular-first",
        "ellipsoid-indefinite-second",
    ],
)
def test_verify_rejects_inputs_outside_the_contract(tmp_path, capsys, argv, pointer):
    problem = write_json(tmp_path / "p.json", gaussian_problem(0.25))
    argv = ["verify"] + [problem if a == "PROBLEM" else a for a in argv]
    code, out, err = run(capsys, argv)
    assert code == EXIT_SCHEMA
    assert out == ""
    assert err.startswith(f"schema error at {pointer}: ")
