"""Each checker accepts the program's real output and rejects a corrupted copy.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from phasemin.cli import main  # noqa: E402

SEED = 3


def _output(op) -> str:
    assert main(op.argv) == 0
    return Path(op.output).read_text(encoding="utf-8")


def _first(ops, kind):
    return next(op for op in ops if op.kind == kind)


def _rejects(op, text):
    with pytest.raises(checks.CheckFailure):
        op.check(text)


def _edit_json(text, edit):
    report = json.loads(text)
    edit(report)
    return json.dumps(report)


def _edit_csv(text, row, column, edit):
    lines = [line.split(",") for line in text.splitlines()]
    lines[row][column] = edit(lines[row][column])
    return "\n".join(",".join(fields) for fields in lines) + "\n"


def _scale_sp_map(report):
    report["sp"]["map"]["matrix"] = (1.001 * np.asarray(report["sp"]["map"]["matrix"])).tolist()


def _nudge(value):
    return repr(float(value) * (1 + 1e-6))


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    return {w: workloads.build(w, SEED, str(tmp_path_factory.mktemp(w)))
            for w in workloads.WORKLOADS}


@pytest.mark.parametrize("kind", ["gaussian-n2", "mixture-n4", "grid-n1", "particles-n8",
                                  "constructed-n2-s10", "constructed-n1-s10000"])
@pytest.mark.parametrize("field", ["sl", "sp"])
def test_bounds_checker(rounds, kind, field):
    op = _first(rounds["bounds_mix"], kind)
    text = _output(op)
    op.check(text)

    def move(report):
        report[field]["energy"] *= 1 + 1e-6

    _rejects(op, _edit_json(text, move))


def test_bounds_checker_rejects_a_map_off_the_group(rounds):
    op = _first(rounds["bounds_mix"], "ellipsoid-n2")
    text = _output(op)
    _rejects(op, _edit_json(text, _scale_sp_map))


def test_bounds_checker_on_a_known_fault_checks_all_but_the_energies(rounds):
    op = _first(rounds["bounds_mix"], "constructed-n4-s10000")
    text = _output(op)
    with pytest.raises(checks.KnownFault, match="Sp energy"):
        op.check(text)

    _rejects(op, _edit_json(text, _scale_sp_map))
    _rejects(op, _edit_json(text, lambda r: r.update(mass=r["mass"] * (1 + 1e-6))))


def test_worker_counts_only_a_known_fault_as_expected(rounds):
    op = _first(rounds["bounds_mix"], "constructed-n4-s10000")
    _, failure, known = worker.run_op(main, op)
    assert failure.startswith("known fault") and known
    _, failure, known = worker.run_op(lambda argv: 1, op)
    assert failure == "exit 1" and not known
    # exit 0 without writing the output file
    _, failure, known = worker.run_op(lambda argv: 0, _first(rounds["sweep_serial"], "sweep-n4-log"))
    assert failure.startswith("FileNotFoundError") and not known


@pytest.mark.parametrize("column", [2, 3, 5])
def test_sweep_checker(rounds, column):
    op = _first(rounds["sweep_serial"], "sweep-n2-log")
    text = _output(op)
    op.check(text)
    _rejects(op, _edit_csv(text, 7, column, _nudge))


def test_restack_checker(rounds):
    op = _first(rounds["restack_ladder"], "restack-ball-4d")
    text = _output(op)
    op.check(text)
    pre = text.splitlines()[2].split(",")[4]
    _rejects(op, _edit_csv(text, 2, 3, lambda _: repr(float(pre) * (1 + 1e-9))))


def test_restack_checker_wants_gaussian_ladders_near_the_sl_energy(rounds):
    op = _first(rounds["restack_ladder"], "restack-gaussian-2d")
    text = _output(op)
    op.check(text)
    _rejects(op, _edit_csv(text, 3, 3, lambda e: repr(float(e) * 1.05)))


def test_theorem_checker(rounds):
    op = _first(rounds["verify_sampler"], "theorem-dof2")
    text = _output(op)
    op.check(text)
    _rejects(op, _edit_json(text, lambda r: r.update(violations=1)))
    _rejects(op, _edit_json(text, lambda r: r.update(bound=r["bound"] * (1 + 1e-6))))


def test_nonsqueeze_checker(rounds):
    op = _first(rounds["verify_sampler"], "nonsqueeze-dof3")
    text = _output(op)
    op.check(text)
    _rejects(op, _edit_json(text, lambda r: r.update(successes=1)))
    _rejects(op, _edit_json(
        text, lambda r: r.update(min_energy_seen=r["min_energy_seen"] * (1 + 1e-6))))


@pytest.mark.parametrize("n,spread", [(1, 1e4), (2, 10.0), (4, 1e3)])
def test_constructed_spectra_agree_with_the_hermitian_oracle(n, spread):
    pair = checks.constructed_pair(np.random.default_rng(0), n, spread)
    for m, exact in ((pair.v, pair.spectrum_v), (pair.h, pair.spectrum_h)):
        np.testing.assert_allclose(checks.symplectic_spectrum(m), exact, rtol=1e-9)
    j = checks.symplectic_form(n)
    s = checks.random_symplectic(np.random.default_rng(1), n, 0.3)
    np.testing.assert_allclose(s.T @ j @ s, j, atol=1e-12)


def test_closed_forms_agree_with_a_direct_computation():
    rng = np.random.default_rng(2)
    # the unit disk's moments against a fine midpoint lattice
    axis = np.linspace(-0.9995, 0.9995, 1000)
    x, p = np.meshgrid(axis, axis, indexing="ij")
    inside = x**2 + p**2 <= 1.0
    disk = checks.ball_moments(1.0, [0.0, 0.0], 1.0)
    assert abs(inside.sum() * 4e-6 - disk.mass) < 1e-2
    assert abs((x[inside] ** 2).sum() * 4e-6 - disk.second[0, 0]) < 1e-2
    # an ellipsoid with shape matrix I / r^2 is the ball of radius r
    ellipsoid = checks.ellipsoid_moments(np.eye(4) / 1.5**2, np.zeros(4), 2.0)
    ball = checks.ball_moments(1.5, np.zeros(4), 2.0)
    assert abs(ellipsoid.mass - ball.mass) < 1e-12 * ball.mass
    np.testing.assert_allclose(ellipsoid.second, ball.second, rtol=1e-12)
    # SL and Sp minima coincide at n = 1
    v, h = checks.random_spd(rng, 2, 0.5, 2.0), checks.random_spd(rng, 2, 0.5, 2.0)
    sp = checks.sp_trace_minimum(checks.symplectic_spectrum(v), checks.symplectic_spectrum(h))
    assert abs(checks.sl_trace_minimum(v, h) - sp) < 1e-12 * sp
    # integral of x^2 + p^2 over the unit disk is pi / 2
    assert abs(checks.ball_cylinder_energy(1.0, 2) - np.pi / 2) < 1e-15
