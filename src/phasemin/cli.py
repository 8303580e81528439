"""Command line front end.

Subcommands::

    phasemin bounds <problem.json>             closed-form minimal energies
    phasemin sweep <sweep.json> -o <csv>       energy curves over a parameter
    phasemin restack <problem.json> --levels   lattice rearrangement energies
    phasemin verify <kind> [...]               randomized verification runs

Exit codes: 0 success, 1 verification failure, 2 schema violation (the
message names the offending field as a JSON pointer), 3 degenerate moments,
4 I/O failure, 5 resource cap exceeded.

Output is deterministic: identical invocations, including seeds, produce
byte-identical JSON and CSV.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .distributions import (
    BallIndicator,
    EllipsoidIndicator,
    Gaussian,
    Grid,
    Mixture,
    Particles,
    density,
    moment_energy,
    moments,
)
from .energy import linear_gardner_energy, linear_gromov_energy, verify_map_optimality
from .errors import (
    CellCapExceeded,
    DegenerateMoments,
    EmptyDistribution,
    PhaseMinError,
    SchemaError,
)
from .linalg import INPUT_SYMMETRY_RTOL, is_definite, symmetrize
from .problems import Problem, load_problem, parse_problem
from .restack import RestackProblem, configured_cell_cap, restack
from .verify import (
    SymplecticSampler,
    check_trace_minimum,
    ellipsoids_equivalent,
    nonsqueeze_search,
)
from .williamson import symplectic_eigenvalues

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_SCHEMA = 2
EXIT_DEGENERATE = 3
EXIT_IO = 4
EXIT_RESOURCE = 5

RESTACK_MAX_DIM = 4
SWEEP_CSV_HEADER = "epsilon,E_initial,E_SL,E_Sp,F_SL,F_Sp"
RESTACK_CSV_HEADER = "level,h,cells,energy,pre_energy"


def _fmt(value) -> str:
    if value is None or (isinstance(value, float) and not np.isfinite(value)):
        return "nan"
    return f"{float(value):.17g}"


def _emit(text: str, destination) -> None:
    if destination is None:
        sys.stdout.write(text)
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text)


def _json_report(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# bounds


def _map_payload(report):
    return {
        "matrix": report.map.matrix.tolist(),
        "center": report.map.center.tolist(),
        "target": report.map.target.tolist(),
    }


def cmd_bounds(args) -> int:
    problem = load_problem(args.problem)
    if problem.dim % 2:
        raise SchemaError("/dim", "bounds needs an even phase-space dimension")
    m = moments(problem.distribution)
    initial = moment_energy(m, problem.potential)
    sl = linear_gardner_energy(m, problem.potential)
    sp = linear_gromov_energy(m, problem.potential)
    payload = {
        "dim": problem.dim,
        "dof": problem.dof,
        "mass": m.mass,
        "center": m.center.tolist(),
        "second_moment": m.second_moment.tolist(),
        "initial_energy": initial,
        "potential_spectrum": sl.potential_spectrum.tolist(),
        "moment_spectrum": sl.moment_spectrum.tolist(),
        "sl": {
            "energy": sl.energy,
            "fraction": sl.fraction,
            "optimality_gap": verify_map_optimality(sl, m, problem.potential),
            "map": _map_payload(sl),
        },
        "sp": {
            "energy": sp.energy,
            "fraction": sp.fraction,
            "optimality_gap": verify_map_optimality(sp, m, problem.potential),
            "map": _map_payload(sp),
        },
    }
    _emit(_json_report(payload), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def _eval_parameter_expression(text: str, value: float, path: str) -> float:
    """Evaluate an arithmetic expression in the variable ``epsilon``.

    Only numbers, +, -, *, /, ** and the name ``epsilon`` are allowed.
    """

    def walk(node):
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
            left, right = walk(node.left), walk(node.right)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.Div):
                return left / right
            return left**right
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            operand = walk(node.operand)
            return operand if isinstance(node.op, ast.UAdd) else -operand
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name) and node.id == "epsilon":
            return value
        raise SchemaError(path, f"unsupported token in expression {text!r}")

    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError:
        raise SchemaError(path, f"invalid expression {text!r}") from None
    return float(walk(tree))


def _substitute_template(template: dict, value: float) -> dict:
    out = json.loads(json.dumps(template))
    potential = out.get("potential")
    if not isinstance(potential, dict) or not isinstance(potential.get("V"), list):
        raise SchemaError("/template/potential/V", "missing potential matrix")
    rows = potential["V"]
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise SchemaError(f"/template/potential/V/{i}", "expected a list")
        for j, entry in enumerate(row):
            if isinstance(entry, str):
                rows[i][j] = _eval_parameter_expression(
                    entry, value, f"/template/potential/V/{i}/{j}"
                )
    return out


def _sweep_values(spec: dict) -> np.ndarray:
    raw = spec.get("range")
    if not isinstance(raw, dict):
        raise SchemaError("/range", "expected an object")
    start = float(raw.get("start", 0))
    stop = float(raw.get("stop", 0))
    points = raw.get("points")
    if not isinstance(points, int) or points < 2:
        raise SchemaError("/range/points", "expected an integer >= 2")
    spacing = raw.get("spacing", "linear")
    if spacing == "linear":
        return np.linspace(start, stop, points)
    if spacing == "log":
        if start <= 0 or stop <= 0:
            raise SchemaError("/range", "log spacing needs positive endpoints")
        return np.logspace(np.log10(start), np.log10(stop), points)
    raise SchemaError("/range/spacing", f"unknown spacing {spacing!r}")


def _sweep_point(payload) -> tuple:
    template, base_dir, value = payload
    problem = parse_problem(_substitute_template(template, value), base_dir)
    m = moments(problem.distribution)
    initial = moment_energy(m, problem.potential)
    sl = linear_gardner_energy(m, problem.potential)
    sp = linear_gromov_energy(m, problem.potential)
    return (value, initial, sl.energy, sp.energy, sl.fraction, sp.fraction)


def cmd_sweep(args) -> int:
    try:
        with open(args.spec, "r", encoding="utf-8") as handle:
            spec = json.load(handle)
    except json.JSONDecodeError as err:
        raise SchemaError("/", f"sweep file is not valid JSON: {err}") from None
    if not isinstance(spec, dict):
        raise SchemaError("/", "sweep file must hold an object")
    parameter = spec.get("parameter", "epsilon")
    if parameter != "epsilon":
        raise SchemaError("/parameter", f"only 'epsilon' is supported, got {parameter!r}")
    template = spec.get("template")
    if not isinstance(template, dict):
        raise SchemaError("/template", "expected a problem object")
    values = _sweep_values(spec)
    base_dir = os.path.dirname(os.path.abspath(args.spec))
    payloads = [(template, base_dir, float(v)) for v in values]
    # the first point runs here, so a bad template fails before any pool starts
    rows = [_sweep_point(payloads[0])]
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            rows.extend(pool.map(_sweep_point, payloads[1:]))
    else:
        rows.extend(_sweep_point(p) for p in payloads[1:])

    lines = [SWEEP_CSV_HEADER]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# restack


def _restack_box(problem: Problem):
    if problem.box is not None:
        return problem.box
    f = problem.distribution
    if isinstance(f, Grid):
        extent = f.origin + f.spacing * np.asarray(f.shape)
        return (f.origin, extent)
    if isinstance(f, BallIndicator):
        return (f.center - f.radius, f.center + f.radius)
    if isinstance(f, EllipsoidIndicator):
        # the half-width of {z.T M z <= 1} along axis k is sqrt((M^-1)_kk)
        half_width = np.sqrt(np.diag(np.linalg.inv(f.matrix)))
        return (f.center - half_width, f.center + half_width)
    raise SchemaError(
        "/box", "this distribution type needs an explicit bounding box"
    )


def cmd_restack(args) -> int:
    problem = load_problem(args.problem)
    if problem.dim > RESTACK_MAX_DIM:
        raise SchemaError(
            "/dim", f"restacking is limited to dimension <= {RESTACK_MAX_DIM}"
        )
    if isinstance(problem.distribution, Particles):
        raise SchemaError(
            "/distribution/type", "particle distributions cannot be rasterized"
        )
    try:
        levels = [int(tok) for tok in args.levels.split(",") if tok.strip() != ""]
    except ValueError:
        raise SchemaError("/levels", f"unparsable level list {args.levels!r}") from None
    if not levels or any(b <= a for a, b in zip(levels, levels[1:])):
        raise SchemaError("/levels", "levels must be strictly increasing")
    lower, upper = _restack_box(problem)
    evaluate = density(problem.distribution)
    base = RestackProblem(
        density=evaluate,
        cell_energy=problem.potential.evaluate,
        lower=lower,
        upper=upper,
        level=levels[0],
        base_spacing=args.base_spacing,
        cell_cap=configured_cell_cap(),
    )
    lines = [RESTACK_CSV_HEADER]
    for level in levels:
        result = restack(base.at_level(level))
        lines.append(
            ",".join(
                [
                    str(level),
                    _fmt(result.spacing),
                    str(result.cells),
                    _fmt(result.energy),
                    _fmt(result.pre_energy),
                ]
            )
        )
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _load_matrix_argument(text: str, label: str) -> np.ndarray:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError:
        try:
            with open(text, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except json.JSONDecodeError as err:
            raise SchemaError(f"/{label}", f"not valid JSON: {err}") from None
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise SchemaError(f"/{label}", f"expected a square matrix, got shape {arr.shape}")
    try:
        matrix = symmetrize(arr, rtol=INPUT_SYMMETRY_RTOL)
    except ValueError as err:
        raise SchemaError(f"/{label}", str(err)) from None
    w = np.linalg.eigvalsh(matrix)
    if not is_definite(w):
        raise SchemaError(
            f"/{label}", f"matrix is not positive definite (eigenvalue {w[0]:.6e})"
        )
    return matrix


def cmd_verify(args) -> int:
    if args.kind != "ellipsoid" and args.trials < 1:
        raise SchemaError("/trials", f"must be at least 1, got {args.trials}")
    if args.kind == "theorem":
        if not args.problem:
            raise SchemaError("/problem", "verify theorem needs --problem")
        problem = load_problem(args.problem)
        if problem.dim % 2:
            raise SchemaError("/dim", "verification needs an even dimension")
        m = moments(problem.distribution)
        sampler = SymplecticSampler(problem.dof, args.seed, args.scale)
        result = check_trace_minimum(
            problem.potential.matrix, m.second_moment, args.trials, sampler
        )
        payload = {
            "kind": "theorem",
            "trials": args.trials,
            "seed": args.seed,
            "bound": result.bound,
            "min_observed": result.min_observed,
            "violations": result.violations,
        }
        _emit(_json_report(payload), args.output)
        return EXIT_OK if result.violations == 0 else EXIT_VERIFY_FAILED

    if args.kind == "nonsqueeze":
        if args.dof < 1:
            raise SchemaError("/dof", f"must be at least 1, got {args.dof}")
        sampler = SymplecticSampler(args.dof, args.seed, args.scale)
        result = nonsqueeze_search(
            args.ball_radius, args.cylinder_radius, args.trials, sampler
        )
        payload = {
            "kind": "nonsqueeze",
            "trials": args.trials,
            "seed": args.seed,
            "dof": args.dof,
            "ball_radius": args.ball_radius,
            "cylinder_radius": args.cylinder_radius,
            "successes": result.successes,
            "min_energy_seen": result.min_energy_seen,
        }
        _emit(_json_report(payload), args.output)
        return EXIT_OK if result.successes == 0 else EXIT_VERIFY_FAILED

    first = _load_matrix_argument(args.first, "first")
    second = _load_matrix_argument(args.second, "second")
    equivalent = ellipsoids_equivalent(first, second, tol=args.tol)
    payload = {
        "kind": "ellipsoid",
        "equivalent": bool(equivalent),
        "first_spectrum": symplectic_eigenvalues(first).tolist(),
        "second_spectrum": symplectic_eigenvalues(second).tolist(),
    }
    _emit(_json_report(payload), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasemin",
        description="Minimal phase-space energies under volume-preserving "
        "and symplectic linear maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bounds = sub.add_parser("bounds", help="closed-form minimal energies of a problem")
    bounds.add_argument("problem", help="problem JSON file")
    bounds.add_argument("-o", "--output", default=None, help="write JSON here")
    bounds.set_defaults(handler=cmd_bounds)

    sweep = sub.add_parser("sweep", help="energy curves over a potential parameter")
    sweep.add_argument("spec", help="sweep JSON file")
    sweep.add_argument("-o", "--output", default=None, help="write CSV here")
    sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process pool size for sweep points (default 1)",
    )
    sweep.set_defaults(handler=cmd_sweep)

    stack = sub.add_parser("restack", help="lattice rearrangement energies")
    stack.add_argument("problem", help="problem JSON file")
    stack.add_argument(
        "--levels", required=True, help="comma-separated refinement levels"
    )
    stack.add_argument(
        "--base-spacing",
        type=float,
        default=1.0,
        help="spacing at level 0 (cell side is base * 2^-level)",
    )
    stack.add_argument("-o", "--output", default=None, help="write CSV here")
    stack.set_defaults(handler=cmd_restack)

    verify = sub.add_parser("verify", help="randomized verification runs")
    verify.add_argument("kind", choices=["theorem", "nonsqueeze", "ellipsoid"])
    verify.add_argument("--problem", default=None, help="problem file for 'theorem'")
    verify.add_argument("--trials", type=int, default=10000)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--scale", type=float, default=1.0)
    verify.add_argument("--dof", type=int, default=2, help="degrees of freedom")
    verify.add_argument("--ball-radius", type=float, default=1.0)
    verify.add_argument("--cylinder-radius", type=float, default=0.5)
    verify.add_argument("--first", default=None, help="shape matrix (JSON or file)")
    verify.add_argument("--second", default=None, help="shape matrix (JSON or file)")
    verify.add_argument("--tol", type=float, default=1e-8)
    verify.add_argument("-o", "--output", default=None, help="write JSON here")
    verify.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.kind == "ellipsoid":
        if not args.first or not args.second:
            print(
                "schema error at /first: verify ellipsoid needs --first and --second",
                file=sys.stderr,
            )
            return EXIT_SCHEMA
    try:
        return args.handler(args)
    except SchemaError as err:
        print(f"schema error at {err}", file=sys.stderr)
        return EXIT_SCHEMA
    except (DegenerateMoments, EmptyDistribution) as err:
        print(f"degenerate input: {err}", file=sys.stderr)
        return EXIT_DEGENERATE
    except CellCapExceeded as err:
        print(f"resource cap: {err}", file=sys.stderr)
        return EXIT_RESOURCE
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO
    except PhaseMinError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
