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
import math
import operator
import os
import sys
from contextlib import contextmanager
from typing import Callable

import numpy as np

from .distributions import (
    BallIndicator,
    EllipsoidIndicator,
    Grid,
    Mixture,
    Particles,
    QuadraticPotential,
    density,
    moment_energy,
    moments,
)
from .energy import (
    inaccessible_fraction,
    linear_gardner_energy,
    linear_gromov_energy,
    moment_matrix,
    verify_map_optimality,
)
from .errors import (
    CellCapExceeded,
    DegenerateMoments,
    EmptyDistribution,
    NotPositiveDefinite,
    NumericalInstability,
    PhaseMinError,
    SchemaError,
)
from .linalg import require_definite, stack_length, sym_eig
from .problems import (
    Problem,
    count,
    integer,
    integer_text,
    load_problem,
    nonnegative,
    number,
    parse_problem,
    positive,
    quadratic_potential,
    read_json,
    symmetric_matrix,
)
from .restack import DEFAULT_CELL_CAP, RestackProblem, restack
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
# every point of a sweep is evaluated: a count beyond this fails as a cell cap does
SWEEP_MAX_POINTS = 10**6
# a contract only: sampler batches hold at most STACK_ENTRIES entries at any dof
VERIFY_MAX_DOF = 16
SWEEP_CSV_HEADER = "epsilon,E_initial,E_SL,E_Sp,F_SL,F_Sp"
RESTACK_CSV_HEADER = "level,h,cells,energy,pre_energy"


def _fmt(value) -> str:
    if value is None or (isinstance(value, float) and not math.isfinite(value)):
        return "nan"
    return f"{float(value):.17g}"


def _emit(text: str, destination) -> None:
    if destination is None:
        sys.stdout.write(text)
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text)


def _json_report(payload) -> str:
    """Sorted, indented JSON; a NaN or an infinity raises OverflowError."""
    try:
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as err:
        raise OverflowError(str(err)) from None


@contextmanager
def _fails_at(pointer: str, failures=NotPositiveDefinite):
    """An error of the ``failures`` type, by default a non-definite matrix,
    or an overflow in the block fails at ``pointer``."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except failures as err:
        raise SchemaError(pointer, str(err)) from None
    except ArithmeticError:
        raise SchemaError(pointer, "a computed value is beyond the float range") from None


# ---------------------------------------------------------------------------
# bounds


def cmd_bounds(args) -> int:
    problem = load_problem(args.problem)
    dof = problem.dof
    with _fails_at("/distribution"):
        m = moments(problem.distribution)
    with _fails_at("/potential/V"):
        initial = moment_energy(m, problem.potential)
        sl = linear_gardner_energy(m, problem.potential)
        sp = linear_gromov_energy(m, problem.potential)
        payload = {
            "dim": problem.dim,
            "dof": dof,
            "mass": m.mass,
            "center": m.center.tolist(),
            "second_moment": m.second_moment.tolist(),
            "initial_energy": initial,
            "potential_spectrum": sp.potential_spectrum.tolist(),
            "moment_spectrum": sp.moment_spectrum.tolist(),
        }
        for key, report in (("sl", sl), ("sp", sp)):
            payload[key] = {
                "energy": report.energy,
                "fraction": inaccessible_fraction(report.energy, initial),
                "optimality_gap": verify_map_optimality(report, m, problem.potential),
                "map": {
                    "matrix": report.map.matrix.tolist(),
                    "center": report.map.center.tolist(),
                    "target": report.map.target.tolist(),
                },
            }
        _emit(_json_report(payload), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


_BINARY_OPERATORS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}


def _parse_expression(text: str, path: str) -> Callable[[float], float]:
    """The arithmetic expression ``text`` in the variable ``epsilon``, parsed
    once, as a function of the value of ``epsilon``.

    Only numbers, +, -, *, /, ** and the name ``epsilon`` are allowed, and
    the value must be a finite real number; arithmetic is on Python floats.
    Any other token, and a subexpression nested too deeply to build, fails
    when an evaluation reaches it, so that errors come in the order in which
    evaluation meets them.  Failures raise SchemaError at ``path``.
    """

    def failing(message):
        def fail(x):
            raise SchemaError(path, message)

        return fail

    def build(node):
        try:
            if isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPERATORS:
                op = _BINARY_OPERATORS[type(node.op)]
                left, right = build(node.left), build(node.right)
                return lambda x: op(left(x), right(x))
            if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
                return build(node.operand)
            if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
                operand = build(node.operand)
                return lambda x: -operand(x)
        except RecursionError:
            return failing("expression is nested too deeply")
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            # an integer beyond the float range fails when it is evaluated
            constant = node.value
            return lambda x: float(constant)
        if isinstance(node, ast.Name) and node.id == "epsilon":
            return lambda x: x
        return failing(f"unsupported token in expression {text!r}")

    try:
        function = build(ast.parse(text, mode="eval").body)
    except SyntaxError:
        raise SchemaError(path, f"invalid expression {text!r}") from None
    except (MemoryError, RecursionError):
        # the parser and the evaluation recurse once per nesting level
        raise SchemaError(path, "expression is nested too deeply") from None

    def evaluate(value: float) -> float:
        try:
            result = function(value)
        except (MemoryError, RecursionError):
            raise SchemaError(path, "expression is nested too deeply") from None
        except ArithmeticError as err:
            raise SchemaError(
                path, f"expression {text!r} fails at epsilon = {value!r}: {err}"
            ) from None
        if not isinstance(result, float) or not math.isfinite(result):
            raise SchemaError(
                path, f"expression {text!r} is not a finite real number at epsilon = {value!r}"
            )
        return result

    return evaluate


def _parameter_entries(template: dict, value: float) -> tuple:
    """The rows of the template's V with each string entry evaluated at
    ``value``, and those entries as ``(i, j, function of epsilon)``.

    Each expression is parsed once, here.  Entries are read and evaluated in
    row-major order, so the first one that fails at ``value`` is reported.
    """
    potential = template.get("potential")
    if not isinstance(potential, dict) or not isinstance(potential.get("V"), list):
        raise SchemaError("/template/potential/V", "missing potential matrix")
    rows, entries = [], []
    for i, row in enumerate(potential["V"]):
        if not isinstance(row, list):
            raise SchemaError(f"/template/potential/V/{i}", "expected a list")
        rows.append(list(row))
        for j, text in enumerate(row):
            if isinstance(text, str):
                evaluate = _parse_expression(text, f"/template/potential/V/{i}/{j}")
                rows[i][j] = evaluate(value)
                entries.append((i, j, evaluate))
    return rows, entries


def _sweep_values(spec: dict) -> np.ndarray:
    raw = spec.get("range")
    if not isinstance(raw, dict):
        raise SchemaError("/range", "expected an object")
    start = number(raw.get("start", 0), "/range/start")
    stop = number(raw.get("stop", 0), "/range/stop")
    points = integer(raw.get("points"), "/range/points")
    if points < 2:
        raise SchemaError("/range/points", "expected an integer >= 2")
    if points > SWEEP_MAX_POINTS:
        raise CellCapExceeded(
            points, SWEEP_MAX_POINTS, "/range/points: sweep needs {} points"
        )
    spacing = raw.get("spacing", "linear")
    if spacing == "linear":
        return np.linspace(start, stop, points)
    if spacing == "log":
        if start <= 0 or stop <= 0:
            raise SchemaError("/range", "log spacing needs positive endpoints")
        return np.logspace(np.log10(start), np.log10(stop), points)
    raise SchemaError("/range/spacing", f"unknown spacing {spacing!r}")


def _potential_stack(first: QuadraticPotential, matrix: np.ndarray, entries: list,
                     values: list) -> QuadraticPotential:
    """The potentials at the sweep points ``values``, as one stack: ``matrix``
    with the string entries evaluated at each point, and the offset and
    minimum of the first point's potential ``first``."""
    stack = np.broadcast_to(matrix, (len(values),) + matrix.shape).copy()
    rows = [i for i, _, _ in entries]
    columns = [j for _, j, _ in entries]
    stack[:, rows, columns] = [[evaluate(value) for _, _, evaluate in entries] for value in values]
    return quadratic_potential(first.offset, first.minimum, stack, "/template/potential/V")


def _sweep_point(m, potential, values: list) -> list:
    """The CSV lines of the sweep points ``values``, whose potentials are
    ``potential``: one matrix for one point, or a stack with one per point."""
    initial = moment_energy(m, potential)
    sl = linear_gardner_energy(m, potential).energy
    sp = linear_gromov_energy(m, potential).energy
    columns = [np.ravel(column).tolist() for column in (initial, sl, sp)]
    return [
        ",".join(_fmt(x) for x in (value, e, a, b, inaccessible_fraction(a, e),
                                   inaccessible_fraction(b, e)))
        for value, e, a, b in zip(values, *columns)
    ]


def cmd_sweep(args) -> int:
    spec = read_json(args.spec, "sweep file")
    if not isinstance(spec, dict):
        raise SchemaError("/", "sweep file must hold an object")
    parameter = spec.get("parameter", "epsilon")
    if parameter != "epsilon":
        raise SchemaError("/parameter", f"only 'epsilon' is supported, got {parameter!r}")
    template = spec.get("template")
    if not isinstance(template, dict):
        raise SchemaError("/template", "expected a problem object")
    values = [float(v) for v in _sweep_values(spec)]
    base_dir = os.path.dirname(os.path.abspath(args.spec))
    # only V depends on epsilon: the rest of the template is read once, at
    # the first point, and so are V's expressions
    rows, entries = _parameter_entries(template, values[0])
    first = {**template, "potential": {**template["potential"], "V": rows}}
    problem = parse_problem(first, base_dir, root="/template")
    problem.dof  # the Sp energies need an even dimension: fail at /template/dim
    with _fails_at("/template/distribution"):
        m = moments(problem.distribution)
    matrix = np.array(rows, dtype=float)
    block = stack_length(matrix.shape[0])

    def block_rows(points):
        potential = _potential_stack(problem.potential, matrix, entries, points)
        return _sweep_point(m, potential, points)

    with _fails_at("/template/potential/V"):
        # the first point reuses the potential the template was read with
        lines = [SWEEP_CSV_HEADER] + _sweep_point(m, problem.potential, values[:1])
        for start in range(1, len(values), block):
            points = values[start:start + block]
            try:
                lines += block_rows(points)
            except (PhaseMinError, ArithmeticError):
                # the first failing point wins, whatever its failure
                for value in points:
                    lines += block_rows([value])
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
        # half-width of {z.T M z <= 1} along k: sqrt((M^-1)_kk) = sqrt(sum_j Q_kj^2 / w_j)
        half_width = np.sqrt(f.decomposition.basis**2 @ (1 / f.decomposition.eigenvalues))
        return (f.center - half_width, f.center + half_width)
    raise SchemaError(
        "/box", "this distribution type needs an explicit bounding box"
    )


def _particles_at(f, pointer="/distribution"):
    """The pointer of ``f`` or of its first component, at any depth, that
    holds particles; None if none does."""
    if isinstance(f, Particles):
        return pointer
    for k, c in enumerate(f.components if isinstance(f, Mixture) else ()):
        found = _particles_at(c, f"{pointer}/components/{k}")
        if found:
            return found
    return None


def cmd_restack(args) -> int:
    problem = load_problem(args.problem)
    if problem.dim > RESTACK_MAX_DIM:
        raise SchemaError(
            "/dim", f"restacking is limited to dimension <= {RESTACK_MAX_DIM}"
        )
    particles = _particles_at(problem.distribution)
    if particles:
        raise SchemaError(f"{particles}/type", "particle distributions cannot be rasterized")
    levels = [integer_text(t, "/levels") for t in args.levels.split(",") if t.strip()]
    if not levels or any(b <= a for a, b in zip(levels, levels[1:])):
        raise SchemaError("/levels", "levels must be strictly increasing")
    nonnegative(levels[0], "/levels")
    base_spacing = positive(args.base_spacing, "/base-spacing")
    cap = os.environ.get("PHASEMIN_MAX_CELLS", str(DEFAULT_CELL_CAP))
    cap = count(integer_text(cap, "/PHASEMIN_MAX_CELLS"), "/PHASEMIN_MAX_CELLS")
    lower, upper = _restack_box(problem)

    def cell_energy(z):
        # quadratic_form, under evaluate, overflows to inf or nan without raising
        energies = problem.potential.evaluate(z)
        if not np.isfinite(energies).all():
            raise SchemaError("/potential/V", "a computed value is beyond the float range")
        return energies

    base = RestackProblem(
        density=density(problem.distribution),
        cell_energy=cell_energy,
        lower=lower,
        upper=upper,
        level=levels[0],
        base_spacing=base_spacing,
        cell_cap=cap,
    )
    lines = [RESTACK_CSV_HEADER]
    for level in levels:
        with _fails_at("/distribution"):
            result = restack(base.at_level(level))
        # the cell volume times the cell energies may leave the float range
        if not np.isfinite([result.energy, result.pre_energy]).all():
            raise SchemaError("/potential/V", "a computed value is beyond the float range")
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


def _load_matrix_argument(text: str, pointer: str, size=None) -> np.ndarray:
    """The symplectic spectrum of a definite shape matrix of even side
    ``size`` (any even side if None)."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError:
        raw = read_json(text, "matrix file", pointer)
    except RecursionError:
        raise SchemaError(pointer, "matrix is nested too deeply") from None
    matrix = symmetric_matrix(raw, size, pointer)
    if matrix.shape[0] % 2:
        raise SchemaError(
            pointer, f"phase-space dimension must be even, got {matrix.shape[0]}"
        )
    with _fails_at(pointer):
        return symplectic_eigenvalues(require_definite(sym_eig(matrix), "matrix"))


def _sampler(dof: int, seed: int, scale: float, pointer: str) -> SymplecticSampler:
    if dof > VERIFY_MAX_DOF:
        need = f"{pointer}: the sampler needs {{}} degrees of freedom"
        raise CellCapExceeded(dof, VERIFY_MAX_DOF, need)
    sampler = SymplecticSampler(dof, seed, scale)
    # --scale is the only value a sample grows with: an overflow while
    # sampling, or a sample that fails its symplecticity check, fails there,
    # whichever search draws the batch
    sampler.sample_batch = _fails_at("/scale", NumericalInstability)(sampler.sample_batch)
    return sampler


def _check_sampling(args) -> None:
    count(args.trials, "/trials")
    nonnegative(args.scale, "/scale")
    nonnegative(args.seed, "/seed")


def cmd_verify_theorem(args) -> int:
    _check_sampling(args)
    if not args.problem:
        raise SchemaError("/problem", "verify theorem needs --problem")
    problem = load_problem(args.problem)
    sampler = _sampler(problem.dof, args.seed, args.scale, "/dim")
    with _fails_at("/distribution"):
        m = moments(problem.distribution)
    with _fails_at("/potential/V"):
        moment_matrix(m, problem.potential)
        dec_v = require_definite(problem.potential.decomposition, "V")
        result = check_trace_minimum(dec_v, m.decomposition, args.trials, sampler)
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


def cmd_verify_nonsqueeze(args) -> int:
    _check_sampling(args)
    count(args.dof, "/dof")
    positive(args.ball_radius, "/ball-radius")
    if not positive(args.cylinder_radius, "/cylinder-radius") < args.ball_radius:
        raise SchemaError(
            "/cylinder-radius",
            f"expected 0 < cylinder radius < ball radius {args.ball_radius}, "
            f"got {args.cylinder_radius}",
        )
    sampler = _sampler(args.dof, args.seed, args.scale, "/dof")
    # the search compares squared radii: a zero or subnormal square is no test
    ball_squared = args.ball_radius * args.ball_radius
    if not ball_squared > 0:
        raise SchemaError(
            "/ball-radius", f"ball radius squared must be positive, got {ball_squared}"
        )
    if not args.cylinder_radius * args.cylinder_radius >= sys.float_info.min:
        raise SchemaError(
            "/cylinder-radius",
            "cylinder radius squared is below the normal float range, "
            f"got {args.cylinder_radius * args.cylinder_radius}",
        )
    with _fails_at("/ball-radius"):
        result = nonsqueeze_search(args.ball_radius, args.cylinder_radius, args.trials, sampler)
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


def cmd_verify_ellipsoid(args) -> int:
    if not args.first or not args.second:
        raise SchemaError("/first", "verify ellipsoid needs --first and --second")
    nonnegative(args.tol, "/tol")
    first = _load_matrix_argument(args.first, "/first")
    second = _load_matrix_argument(args.second, "/second", 2 * first.shape[0])
    payload = {
        "kind": "ellipsoid",
        "equivalent": ellipsoids_equivalent(first, second, tol=args.tol),
        "first_spectrum": first.tolist(),
        "second_spectrum": second.tolist(),
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
    kinds = verify.add_subparsers(dest="kind", required=True)
    theorem = kinds.add_parser("theorem", help="sample the symplectic trace minimum")
    theorem.add_argument("--problem", default=None, help="problem JSON file")
    theorem.set_defaults(handler=cmd_verify_theorem)
    squeeze = kinds.add_parser("nonsqueeze", help="search for a ball inside a thinner cylinder")
    squeeze.add_argument("--dof", type=int, default=2, help="degrees of freedom")
    squeeze.add_argument("--ball-radius", type=float, default=1.0)
    squeeze.add_argument("--cylinder-radius", type=float, default=0.5)
    squeeze.set_defaults(handler=cmd_verify_nonsqueeze)
    for sampling in (theorem, squeeze):
        sampling.add_argument("--trials", type=int, default=10000)
        sampling.add_argument("--seed", type=int, default=0)
        sampling.add_argument("--scale", type=float, default=1.0)
    ellipsoid = kinds.add_parser("ellipsoid", help="compare two ellipsoids under Sp")
    ellipsoid.add_argument("--first", default=None, help="shape matrix (JSON or file)")
    ellipsoid.add_argument("--second", default=None, help="shape matrix (JSON or file)")
    ellipsoid.add_argument("--tol", type=float, default=1e-8)
    ellipsoid.set_defaults(handler=cmd_verify_ellipsoid)
    for kind in (theorem, squeeze, ellipsoid):
        kind.add_argument("-o", "--output", default=None, help="write JSON here")

    return parser


PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
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
