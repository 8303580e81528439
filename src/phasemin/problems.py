"""Problem-file parsing: JSON descriptions of potentials and distributions.

A problem file is a JSON object::

    {
      "n": 2,                      # degrees of freedom (dimension 2n), or
      "dim": 1,                    # explicit dimension for non-phase-space
                                   # problems such as 1-D momentum rearrangement
      "potential": {"V0": 0.0, "d": [0, 0, 0, 0], "V": [[...], ...]},
      "distribution": {"type": "...", ...},
      "box": {"lo": [...], "hi": [...]}          # optional, for rasterization
    }

Exactly one of ``n`` and ``dim`` must be present.  Distribution types:

* ``gaussian``: ``weight``, ``mean``, ``covariance``
* ``ball``: ``radius``, ``center``, optional ``amplitude``
* ``ellipsoid``: ``matrix``, ``center``, optional ``amplitude``
* ``particles``: ``points`` (list of coordinate lists), ``weights``
* ``grid``: inline ``origin``/``spacing``/``shape``/``values``, or
  ``file`` naming a grid file (path relative to the problem file)
* ``mixture``: ``components`` (list of distribution objects)

A grid file is a JSON object with ``dim``, ``shape``, ``origin``,
``spacing`` and either inline ``values`` (flat, row-major over ``shape``)
or ``values_csv`` naming a sidecar CSV of one value per line (path relative
to the grid file).

Every input from outside the package is read here: the files, and the
command line's matrices, option values and environment variables.  Schema
violations raise :class:`SchemaError` carrying a JSON-pointer path.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .distributions import (
    BallIndicator,
    Distribution,
    EllipsoidIndicator,
    Gaussian,
    Grid,
    Mixture,
    Particles,
    QuadraticPotential,
)
from .errors import NotPositiveDefinite, NotSemidefinite, PhaseMinError, SchemaError
from .linalg import INPUT_SYMMETRY_RTOL, symmetrize


@dataclass(frozen=True, eq=False)
class Problem:
    dim: int
    potential: QuadraticPotential
    distribution: Distribution
    box: Optional[Tuple[np.ndarray, np.ndarray]]
    root: str = ""

    @property
    def dof(self) -> int:
        if self.dim % 2:
            raise SchemaError(f"{self.root}/dim", "phase-space dimension must be even")
        return self.dim // 2


def read_json(path: str, what: str, pointer: str = "/"):
    """The JSON value in the file at ``path``; invalid JSON fails at ``pointer``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (ValueError, RecursionError) as err:
        # ValueError covers JSONDecodeError and UnicodeDecodeError
        raise SchemaError(pointer, f"{what} is not valid JSON: {err}") from None


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise SchemaError(f"{path}/{key}", "missing required field")
    return obj[key]


def number(value, path: str) -> float:
    """A finite JSON number; booleans are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a number, got {type(value).__name__}")
    # exact for integers too, which may exceed every float
    if not abs(value) <= sys.float_info.max:
        raise SchemaError(path, "number must be finite")
    return float(value)


def positive(value, path: str) -> float:
    x = number(value, path)
    if not x > 0:
        raise SchemaError(path, f"must be positive, got {x}")
    return x


def nonnegative(value, path: str):
    """A finite number >= 0, returned unchanged, so an integer stays one."""
    if not number(value, path) >= 0:
        raise SchemaError(path, f"must be nonnegative, got {value}")
    return value


def integer(value, path: str) -> int:
    """A JSON integer; booleans are not integers."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {type(value).__name__}")
    return value


def count(value, path: str) -> int:
    k = integer(value, path)
    if k < 1:
        raise SchemaError(path, f"must be positive, got {k}")
    return k


def integer_text(text: str, path: str) -> int:
    """An integer written as text, as on the command line or in the environment."""
    try:
        return int(text)
    except ValueError:
        raise SchemaError(path, f"expected an integer, got {text!r}") from None


def _vector(value, length, path: str) -> np.ndarray:
    if not isinstance(value, list):
        raise SchemaError(path, "expected a list of numbers")
    out = np.array([number(v, f"{path}/{i}") for i, v in enumerate(value)])
    if length is not None and out.shape[0] != length:
        raise SchemaError(path, f"expected length {length}, got {out.shape[0]}")
    return out


def _matrix(value, size, path: str) -> np.ndarray:
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise SchemaError(path, "expected a list of rows")
    if size is None:
        size = len(value)
    if len(value) != size or any(len(r) != size for r in value):
        raise SchemaError(path, f"expected a {size}x{size} matrix")
    out = np.array(
        [
            [number(x, f"{path}/{i}/{j}") for j, x in enumerate(row)]
            for i, row in enumerate(value)
        ]
    )
    return out


def _symmetric(matrix: np.ndarray, path: str) -> np.ndarray:
    """``matrix``, or each matrix of a stack, symmetrized.

    Asymmetry beyond ``INPUT_SYMMETRY_RTOL`` of the largest entry is rejected.
    """
    try:
        return symmetrize(matrix, INPUT_SYMMETRY_RTOL)
    except (ValueError, PhaseMinError) as err:
        raise SchemaError(path, str(err)) from None


def symmetric_matrix(value, size: Optional[int], path: str) -> np.ndarray:
    """A JSON matrix of side ``size`` (any side if None), symmetrized."""
    return _symmetric(_matrix(value, size, path), path)


def quadratic_potential(offset: float, minimum: np.ndarray, matrix: np.ndarray,
                        path: str) -> QuadraticPotential:
    """The potential of values already read; ``matrix``, found at ``path``,
    is one matrix or a (k, d, d) stack of them, and each must be symmetric
    and positive semidefinite."""
    try:
        return QuadraticPotential(offset=offset, minimum=minimum, matrix=_symmetric(matrix, path))
    except NotSemidefinite as err:
        raise SchemaError(path, str(err)) from None


def parse_potential(obj, dim: int, path: str = "/potential") -> QuadraticPotential:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    v0 = number(_require(obj, "V0", path), f"{path}/V0")
    d = _vector(_require(obj, "d", path), dim, f"{path}/d")
    v = _matrix(_require(obj, "V", path), dim, f"{path}/V")
    return quadratic_potential(v0, d, v, f"{path}/V")


def parse_grid(obj: dict, dim: int, root: str, csv_dir: Optional[str] = None) -> Grid:
    """A grid from the fields of ``obj``, with error pointers under ``root``.

    Only grid files pass ``csv_dir``, so only they may name ``values_csv``.
    """
    shape = _require(obj, "shape", root)
    if not isinstance(shape, list):
        raise SchemaError(f"{root}/shape", "expected a list of integers")
    shape = tuple(count(s, f"{root}/shape/{i}") for i, s in enumerate(shape))
    if len(shape) != dim:
        raise SchemaError(f"{root}/shape", f"expected {dim} axes, got {len(shape)}")
    origin = _vector(_require(obj, "origin", root), dim, f"{root}/origin")
    spacing = positive(_require(obj, "spacing", root), f"{root}/spacing")
    if csv_dir is not None and "values" not in obj and "values_csv" in obj:
        if not isinstance(obj["values_csv"], str):
            raise SchemaError(f"{root}/values_csv", "expected a file name")
        sidecar = os.path.join(csv_dir, obj["values_csv"])
        try:
            values = np.loadtxt(sidecar, dtype=float, ndmin=1)
        except ValueError as err:
            raise SchemaError(
                f"{root}/values_csv", f"unreadable CSV values: {err}"
            ) from None
    else:
        values = _vector(_require(obj, "values", root), None, f"{root}/values")
    expected = math.prod(shape)
    if values.size != expected:
        raise SchemaError(
            f"{root}/values",
            f"expected {expected} values for shape {list(shape)}, got {values.size}",
        )
    # np.loadtxt reads nan and inf, and 1e400 as inf
    if not np.all(np.isfinite(values)):
        raise SchemaError(f"{root}/values", "cell values must be finite")
    if np.any(values < 0):
        raise SchemaError(f"{root}/values", "cell values must be nonnegative")
    return Grid(origin, spacing, shape, values)


def load_grid_file(path: str) -> Grid:
    obj = read_json(path, "grid file")
    if not isinstance(obj, dict):
        raise SchemaError("/", "grid file must hold an object")
    dim = count(_require(obj, "dim", ""), "/dim")
    return parse_grid(obj, dim, "", os.path.dirname(path))


def parse_distribution(obj, dim: int, path: str, base_dir: str) -> Distribution:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    kind = _require(obj, "type", path)
    try:
        if kind == "gaussian":
            return Gaussian(
                weight=positive(_require(obj, "weight", path), f"{path}/weight"),
                mean=_vector(_require(obj, "mean", path), dim, f"{path}/mean"),
                covariance=symmetric_matrix(
                    _require(obj, "covariance", path), dim, f"{path}/covariance"
                ),
            )
        if kind == "ball":
            return BallIndicator(
                radius=positive(_require(obj, "radius", path), f"{path}/radius"),
                center=_vector(_require(obj, "center", path), dim, f"{path}/center"),
                amplitude=positive(obj.get("amplitude", 1.0), f"{path}/amplitude"),
            )
        if kind == "ellipsoid":
            return EllipsoidIndicator(
                matrix=symmetric_matrix(
                    _require(obj, "matrix", path), dim, f"{path}/matrix"
                ),
                center=_vector(_require(obj, "center", path), dim, f"{path}/center"),
                amplitude=positive(obj.get("amplitude", 1.0), f"{path}/amplitude"),
            )
        if kind == "particles":
            raw = _require(obj, "points", path)
            if not isinstance(raw, list) or not raw:
                raise SchemaError(f"{path}/points", "expected a nonempty list")
            points = np.array(
                [_vector(p, dim, f"{path}/points/{i}") for i, p in enumerate(raw)]
            )
            weights = _vector(
                _require(obj, "weights", path), len(raw), f"{path}/weights"
            )
            if np.any(weights <= 0):
                raise SchemaError(f"{path}/weights", "weights must be positive")
            return Particles(points=points, weights=weights)
        if kind == "grid":
            if "file" not in obj:
                return parse_grid(obj, dim, path)
            if not isinstance(obj["file"], str):
                raise SchemaError(f"{path}/file", "expected a file name")
            grid = load_grid_file(os.path.join(base_dir, obj["file"]))
            if grid.dim != dim:
                raise SchemaError(
                    f"{path}/file",
                    f"grid has dimension {grid.dim}, problem has {dim}",
                )
            return grid
        if kind == "mixture":
            raw = _require(obj, "components", path)
            if not isinstance(raw, list) or not raw:
                raise SchemaError(f"{path}/components", "expected a nonempty list")
            return Mixture(
                tuple(
                    parse_distribution(c, dim, f"{path}/components/{i}", base_dir)
                    for i, c in enumerate(raw)
                )
            )
    except NotPositiveDefinite as err:
        raise SchemaError(path, str(err)) from None
    raise SchemaError(f"{path}/type", f"unknown distribution type {kind!r}")


def parse_problem(obj, base_dir: str = ".", root: str = "") -> Problem:
    """Parse a problem object; error pointers start with ``root``.

    Errors inside a grid file that the distribution names keep pointers
    into that file.
    """
    if not isinstance(obj, dict):
        raise SchemaError(root or "/", "problem file must hold an object")
    has_n = "n" in obj
    has_dim = "dim" in obj
    if has_n == has_dim:
        raise SchemaError(root or "/", "exactly one of 'n' and 'dim' is required")
    if has_n:
        dim = 2 * count(obj["n"], f"{root}/n")
    else:
        dim = count(obj["dim"], f"{root}/dim")
    potential = parse_potential(
        _require(obj, "potential", root), dim, f"{root}/potential"
    )
    distribution = parse_distribution(
        _require(obj, "distribution", root), dim, f"{root}/distribution", base_dir
    )
    box = None
    if "box" in obj:
        raw = obj["box"]
        if not isinstance(raw, dict):
            raise SchemaError(f"{root}/box", "expected an object with 'lo' and 'hi'")
        lo = _vector(_require(raw, "lo", f"{root}/box"), dim, f"{root}/box/lo")
        hi = _vector(_require(raw, "hi", f"{root}/box"), dim, f"{root}/box/hi")
        if np.any(hi <= lo):
            raise SchemaError(f"{root}/box", "'hi' must exceed 'lo' componentwise")
        box = (lo, hi)
    return Problem(dim=dim, potential=potential, distribution=distribution, box=box, root=root)


def load_problem(path: str) -> Problem:
    obj = read_json(path, "problem file")
    return parse_problem(obj, base_dir=os.path.dirname(os.path.abspath(path)))
