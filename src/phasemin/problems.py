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

Schema violations raise :class:`SchemaError` carrying a JSON-pointer path.
"""

from __future__ import annotations

import json
import os
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
from .linalg import INPUT_SYMMETRY_RTOL


@dataclass(frozen=True, eq=False)
class Problem:
    dim: int
    potential: QuadraticPotential
    distribution: Distribution
    box: Optional[Tuple[np.ndarray, np.ndarray]]

    @property
    def dof(self) -> int:
        if self.dim % 2:
            raise SchemaError("/dim", "phase-space dimension must be even")
        return self.dim // 2


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise SchemaError(f"{path}/{key}", "missing required field")
    return obj[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a number, got {type(value).__name__}")
    if not np.isfinite(value):
        raise SchemaError(path, "number must be finite")
    return float(value)


def _positive(value, path: str) -> float:
    x = _number(value, path)
    if not x > 0:
        raise SchemaError(path, f"must be positive, got {x}")
    return x


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(path, f"expected an integer, got {type(value).__name__}")
    return value


def _vector(value, length, path: str) -> np.ndarray:
    if not isinstance(value, list):
        raise SchemaError(path, "expected a list of numbers")
    out = np.array([_number(v, f"{path}/{i}") for i, v in enumerate(value)])
    if length is not None and out.shape[0] != length:
        raise SchemaError(path, f"expected length {length}, got {out.shape[0]}")
    return out


def _matrix(value, size, path: str) -> np.ndarray:
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise SchemaError(path, "expected a list of rows")
    if len(value) != size or any(len(r) != size for r in value):
        raise SchemaError(path, f"expected a {size}x{size} matrix")
    out = np.array(
        [
            [_number(x, f"{path}/{i}/{j}") for j, x in enumerate(row)]
            for i, row in enumerate(value)
        ]
    )
    return out


def _symmetric_matrix(value, size, path: str) -> np.ndarray:
    out = _matrix(value, size, path)
    scale = np.abs(out).max()
    if scale > 0 and np.abs(out - out.T).max() > INPUT_SYMMETRY_RTOL * scale:
        raise SchemaError(path, "matrix is not symmetric")
    return (out + out.T) / 2.0


def parse_potential(obj, dim: int, path: str = "/potential") -> QuadraticPotential:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    v0 = _number(_require(obj, "V0", path), f"{path}/V0")
    d = _vector(_require(obj, "d", path), dim, f"{path}/d")
    v = _symmetric_matrix(_require(obj, "V", path), dim, f"{path}/V")
    try:
        return QuadraticPotential(offset=v0, minimum=d, matrix=v)
    except NotSemidefinite as err:
        raise SchemaError(f"{path}/V", str(err)) from None


def load_grid_file(path: str) -> Grid:
    pointer = "/"
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except json.JSONDecodeError as err:
        raise SchemaError(pointer, f"grid file is not valid JSON: {err}") from None
    if not isinstance(obj, dict):
        raise SchemaError(pointer, "grid file must hold an object")
    dim = _integer(_require(obj, "dim", ""), "/dim")
    if dim < 1:
        raise SchemaError("/dim", f"must be positive, got {dim}")
    shape = [
        _integer(s, f"/shape/{i}")
        for i, s in enumerate(_require(obj, "shape", ""))
    ]
    if len(shape) != dim:
        raise SchemaError("/shape", f"expected {dim} axes, got {len(shape)}")
    origin = _vector(_require(obj, "origin", ""), dim, "/origin")
    spacing = _positive(_require(obj, "spacing", ""), "/spacing")
    if "values" in obj:
        values = np.array(
            [_number(v, f"/values/{i}") for i, v in enumerate(obj["values"])]
        )
    elif "values_csv" in obj:
        sidecar = os.path.join(os.path.dirname(path), obj["values_csv"])
        try:
            values = np.loadtxt(sidecar, dtype=float, ndmin=1)
        except ValueError as err:
            raise SchemaError("/values_csv", f"unreadable CSV values: {err}") from None
    else:
        raise SchemaError("/values", "grid file needs 'values' or 'values_csv'")
    expected = int(np.prod(shape))
    if values.size != expected:
        raise SchemaError(
            "/values", f"expected {expected} values for shape {shape}, got {values.size}"
        )
    try:
        return Grid(origin, spacing, tuple(shape), values)
    except (ValueError, PhaseMinError) as err:
        raise SchemaError("/values", str(err)) from None


def parse_distribution(obj, dim: int, path: str, base_dir: str) -> Distribution:
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    kind = _require(obj, "type", path)
    try:
        if kind == "gaussian":
            return Gaussian(
                weight=_positive(_require(obj, "weight", path), f"{path}/weight"),
                mean=_vector(_require(obj, "mean", path), dim, f"{path}/mean"),
                covariance=_symmetric_matrix(
                    _require(obj, "covariance", path), dim, f"{path}/covariance"
                ),
            )
        if kind == "ball":
            return BallIndicator(
                radius=_positive(_require(obj, "radius", path), f"{path}/radius"),
                center=_vector(_require(obj, "center", path), dim, f"{path}/center"),
                amplitude=_positive(obj.get("amplitude", 1.0), f"{path}/amplitude"),
            )
        if kind == "ellipsoid":
            return EllipsoidIndicator(
                matrix=_symmetric_matrix(
                    _require(obj, "matrix", path), dim, f"{path}/matrix"
                ),
                center=_vector(_require(obj, "center", path), dim, f"{path}/center"),
                amplitude=_positive(obj.get("amplitude", 1.0), f"{path}/amplitude"),
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
            if "file" in obj:
                grid = load_grid_file(os.path.join(base_dir, obj["file"]))
                if grid.dim != dim:
                    raise SchemaError(
                        f"{path}/file",
                        f"grid has dimension {grid.dim}, problem has {dim}",
                    )
                return grid
            origin = _vector(_require(obj, "origin", path), dim, f"{path}/origin")
            spacing = _positive(_require(obj, "spacing", path), f"{path}/spacing")
            shape = [
                _integer(s, f"{path}/shape/{i}")
                for i, s in enumerate(_require(obj, "shape", path))
            ]
            values = _vector(_require(obj, "values", path), None, f"{path}/values")
            if np.any(values < 0):
                raise SchemaError(f"{path}/values", "cell values must be nonnegative")
            if values.size != int(np.prod(shape)):
                raise SchemaError(
                    f"{path}/values",
                    f"expected {int(np.prod(shape))} values, got {values.size}",
                )
            return Grid(origin, spacing, tuple(shape), values)
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
    except SchemaError:
        raise
    except (ValueError, NotPositiveDefinite, PhaseMinError) as err:
        raise SchemaError(path, str(err)) from None
    raise SchemaError(f"{path}/type", f"unknown distribution type {kind!r}")


def parse_problem(obj, base_dir: str = ".") -> Problem:
    if not isinstance(obj, dict):
        raise SchemaError("/", "problem file must hold an object")
    has_n = "n" in obj
    has_dim = "dim" in obj
    if has_n == has_dim:
        raise SchemaError("/", "exactly one of 'n' and 'dim' is required")
    if has_n:
        dof = _integer(obj["n"], "/n")
        if dof < 1:
            raise SchemaError("/n", f"must be positive, got {dof}")
        dim = 2 * dof
    else:
        dim = _integer(obj["dim"], "/dim")
        if dim < 1:
            raise SchemaError("/dim", f"must be positive, got {dim}")
    potential = parse_potential(_require(obj, "potential", ""), dim)
    distribution = parse_distribution(
        _require(obj, "distribution", ""), dim, "/distribution", base_dir
    )
    box = None
    if "box" in obj:
        raw = obj["box"]
        if not isinstance(raw, dict):
            raise SchemaError("/box", "expected an object with 'lo' and 'hi'")
        lo = _vector(_require(raw, "lo", "/box"), dim, "/box/lo")
        hi = _vector(_require(raw, "hi", "/box"), dim, "/box/hi")
        if np.any(hi <= lo):
            raise SchemaError("/box", "'hi' must exceed 'lo' componentwise")
        box = (lo, hi)
    return Problem(dim=dim, potential=potential, distribution=distribution, box=box)


def load_problem(path: str) -> Problem:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except json.JSONDecodeError as err:
        raise SchemaError("/", f"problem file is not valid JSON: {err}") from None
    return parse_problem(obj, base_dir=os.path.dirname(os.path.abspath(path)))
