"""Cyclic and tangential hyperbolic polygons via their sector decompositions.

A cyclic polygon has all vertices on a circle of radius R; sector i is the
isoceles triangle the chord i cuts from the center, with apex angle theta_i.
A tangential polygon has all sides tangent to a circle of radius r; sector i
is spanned at the incenter by two consecutive tangency points, again with
apex angle theta_i, and carries one vertex on its bisector.  In both cases
the apex angles partition the full turn: sum(theta_i) = 2*pi.

Each sector formula is written once, as a kernel over float64 arrays:
cyclic_half_side, cyclic_half_angle, tangential_tangent_length and
tangential_interior_angle take apex angles and radii that broadcast (a
float counts as a 0-d array) and evaluate elementwise with numpy's ufuncs
and the hypmath rows kernels.  The *_rows functions take a block of
polygons of one family and one n, as an array of radii and a (polygons, n)
array of apex angles, call the kernels on it and sum each row with one
math.fsum.  An element's value does not depend on the rest of its array,
so perimeter and area, the one-row calls of their rows functions, equal
a block's row bit for bit.  The polygon rule is written once, on rows:
validate_rows scales each row's apex angles to 2*pi and decides whether
the row is a polygon, has an ideal vertex or is no polygon at all, for
the block draws, whose rows of several n it takes zero-padded, and, as
its one-row call, for the constructors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import IdealVertex, Infeasible, OutOfRange
from .hypmath import LEG_MAX, acos_snapped_rows, fsum_rows, stable_asinh_rows, stable_atanh_rows

# Constructors renormalize partitions off by at most this and reject worse.
PARTITION_TOL = 1e-10

TWO_PI = 2.0 * math.pi


def cyclic_half_side(theta, R):
    """Half the chord subtending apex angle theta at circumradius R.

    b(theta) = asinh(sin(theta/2) * sinh R); concave in theta on (0, pi).
    """
    theta, R = _sector_args(theta, R)
    return stable_asinh_rows(np.sin(0.5 * theta) * np.sinh(R))


def cyclic_half_angle(theta, R):
    """Base angle of the isoceles sector triangle: acot(cosh R * tan(theta/2)).

    Decreasing and strictly convex in theta for R > 0 (second derivative
    cosh R * t * t' * (cosh^2 R - 1) / (1 + cosh^2 R * t^2)^2 with
    t = tan(theta/2); the Euclidean limit R = 0 is linear).  The vertex
    angle of the polygon between sectors i and i+1 is
    cyclic_half_angle(theta_i) + cyclic_half_angle(theta_i+1).
    """
    theta, R = _sector_args(theta, R)
    return np.arctan2(1.0, np.cosh(R) * np.tan(0.5 * theta))


def tangential_tangent_length(theta, r):
    """Distance from a tangency point to the vertex of its sector.

    b(theta) = atanh(tan(theta/2) * sinh r); convex in theta.  Raises
    IdealVertex once tan(theta/2)*sinh r >= 1 (the vertex leaves the plane).
    """
    theta, r = _sector_args(theta, r)
    x = np.tan(0.5 * theta) * np.sinh(r)
    if (x >= 1.0).any():
        raise IdealVertex(f"tan(theta/2)*sinh r = {float(x[x >= 1.0][0])!r} >= 1")
    return stable_atanh_rows(x)


def tangential_interior_angle(theta, r):
    """Full interior angle at the vertex of a tangential sector.

    phi(theta) = 2*acos(sin(theta/2) * cosh r), in [0, pi).  The boundary
    value 0 is an ideal vertex; arguments beyond it raise IdealVertex.
    """
    theta, r = _sector_args(theta, r)
    x = np.sin(0.5 * theta) * np.cosh(r)
    if (x > 1.0 + 1e-12).any():
        raise IdealVertex(f"sin(theta/2)*cosh r = {float(x[x > 1.0 + 1e-12][0])!r} > 1")
    return 2.0 * acos_snapped_rows(np.minimum(x, 1.0))


def _sector_args(theta, radius) -> tuple[np.ndarray, np.ndarray]:
    """theta and radius as float64 arrays, once every apex angle lies in
    (0, pi) and every radius in [0, LEG_MAX]."""
    theta, radius = np.asarray(theta, dtype=np.float64), np.asarray(radius, dtype=np.float64)
    bad = ~((0.0 < theta) & (theta < math.pi))
    if bad.any():
        raise Infeasible(f"sector angle must lie in (0, pi), got {float(theta[bad][0])!r}")
    bad = ~((0.0 <= radius) & (radius <= LEG_MAX))
    if bad.any():
        r = float(radius[bad][0])
        raise _beyond_cap(r) if r > LEG_MAX else Infeasible(f"radius must be nonnegative, got {r!r}")
    return theta, radius


def _beyond_cap(radius: float) -> OutOfRange:
    return OutOfRange(f"radius {radius!r} beyond {LEG_MAX}; cosh would overflow")


# validate_rows' statuses: a polygon, one with a vertex at infinity, no polygon.
ACCEPTED, IDEAL, INVALID = 0, 1, 2


def validate_rows(kind: str, radii: np.ndarray, ts: np.ndarray,
                  sizes: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, Callable]:
    """The polygon rule on every row of a block of one family: (apex angles
    scaled by 2*pi over their math.fsum, status, error).  Row j holds
    sizes[j] apex angles, zero-padded to the block's width; without sizes
    every row fills it.  A row is INVALID when its radius is not positive
    or beyond LEG_MAX, its angles sum farther than PARTITION_TOL from 2*pi
    or a scaled angle lies outside (0, pi); else IDEAL when the family is
    tangential and some tan(theta/2)*sinh r >= 1; else ACCEPTED.  error(j)
    is the exception the constructor raises on row j, for the first fault
    in that order, or None.  math.fsum is exact and a padded 0 is no
    vertex, so a padded row is decided as its unpadded one.
    """
    radii, ts = np.asarray(radii, dtype=np.float64), np.asarray(ts, dtype=np.float64)
    totals = fsum_rows(ts)
    with np.errstate(all="ignore"):  # only an invalid row reaches a value that is not finite
        ts = ts * (TWO_PI / totals)[:, None]
        vertex = np.tan(0.5 * ts) * np.sinh(radii)[:, None] >= 1.0 if kind == "tangential" else np.zeros(ts.shape, bool)
    positive, capped = radii > 0.0, radii <= LEG_MAX
    summed = np.abs(totals - TWO_PI) <= PARTITION_TOL
    inside = (ts > 0.0) & (ts < math.pi)
    if sizes is not None:
        inside |= np.arange(ts.shape[1]) >= np.asarray(sizes)[:, None]
    valid = positive & capped & summed & inside.all(axis=1)
    status = np.where(valid, np.where(vertex.any(axis=1), IDEAL, ACCEPTED), INVALID)

    def error(j: int) -> Exception | None:
        radius = float(radii[j])
        if not positive[j]:
            return Infeasible(f"{'circumradius' if kind == 'cyclic' else 'inradius'} must be positive, got {radius!r}")
        if not capped[j]:
            return _beyond_cap(radius)
        if not summed[j]:
            return Infeasible(f"sector angles sum to {float(totals[j])!r}, not 2*pi")
        if not inside[j].all():
            return Infeasible(f"sector angle {float(ts[j][~inside[j]][0])!r} outside (0, pi)")
        if status[j] == IDEAL:
            return IdealVertex(f"sector angle {float(ts[j][vertex[j]][0])!r} with inradius {radius!r} has an ideal vertex")
        return None

    return ts, status, error


def _validate(p: "Polygon") -> None:
    """The constructors' checks of n and of the count of angles, then validate_rows on p's row."""
    if not isinstance(p.n, int) or p.n < 3:
        raise Infeasible(f"need integer n >= 3, got {p.n!r}")
    ts = tuple(float(t) for t in p.thetas)
    if len(ts) != p.n:
        raise Infeasible(f"expected {p.n} sector angles, got {len(ts)}")
    ts, status, error = validate_rows(p.kind, [p.radius], [ts])
    if status[0] != ACCEPTED:
        raise error(0)
    object.__setattr__(p, "thetas", tuple(ts[0].tolist()))


@dataclass(frozen=True)
class CyclicPolygon:
    """Polygon inscribed in a circle of radius R, given by its apex angles."""

    n: int
    R: float
    thetas: tuple[float, ...]

    def __post_init__(self):
        _validate(self)

    kind = "cyclic"

    @property
    def radius(self) -> float:
        return self.R

    @classmethod
    def regular(cls, n: int, R: float) -> "CyclicPolygon":
        return cls(n=n, R=R, thetas=(TWO_PI / n,) * n)


@dataclass(frozen=True)
class TangentialPolygon:
    """Polygon circumscribed about a circle of radius r, given by its apex angles."""

    n: int
    r: float
    thetas: tuple[float, ...]

    def __post_init__(self):
        _validate(self)

    kind = "tangential"

    @property
    def radius(self) -> float:
        return self.r

    @classmethod
    def regular(cls, n: int, r: float) -> "TangentialPolygon":
        return cls(n=n, r=r, thetas=(TWO_PI / n,) * n)


Polygon = CyclicPolygon | TangentialPolygon


def regular(kind: str, n: int, radius: float) -> Polygon:
    """The regular n-gon of the family `kind` with the given radius."""
    return (CyclicPolygon if kind == "cyclic" else TangentialPolygon).regular(n, radius)


def _one_row(rows_kernel, p: Polygon) -> np.ndarray:
    """Row 0 of a rows kernel called on the single polygon p."""
    return rows_kernel(p.kind, np.array([p.radius]), np.array([p.thetas]))[0]


def perimeter(p: Polygon) -> float:
    """Total boundary length, as twice the sum of the sector half-lengths."""
    return float(_one_row(perimeter_rows, p))


def perimeter_rows(kind: str, radii: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """perimeter of every row's polygon."""
    half = cyclic_half_side if kind == "cyclic" else tangential_tangent_length
    return 2.0 * fsum_rows(half(ts, radii[:, None]))


def interior_angles_rows(kind: str, radii: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Interior angle at each vertex of every row's polygon, as a (polygons,
    n) array, indexed to match the embedding order.

    Cyclic vertex i joins chords i-1 and i, so its angle is the sum of the
    neighbouring half-angles; tangential vertex i lies inside sector i.
    """
    if kind == "cyclic":
        halves = cyclic_half_angle(ts, radii[:, None])
        return np.roll(halves, 1, axis=1) + halves
    return tangential_interior_angle(ts, radii[:, None])


def area(p: Polygon) -> float:
    """Area by angle deficit: (n-2)*pi - sum of interior angles."""
    return float(_one_row(area_rows, p))


def area_rows(kind: str, radii: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """area of every row's polygon."""
    return (ts.shape[1] - 2) * math.pi - fsum_rows(interior_angles_rows(kind, radii, ts))


def to_json_dict(p: Polygon) -> dict:
    return row_json(p.kind, p.n, p.radius, list(p.thetas))


def row_json(kind: str, n: int, radius: float, thetas: list[float]) -> dict:
    """to_json_dict of the polygon given by its fields."""
    return {"kind": kind, "n": n, "radius": radius, "thetas": thetas}

