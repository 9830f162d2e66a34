"""Cyclic and tangential hyperbolic polygons via their sector decompositions.

A cyclic polygon has all vertices on a circle of radius R; sector i is the
isoceles triangle the chord i cuts from the center, with apex angle theta_i.
A tangential polygon has all sides tangent to a circle of radius r; sector i
is spanned at the incenter by two consecutive tangency points, again with
apex angle theta_i, and carries one vertex on its bisector.  In both cases
the apex angles partition the full turn: sum(theta_i) = 2*pi.

The *_rows functions take a block of polygons of one family and one n, as
an array of radii and a (polygons, n) array of apex angles, and give each
row's value bit for bit as the per-polygon function would: the sector
kernels elementwise, and one math.fsum per row where it sums with fsum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IdealVertex, Infeasible, OutOfRange
from .hypmath import (
    LEG_MAX,
    acos_snapped,
    acos_snapped_rows,
    fsum_rows,
    libm,
    stable_asinh,
    stable_asinh_rows,
    stable_atanh,
    stable_atanh_rows,
)

# Constructors renormalize partitions off by at most this and reject worse.
PARTITION_TOL = 1e-10

TWO_PI = 2.0 * math.pi


def cyclic_half_side(theta: float, R: float) -> float:
    """Half the chord subtending apex angle theta at circumradius R.

    b(theta) = asinh(sin(theta/2) * sinh R); concave in theta on (0, pi).
    """
    _check_sector_args(theta, R)
    return stable_asinh(math.sin(0.5 * theta) * math.sinh(R))


def cyclic_half_angle(theta: float, R: float) -> float:
    """Base angle of the isoceles sector triangle: acot(cosh R * tan(theta/2)).

    Decreasing and strictly convex in theta for R > 0 (second derivative
    cosh R * t * t' * (cosh^2 R - 1) / (1 + cosh^2 R * t^2)^2 with
    t = tan(theta/2); the Euclidean limit R = 0 is linear).  The vertex
    angle of the polygon between sectors i and i+1 is
    cyclic_half_angle(theta_i) + cyclic_half_angle(theta_i+1).
    """
    _check_sector_args(theta, R)
    return math.atan2(1.0, math.cosh(R) * math.tan(0.5 * theta))


def tangential_tangent_length(theta: float, r: float) -> float:
    """Distance from a tangency point to the vertex of its sector.

    b(theta) = atanh(tan(theta/2) * sinh r); convex in theta.  Raises
    IdealVertex once tan(theta/2)*sinh r >= 1 (the vertex leaves the plane).
    """
    _check_sector_args(theta, r)
    x = math.tan(0.5 * theta) * math.sinh(r)
    if x >= 1.0:
        raise IdealVertex(f"tan(theta/2)*sinh r = {x!r} >= 1")
    return stable_atanh(x)


def tangential_interior_angle(theta: float, r: float) -> float:
    """Full interior angle at the vertex of a tangential sector.

    phi(theta) = 2*acos(sin(theta/2) * cosh r), in [0, pi).  The boundary
    value 0 is an ideal vertex; arguments beyond it raise IdealVertex.
    """
    _check_sector_args(theta, r)
    x = math.sin(0.5 * theta) * math.cosh(r)
    if x > 1.0 + 1e-12:
        raise IdealVertex(f"sin(theta/2)*cosh r = {x!r} > 1")
    return 2.0 * acos_snapped(min(x, 1.0))


def _check_sector_args(theta: float, radius: float) -> None:
    if not 0.0 < theta < math.pi:
        raise Infeasible(f"sector angle must lie in (0, pi), got {theta!r}")
    if not 0.0 <= radius <= LEG_MAX:
        _check_radius_cap(radius)
        raise Infeasible(f"radius must be nonnegative, got {radius!r}")


def _check_radius_cap(radius: float) -> None:
    if radius > LEG_MAX:
        raise OutOfRange(f"radius {radius!r} beyond {LEG_MAX}; cosh would overflow")


def _normalized_partition(n: int, thetas) -> tuple[float, ...]:
    if not isinstance(n, int) or n < 3:
        raise Infeasible(f"need integer n >= 3, got {n!r}")
    ts = tuple(float(t) for t in thetas)
    if len(ts) != n:
        raise Infeasible(f"expected {n} sector angles, got {len(ts)}")
    total = math.fsum(ts)
    if abs(total - TWO_PI) > PARTITION_TOL:
        raise Infeasible(f"sector angles sum to {total!r}, not 2*pi")
    if total != TWO_PI:
        scale = TWO_PI / total
        ts = tuple(t * scale for t in ts)
    for t in ts:
        if not 0.0 < t < math.pi:
            raise Infeasible(f"sector angle {t!r} outside (0, pi)")
    return ts


def normalized_rows(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_normalized_partition of every row of ts, and the rows it accepts."""
    totals = fsum_rows(ts)
    ts = ts * (TWO_PI / totals)[:, None]
    ok = (np.abs(totals - TWO_PI) <= PARTITION_TOL) & ((ts > 0.0) & (ts < math.pi)).all(axis=1)
    return ts, ok


def ideal_rows(r: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """The rows a TangentialPolygon with inradius r and apex angles ts rejects as ideal."""
    return (libm(math.tan, 0.5 * ts) * libm(math.sinh, r)[:, None] >= 1.0).any(axis=1)


@dataclass(frozen=True)
class CyclicPolygon:
    """Polygon inscribed in a circle of radius R, given by its apex angles."""

    n: int
    R: float
    thetas: tuple[float, ...]

    def __post_init__(self):
        if not self.R > 0.0:
            raise Infeasible(f"circumradius must be positive, got {self.R!r}")
        _check_radius_cap(self.R)
        object.__setattr__(self, "thetas", _normalized_partition(self.n, self.thetas))

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
        if not self.r > 0.0:
            raise Infeasible(f"inradius must be positive, got {self.r!r}")
        _check_radius_cap(self.r)
        ts = _normalized_partition(self.n, self.thetas)
        object.__setattr__(self, "thetas", ts)
        sr = math.sinh(self.r)
        for t in ts:
            if math.tan(0.5 * t) * sr >= 1.0:
                raise IdealVertex(f"sector angle {t!r} with inradius {self.r!r} has an ideal vertex")

    kind = "tangential"

    @property
    def radius(self) -> float:
        return self.r

    @classmethod
    def regular(cls, n: int, r: float) -> "TangentialPolygon":
        return cls(n=n, r=r, thetas=(TWO_PI / n,) * n)


Polygon = CyclicPolygon | TangentialPolygon


def perimeter(p: Polygon) -> float:
    """Total boundary length, as twice the sum of the sector half-lengths."""
    if isinstance(p, CyclicPolygon):
        return 2.0 * math.fsum(cyclic_half_side(t, p.R) for t in p.thetas)
    return 2.0 * math.fsum(tangential_tangent_length(t, p.r) for t in p.thetas)


def perimeter_rows(kind: str, radii: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """perimeter of every row's polygon."""
    half = 0.5 * ts
    if kind == "cyclic":
        return 2.0 * fsum_rows(stable_asinh_rows(libm(math.sin, half) * libm(math.sinh, radii)[:, None]))
    x = libm(math.tan, half) * libm(math.sinh, radii)[:, None]
    if (x >= 1.0).any():
        raise IdealVertex(f"tan(theta/2)*sinh r = {float(x[x >= 1.0][0])!r} >= 1")
    return 2.0 * fsum_rows(stable_atanh_rows(x))


def interior_angles(p: Polygon) -> tuple[float, ...]:
    """Interior angle at each vertex, indexed to match the embedding order.

    Cyclic vertex i joins chords i-1 and i, so its angle is the sum of the
    neighbouring half-angles; tangential vertex i lies inside sector i.
    """
    if isinstance(p, CyclicPolygon):
        halves = [cyclic_half_angle(t, p.R) for t in p.thetas]
        return tuple(halves[i - 1] + halves[i] for i in range(p.n))
    return tuple(tangential_interior_angle(t, p.r) for t in p.thetas)


def area(p: Polygon) -> float:
    """Area by angle deficit: (n-2)*pi - sum of interior angles."""
    return (p.n - 2) * math.pi - math.fsum(interior_angles(p))


def area_rows(kind: str, radii: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """area of every row's polygon."""
    half = 0.5 * ts
    if kind == "cyclic":
        halves = libm(math.atan2, 1.0, libm(math.cosh, radii)[:, None] * libm(math.tan, half))
        angles = np.roll(halves, 1, axis=1) + halves
    else:
        x = libm(math.sin, half) * libm(math.cosh, radii)[:, None]
        if (x > 1.0 + 1e-12).any():
            raise IdealVertex(f"sin(theta/2)*cosh r = {float(x[x > 1.0 + 1e-12][0])!r} > 1")
        angles = 2.0 * acos_snapped_rows(np.minimum(x, 1.0))
    return (ts.shape[1] - 2) * math.pi - fsum_rows(angles)


def to_json_dict(p: Polygon) -> dict:
    return row_json(p.kind, p.n, p.radius, list(p.thetas))


def row_json(kind: str, n: int, radius: float, thetas: list[float]) -> dict:
    """to_json_dict of the polygon given by its fields."""
    return {"kind": kind, "n": n, "radius": radius, "thetas": thetas}

