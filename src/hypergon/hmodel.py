"""Measurement oracle on the upper hyperboloid sheet in Minkowski 3-space.

Points live on x0^2 - x1^2 - x2^2 = 1 with x0 >= 1; the metric comes from
the restriction of the Minkowski form, so dist(p, q) = acosh(<p, q>) with
<p, q> = p0*q0 - p1*q1 - p2*q2.  Everything a polygon claims in closed form
can be re-measured here from raw coordinates.

Each measurement is written once, for a block: embed_rows places the
polygons of one family and one n, as three (polygons, n) coordinate arrays,
and dist_rows and measured_rows measure them with numpy's ufuncs;
measured_rows checks the vertex ring and shifts it once for both the
perimeter and the area.  dist, embed, measured_perimeter and measured_area
are their one-row calls on HPoint and Embedding values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidPoint, OutOfRange
from .hypmath import acosh1p_rows, angle_from_sides, fsum_rows, hyp_hypotenuse_rows
from .polygon import Polygon, tangential_tangent_length

# A point whose sheet residual exceeds this is rejected outright.
SHEET_TOL = 1e-9


@dataclass(frozen=True)
class HPoint:
    x0: float
    x1: float
    x2: float


ORIGIN = HPoint(1.0, 0.0, 0.0)


def sheet_error(p: HPoint) -> float:
    return abs(p.x0 * p.x0 - p.x1 * p.x1 - p.x2 * p.x2 - 1.0)


def _validate(p: HPoint) -> None:
    err = sheet_error(p)
    if not math.isfinite(err):  # x0^2 overflows past a radius of about 355
        raise OutOfRange(f"sheet residual overflows at {p}")
    if p.x0 < 1.0 - SHEET_TOL or err > SHEET_TOL * max(1.0, p.x0 * p.x0):
        raise InvalidPoint(f"not on the unit sheet: {p}")


def _coords(points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The coordinates of points as three (1, len(points)) arrays."""
    return tuple(np.array([[getattr(p, x) for p in points]]) for x in ("x0", "x1", "x2"))


def dist(p: HPoint, q: HPoint) -> float:
    """Geodesic distance from p to q: the one-row call of dist_rows."""
    _validate(p)
    _validate(q)
    return float(dist_rows(*_coords([p]), *_coords([q]))[0, 0])


def dist_rows(x0: np.ndarray, x1: np.ndarray, x2: np.ndarray,
              q0: np.ndarray, q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """acosh(<p, q>) between each p = (x0, x1, x2) and q = (q0, q1, q2) on
    the sheet, organised to avoid cancellation.

    The bilinear form rounds on the scale of p0*q0, which wipes out the
    digits that matter when <p, q> - 1 is much smaller than that: for nearby
    points, and for points far out at similar radii a moderate distance
    apart (at radius 13 and bearings 1e-5 apart it is off by 1e-6).  There
    the argument is rebuilt from coordinate differences, which round on the
    scale of |p - q|^2:  <p, q> - 1 = ((dx1^2 + dx2^2) - dx0^2) / 2 exactly
    on the sheet.  They are used when t <= 1/2 or when their scale is below
    p0*q0 / 2^10, that is, where the bilinear form has cancelled ten bits.
    """
    t = x0 * q0 - x1 * q1 - x2 * q2 - 1.0
    dx0, dx1, dx2 = x0 - q0, x1 - q1, x2 - q2
    near = (t <= 0.5) | (1024.0 * (dx0 * dx0 + dx1 * dx1 + dx2 * dx2) < x0 * q0)
    return acosh1p_rows(np.where(near, 0.5 * ((dx1 * dx1 + dx2 * dx2) - dx0 * dx0), t))


@dataclass(frozen=True)
class Embedding:
    """Concrete coordinates for one polygon: its center and vertex ring."""

    center: HPoint
    vertices: tuple[HPoint, ...]
    kind: str


def embed(p: Polygon) -> Embedding:
    """The one-row call of embed_rows, centered at ORIGIN."""
    xs = embed_rows(p.kind, np.array([p.radius]), np.array([p.thetas]))
    return Embedding(ORIGIN, tuple(HPoint(*v) for v in zip(*(x[0].tolist() for x in xs))), p.kind)


def measured_perimeter(e: Embedding) -> float:
    """The one-row call of measured_rows' perimeter."""
    return float(measured_rows(*_coords(e.vertices))[0][0])


def measured_area(e: Embedding) -> float:
    """The one-row call of measured_rows' area, about e's center."""
    _validate(e.center)
    return float(measured_rows(*_coords(e.vertices), e.center)[1][0])


def embed_rows(kind: str, radii: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The vertex coordinates (x0, x1, x2) of every row's polygon about ORIGIN.

    Cyclic vertex i sits at distance R, bearing sum(theta_j for j < i).
    Tangential vertex i sits on the bisector of sector i, so each edge
    touches the incircle, at the distance d_i of the right-triangle
    composition cosh d_i = cosh r * cosh b(theta_i).
    """
    bearings = np.zeros_like(ts)
    np.cumsum(ts[:, :-1], axis=1, out=bearings[:, 1:])
    if kind == "cyclic":
        d = radii[:, None]  # every vertex at distance R
    else:
        b = tangential_tangent_length(ts, radii[:, None])
        d = hyp_hypotenuse_rows(np.repeat(radii[:, None], ts.shape[1], axis=1), b)
        bearings = bearings + 0.5 * ts
    sh = np.sinh(d)
    x0 = np.broadcast_to(np.cosh(d), ts.shape).copy()
    return x0, sh * np.cos(bearings), sh * np.sin(bearings)


def _validate_rows(x0: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> None:
    """_validate every vertex; the first one off the sheet raises its error."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is one of the errors
        err = np.abs(x0 * x0 - x1 * x1 - x2 * x2 - 1.0)
        bad = ~np.isfinite(err) | (x0 < 1.0 - SHEET_TOL) | (err > SHEET_TOL * np.maximum(1.0, x0 * x0))
    if bad.any():
        i = np.flatnonzero(bad)[0]
        _validate(HPoint(*(x.ravel()[i].item() for x in (x0, x1, x2))))


def measured_rows(x0: np.ndarray, x1: np.ndarray, x2: np.ndarray,
                  c: HPoint = ORIGIN) -> tuple[np.ndarray, np.ndarray]:
    """The perimeter and the area of every row's vertex ring, once every
    vertex is _validate'd.

    The perimeter sums each side by dist_rows.  The area sums the sector
    triangles (center c, v_i, v_i+1), added in ring order, each by
    tan(A/2) = |det[c, p, q]| / (1 + <c, p> + <p, q> + <q, c>), the
    hyperboloid form of Van Oosterom & Strackee's solid-angle formula; it
    needs no side lengths, so tiny triangles lose no digits to cancellation.
    """
    _validate_rows(x0, x1, x2)
    q0, q1, q2 = (np.roll(x, -1, axis=1) for x in (x0, x1, x2))
    perimeter = fsum_rows(dist_rows(x0, x1, x2, q0, q1, q2))
    det = (c.x0 * (x1 * q2 - x2 * q1)
           - c.x1 * (x0 * q2 - x2 * q0)
           + c.x2 * (x0 * q1 - x1 * q0))
    den = (1.0 + (c.x0 * x0 - c.x1 * x1 - c.x2 * x2) + (x0 * q0 - x1 * q1 - x2 * q2)
           + (q0 * c.x0 - q1 * c.x1 - q2 * c.x2))
    terms = 2.0 * np.arctan2(np.abs(det), den)
    return perimeter, np.cumsum(terms, axis=1)[:, -1]


def measured_interior_angles(e: Embedding) -> tuple[float, ...]:
    """Angle at each vertex between its two incident sides."""
    vs = e.vertices
    n = len(vs)
    out = []
    for i in range(n):
        prev_v, v, next_v = vs[i - 1], vs[i], vs[(i + 1) % n]
        la = dist(v, prev_v)
        lb = dist(v, next_v)
        opp = dist(prev_v, next_v)
        out.append(angle_from_sides(la, lb, opp))
    return tuple(out)
