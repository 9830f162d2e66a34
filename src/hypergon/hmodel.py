"""Measurement oracle on the upper hyperboloid sheet in Minkowski 3-space.

Points live on x0^2 - x1^2 - x2^2 = 1 with x0 >= 1; the metric comes from
the restriction of the Minkowski form, so dist(p, q) = acosh(<p, q>) with
<p, q> = p0*q0 - p1*q1 - p2*q2.  Everything a polygon claims in closed form
can be re-measured here from raw coordinates.

embed_rows, measured_perimeter_rows and measured_area_rows do the same for a
block of polygons of one family and one n, with the coordinates as three
(polygons, n) arrays.  They follow embed and the per-embedding
measurements step for step with numpy's ufuncs, so a row's values agree
with theirs to the rounding the tests state, not bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidPoint, OutOfRange
from .hypmath import (
    acosh1p,
    acosh1p_rows,
    angle_from_sides,
    fsum_rows,
    hyp_hypotenuse,
    hyp_hypotenuse_rows,
)
from .polygon import (
    CyclicPolygon,
    Polygon,
    TangentialPolygon,
    tangential_tangent_length,
)

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


def point_at(d: float, alpha: float) -> HPoint:
    """The point at hyperbolic distance d from the origin, at bearing alpha."""
    if d < 0.0:
        raise InvalidPoint(f"distance must be nonnegative, got {d!r}")
    sh = math.sinh(d)
    return HPoint(math.cosh(d), sh * math.cos(alpha), sh * math.sin(alpha))


def mink(p: HPoint, q: HPoint) -> float:
    return p.x0 * q.x0 - p.x1 * q.x1 - p.x2 * q.x2


def dist(p: HPoint, q: HPoint) -> float:
    """Geodesic distance acosh(<p, q>), organised to avoid cancellation.

    The bilinear form rounds on the scale of p0*q0, which wipes out the
    digits that matter when <p, q> - 1 is much smaller than that: for nearby
    points, and for points far out at similar radii a moderate distance
    apart (at radius 13 and bearings 1e-5 apart it is off by 1e-6).  There
    the argument is rebuilt from coordinate differences, which round on the
    scale of |p - q|^2:  <p, q> - 1 = ((dx1^2 + dx2^2) - dx0^2) / 2 exactly
    on the sheet.  They are used when t <= 1/2 or when their scale is below
    p0*q0 / 2^10, that is, where the bilinear form has cancelled ten bits.
    """
    _validate(p)
    _validate(q)
    t = mink(p, q) - 1.0
    dx0 = p.x0 - q.x0
    dx1 = p.x1 - q.x1
    dx2 = p.x2 - q.x2
    if t <= 0.5 or 1024.0 * (dx0 * dx0 + dx1 * dx1 + dx2 * dx2) < p.x0 * q.x0:
        t = 0.5 * ((dx1 * dx1 + dx2 * dx2) - dx0 * dx0)
    return acosh1p(t)


@dataclass(frozen=True)
class Embedding:
    """Concrete coordinates for one polygon: its center and vertex ring."""

    center: HPoint
    vertices: tuple[HPoint, ...]
    kind: str


def _bearings(thetas) -> list[float]:
    out = [0.0]
    for t in thetas[:-1]:
        out.append(out[-1] + t)
    return out


def embed_cyclic(p: CyclicPolygon) -> Embedding:
    """Vertex i sits at distance R, bearing sum(theta_j for j < i)."""
    cums = _bearings(p.thetas)
    verts = tuple(point_at(p.R, a) for a in cums)
    return Embedding(center=ORIGIN, vertices=verts, kind="cyclic")


def embed_tangential(p: TangentialPolygon) -> Embedding:
    """Vertex i on the bisector of sector i; each edge touches the incircle.

    The vertex distance comes from the right-triangle composition
    cosh d_i = cosh r * cosh b(theta_i).
    """
    cums = _bearings(p.thetas)
    bs = tangential_tangent_length(np.array(p.thetas), p.r).tolist()
    verts = []
    for i, (t, b) in enumerate(zip(p.thetas, bs)):
        d = hyp_hypotenuse(p.r, b)
        verts.append(point_at(d, cums[i] + 0.5 * t))
    return Embedding(center=ORIGIN, vertices=tuple(verts), kind="tangential")


def embed(p: Polygon) -> Embedding:
    if isinstance(p, CyclicPolygon):
        return embed_cyclic(p)
    return embed_tangential(p)


def measured_perimeter(e: Embedding) -> float:
    vs = e.vertices
    n = len(vs)
    return math.fsum(dist(vs[i], vs[(i + 1) % n]) for i in range(n))


def measured_area(e: Embedding) -> float:
    """Area as a sum of sector triangles (center c, v_i, v_i+1).

    Each is tan(A/2) = |det[c, p, q]| / (1 + <c, p> + <p, q> + <q, c>), the
    hyperboloid form of Van Oosterom & Strackee's solid-angle formula; it
    needs no side lengths, so tiny triangles lose no digits to cancellation.
    """
    c, vs = e.center, e.vertices
    for v in (c, *vs):
        _validate(v)
    total = 0.0
    for p, q in zip(vs, vs[1:] + vs[:1]):
        det = (c.x0 * (p.x1 * q.x2 - p.x2 * q.x1)
               - c.x1 * (p.x0 * q.x2 - p.x2 * q.x0)
               + c.x2 * (p.x0 * q.x1 - p.x1 * q.x0))
        total += 2.0 * math.atan2(abs(det), 1.0 + mink(c, p) + mink(p, q) + mink(q, c))
    return total


def embed_rows(kind: str, radii: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The vertex coordinates (x0, x1, x2) embed gives every row's polygon."""
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


def measured_perimeter_rows(x0: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """measured_perimeter of every row's embedding, each side by dist."""
    _validate_rows(x0, x1, x2)
    q0, q1, q2 = (np.roll(x, -1, axis=1) for x in (x0, x1, x2))
    t = x0 * q0 - x1 * q1 - x2 * q2 - 1.0
    dx0, dx1, dx2 = x0 - q0, x1 - q1, x2 - q2
    near = (t <= 0.5) | (1024.0 * (dx0 * dx0 + dx1 * dx1 + dx2 * dx2) < x0 * q0)
    t = np.where(near, 0.5 * ((dx1 * dx1 + dx2 * dx2) - dx0 * dx0), t)
    return fsum_rows(acosh1p_rows(t))


def measured_area_rows(x0: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """measured_area of every row's embedding about ORIGIN, summed in ring order."""
    _validate_rows(x0, x1, x2)
    c = ORIGIN  # its zero coordinates enter as in measured_area
    q0, q1, q2 = (np.roll(x, -1, axis=1) for x in (x0, x1, x2))
    det = (c.x0 * (x1 * q2 - x2 * q1)
           - c.x1 * (x0 * q2 - x2 * q0)
           + c.x2 * (x0 * q1 - x1 * q0))
    den = (1.0 + (c.x0 * x0 - c.x1 * x1 - c.x2 * x2) + (x0 * q0 - x1 * q1 - x2 * q2)
           + (q0 * c.x0 - q1 * c.x1 - q2 * c.x2))
    terms = 2.0 * np.arctan2(np.abs(det), den)
    return np.cumsum(terms, axis=1)[:, -1]


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
