"""Measurement oracle on the upper hyperboloid sheet in Minkowski 3-space.

Points live on x0^2 - x1^2 - x2^2 = 1 with x0 >= 1; the metric comes from
the restriction of the Minkowski form, so dist(p, q) = acosh(<p, q>) with
<p, q> = p0*q0 - p1*q1 - p2*q2.  Everything a polygon claims in closed form
can be re-measured here from raw coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidPoint
from .hypmath import acosh1p, angle_from_sides, hyp_hypotenuse
from .polygon import (
    CyclicPolygon,
    Polygon,
    TangentialPolygon,
    tangential_tangent_length,
)

# A point whose sheet residual exceeds this is rejected outright.
SHEET_TOL = 1e-9

GOLDEN_TOL = 1e-10
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class HPoint:
    x0: float
    x1: float
    x2: float


ORIGIN = HPoint(1.0, 0.0, 0.0)


def sheet_error(p: HPoint) -> float:
    return abs(p.x0 * p.x0 - p.x1 * p.x1 - p.x2 * p.x2 - 1.0)


def _validate(p: HPoint) -> None:
    if p.x0 < 1.0 - SHEET_TOL or sheet_error(p) > SHEET_TOL * max(1.0, p.x0 * p.x0):
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

    For nearby points the direct bilinear form wipes out the digits that
    matter, so the argument is rebuilt from coordinate differences:
    <p, q> - 1 = ((dx1^2 + dx2^2) - dx0^2) / 2 exactly on the sheet.
    """
    _validate(p)
    _validate(q)
    t = mink(p, q) - 1.0
    if t <= 0.5:
        dx0 = p.x0 - q.x0
        dx1 = p.x1 - q.x1
        dx2 = p.x2 - q.x2
        t = 0.5 * ((dx1 * dx1 + dx2 * dx2) - dx0 * dx0)
    return acosh1p(t)


def geodesic_point(p: HPoint, q: HPoint, t: float) -> HPoint:
    """Point at parameter t in [0, 1] along the geodesic from p to q."""
    d = dist(p, q)
    if d == 0.0:
        return p
    sd = math.sinh(d)
    wp = math.sinh((1.0 - t) * d) / sd
    wq = math.sinh(t * d) / sd
    return HPoint(wp * p.x0 + wq * q.x0, wp * p.x1 + wq * q.x1, wp * p.x2 + wq * q.x2)


def min_distance_from_origin(p: HPoint, q: HPoint) -> float:
    """Distance from the origin to the segment [p, q], by golden-section search."""
    a, b = 0.0, 1.0

    def g(t: float) -> float:
        return dist(ORIGIN, geodesic_point(p, q, t))

    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    g1, g2 = g(x1), g(x2)
    while b - a > GOLDEN_TOL:
        if g1 <= g2:
            b, x2, g2 = x2, x1, g1
            x1 = b - _INVPHI * (b - a)
            g1 = g(x1)
        else:
            a, x1, g1 = x1, x2, g2
            x2 = a + _INVPHI * (b - a)
            g2 = g(x2)
    return min(g1, g2, g(a), g(b))


@dataclass(frozen=True)
class Embedding:
    """Concrete coordinates for one polygon: its center and vertex ring."""

    center: HPoint
    vertices: tuple[HPoint, ...]
    kind: str
    tangency_points: tuple[HPoint, ...] | None = None


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
    """Vertex i on the bisector of sector i; tangency points on its edges.

    The vertex distance comes from the right-triangle composition
    cosh d_i = cosh r * cosh b(theta_i).
    """
    cums = _bearings(p.thetas)
    verts = []
    for i, t in enumerate(p.thetas):
        b = tangential_tangent_length(t, p.r)
        d = hyp_hypotenuse(p.r, b)
        verts.append(point_at(d, cums[i] + 0.5 * t))
    tang = tuple(point_at(p.r, a) for a in cums)
    return Embedding(center=ORIGIN, vertices=tuple(verts), kind="tangential", tangency_points=tang)


def embed(p: Polygon) -> Embedding:
    if isinstance(p, CyclicPolygon):
        return embed_cyclic(p)
    return embed_tangential(p)


def measured_perimeter(e: Embedding) -> float:
    vs = e.vertices
    n = len(vs)
    return math.fsum(dist(vs[i], vs[(i + 1) % n]) for i in range(n))


def measured_area(e: Embedding) -> float:
    """Area from the triangle fan at the center: sum of angle deficits."""
    vs = e.vertices
    n = len(vs)
    total = 0.0
    for i in range(n):
        va, vb = vs[i], vs[(i + 1) % n]
        sa = dist(e.center, va)
        sb = dist(e.center, vb)
        sc = dist(va, vb)
        angles = (
            angle_from_sides(sa, sb, sc)
            + angle_from_sides(sb, sc, sa)
            + angle_from_sides(sc, sa, sb)
        )
        total += math.pi - angles
    return total


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
