import math

import frozen
import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hypergon.errors import InvalidPoint, OutOfRange
from hypergon.hmodel import (
    ORIGIN,
    Embedding,
    HPoint,
    dist,
    embed,
    measured_area,
    measured_interior_angles,
    measured_perimeter,
    sheet_error,
)
from hypergon.optimize import random_cyclic_polygon, random_tangential_polygon, trial_rng
from hypergon.polygon import (
    CyclicPolygon,
    TangentialPolygon,
    area,
    interior_angles_rows,
    perimeter,
    tangential_tangent_length,
)

bearings = st.floats(min_value=-10.0, max_value=10.0)
dists = st.floats(min_value=0.0, max_value=15.0)


def point_at(d, alpha):
    """The point at hyperbolic distance d >= 0 from the origin, at bearing alpha."""
    sh = math.sinh(d)
    return HPoint(math.cosh(d), sh * math.cos(alpha), sh * math.sin(alpha))


def test_point_at_origin():
    p = point_at(0.0, 1.3)
    assert p == ORIGIN
    assert dist(ORIGIN, ORIGIN) == 0.0


@given(dists, bearings)
def test_point_at_distance_roundtrip(d, alpha):
    assert abs(dist(ORIGIN, point_at(d, alpha)) - d) <= 1e-11 * max(1.0, d)


def test_point_at_antipodal():
    d = 1.7
    assert math.isclose(dist(point_at(d, 0.0), point_at(d, math.pi)), 2 * d, rel_tol=1e-12)


def test_chord_formula_anchor():
    got = dist(point_at(0.8, 0.0), point_at(0.8, 1.1))
    assert math.isclose(got, frozen.CHORD_08_11, rel_tol=1e-13)


@given(dists, bearings, bearings)
@example(d=13.0, a=1e-05, b=0.0)  # far out, close bearings: the bilinear form lost 1e-6
def test_chord_formula_random(d, a, b):
    # acosh(cosh^2 d - sinh^2 d cos(a-b)) in its stable half-chord form
    got = dist(point_at(d, a), point_at(d, b))
    want = 2.0 * math.asinh(abs(math.sin(0.5 * (a - b))) * math.sinh(d))
    assert abs(got - want) <= 1e-9 * max(1.0, want)


def test_dist_symmetry_and_identity():
    p, q = point_at(1.2, 0.3), point_at(0.7, 2.0)
    assert dist(p, q) == dist(q, p)
    assert dist(p, p) == 0.0
    assert dist(p, q) > 0.0


def test_dist_rejects_off_sheet_points():
    with pytest.raises(InvalidPoint):
        dist(HPoint(1.5, 0.0, 0.0), ORIGIN)
    with pytest.raises(InvalidPoint):
        dist(ORIGIN, HPoint(-1.0, 0.0, 0.0))


def test_sheet_error_small_on_constructed_points():
    # tolerance scales with x0^2: the quadratic form's own ulp growth
    for d in (0.0, 1e-6, 0.5, 5.0, 15.0):
        p = point_at(d, 0.77)
        assert sheet_error(p) <= 1e-12 * max(1.0, p.x0 * p.x0)


def test_triangle_inequality_seeded():
    for i in range(2000):
        rng = trial_rng(0x7A1, i)
        d1, d2, d3 = rng.uniform(0.0, 6.0, size=3)
        a1, a2, a3 = rng.uniform(0.0, 2 * math.pi, size=3)
        p, q, r = point_at(d1, a1), point_at(d2, a2), point_at(d3, a3)
        assert dist(p, r) <= dist(p, q) + dist(q, r) + 1e-11


# embeddings

def test_embed_cyclic_structure():
    poly = CyclicPolygon.regular(6, 1.3)
    emb = embed(poly)
    assert emb.kind == "cyclic"
    assert len(emb.vertices) == 6
    assert dist(emb.center, ORIGIN) == 0.0
    radii = [dist(ORIGIN, v) for v in emb.vertices]
    chords = [dist(emb.vertices[i], emb.vertices[(i + 1) % 6]) for i in range(6)]
    assert max(radii) - min(radii) <= 1e-10
    assert max(chords) - min(chords) <= 1e-10


def test_embed_cyclic_chord_lengths():
    rng = trial_rng(0x7A3, 1)
    poly = random_cyclic_polygon(7, (0.3, 2.0), rng)
    emb = embed(poly)
    for i, theta in enumerate(poly.thetas):
        chord = dist(emb.vertices[i], emb.vertices[(i + 1) % poly.n])
        want = 2.0 * math.asinh(math.sin(0.5 * theta) * math.sinh(poly.R))
        assert math.isclose(chord, want, rel_tol=1e-10, abs_tol=1e-12)


def test_embed_tangential_vertex_distances():
    rng = trial_rng(0x7A4, 2)
    poly = random_tangential_polygon(5, (0.2, 1.0), rng)
    emb = embed(poly)
    for i, theta in enumerate(poly.thetas):
        b = tangential_tangent_length(theta, poly.r)
        want = math.acosh(math.cosh(poly.r) * math.cosh(b))
        assert math.isclose(dist(ORIGIN, emb.vertices[i]), want, rel_tol=1e-10)


def test_embed_tangential_side_decomposition():
    rng = trial_rng(0x7A5, 3)
    poly = random_tangential_polygon(6, (0.2, 1.1), rng)
    emb = embed(poly)
    n = poly.n
    for i in range(n):
        side = dist(emb.vertices[i], emb.vertices[(i + 1) % n])
        want = (tangential_tangent_length(poly.thetas[i], poly.r)
                + tangential_tangent_length(poly.thetas[(i + 1) % n], poly.r))
        assert math.isclose(side, want, rel_tol=1e-9, abs_tol=1e-11)


def _distance_to_geodesic(p, q):
    """Distance from the origin to the geodesic through p and q.

    The geodesic is the sheet cut by the plane through 0, p and q.  With
    w = p x q (the Euclidean cross product), sinh d = |w0| / sqrt(w1^2 + w2^2 - w0^2).
    """
    w0 = p.x1 * q.x2 - p.x2 * q.x1
    w1 = p.x2 * q.x0 - p.x0 * q.x2
    w2 = p.x0 * q.x1 - p.x1 * q.x0
    return math.asinh(abs(w0) / math.sqrt(w1 * w1 + w2 * w2 - w0 * w0))


def test_embed_tangential_incircle_tangency():
    # the perpendicular foot from the incenter to every side sits at distance r
    for poly in (
        TangentialPolygon.regular(6, 0.8),
        TangentialPolygon(6, 0.5, (1.2, 0.9, 1.1, 1.0, 1.05, 2 * math.pi - 5.25)),
    ):
        vs = embed(poly).vertices
        for i in range(poly.n):
            foot = _distance_to_geodesic(vs[i], vs[(i + 1) % poly.n])
            assert abs(foot - poly.r) <= 1e-9


def test_embed_dispatch():
    assert embed(CyclicPolygon.regular(4, 1.0)).kind == "cyclic"
    assert embed(TangentialPolygon.regular(4, 0.5)).kind == "tangential"


def test_measured_metrics_match_closed_forms():
    for i in range(200):
        rng = trial_rng(0x7A6, i)
        n = int(rng.integers(3, 13))
        if i % 2 == 0:
            poly = random_cyclic_polygon(n, (0.05, 3.0), rng)
        else:
            poly = random_tangential_polygon(n, (0.05, 3.0), rng)
        emb = embed(poly)
        assert abs(measured_perimeter(emb) - perimeter(poly)) <= 1e-9 * (1 + perimeter(poly))
        assert abs(measured_area(emb) - area(poly)) <= 1e-8
        got = measured_interior_angles(emb)
        want = interior_angles_rows(poly.kind, np.array([poly.radius]), np.array([poly.thetas]))[0]
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-8


def test_measured_area_regular_cross_check():
    poly = CyclicPolygon.regular(6, frozen.ASINH_2)
    assert abs(measured_area(embed(poly)) - frozen.HEX_R_ASINH2_area) <= 1e-9


def test_fan_triangle_area_bounds():
    # each fan triangle of a centered polygon has area in (0, pi)
    poly = CyclicPolygon.regular(3, 2.0)
    total = measured_area(embed(poly))
    assert 0.0 < total < 3 * math.pi


def _reference_area(poly) -> float:
    """Sum of sector areas at 40 digits from the polygon's own float data."""
    with mpmath.workdps(40):
        total = mpmath.mpf(0)
        for t in map(mpmath.mpf, poly.thetas):
            if isinstance(poly, CyclicPolygon):
                base = mpmath.acot(mpmath.cosh(poly.R) * mpmath.tan(t / 2))
            else:
                base = mpmath.acos(mpmath.sin(t / 2) * mpmath.cosh(poly.r))
            total += mpmath.pi - t - 2 * base
        return float(total)


@pytest.mark.parametrize("sampler, n, window", [
    (random_cyclic_polygon, 3, (1e-3, 1e-2)),
    (random_cyclic_polygon, 200, (1e-3, 1e-2)),
    (random_cyclic_polygon, 3, (8.0, 15.0)),
    (random_tangential_polygon, 3, (1e-3, 1e-2)),
    (random_tangential_polygon, 200, (1e-3, 1e-2)),
])
def test_measured_area_relative_precision(sampler, n, window):
    # tiny polygons and large circumradii, where formulas built on side
    # lengths lose most of the area's digits to cancellation
    for i in range(20):
        poly = sampler(n, window, trial_rng(0x7A7, i))
        want = _reference_area(poly)
        assert abs(measured_area(embed(poly)) - want) <= 1e-12 * want


def test_measurement_overflow_is_out_of_range():
    # x0^2 overflows past a radius of about 355, well below LEG_MAX
    emb = embed(CyclicPolygon.regular(3, 600.0))
    with pytest.raises(OutOfRange):
        measured_area(emb)
    with pytest.raises(OutOfRange):
        measured_perimeter(emb)


def _boost(p, s):
    """p moved by the hyperbolic translation of length s along the x1 axis."""
    return HPoint(math.cosh(s) * p.x0 + math.sinh(s) * p.x1, math.sinh(s) * p.x0 + math.cosh(s) * p.x1, p.x2)


@pytest.mark.parametrize("poly", [CyclicPolygon.regular(5, 0.7),
                                  TangentialPolygon(4, 0.4, (1.2, 1.9, 1.3, 2 * math.pi - 4.4))])
def test_measurements_are_invariant_under_isometries(poly):
    # translated by 1.5, the polygon is measured about its moved center;
    # the origin is now outside it, and a fan about it counts some area twice
    emb = embed(poly)
    moved = Embedding(_boost(emb.center, 1.5), tuple(_boost(v, 1.5) for v in emb.vertices), emb.kind)
    assert math.isclose(measured_area(moved), area(poly), rel_tol=1e-12)
    assert math.isclose(measured_perimeter(moved), perimeter(poly), rel_tol=1e-12)
    assert measured_area(Embedding(ORIGIN, moved.vertices, moved.kind)) > 1.1 * area(poly)


def test_measured_area_rejects_off_sheet_points():
    ring = embed(CyclicPolygon.regular(4, 1.0)).vertices
    with pytest.raises(InvalidPoint):
        measured_area(Embedding(HPoint(1.5, 0.0, 0.0), ring, "cyclic"))
    with pytest.raises(InvalidPoint):
        measured_area(Embedding(ORIGIN, ring[:3] + (HPoint(2.0, 0.0, 0.0),), "cyclic"))
