import math

import frozen
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypergon.errors import InvalidPoint
from hypergon.hmodel import (
    ORIGIN,
    HPoint,
    dist,
    embed,
    embed_cyclic,
    embed_tangential,
    geodesic_point,
    measured_area,
    measured_interior_angles,
    measured_perimeter,
    min_distance_from_origin,
    mink,
    point_at,
    sheet_error,
)
from hypergon.optimize import random_cyclic_polygon, random_tangential_polygon, trial_rng
from hypergon.polygon import (
    CyclicPolygon,
    TangentialPolygon,
    area,
    interior_angles,
    perimeter,
    tangential_tangent_length,
)

bearings = st.floats(min_value=-10.0, max_value=10.0)
dists = st.floats(min_value=0.0, max_value=15.0)


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


def test_mink_of_origin_pair():
    assert mink(ORIGIN, ORIGIN) == 1.0


def test_triangle_inequality_seeded():
    for i in range(2000):
        rng = trial_rng(0x7A1, i)
        d1, d2, d3 = rng.uniform(0.0, 6.0, size=3)
        a1, a2, a3 = rng.uniform(0.0, 2 * math.pi, size=3)
        p, q, r = point_at(d1, a1), point_at(d2, a2), point_at(d3, a3)
        assert dist(p, r) <= dist(p, q) + dist(q, r) + 1e-11


def test_geodesic_point_endpoints_and_midpoint():
    p, q = point_at(1.0, 0.2), point_at(2.0, 1.5)
    assert dist(geodesic_point(p, q, 0.0), p) <= 1e-12
    assert dist(geodesic_point(p, q, 1.0), q) <= 1e-12
    m = geodesic_point(p, q, 0.5)
    assert abs(dist(p, m) - dist(m, q)) <= 1e-11
    assert abs(dist(p, m) + dist(m, q) - dist(p, q)) <= 1e-11


# embeddings

def test_embed_cyclic_structure():
    poly = CyclicPolygon.regular(6, 1.3)
    emb = embed_cyclic(poly)
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
    emb = embed_cyclic(poly)
    for i, theta in enumerate(poly.thetas):
        chord = dist(emb.vertices[i], emb.vertices[(i + 1) % poly.n])
        want = 2.0 * math.asinh(math.sin(0.5 * theta) * math.sinh(poly.R))
        assert math.isclose(chord, want, rel_tol=1e-10, abs_tol=1e-12)


def test_embed_tangential_vertex_distances():
    rng = trial_rng(0x7A4, 2)
    poly = random_tangential_polygon(5, (0.2, 1.0), rng)
    emb = embed_tangential(poly)
    for i, theta in enumerate(poly.thetas):
        b = tangential_tangent_length(theta, poly.r)
        want = math.acosh(math.cosh(poly.r) * math.cosh(b))
        assert math.isclose(dist(ORIGIN, emb.vertices[i]), want, rel_tol=1e-10)


def test_embed_tangential_side_decomposition():
    rng = trial_rng(0x7A5, 3)
    poly = random_tangential_polygon(6, (0.2, 1.1), rng)
    emb = embed_tangential(poly)
    n = poly.n
    for i in range(n):
        side = dist(emb.vertices[i], emb.vertices[(i + 1) % n])
        want = (tangential_tangent_length(poly.thetas[i], poly.r)
                + tangential_tangent_length(poly.thetas[(i + 1) % n], poly.r))
        assert math.isclose(side, want, rel_tol=1e-9, abs_tol=1e-11)


def test_embed_tangential_incircle_tangency():
    # the perpendicular foot from the incenter to every side sits at distance r
    poly = TangentialPolygon.regular(6, 0.8)
    emb = embed_tangential(poly)
    for i in range(poly.n):
        foot = min_distance_from_origin(emb.vertices[i], emb.vertices[(i + 1) % poly.n])
        assert abs(foot - poly.r) <= 1e-9
    irregular = TangentialPolygon(6, 0.5, (1.2, 0.9, 1.1, 1.0, 1.05, 2 * math.pi - 5.25))
    emb = embed_tangential(irregular)
    for i in range(6):
        foot = min_distance_from_origin(emb.vertices[i], emb.vertices[(i + 1) % 6])
        assert abs(foot - irregular.r) <= 1e-9


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
        want = interior_angles(poly)
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-8


def test_measured_area_regular_cross_check():
    poly = CyclicPolygon.regular(6, frozen.ASINH_2)
    assert abs(measured_area(embed(poly)) - frozen.HEX_R_ASINH2_area) <= 1e-9


def test_fan_triangle_area_bounds():
    # each fan triangle of a centered polygon has area in (0, pi)
    poly = CyclicPolygon.regular(3, 2.0)
    total = measured_area(embed(poly))
    assert 0.0 < total < 3 * math.pi
