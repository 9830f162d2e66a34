import math

import frozen
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypergon.errors import IdealVertex, Infeasible, OutOfRange
from hypergon.hypmath import LEG_MAX, RegularNGonSpec, regular_convert, tangential_radius_limit
from hypergon.optimize import random_cyclic_polygon, random_tangential_polygon, trial_rng
from hypergon.polygon import (
    ACCEPTED,
    IDEAL,
    INVALID,
    PARTITION_TOL,
    TWO_PI,
    CyclicPolygon,
    TangentialPolygon,
    area,
    cyclic_half_angle,
    cyclic_half_side,
    interior_angles_rows,
    perimeter,
    tangential_interior_angle,
    tangential_tangent_length,
    validate_rows,
)


def interior_angles(p):
    """The interior angles of p, from a one-row interior_angles_rows call."""
    return interior_angles_rows(p.kind, np.array([p.radius]), np.array([p.thetas]))[0].tolist()


def second_difference(f, x, h):
    return (f(x - h) - 2.0 * f(x) + f(x + h)) / (h * h)


# sector functions

def test_cyclic_half_side_anchor():
    got = cyclic_half_side(math.pi / 3.0, frozen.ASINH_2)
    assert math.isclose(got, frozen.ASINH_1, rel_tol=1e-14)
    assert cyclic_half_side(1e-12, 1.0) <= 1e-12


def test_cyclic_half_side_concave():
    for R in (0.5, 1.0, 2.0):
        for j in range(1, 100):
            theta = math.pi * j / 100.0
            assert second_difference(lambda t: cyclic_half_side(t, R), theta, 1e-4) < 0.0


def test_tangential_tangent_length_anchor():
    got = tangential_tangent_length(math.pi / 2.0, math.asinh(0.5))
    assert math.isclose(got, frozen.ATANH_HALF, rel_tol=1e-14)


def test_tangential_tangent_length_convex_and_guarded():
    r = 0.4
    theta_max = 2.0 * math.atan2(1.0, math.sinh(r))
    for j in range(1, 60):
        theta = theta_max * j / 61.0
        assert second_difference(lambda t: tangential_tangent_length(t, r), theta, 1e-5) > 0.0
    with pytest.raises(IdealVertex):
        tangential_tangent_length(theta_max + 0.01, r)


def test_cyclic_half_angle_euclidean_limit():
    # R = 0 collapses to the isoceles base angle (pi - theta) / 2
    assert math.isclose(cyclic_half_angle(math.pi / 2.0, 0.0), math.pi / 4.0, rel_tol=1e-14)
    for theta in (0.3, 1.0, 2.5):
        assert math.isclose(cyclic_half_angle(theta, 0.0), 0.5 * (math.pi - theta), rel_tol=1e-13)


def test_cyclic_half_angle_convex_in_theta():
    # second derivative is cosh R t t' (cosh^2 R - 1) / (1 + cosh^2 R t^2)^2
    # with t = tan(theta/2): strictly positive for R > 0
    for R in (0.5, 1.0, 2.0):
        for j in range(1, 100):
            theta = math.pi * j / 100.0
            assert second_difference(lambda t: cyclic_half_angle(t, R), theta, 1e-4) > 0.0


def test_cyclic_half_angle_decreasing():
    vals = [cyclic_half_angle(0.2 + 0.1 * j, 1.3) for j in range(25)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_tangential_interior_angle_anchor_and_boundary():
    # r -> 0 gives the Euclidean pi - theta
    assert math.isclose(tangential_interior_angle(1.0, 1e-13), math.pi - 1.0, rel_tol=1e-10)
    # sin(pi/6) cosh(acosh 2) = 1 is the ideal-vertex boundary: angle 0
    assert tangential_interior_angle(math.pi / 3.0, frozen.ACOSH_2) == 0.0
    with pytest.raises(IdealVertex):
        tangential_interior_angle(math.pi / 3.0 + 1e-3, frozen.ACOSH_2)


def test_tangential_interior_angle_concave():
    r = 0.6
    theta_max = 2.0 * math.asin(min(1.0, 1.0 / math.cosh(r)))
    for j in range(2, 58):
        theta = theta_max * j / 60.0
        assert second_difference(lambda t: tangential_interior_angle(t, r), theta, 1e-5) < 0.0


def test_sector_functions_reject_bad_arguments():
    with pytest.raises(Infeasible):
        cyclic_half_side(0.0, 1.0)
    with pytest.raises(Infeasible):
        cyclic_half_side(math.pi, 1.0)
    with pytest.raises(Infeasible):
        cyclic_half_angle(1.0, -0.1)


# constructors

def test_partition_renormalizes_tiny_drift():
    base = TWO_PI / 5.0
    thetas = [base, base, base, base, base + 5e-11]
    p = CyclicPolygon(5, 1.0, thetas)
    assert abs(math.fsum(p.thetas) - TWO_PI) <= 1e-14
    with pytest.raises(Infeasible):
        CyclicPolygon(5, 1.0, [base, base, base, base, base + 1e-6])


def test_partition_bad_shapes():
    with pytest.raises(Infeasible):
        CyclicPolygon(3, 1.0, [math.pi, math.pi / 2, math.pi / 2])  # theta = pi
    with pytest.raises(Infeasible):
        CyclicPolygon(4, 1.0, [1.0, 1.0, 1.0])  # wrong count
    with pytest.raises(Infeasible):
        CyclicPolygon(2, 1.0, [math.pi, math.pi])
    with pytest.raises(Infeasible):
        CyclicPolygon(3, 0.0, [TWO_PI / 3] * 3)
    with pytest.raises(Infeasible):
        TangentialPolygon(3, -1.0, [TWO_PI / 3] * 3)


def test_tangential_ideal_vertex_guard():
    # regular triangle at the inradius limit has tan(pi/3) sinh r = 1
    r = tangential_radius_limit(3)
    with pytest.raises(IdealVertex):
        TangentialPolygon.regular(3, r)
    p = TangentialPolygon.regular(3, 0.999 * r)
    assert p.thetas == (TWO_PI / 3,) * 3


def constructor_verdicts(n, radii, ts):
    """Per row, whether TangentialPolygon(n, r, thetas) raises IdealVertex."""
    out = []
    for r, thetas in zip(radii.tolist(), ts.tolist()):
        try:
            TangentialPolygon(n, r, thetas)
        except IdealVertex:
            out.append(True)
        else:
            out.append(False)
    return out


def test_constructor_rejects_exactly_the_rows_validate_rows_marks_ideal():
    # one rule decides an ideal vertex, tan(theta/2)*sinh r >= 1: the
    # constructor and the block draws must agree on the boundary itself.
    # The regular n-gon at tangential_radius_limit(n) sits on it (a math
    # evaluation keeps the 8-gon there that numpy calls ideal), and so do
    # the random partitions below, each at the inradius that puts its widest
    # sector's vertex at infinity, moved by -3 .. 3 ulp
    for n in range(3, 13):
        r = np.array([tangential_radius_limit(n)])
        ts = np.full((1, n), TWO_PI / n)
        _, status, _ = validate_rows("tangential", r, ts)
        assert status[0] in (ACCEPTED, IDEAL)
        assert constructor_verdicts(n, r, ts) == [status[0] == IDEAL], n
    rng = np.random.default_rng(0x1DEA1)
    seen = np.zeros(2, dtype=int)
    for n in range(3, 13):
        u = rng.uniform(0.1, 1.0, (2000, n))
        u = u[2.0 * u.max(axis=1) < u.sum(axis=1)][:1000]
        ts = u * (TWO_PI / u.sum(axis=1))[:, None]
        radii = np.arcsinh(1.0 / np.tan(0.5 * ts.max(axis=1)))
        for _ in range(3):
            step = rng.integers(-1, 2, len(radii))
            radii = np.where(step > 0, np.nextafter(radii, np.inf), np.where(step < 0, np.nextafter(radii, 0), radii))
        scaled, status, error = validate_rows("tangential", radii, ts)
        assert set(status.tolist()) <= {ACCEPTED, IDEAL}
        ideal = status == IDEAL
        assert ideal.tolist() == (np.tan(0.5 * scaled) * np.sinh(radii)[:, None] >= 1.0).any(axis=1).tolist()
        assert constructor_verdicts(n, radii, ts) == ideal.tolist(), n
        seen += np.bincount(ideal, minlength=2)
        j = int(np.argmax(ideal))
        assert isinstance(error(j), IdealVertex) and error(int(np.argmin(ideal))) is None
    assert seen.sum() == 10_000 and seen.min() > 1000


def test_validate_rows_raises_what_the_constructors_raised():
    base = [TWO_PI / 3] * 3
    cases = [
        ("cyclic", 0.0, base, Infeasible, "circumradius must be positive, got 0.0"),
        ("tangential", -1.0, base, Infeasible, "inradius must be positive, got -1.0"),
        ("cyclic", math.nan, base, Infeasible, "circumradius must be positive, got nan"),
        ("cyclic", 1e9, base, OutOfRange, f"radius 1000000000.0 beyond {LEG_MAX}; cosh would overflow"),
        ("cyclic", 1.0, [1.0, 1.0, 1.0], Infeasible, "sector angles sum to 3.0, not 2*pi"),
        ("cyclic", 1.0, [math.pi, math.pi / 2, math.pi / 2], Infeasible, f"sector angle {math.pi!r} outside (0, pi)"),
        ("tangential", 1.0, base, IdealVertex,
         f"sector angle {TWO_PI / 3!r} with inradius 1.0 has an ideal vertex"),
    ]
    for kind, radius, thetas, error_type, message in cases:
        ts, status, error = validate_rows(kind, np.array([radius]), np.array([thetas]))
        assert status[0] == (IDEAL if error_type is IdealVertex else INVALID)
        assert type(error(0)) is error_type and str(error(0)) == message
        family = CyclicPolygon if kind == "cyclic" else TangentialPolygon
        with pytest.raises(error_type) as raised:
            family(3, radius, thetas)
        assert str(raised.value) == message


def test_validate_rows_decides_padded_rows_as_their_own_n():
    # rows of 3 .. 12 apex angles, zero-padded to 12, decided in one call
    # as each row is alone: the scaled angles, the status and the error,
    # for accepted, ideal and invalid rows.  Faults by j % 6: a radius of 0,
    # a radius beyond LEG_MAX, a sum off 2*pi, an angle of pi, none, none
    rng = np.random.default_rng(0x9AD)
    sizes = np.repeat(np.arange(3, 13), 30)
    radii = rng.uniform(0.05, 2.0, len(sizes))
    rows = [u * (TWO_PI / u.sum()) for u in (rng.uniform(0.1, 1.0, n) for n in sizes)]
    for j, row in enumerate(rows):
        fault = j % 6
        if fault == 0:
            radii[j] = 0.0
        elif fault == 1:
            radii[j] = 2.0 * LEG_MAX
        elif fault == 2:
            row *= 1.01
        elif fault == 3:
            row[1:] *= math.pi / row[1:].sum()
            row[0] = math.pi
    padded = np.zeros((len(rows), 12))
    for j, row in enumerate(rows):
        padded[j, :len(row)] = row
    for kind in ("cyclic", "tangential"):
        ts, status, error = validate_rows(kind, radii, padded, sizes)
        assert not ts[np.arange(12) >= sizes[:, None]].any()
        for j, row in enumerate(rows):
            one_ts, one_status, one_error = validate_rows(kind, radii[j:j + 1], row[None])
            assert status[j] == one_status[0]
            assert [x.hex() for x in ts[j, :len(row)].tolist()] == [x.hex() for x in one_ts[0].tolist()]
            assert type(error(j)) is type(one_error(0)) and str(error(j)) == str(one_error(0))
        assert set(status.tolist()) == ({ACCEPTED, IDEAL, INVALID} if kind == "tangential" else {ACCEPTED, INVALID})


# metrics

def test_regular_metrics_match_regular_convert():
    for n, R in ((3, 0.4), (6, 1.2), (9, 2.5)):
        p = CyclicPolygon.regular(n, R)
        m = regular_convert(RegularNGonSpec(n=n, R=R))
        assert math.isclose(perimeter(p), m.perimeter, rel_tol=1e-11)
        assert math.isclose(area(p), m.area, rel_tol=1e-11, abs_tol=1e-13)
        assert max(abs(a - m.theta) for a in interior_angles(p)) <= 1e-11
    for n, r in ((4, 0.5), (7, 0.9)):
        p = TangentialPolygon.regular(n, r)
        m = regular_convert(RegularNGonSpec(n=n, r=r))
        assert math.isclose(perimeter(p), m.perimeter, rel_tol=1e-11)
        assert math.isclose(area(p), m.area, rel_tol=1e-11, abs_tol=1e-13)


def test_cyclic_vertex_angle_convention():
    p = CyclicPolygon(4, 1.1, [1.2, 1.9, 1.4, TWO_PI - 4.5])
    halves = [cyclic_half_angle(t, p.R) for t in p.thetas]
    angles = interior_angles(p)
    for i in range(4):
        assert math.isclose(angles[i], halves[i - 1] + halves[i], rel_tol=1e-15)
    assert math.isclose(area(p), 2 * math.pi - math.fsum(angles), rel_tol=1e-13)


def test_area_positive_on_random_polygons():
    for i in range(300):
        rng = trial_rng(0x90, i)
        n = int(rng.integers(3, 13))
        poly = (random_cyclic_polygon if i % 2 else random_tangential_polygon)(n, (0.05, 3.0), rng)
        assert area(poly) > 0.0


# bound properties on random polygons

@given(st.integers(min_value=3, max_value=12), st.integers(min_value=0, max_value=10 ** 9))
def test_cyclic_bounds_hold(n, idx):
    rng = trial_rng(0x91, idx)
    p = random_cyclic_polygon(n, (0.05, 3.0), rng)
    sn = math.sin(math.pi / n)
    tn = math.tan(math.pi / n)
    assert perimeter(p) <= 2 * n * math.asinh(sn * math.sinh(p.R)) + 1e-12
    upper = (n - 2) * math.pi - 2 * n * math.atan2(1.0, tn * math.cosh(p.R))
    assert area(p) <= upper + 1e-12


@given(st.integers(min_value=3, max_value=12), st.integers(min_value=0, max_value=10 ** 9))
def test_tangential_bounds_hold(n, idx):
    rng = trial_rng(0x92, idx)
    p = random_tangential_polygon(n, (0.05, 3.0), rng)
    tn = math.tan(math.pi / n)
    sn = math.sin(math.pi / n)
    assert perimeter(p) >= 2 * n * math.atanh(min(1.0 - 1e-16, tn * math.sinh(p.r))) - 1e-12
    arg = sn * math.cosh(p.r)
    if arg <= 1.0:
        lower = (n - 2) * math.pi - 2 * n * math.acos(arg)
        assert area(p) >= lower - 1e-12


def test_inequality_margin_grows_with_deviation():
    # push one pair of angles apart symmetrically and watch the slack widen
    n, R = 6, 1.2
    bound = 2 * n * math.asinh(math.sin(math.pi / n) * math.sinh(R))
    last = -1.0
    for d in (0.0, 0.05, 0.1, 0.2, 0.4, 0.8):
        thetas = [TWO_PI / n + d, TWO_PI / n - d] + [TWO_PI / n] * (n - 2)
        margin = bound - perimeter(CyclicPolygon(n, R, thetas))
        assert margin > last
        last = margin
    assert last > 1e-3  # clearly strict once the deviation is macroscopic

