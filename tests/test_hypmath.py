import math

import frozen
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypergon.errors import AmbiguousInput, DegenerateTriangle, Infeasible, OutOfRange
from hypergon.hypmath import (
    LEG_MAX,
    RegularNGonSpec,
    acos_snapped,
    acosh1p,
    angle_from_sides,
    coshm1,
    hyp_hypotenuse,
    regular_convert,
    stable_asinh,
    stable_atanh,
    tangential_radius_limit,
)

lengths = st.floats(min_value=1e-3, max_value=20.0)


# stable scalar kernels

def test_acosh1p_matches_acosh():
    for t in (0.5, 3.0, 1e6):
        assert math.isclose(acosh1p(t), math.acosh(1.0 + t), rel_tol=1e-14)
    assert acosh1p(0.0) == 0.0


def test_acosh1p_small_argument_precision():
    # acosh(1+t) = sqrt(2t) (1 - t/12 + O(t^2)); the naive form loses
    # everything here because 1 + t rounds to 1
    for t in (1e-20, 1e-12, 1e-9):
        want = math.sqrt(2.0 * t) * (1.0 - t / 12.0)
        assert math.isclose(acosh1p(t), want, rel_tol=1e-12)


def test_coshm1_small_argument():
    x = 1e-8
    assert math.isclose(coshm1(x), 0.5 * x * x, rel_tol=1e-12)
    assert coshm1(0.0) == 0.0
    assert math.isclose(coshm1(3.0), math.cosh(3.0) - 1.0, rel_tol=1e-15)


@given(st.floats(min_value=-1e8, max_value=1e8))
def test_stable_asinh_is_odd(x):
    assert stable_asinh(-x) == -stable_asinh(x)


def test_stable_atanh_anchor():
    assert math.isclose(stable_atanh(0.5), frozen.ATANH_HALF, rel_tol=1e-15)
    x = 1e-12
    assert math.isclose(stable_atanh(x), x, rel_tol=1e-13)


def test_acos_snapped_branch_window():
    assert acos_snapped(1.0) == 0.0
    assert acos_snapped(1.0 + 5e-15) == 0.0
    assert acos_snapped(-1.0) == math.pi
    with pytest.raises(OutOfRange):
        acos_snapped(1.0 + 1e-9)
    with pytest.raises(OutOfRange):
        acos_snapped(-1.1)
    assert math.isclose(acos_snapped(0.5), math.pi / 3.0, rel_tol=1e-15)


# hypotenuse

def test_hyp_hypotenuse_degenerate_legs():
    assert hyp_hypotenuse(0.0, 0.0) == 0.0
    assert math.isclose(hyp_hypotenuse(1.3, 0.0), 1.3, rel_tol=1e-15)
    assert math.isclose(hyp_hypotenuse(0.0, 2.1), 2.1, rel_tol=1e-15)


def test_hyp_hypotenuse_product_anchor():
    got = hyp_hypotenuse(frozen.ACOSH_2, frozen.ACOSH_3)
    assert math.isclose(got, frozen.ACOSH_6, rel_tol=1e-14)


def test_hyp_hypotenuse_log_branch():
    assert math.isclose(hyp_hypotenuse(25.0, 25.0), frozen.HYP_25_25, rel_tol=1e-14)
    assert math.isclose(hyp_hypotenuse(300.0, 250.0), frozen.HYP_300_250, rel_tol=1e-14)
    with pytest.raises(OutOfRange):
        hyp_hypotenuse(LEG_MAX + 1.0, 1.0)
    with pytest.raises(OutOfRange):
        hyp_hypotenuse(1.0, -0.5)


@given(lengths, lengths)
def test_hyp_hypotenuse_dominates_legs(b, c):
    a = hyp_hypotenuse(b, c)
    assert a >= max(b, c)


# law of cosines

def test_angle_from_sides_equilateral():
    s = 1.7
    c = angle_from_sides(s, s, s)
    assert 0.0 < c < math.pi / 3.0  # hyperbolic angles are thinner than Euclidean
    assert math.isclose(angle_from_sides(s, s, s), c, rel_tol=1e-15)


@given(st.floats(min_value=0.05, max_value=20.0), st.floats(min_value=0.05, max_value=20.0))
def test_angle_from_sides_right_angle(b, c):
    a = hyp_hypotenuse(b, c)
    assert abs(angle_from_sides(b, c, a) - math.pi / 2.0) <= 1e-10


def test_angle_from_sides_right_angle_small_legs():
    # cancellation limits the recoverable angle accuracy for tiny triangles
    a = hyp_hypotenuse(1e-3, 1e-3)
    assert abs(angle_from_sides(1e-3, 1e-3, a) - math.pi / 2.0) <= 1e-8


def test_angle_from_sides_recovers_solved_angles():
    # frozen.TRI_A/B/C: hypotenuse a and acute angles B, C of the right
    # triangle with legs b = 1.25, c = 0.75
    b, c = 1.25, 0.75
    assert math.isclose(hyp_hypotenuse(b, c), frozen.TRI_A, rel_tol=1e-14)
    # B is opposite side b, between sides c and a
    assert abs(angle_from_sides(c, frozen.TRI_A, b) - frozen.TRI_B) <= 1e-10
    assert abs(angle_from_sides(b, frozen.TRI_A, c) - frozen.TRI_C) <= 1e-10


def test_angle_from_sides_rejects_degenerate():
    with pytest.raises(DegenerateTriangle):
        angle_from_sides(0.0, 1.0, 1.0)
    with pytest.raises(DegenerateTriangle):
        angle_from_sides(0.1, 0.1, 3.0)


# regular polygon conversions

def test_regular_convert_hexagon_anchor():
    m = regular_convert(RegularNGonSpec(n=6, R=frozen.ASINH_2))
    assert math.isclose(m.side, 2.0 * frozen.ASINH_1, rel_tol=1e-13)
    assert math.isclose(m.perimeter, frozen.TWELVE_LN_SILVER, rel_tol=1e-13)
    assert math.isclose(m.r, frozen.HEX_R_ASINH2_r, rel_tol=1e-13)
    assert math.isclose(m.theta, frozen.HEX_R_ASINH2_theta, rel_tol=1e-13)
    assert math.isclose(m.area, frozen.HEX_R_ASINH2_area, rel_tol=1e-12)


def test_regular_convert_square_inradius_anchor():
    m = regular_convert(RegularNGonSpec(n=4, r=stable_asinh(0.5)))
    assert math.isclose(m.perimeter, frozen.FOUR_LN3, rel_tol=1e-13)


def test_regular_convert_euclidean_degenerate_corner():
    # size collapses like sqrt of the angle gap as theta -> pi/2 at n=4
    near = regular_convert(RegularNGonSpec(n=4, theta=0.5 * math.pi - 1e-7))
    nearer = regular_convert(RegularNGonSpec(n=4, theta=0.5 * math.pi - 1e-11))
    assert 0.0 < near.perimeter < 1e-2 and 0.0 < near.area < 1e-5
    assert nearer.perimeter < 1.01e-2 * near.perimeter
    assert nearer.area < 1e-3 * near.area


@given(st.integers(min_value=3, max_value=12), st.floats(min_value=0.05, max_value=5.0))
def test_regular_convert_round_trips(n, R):
    m = regular_convert(RegularNGonSpec(n=n, R=R))
    for spec in (
        RegularNGonSpec(n=n, r=m.r),
        RegularNGonSpec(n=n, theta=m.theta),
        RegularNGonSpec(n=n, side=m.side),
    ):
        back = regular_convert(spec)
        assert math.isclose(back.R, R, rel_tol=1e-12, abs_tol=1e-14)
        assert math.isclose(back.perimeter, m.perimeter, rel_tol=1e-12)
        assert math.isclose(back.area, m.area, rel_tol=1e-11, abs_tol=1e-13)


def test_regular_convert_euclidean_limit():
    n, R = 6, 1e-4
    m = regular_convert(RegularNGonSpec(n=n, R=R))
    assert math.isclose(m.perimeter, 2 * n * math.sin(math.pi / n) * R, rel_tol=1e-5)
    assert math.isclose(m.area, n * math.sin(math.pi / n) * math.cos(math.pi / n) * R * R, rel_tol=1e-5)


def test_regular_convert_monotone_in_R():
    last_p, last_a = 0.0, 0.0
    for i in range(1, 51):
        m = regular_convert(RegularNGonSpec(n=5, R=0.1 * i))
        assert m.perimeter > last_p and m.area > last_a
        last_p, last_a = m.perimeter, m.area


def test_regular_convert_rejects_bad_specs():
    with pytest.raises(AmbiguousInput):
        regular_convert(RegularNGonSpec(n=6))
    with pytest.raises(AmbiguousInput):
        regular_convert(RegularNGonSpec(n=6, R=1.0, r=0.5))
    with pytest.raises(Infeasible):
        regular_convert(RegularNGonSpec(n=2, R=1.0))
    with pytest.raises(Infeasible):
        regular_convert(RegularNGonSpec(n=4, theta=0.5 * math.pi))
    with pytest.raises(Infeasible):
        regular_convert(RegularNGonSpec(n=6, r=frozen.RMAX_6 + 0.1))
    for theta in (5e-324, 1e-320, 1e-309):  # the circumradius would pass LEG_MAX
        with pytest.raises(OutOfRange):
            regular_convert(RegularNGonSpec(n=6, theta=theta))


def test_tangential_radius_limit_values():
    assert math.isclose(tangential_radius_limit(3), frozen.RMAX_3, rel_tol=1e-15)
    assert math.isclose(tangential_radius_limit(4), frozen.RMAX_4, rel_tol=1e-15)
    assert math.isclose(tangential_radius_limit(6), frozen.RMAX_6, rel_tol=1e-15)
    assert math.isclose(tangential_radius_limit(12), frozen.RMAX_12, rel_tol=1e-15)
