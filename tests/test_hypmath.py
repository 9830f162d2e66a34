import math
import re

import frozen
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hypergon import optimize, polygon
from hypergon.errors import AmbiguousInput, DegenerateTriangle, Infeasible, OutOfRange
from hypergon.hypmath import (
    _FSUM_ABS_MAX,
    LEG_MAX,
    RegularNGonSpec,
    acos_snapped,
    acosh1p,
    angle_from_sides,
    coshm1,
    fsum_rows,
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


# correctly rounded row sums


def fsum_each(rows: np.ndarray) -> list[str]:
    """math.fsum of every row, as float.hex, which tells -0.0 from 0.0."""
    return [math.fsum(row).hex() for row in rows.tolist()]


def fsum_rows_counted(monkeypatch, rows: np.ndarray) -> tuple[list[str], int]:
    """fsum_rows(rows) as float.hex, and the number of rows it left to math.fsum."""
    calls = []
    fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda row: calls.append(row) or fsum(row))
    got = fsum_rows(rows)
    monkeypatch.undo()
    return [x.hex() for x in got.tolist()], len(calls)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 12, 64, 192])
def test_fsum_rows_decides_uniform_rows_alone(monkeypatch, n):
    # at n = 2-3 the two-level sum s + e is a tie of the first level more
    # than a quarter of the time; the second level settles every such row
    rows = np.random.default_rng(n).uniform(0.1, 1.0, (6000 // n + 1, n))
    assert fsum_rows_counted(monkeypatch, rows) == (fsum_each(rows), 0)


def test_fsum_rows_cancellation_to_zero(monkeypatch):
    rng = np.random.default_rng(1)
    for n in (1, 2, 3, 6, 11):
        x = rng.uniform(-1.0, 1.0, (500, n)) * 10.0 ** rng.integers(-300, 300, (500, n))
        rows = rng.permuted(np.concatenate([x, -x], axis=1), axis=1)
        # the gap at 0 is 2**-1074, so a row whose second level has an
        # error left may be undecided, and is left to math.fsum
        assert fsum_rows_counted(monkeypatch, rows)[0] == fsum_each(rows) == [(0.0).hex()] * len(rows)
    # -0.0 sums to +0.0 as with math.fsum, and x - x + tiny to the tiny
    for n in (1, 2, 3, 5):
        rows = np.array([[-0.0] * n, [0.0] * n, ([-0.0, 0.0] * n)[:n]])
        assert fsum_rows_counted(monkeypatch, rows)[0] == fsum_each(rows) == [(0.0).hex()] * 3
    rows = np.array([[1e300, 5e-324, -1e300], [-0.0, -1e-310, 1e-310], [0.1, 0.2, -0.30000000000000004]])
    assert fsum_rows_counted(monkeypatch, rows)[0] == fsum_each(rows)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 40])
def test_fsum_rows_mixed_signs_and_magnitudes(monkeypatch, n):
    rng = np.random.default_rng(n)
    for exponents in ((-300, 300), (-20, 20), (-1, 2)):
        rows = rng.uniform(-1.0, 1.0, (2000, n)) * 10.0 ** rng.integers(*exponents, (2000, n))
        got, fallbacks = fsum_rows_counted(monkeypatch, rows)
        assert got == fsum_each(rows)
        assert fallbacks <= len(rows) // 100
    # dyadic rows whose exact sums land on, next to and between ties
    rows = np.round(rng.uniform(-1.0, 1.0, (4000, n)) * 8.0) * 2.0 ** rng.integers(-3, 60, (4000, n))
    assert fsum_rows_counted(monkeypatch, rows)[0] == fsum_each(rows)


def test_fsum_rows_ties_and_near_ties(monkeypatch):
    u = 2.0 ** -53  # half the gap above 1
    rows = [
        [1.0, u],  # a tie: to even, 1
        [1.0 + 2 * u, u],  # a tie: to even, 1 + 4u
        [1.0, u, u * u],  # just above the tie: 1 + 2u
        [1.0, u, -u * u],  # just below: 1
        [1.0, u, 0.5 * u * u, 0.5 * u * u],  # above, by two halves the first level rounds away
        [1.0, u * u, u, -u * u],  # the tie, once the tails cancel
        [1e-16, 1.0, 1e16],  # math.fsum's own half-even example
        [1.0, 2.0 ** -60, 2.0 ** -120],  # far from a tie: settled by the error bound
    ]
    rows = np.array([row + [0.0] * (4 - len(row)) for row in rows])
    got, fallbacks = fsum_rows_counted(monkeypatch, rows)
    assert got == fsum_each(rows)
    assert got[:6] == [x.hex() for x in (1.0, 1.0 + 4 * u, 1.0 + 2 * u, 1.0, 1.0 + 2 * u, 1.0)]
    assert 0 < fallbacks < len(rows)


def test_fsum_rows_subnormals(monkeypatch):
    rng = np.random.default_rng(3)
    for scale in (2.0 ** -1074, 2.0 ** -1060, 2.0 ** -1022):
        rows = np.round(rng.uniform(-1e6, 1e6, (1000, 7))) * scale
        got, fallbacks = fsum_rows_counted(monkeypatch, rows)
        assert got == fsum_each(rows)
        assert fallbacks == 0
    rows = np.concatenate([rng.uniform(-1.0, 1.0, (1000, 3)), np.full((1000, 2), 5e-324)], axis=1)
    assert fsum_rows_counted(monkeypatch, rows)[0] == fsum_each(rows)


def test_fsum_rows_zero_and_one_columns(monkeypatch):
    assert fsum_rows(np.empty((3, 0))).tolist() == [0.0, 0.0, 0.0]
    assert fsum_rows(np.empty((0, 4))).shape == (0,)
    rows = np.array([[2.5], [-0.0], [5e-324], [-1e308]])
    # a magnitude above 2**1020 / columns is left to math.fsum
    assert fsum_rows_counted(monkeypatch, rows) == (fsum_each(rows), 1)


@pytest.mark.parametrize("row, error", [
    ([1.0, math.inf, -math.inf], ValueError),  # -inf + inf in fsum
    ([1e308, 1e308, -1e308], OverflowError),  # intermediate overflow in fsum
    ([8e307, 8e307, 8e307, -1e308], OverflowError),  # overflows only left to right
])
def test_fsum_rows_raises_as_fsum(row, error):
    rows = np.array([[1.0] * len(row), row, [math.nan] * len(row)])
    with pytest.raises(error) as expected:
        math.fsum(row)
    with pytest.raises(error, match=f"^{re.escape(str(expected.value))}$"):
        fsum_rows(rows)


def test_fsum_rows_non_finite_rows_fall_back(monkeypatch):
    rows = np.array([[1.0, math.inf, 2.0], [math.nan, 1.0, 1.0], [-math.inf, 0.0, 0.0], [1e308, -1e308, 1.0], [1.0, 2.0, 3.0]])
    got, fallbacks = fsum_rows_counted(monkeypatch, rows)
    assert got == fsum_each(rows)
    assert fallbacks == 4


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cols=st.integers(1, 260), rows=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1),
       lo=st.integers(-1100, 1000), span=st.integers(0, 2100), signs=st.sampled_from(["+", "-", "+-"]),
       zeros=st.floats(0.0, 1.0), cancel=st.booleans())
def test_fsum_rows_is_fsum_over_the_double_range(monkeypatch, cols, rows, seed, lo, span, signs, zeros, cancel):
    # random magnitudes with exponents in [lo, lo + span] clipped to the
    # doubles below 2**1000 (subnormals and underflow to 0 included), some
    # zeros of either sign, and rows that cancel exactly
    rng = np.random.default_rng(seed)
    half = cols // 2 if cancel else cols
    exponents = rng.integers(lo, min(lo + span, 1000) + 1, (rows, half))
    x = np.ldexp(rng.uniform(0.5, 1.0, (rows, half)), exponents)
    if signs != "+":
        x = -x if signs == "-" else np.where(rng.random((rows, half)) < 0.5, -x, x)
    x = np.where(rng.random((rows, half)) < zeros, np.where(rng.random((rows, half)) < 0.5, -0.0, 0.0), x)
    if cancel:
        x = rng.permuted(np.concatenate([x, -x, np.zeros((rows, cols % 2))], axis=1), axis=1)
    got, fallbacks = fsum_rows_counted(monkeypatch, x)
    assert got == fsum_each(x)
    if span <= 32:
        # magnitudes within 2**33 of the row's largest leave no residual
        # after the two extractions (2**M <= 512), so the row is exact; with
        # a wider span, s + e of the larger values can land on a tie that
        # the residuals break, and the row is left to math.fsum
        assert fallbacks == 0


@pytest.mark.parametrize("cols", [1, 2, 3, 192])
def test_fsum_rows_at_the_cap(monkeypatch, cols):
    top = _FSUM_ABS_MAX / cols
    rng = np.random.default_rng(cols)
    rows = np.stack([
        np.full(cols, top), np.full(cols, -top),
        top * np.where(np.arange(cols) % 2, -1.0, 1.0),
        np.concatenate([[top], rng.uniform(-1.0, 1.0, cols - 1) * top]),
        np.concatenate([[-top], np.ldexp(rng.uniform(-1.0, 1.0, cols - 1), rng.integers(-1074, 1000, cols - 1))]),
    ])
    with np.errstate(over="raise", invalid="raise"):
        assert fsum_rows_counted(monkeypatch, rows) == (fsum_each(rows), 0)
    # one value a float above the cap sends its row, and only its row, to math.fsum
    above = np.nextafter(top, math.inf)
    for j in range(len(rows)):
        bumped = rows.copy()
        bumped[j, rng.integers(cols)] = above if j % 2 == 0 else -above
        with np.errstate(over="raise", invalid="raise"):
            assert fsum_rows_counted(monkeypatch, bumped) == (fsum_each(bumped), 1)


def test_fsum_rows_decides_production_rows_alone(monkeypatch):
    # every row sum the draws and the equal-split scan ask for is decided
    # without math.fsum: the normalized partitions of polygon_blocks at
    # n = 3, 12 and 192, and the bit-term sums of a k = 3000 scan
    seen = []
    fsum = polygon.fsum_rows
    for module in (polygon, optimize):
        monkeypatch.setattr(module, "fsum_rows", lambda a: seen.append(a.copy()) or fsum(a))
    for kind in ("cyclic", "tangential"):
        for n, count in ((3, 2000), (12, 1500), (192, 300)):
            lo, hi = optimize._radius_window(kind, n, (1e-3, 15.0))
            for _ in optimize.polygon_blocks(kind, n, lo, hi, 0x15090001, np.arange(count)):
                pass
    draws = len(seen)
    optimize.solve_equal_sum(optimize.make_problem("thm7_radius", k=3000, n=6))
    monkeypatch.undo()
    assert draws >= 6 and len(seen) > draws
    shapes = {a.shape[1] for a in seen}
    assert {3, 12, 192} <= shapes and max(shapes) > 12
    for rows in seen:
        assert fsum_rows_counted(monkeypatch, rows)[1] == 0


@pytest.mark.parametrize("cols", [2, 3, 4, 5, 6, 7, 8, 14, 30, 62, 64, 126, 192, 254])
def test_fsum_rows_rows_of_one_sign_near_their_largest(monkeypatch, cols):
    # sums close to cols * max|t|, the most a first extraction has to hold
    # exactly; a negative t's share is an odd multiple of the finest step
    # about as often as not
    rng = np.random.default_rng(cols)
    for lo, hi in ((0.5, 1.0), (-1.0, -0.5), (-1.0, -0.999)):
        rows = rng.uniform(lo, hi, (400, cols)) * 2.0 ** rng.integers(-1000, 1000 - cols.bit_length(), (400, 1))
        assert fsum_rows_counted(monkeypatch, rows) == (fsum_each(rows), 0)


def test_fsum_rows_residuals_that_cancel_only_in_floats(monkeypatch):
    # the residuals u**2, u**3 and -u**2 of 1 + u (u = 2**-53) sum to 0 in
    # floats but to u**3 exactly, which lifts a tie to even above it: the
    # row is not exact, and only math.fsum decides it
    u = 2.0 ** -53
    rows = np.array([[1.0, u, u * u, u ** 3, -u * u], [-1.0, -u, -u * u, -u ** 3, u * u]])
    got, fallbacks = fsum_rows_counted(monkeypatch, rows)
    assert got == fsum_each(rows) == [(1.0 + 2 * u).hex(), (-1.0 - 2 * u).hex()]
    assert fallbacks == 2
