"""Re-derive every frozen constant at 60 digits and pin the binary64 rounding."""

import hashlib

import frozen
import numpy as np
from hypergon import optimize
from hypergon.cli import simd_target
from hypergon.optimize import verify_theorem
from mpmath import mp, mpf, acosh, asinh, atanh, asin, atan, cos, cosh, log, pi, sin, sinh, sqrt, tan, tanh

mp.dps = 60


def anchor(name, expr):
    want = getattr(frozen, name)
    got = float(expr)
    assert got == want, f"{name}: frozen {want!r} is not the correct rounding of {got!r}"


def test_inverse_function_values():
    anchor("ACOSH_2", acosh(mpf(2)))
    anchor("ACOSH_3", acosh(mpf(3)))
    anchor("ACOSH_6", acosh(mpf(6)))
    anchor("ASINH_1", asinh(mpf(1)))
    anchor("ASINH_2", asinh(mpf(2)))
    anchor("ATANH_HALF", atanh(mpf(1) / 2))


def test_equality_anchors():
    anchor("FOUR_LN3", 4 * log(3))
    anchor("EIGHT_LN3", 8 * log(3))
    anchor("TWELVE_LN_SILVER", 12 * log(1 + sqrt(2)))
    anchor("TWENTYFOUR_LN_SILVER", 24 * log(1 + sqrt(2)))
    anchor("FOUR_PI", 4 * pi)
    anchor("EIGHT_PI", 8 * pi)


def test_radius_limits():
    for n in (3, 4, 6, 12):
        anchor(f"RMAX_{n}", asinh(1 / tan(pi / n)))
    # the two guard forms coincide: asinh(cot) == acosh(1/sin)
    for n in (3, 4, 6, 12):
        assert float(acosh(1 / sin(pi / n))) == getattr(frozen, f"RMAX_{n}")


def test_thresholds():
    for n in (4, 6, 12):
        anchor(f"THM7_STAR_{n}", acosh(sqrt(2 + 1 / tan(pi / n) ** 2)))
    for n in (4, 6):
        anchor(f"THM9_AREA_THR_{n}", (n - 2) * pi - 2 * n * asin(sqrt(1 - sin(pi / n))))
        anchor(f"THM9_THETA_THR_{n}", 2 * asin(sqrt(1 - sin(pi / n))))
        anchor(f"THM10_PERI_THR_{n}", 2 * n * acosh(sqrt(1 + sin(pi / n))))


def test_hexagon_snapshots():
    R = asinh(mpf(2))
    anchor("HEX_R_ASINH2_r", atanh(cos(pi / 6) * tanh(R)))
    theta = 2 * atan(1 / (cosh(R) * tan(pi / 6)))
    anchor("HEX_R_ASINH2_theta", theta)
    anchor("HEX_R_ASINH2_area", 4 * pi - 6 * theta)
    anchor("HEX_THETA1_PERI", 12 * acosh(cos(pi / 6) / sin(mpf(1) / 2)))
    anchor("HEX_THETA1_AREA", 4 * pi - 6)


def test_right_triangle_snapshot():
    b, c = mpf(5) / 4, mpf(3) / 4
    a = acosh(cosh(b) * cosh(c))
    anchor("TRI_A", a)
    anchor("TRI_B", asin(sinh(b) / sinh(a)))
    anchor("TRI_C", asin(sinh(c) / sinh(a)))


def test_log_space_hypotenuse():
    anchor("HYP_25_25", acosh(cosh(mpf(25)) ** 2))
    anchor("HYP_300_250", acosh(cosh(mpf(300)) * cosh(mpf(250))))


def test_spot_values():
    anchor("COR1_6_1", asinh(tan(pi / 6) / tan(12 * asinh(sin(pi / 6) * sinh(mpf(1))))))
    anchor("REF_R_6_1", atanh(cos(pi / 6) * tanh(mpf(1))))
    anchor("CHORD_08_11", acosh(cosh(mpf(4) / 5) ** 2 - sinh(mpf(4) / 5) ** 2 * cos(mpf(11) / 10)))
    anchor("THM2_6_1", 12 * asinh(sin(pi / 6) * sinh(mpf(1))))
    t = tan(pi / 6)
    anchor("THM4_6_1", 12 * atan(t * (cosh(mpf(1)) - 1) / (1 + t * t * cosh(mpf(1)))))
    anchor("CHS_PI3_ASINH2", asinh(sin(pi / 6) * sinh(asinh(mpf(2)))))


def test_seeded_verification_outputs():
    for args, asserted, skipped, worst in (frozen.VERIFY_1_2, frozen.VERIFY_1_8, frozen.VERIFY_1_1, frozen.VERIFY_1_9):
        rep = verify_theorem(**args)
        assert (rep.asserted, rep.skipped, rep.worst_margin.hex()) == (asserted, skipped, worst), args


def test_seeded_verification_bits():
    for args, asserted, skipped, violations, worst, eq_err in (
            frozen.VERIFY_BITS_1_3, frozen.VERIFY_BITS_1_4, frozen.VERIFY_BITS_1_2, frozen.VERIFY_BITS_1_10,
            frozen.VERIFY_BITS_1_5, frozen.VERIFY_BITS_1_8, frozen.VERIFY_BITS_1_9):
        if isinstance(worst, dict):  # pinned per SIMD target
            worst = worst[simd_target()]
        rep = verify_theorem(**args)
        got = (rep.asserted, rep.skipped, rep.violations, rep.worst_margin.hex(), rep.equality_abs_error.hex())
        assert got == (asserted, skipped, violations, worst, eq_err), args


def test_polygon_block_draws():
    for kind, n, window, redraw, count, digest in frozen.POLYGON_BLOCK_DRAWS:
        lo, hi = optimize._radius_window(kind, n, window)
        index = np.arange(count)
        if redraw:  # no row of polygon_blocks is ideal
            blocks = ((*rows, np.zeros(len(rows[0]), bool))
                      for rows in optimize.polygon_blocks(kind, n, lo, hi, optimize.DEFAULT_SEED, index))
        else:
            group = ("polygon", kind, lo, hi)
            blocks = (block[group] for block in optimize._polygon_walk([group], n, optimize.DEFAULT_SEED, index))
        radii, ts, ideal = (np.concatenate(arrays) for arrays in zip(*blocks))
        got = hashlib.sha256(ideal.tobytes() + radii[~ideal].tobytes() + ts[~ideal].tobytes()).hexdigest()
        assert got == digest, (kind, n, window, redraw)
