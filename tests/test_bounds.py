import math

import frozen
import pytest

from hypergon.bounds import (
    THEOREMS,
    area_radius_limit,
    cor1_inradius_lower,
    equality_value,
    evaluate,
    reference_r_from_R,
    thm1_peri_lower,
    thm2_peri_upper,
    thm3_area_lower,
    thm4_area_upper,
    thm5_total_peri_lower,
    thm6_total_peri_lower,
    thm7_radius_threshold,
    thm7_total_area_lower,
    thm8_total_area_lower,
    thm9_area_threshold,
    thm9_total_peri_lower,
    thm10_peri_threshold,
    thm10_total_area_upper,
)
from hypergon.errors import Infeasible, InvalidTotal, OutOfRange
from hypergon.hypmath import LEG_MAX, RegularNGonSpec, regular_convert, tangential_radius_limit


# single-polygon anchors

def test_thm1_square_anchor():
    res = thm1_peri_lower(4, math.asinh(0.5))
    assert res.kind == "lower" and res.quantity == "perimeter"
    assert math.isclose(res.value, frozen.FOUR_LN3, rel_tol=1e-13)
    assert res.feasible


def test_thm2_hexagon_anchor():
    res = thm2_peri_upper(6, frozen.ASINH_2)
    assert res.kind == "upper"
    assert math.isclose(res.value, frozen.TWELVE_LN_SILVER, rel_tol=1e-13)
    assert res.feasible and res.guard_margin == math.inf


def test_thm3_ideal_hexagon_anchor():
    res = thm3_area_lower(6, frozen.ACOSH_2)
    # acos argument is exactly 1 there; the snap keeps the value exact
    assert res.value == frozen.FOUR_PI
    assert res.feasible


def test_thm4_spot_value_and_direction():
    res = thm4_area_upper(6, 1.0)
    assert res.kind == "upper" and res.quantity == "area"
    assert math.isclose(res.value, frozen.THM4_6_1, rel_tol=1e-13)
    assert res.feasible and res.guard_margin == math.inf


def test_thm4_ideal_limit():
    # approaches (n-2) pi from below; saturates to it once the true gap
    # falls under float resolution
    val12 = thm4_area_upper(5, 12.0).value
    assert 0.0 < 3 * math.pi - val12 < 1e-3
    val40 = thm4_area_upper(5, 40.0).value
    assert abs(val40 - 3 * math.pi) <= 1e-13  # saturated to the limit, mod rounding


def test_thm1_guard_boundary():
    r_lim = tangential_radius_limit(3)
    assert not thm1_peri_lower(3, r_lim).feasible
    assert thm1_peri_lower(3, 0.9 * r_lim).feasible
    res = thm1_peri_lower(3, 1.1 * r_lim)
    assert not res.feasible and res.value == math.inf


def test_thm3_guard():
    r_lim = area_radius_limit(3)
    assert thm3_area_lower(3, 0.99 * r_lim).feasible
    assert not thm3_area_lower(3, 1.01 * r_lim).feasible


def test_single_bounds_monotone_in_radius():
    for func, hi in ((thm1_peri_lower, 0.99 * tangential_radius_limit(6)),
                     (thm2_peri_upper, 3.0),
                     (thm3_area_lower, 0.99 * area_radius_limit(6)),
                     (thm4_area_upper, 3.0)):
        vals = [func(6, hi * j / 40.0).value for j in range(1, 41)]
        assert all(a < b for a, b in zip(vals, vals[1:])), func.__name__


# fixed-total families

def test_thm5_anchor_and_k1_consistency():
    res = thm5_total_peri_lower(6, 2, 2.0 * frozen.ASINH_2)
    assert math.isclose(res.value, frozen.TWENTYFOUR_LN_SILVER, rel_tol=1e-13)
    for T in (0.3, 1.0, 2.7):
        assert thm5_total_peri_lower(6, 1, T).value == thm2_peri_upper(6, T).value


def test_a_bad_total_is_named_the_total():
    # k = 1 makes the total one polygon's radius
    for func in (thm5_total_peri_lower, thm6_total_peri_lower, thm7_total_area_lower, thm8_total_area_lower):
        for k, name in ((2, "total radius"), (1, "radius")):
            for T in (-1.0, 0.0, math.nan):
                with pytest.raises(Infeasible, match=f"^{name} must be positive, got {T!r}$"):
                    func(6, k, T)


def test_thm6_anchor_and_k1_consistency():
    res = thm6_total_peri_lower(4, 2, 2.0 * math.asinh(0.5))
    assert math.isclose(res.value, frozen.EIGHT_LN3, rel_tol=1e-13)
    for T in (0.2, 0.6):
        assert thm6_total_peri_lower(4, 1, T).value == thm1_peri_lower(4, T).value


def test_thm7_k1_consistency_and_small_total():
    for T in (0.3, 0.9):
        assert thm7_total_area_lower(4, 1, T).value == thm4_area_upper(4, T).value
    assert thm7_total_area_lower(4, 3, 1e-6).value < 1e-9


def test_thm8_anchor_and_k1_consistency():
    res = thm8_total_area_lower(6, 2, 2.0 * frozen.ACOSH_2)
    assert res.value == frozen.EIGHT_PI
    for T in (0.4, 1.1):
        assert thm8_total_area_lower(6, 1, T).value == thm3_area_lower(6, T).value


def test_superadditive_scaling():
    # total at (n, k, T) is exactly k times the single bound at T/k
    for thm_total, thm_single, T in (
        (thm5_total_peri_lower, thm2_peri_upper, 2.4),
        (thm6_total_peri_lower, thm1_peri_lower, 1.5),
        (thm7_total_area_lower, thm4_area_upper, 2.0),
        (thm8_total_area_lower, thm3_area_lower, 1.8),
    ):
        for k in (2, 3, 5):
            total = thm_total(6, k, T).value
            single = thm_single(6, T / k).value
            assert abs(total - k * single) <= 1e-12 * max(1.0, abs(total))


def test_thm7_guard_threshold():
    assert math.isclose(thm7_radius_threshold(4), frozen.THM7_STAR_4, rel_tol=1e-14)
    assert math.isclose(thm7_radius_threshold(6), frozen.THM7_STAR_6, rel_tol=1e-14)
    assert math.isclose(thm7_radius_threshold(12), frozen.THM7_STAR_12, rel_tol=1e-14)
    star = thm7_radius_threshold(6)
    assert thm7_total_area_lower(6, 2, 2 * star * 0.98).feasible
    res = thm7_total_area_lower(6, 2, 2 * star * 1.02)
    assert not res.feasible
    assert res.guard_margin < 0.0


def test_thm7_equal_split_fails_beyond_threshold():
    # the guard is not decorative: past the inflection an unequal split of
    # the total circumradius produces strictly less area than 2 equal ones
    n, star = 6, thm7_radius_threshold(6)
    T = 2 * (star + 0.8)
    bound = thm7_total_area_lower(n, 2, T).value
    split = (thm4_area_upper(n, star + 0.1).value
             + thm4_area_upper(n, T - star - 0.1).value)
    assert split < bound - 1e-3


def test_thm9_guard_and_roundtrip():
    assert math.isclose(thm9_area_threshold(4), frozen.THM9_AREA_THR_4, rel_tol=1e-13)
    assert math.isclose(thm9_area_threshold(6), frozen.THM9_AREA_THR_6, rel_tol=1e-13)
    # k = 1 with the area of a known regular hexagon returns its perimeter
    m = regular_convert(RegularNGonSpec(n=6, theta=1.0))
    res = thm9_total_peri_lower(6, 1, m.area)
    assert math.isclose(res.value, m.perimeter, rel_tol=1e-11)
    assert math.isclose(res.value, frozen.HEX_THETA1_PERI, rel_tol=1e-12)


def test_thm9_flag_and_errors():
    thr = thm9_area_threshold(6)
    assert thm9_total_peri_lower(6, 2, 2 * thr * 1.05).feasible
    res = thm9_total_peri_lower(6, 2, 2 * thr * 0.9)
    assert not res.feasible  # value still computed
    assert res.value > 0.0
    with pytest.raises(InvalidTotal):
        thm9_total_peri_lower(6, 2, 2 * 4 * math.pi)
    with pytest.raises(InvalidTotal):
        thm9_total_peri_lower(6, 2, 0.0)


def test_thm10_guard_and_roundtrip():
    assert math.isclose(thm10_peri_threshold(4), frozen.THM10_PERI_THR_4, rel_tol=1e-13)
    assert math.isclose(thm10_peri_threshold(6), frozen.THM10_PERI_THR_6, rel_tol=1e-13)
    m = regular_convert(RegularNGonSpec(n=6, theta=1.0))
    res = thm10_total_area_upper(6, 1, m.perimeter)
    assert math.isclose(res.value, m.area, rel_tol=1e-11)
    assert math.isclose(res.value, frozen.HEX_THETA1_AREA, rel_tol=1e-12)


def test_thm10_flag_and_ideal_limit():
    thr = thm10_peri_threshold(6)
    assert thm10_total_area_upper(6, 2, 2 * thr * 1.1).feasible
    assert not thm10_total_area_upper(6, 2, 2 * thr * 0.9).feasible
    val = thm10_total_area_upper(6, 2, 500.0).value
    assert val < 2 * 4 * math.pi
    assert 2 * 4 * math.pi - val < 1e-6


# equality specs

def test_equality_specs_reproduce_values():
    cases = [
        thm1_peri_lower(5, 0.5),
        thm2_peri_upper(7, 1.4),
        thm3_area_lower(6, 0.9),
        thm4_area_upper(4, 2.2),
        thm5_total_peri_lower(6, 3, 3.3),
        thm6_total_peri_lower(5, 2, 1.0),
        thm7_total_area_lower(6, 2, 1.9),
        thm8_total_area_lower(6, 3, 2.4),
        thm9_total_peri_lower(6, 2, 2 * 1.2 * math.pi),
        thm10_total_area_upper(6, 2, 2.2 * thm10_peri_threshold(6)),
    ]
    for res in cases:
        assert abs(equality_value(res) - res.value) <= 1e-11 * max(1.0, abs(res.value)), res.theorem


# corollary audit

def test_cor1_verbatim_vs_reference():
    res = cor1_inradius_lower(6, 1.0)
    assert math.isclose(res.value, frozen.COR1_6_1, rel_tol=1e-12)
    ref = reference_r_from_R(6, 1.0)
    assert math.isclose(ref, frozen.REF_R_6_1, rel_tol=1e-13)
    # the printed expression does not agree with the geometry anywhere sampled
    for R in (0.25, 0.5, 1.0, 1.5):
        d = cor1_inradius_lower(6, R).value - reference_r_from_R(6, R)
        assert abs(d) > 1e-3


def test_reference_matches_regular_convert():
    for n in (3, 4, 6, 12):
        for R in (0.1, 0.7, 1.5, 3.0):
            ref = reference_r_from_R(n, R)
            true_r = regular_convert(RegularNGonSpec(n=n, R=R)).r
            assert math.isclose(ref, true_r, rel_tol=1e-12)


def test_cor1_infeasible_when_tan_is_negative():
    # pick R so the inner perimeter-like argument lands where tan < 0
    R = 0.33
    inner = thm2_peri_upper(6, R).value
    assert math.tan(inner) < 0.0
    res = cor1_inradius_lower(6, R)
    assert not res.feasible


# registry and serialization

def test_registry_shape():
    assert set(THEOREMS) == {f"1.{i}" for i in range(1, 11)} | {"cor1"}
    assert all(THEOREMS[f"1.{i}"]["multi"] for i in range(5, 11))
    assert not any(THEOREMS[t]["multi"] for t in ("1.1", "1.2", "1.3", "1.4", "cor1"))


def test_record_defaults_are_feasible_inside_windows():
    # each fixed-total bound is feasible at its default total, the equal
    # split lies inside its admissibility window, and k copies of the
    # regular polygon spec() builds from that split reproduce the bound
    for tid, entry in THEOREMS.items():
        if not entry["multi"]:
            continue
        for n in (3, 4, 6, 12, 50):
            for k in (2, 3, 5):
                total = entry["total"](n, k)
                res = evaluate(tid, n, k, total)
                assert res.feasible, (tid, n, k)
                lo, hi = entry["window"](n)
                assert lo < total / k < hi, (tid, n, k)
                m = regular_convert(entry["spec"](n, total / k))
                metric = m.perimeter if res.quantity == "perimeter" else m.area
                assert abs(k * metric - res.value) <= 1e-9 * max(1.0, res.value), (tid, n, k)


def test_record_single_families():
    families = {t: e["family"] for t, e in THEOREMS.items() if e["family"]}
    assert families == {"1.1": "tangential", "1.2": "cyclic", "1.3": "tangential", "1.4": "cyclic"}
    for t, family in families.items():
        assert THEOREMS[t]["param"] == ("r" if family == "tangential" else "R")


def test_evaluate_dispatches_on_multi():
    assert evaluate("1.2", 6, 5, 1.0) == thm2_peri_upper(6, 1.0)
    assert evaluate("1.5", 6, 2, 2.0) == thm5_total_peri_lower(6, 2, 2.0)
    assert evaluate("cor1", 6, 3, 1.0) == cor1_inradius_lower(6, 1.0)


def test_overflowing_radius_is_out_of_range():
    for tid in ("1.1", "1.2", "1.3", "1.4", "cor1"):
        with pytest.raises(OutOfRange):
            evaluate(tid, 6, 1, 800.0)
    for tid in ("1.5", "1.6", "1.7", "1.8"):
        with pytest.raises(OutOfRange):
            evaluate(tid, 6, 2, 1500.0)
        # the cap is per polygon: five radii of 200 are fine
        evaluate(tid, 6, 5, 1000.0)
    with pytest.raises(OutOfRange):
        thm10_total_area_upper(6, 2, 2 * 6 * 1.01 * LEG_MAX)
    with pytest.raises(OutOfRange):
        reference_r_from_R(6, math.inf)


def test_bound_result_json_fields():
    d = thm5_total_peri_lower(6, 2, 2.0).to_json_dict()
    for key in ("theorem", "quantity", "kind", "n", "k", "param", "value", "feasible", "guard_margin"):
        assert key in d
    assert d["theorem"] == "1.5" and d["k"] == 2


def test_invalid_inputs():
    with pytest.raises(Infeasible):
        thm2_peri_upper(2, 1.0)
    with pytest.raises(Infeasible):
        thm1_peri_lower(4, -0.2)
    with pytest.raises(Infeasible):
        thm5_total_peri_lower(6, 0, 1.0)
