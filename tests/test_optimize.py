"""Certificates, the grid oracle, the two-value scan, and the verify driver."""

import dataclasses
import json
import math

import numpy as np
import pytest

import frozen
from hypergon import bounds, polygon
from hypergon.errors import EvaluationFailure, Infeasible, OracleTooLarge
from hypergon.hypmath import RegularNGonSpec, regular_convert
from hypergon.optimize import (
    DEFAULT_SEED,
    EQ_TOL,
    GRID_POINTS,
    INEQ_TOL,
    OBJECTIVES,
    UNIFORM_TOL,
    SeparableProblem,
    certify_convexity,
    grid_oracle,
    make_problem,
    random_cyclic_polygon,
    random_partition,
    random_split,
    random_tangential_polygon,
    solve_equal_sum,
    thm9_theta_threshold,
    trial_rng,
    trial_rngs,
    verify_theorem,
)


# ---------------------------------------------------------------------------
# convexity certificates


def test_certificate_positive_quadratic():
    cert = certify_convexity(lambda x: x * x, (0.0, 2.0))
    assert cert.sign == "positive"
    assert cert.consistent
    assert cert.first_violation is None
    assert len(cert.grid) == len(cert.second_differences) == 64


def test_certificate_negative_quadratic():
    cert = certify_convexity(lambda x: -x * x, (0.0, 2.0))
    assert cert.sign == "negative"
    assert cert.consistent


def test_certificate_mixed_cubic():
    # f'' = 6x changes sign at 0, so the scan starts negative and trips on
    # the first positive grid point
    cert = certify_convexity(lambda x: x ** 3, (-1.0, 1.0))
    assert cert.sign == "mixed"
    assert not cert.consistent
    assert cert.first_violation is not None
    assert cert.first_violation > 0.0


def test_certificate_guards():
    with pytest.raises(Infeasible):
        certify_convexity(lambda x: x, (1.0, 1.0))

    def boom(x):
        raise ValueError("nope")

    with pytest.raises(EvaluationFailure):
        certify_convexity(boom, (0.0, 1.0))
    with pytest.raises(EvaluationFailure):
        certify_convexity(lambda x: math.nan, (0.0, 1.0))


def test_certificate_angle_objective_windows():
    # convex strictly below the threshold angle, mixed on a window that
    # straddles it
    for n, thr_name in ((4, "THM9_THETA_THR_4"), (6, "THM9_THETA_THR_6")):
        thr = thm9_theta_threshold(n)
        assert math.isclose(thr, getattr(frozen, thr_name), rel_tol=1e-13)
        inside = certify_convexity(
            lambda t, n=n: math.acosh(math.cos(math.pi / n) / math.sin(0.5 * t)),
            (1e-3, 0.999 * thr),
        )
        assert inside.sign == "positive"
        theta_max = 2.0 * math.asin(math.cos(math.pi / n))
        straddle = certify_convexity(
            lambda t, n=n: math.acosh(math.cos(math.pi / n) / math.sin(0.5 * t)),
            (0.9 * thr, 0.5 * (thr + theta_max)),
        )
        assert straddle.sign == "mixed"
        assert straddle.first_violation > thr


def test_certificate_perimeter_objective_windows():
    n = 6
    thr = bounds.thm10_peri_threshold(n)
    assert math.isclose(thr, frozen.THM10_PERI_THR_6, rel_tol=1e-13)

    def f(x):
        return math.asin(math.cos(math.pi / n) / math.cosh(x / (2.0 * n)))

    assert certify_convexity(f, (1.001 * thr, 3.0 * thr)).sign == "positive"
    assert certify_convexity(f, (0.5 * thr, 1.5 * thr)).sign == "mixed"


# ---------------------------------------------------------------------------
# separable problems and the grid oracle


def test_problem_guards():
    f = lambda x: x * x
    with pytest.raises(Infeasible):
        SeparableProblem(name="p", f=f, k=1, c=1.0, interval=(0.0, 2.0), sense="minimize")
    with pytest.raises(Infeasible):
        SeparableProblem(name="p", f=f, k=2, c=1.0, interval=(0.0, 2.0), sense="max")
    with pytest.raises(Infeasible):
        # uniform point 2.5 sits outside (0, 2)
        SeparableProblem(name="p", f=f, k=2, c=5.0, interval=(0.0, 2.0), sense="minimize")


def quadratic_problem(k=2):
    return SeparableProblem(
        name="sq", f=lambda x: x * x, k=k, c=float(k), interval=(0.0, 2.0), sense="minimize"
    )


def test_grid_oracle_quadratic():
    oracle = grid_oracle(quadratic_problem(), 100)
    assert oracle.min_point == (1.0, 1.0)
    assert oracle.min_value == 2.0
    assert oracle.step == 0.02
    assert oracle.evaluations == 99


def test_grid_oracle_k3():
    oracle = grid_oracle(quadratic_problem(k=3), 60)
    assert max(abs(p - 1.0) for p in oracle.min_point) <= oracle.step * 0.51
    assert abs(oracle.min_value - 3.0) <= 3.0 * oracle.step ** 2


def test_grid_oracle_guards():
    with pytest.raises(OracleTooLarge):
        grid_oracle(quadratic_problem(k=4), 100)
    with pytest.raises(Infeasible):
        grid_oracle(quadratic_problem(), 49)


# ---------------------------------------------------------------------------
# the two-value scan


def test_solve_quadratic_full_stack():
    rep = solve_equal_sum(quadratic_problem(), oracle_resolution=100)
    assert rep.certified
    assert rep.max_deviation_from_uniform <= UNIFORM_TOL
    assert rep.uniform_point == (1.0, 1.0)
    assert rep.uniform_point_objective == 2.0
    assert rep.objective_at_argmin >= 2.0 - 1e-12
    assert rep.oracle_agreement is True
    assert rep.oracle_point == (1.0, 1.0)


def test_solve_requires_certificate_on_mixed_window():
    prob = SeparableProblem(
        name="cubic", f=lambda x: x ** 3, k=2, c=0.0, interval=(-1.0, 1.0), sense="minimize"
    )
    rep = solve_equal_sum(prob)
    assert not rep.certified
    assert rep.certificate.sign == "mixed"
    # thm7_radius is concave only below its inflection radius; with the
    # uniform point past it, the scan finds an unequal split with a larger total
    thr = bounds.thm7_radius_threshold(6)
    prob = SeparableProblem(name="thm7_radius", f=make_problem("thm7_radius", k=3, n=6).f, k=3,
                            c=1.05 * 3 * thr, interval=(0.0, 3.0 * thr), sense="maximize")
    rep = solve_equal_sum(prob)
    assert not rep.certified
    assert rep.objective_at_argmin > rep.uniform_point_objective
    assert math.isclose(rep.objective_at_argmin, 2.134, abs_tol=1e-3)
    assert math.isclose(rep.uniform_point_objective, 1.884, abs_tol=1e-3)
    assert math.isclose(math.fsum(rep.argmin), prob.c, rel_tol=1e-12)


def test_solve_is_deterministic():
    # x^2 on (0, 2) at k=2: the scan scores at most (k - 1) * GRID_POINTS
    # points, and none of them beats the uniform split
    a = solve_equal_sum(quadratic_problem(), oracle_resolution=120)
    b = solve_equal_sum(quadratic_problem(), oracle_resolution=120)
    assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
        b.to_json_dict(), sort_keys=True
    )
    assert a.argmin == (1.0, 1.0)
    assert 0 < a.iterations <= (a.k - 1) * GRID_POINTS


def test_every_registered_objective_certifies():
    # no two-value split beats the uniform one, so the uniform point is the
    # reported optimum itself
    for k in (2, 3, 5, 8):
        for n in (3, 4, 6, 12, 50):
            for name in OBJECTIVES:
                rep = solve_equal_sum(make_problem(name, k=k, n=n))
                assert rep.certified, (name, k, n)
                assert rep.max_deviation_from_uniform == 0.0, (name, k, n)
                assert rep.objective_at_argmin == rep.uniform_point_objective, (name, k, n)


def test_scan_credits_no_rounding_gain(run_module):
    # at k = 200 the scanned splits sum to c - 2.2e-14, not c, and one of
    # them scored 2.2e-16 below the uniform total; that is rounding, not a
    # better split, so the uniform point stays the optimum
    argv = ["optimize", "--objective", "tangential_tangent_length", "--radius", "0.4",
            "--k", "200", "--total", "6.283185307179586"]
    rep = solve_equal_sum(make_problem("tangential_tangent_length", k=200, radius=0.4, c=6.283185307179586))
    assert rep.certified
    assert rep.argmin == rep.uniform_point
    assert rep.max_deviation_from_uniform == 0.0
    assert rep.objective_at_argmin == rep.uniform_point_objective
    proc = run_module(*argv)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["report"]["max_deviation_from_uniform"] == 0.0


def test_solve_maximize_sense():
    # concave objective: the uniform split is the argmax and every random
    # feasible split lands at or below it
    prob = make_problem("cyclic_half_side", k=2, n=6, radius=1.0)
    assert prob.sense == "maximize"
    rep = solve_equal_sum(prob, oracle_resolution=200)
    assert rep.certified
    assert rep.max_deviation_from_uniform <= UNIFORM_TOL
    assert rep.oracle_agreement is True
    rng = trial_rng(5, 0)
    for _ in range(200):
        xs = random_split(prob.c, prob.k, rng)
        if all(prob.interval[0] < x < prob.interval[1] for x in xs):
            assert prob.total(xs) <= rep.uniform_point_objective + INEQ_TOL


def test_uniform_beats_random_splits():
    prob = make_problem("thm6_radius", k=3, n=6, c=1.5)
    base = prob.total([prob.c / prob.k] * prob.k)
    rng = trial_rng(11, 0)
    checked = 0
    for _ in range(1000):
        xs = random_split(prob.c, prob.k, rng)
        if not all(prob.interval[0] < x < prob.interval[1] for x in xs):
            continue
        checked += 1
        gap = prob.total(xs) - base
        assert gap >= -INEQ_TOL
        if max(abs(x - prob.c / prob.k) for x in xs) >= 1e-3:
            assert gap > 0.0
    assert checked >= 500


def test_allocation_matches_uniform():
    rep = solve_equal_sum(make_problem("thm6_radius", k=3, n=6, c=1.5))
    assert max(abs(v - 0.5) for v in rep.argmin) <= UNIFORM_TOL
    f_half = math.atanh(math.tan(math.pi / 6) * math.sinh(0.5))
    assert abs(rep.objective_at_argmin - 3.0 * f_half) <= 1e-9


def test_make_problem_guards():
    with pytest.raises(Infeasible):
        make_problem("no_such_objective")
    with pytest.raises(Infeasible):
        make_problem("thm5_radius", k=1)


def test_theorem_objective_map():
    mapped = {t: e["objective"] for t, e in bounds.THEOREMS.items() if e["objective"]}
    assert set(mapped) == {f"1.{i}" for i in range(1, 11)}
    assert set(mapped.values()) <= set(OBJECTIVES)


# ---------------------------------------------------------------------------
# random sampling helpers


def test_random_partition_properties():
    for i in range(50):
        rng = trial_rng(23, i)
        n = int(rng.integers(3, 13))
        thetas = random_partition(n, rng)
        assert len(thetas) == n
        assert abs(math.fsum(thetas) - 2.0 * math.pi) <= 1e-12
        assert all(0.0 < t < math.pi for t in thetas)


def test_random_split_properties():
    rng = trial_rng(29, 0)
    for _ in range(50):
        xs = random_split(7.5, 3, rng)
        assert len(xs) == 3
        assert abs(math.fsum(xs) - 7.5) <= 1e-12 * 7.5
        assert all(x > 0.0 for x in xs)


def test_random_polygons_respect_ranges():
    rng = trial_rng(31, 0)
    poly = random_cyclic_polygon(5, (0.5, 1.5), rng)
    assert 0.5 <= poly.R <= 1.5
    tang = random_tangential_polygon(5, (0.05, 3.0), rng)
    assert tang.r < math.asinh(1.0 / math.tan(math.pi / 5))
    with pytest.raises(Infeasible):
        # the whole range sits above the triangle inradius limit
        random_tangential_polygon(3, (1.0, 2.0), rng)


def test_trial_rng_streams():
    a = trial_rng(7, 3).uniform(0, 1, 4)
    b = trial_rng(7, 3).uniform(0, 1, 4)
    c = trial_rng(7, 4).uniform(0, 1, 4)
    assert list(a) == list(b)
    assert list(a) != list(c)


def jumped_rng(seed, index):
    return np.random.Generator(np.random.Philox(key=seed).jumped(index))


def draws(rng):
    # doubles, bounded integers and normals read the stream in different ways
    return (list(rng.uniform(0.1, 1.0, 5)), list(rng.integers(3, 13, 4)), list(rng.standard_normal(3)))


@pytest.mark.parametrize("seed", [0, DEFAULT_SEED, 2**70 + 3, 2**128 - 1])
def test_trial_rngs_match_jumped_streams(seed):
    got = [draws(rng) for rng in trial_rngs(seed, 6)]
    assert got == [draws(jumped_rng(seed, i)) for i in range(6)]


@pytest.mark.parametrize("index", [0, 1, 2**53 + 1, 2**63 + 7, 2**64 - 1])
def test_trial_rng_matches_jumped_stream(index):
    # 2**53 + 1 is the first int float64 cannot hold; np.asarray turns a tuple
    # holding 2**63 + 7 into float64, so Philox(counter=tuple) reads stream 2**63
    assert draws(trial_rng(DEFAULT_SEED, index)) == draws(jumped_rng(DEFAULT_SEED, index))


def test_trial_rngs_reset_the_output_buffer():
    streams = trial_rngs(5, 2)
    rng = next(streams)
    rng.random()
    rng.integers(0, 2**32, dtype=np.uint32)  # leaves half a 64-bit word buffered
    assert rng.bit_generator.state["has_uint32"] == 1
    rng, fresh = next(streams), jumped_rng(5, 1)
    assert list(rng.integers(0, 2**32, 3, dtype=np.uint32)) == list(fresh.integers(0, 2**32, 3, dtype=np.uint32))
    assert draws(rng) == draws(fresh)


def test_trial_rng_generators_are_independent():
    a, b = trial_rng(9, 1), trial_rng(9, 1)
    a.random(10)
    assert b.random() == jumped_rng(9, 1).random()


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_seed_outside_the_key_range_is_infeasible(seed):
    with pytest.raises(Infeasible):
        trial_rng(seed, 0)
    with pytest.raises(Infeasible):
        next(trial_rngs(seed, 1))


# ---------------------------------------------------------------------------
# randomized theorem verification


def test_verify_all_theorems_smoke():
    for tid in (f"1.{i}" for i in range(1, 11)):
        rep = verify_theorem(tid, n=6, k=2, trials=40, seed=3)
        assert rep.violations == 0, tid
        assert rep.asserted > 0, tid
        assert rep.worst_margin >= -INEQ_TOL, tid
        if rep.equality_abs_error is not None:
            assert rep.equality_abs_error <= EQ_TOL, tid
        assert rep.passed
        assert rep.to_json_dict()["theorem"] == tid


def test_verify_single_reports_k1():
    rep = verify_theorem("1.2", n=5, k=3, trials=25, seed=1)
    assert rep.k == 1  # single-polygon bounds ignore the split count


def test_verify_unknown_theorem():
    with pytest.raises(Infeasible):
        verify_theorem("2.1")


def test_verify_skips_out_of_region_total():
    # every component of a split of pi stays below the admissibility
    # threshold for n=6, so every trial is skipped rather than asserted
    rep = verify_theorem("1.9", n=6, k=2, total=math.pi, trials=50, seed=2)
    assert rep.skipped == rep.trials
    assert rep.asserted == 0
    assert rep.violations == 0
    # a run that asserted nothing checked nothing, so it does not pass
    assert not rep.passed


def test_verify_checks_n_and_k_before_the_first_draw():
    # n=0 used to fail inside the draw with an error from numpy or a division
    # by zero; n=1 and 2 are checked the same way (test_cli runs them in a child)
    for tid, n, k in (("1.2", 0, 2), ("1.1", 0, 2), ("1.6", 0, 2), ("1.5", 6, 1), ("1.9", 6, 0)):
        with pytest.raises(Infeasible):
            verify_theorem(tid, n=n, k=k, trials=1)


def _tighten(monkeypatch, tid, factor):
    """Scale bound tid's value by factor inside bounds.THEOREMS: in func and,
    for a single-polygon bound, in the block values verify_theorem reads
    from rows.  Returns the scaled func."""
    entry = bounds.THEOREMS[tid]
    func, rows = entry["func"], entry["rows"]

    def tightened(*args):
        res = func(*args)
        return dataclasses.replace(res, value=res.value * factor)

    def tightened_rows(*args):
        block = rows(*args)
        return dataclasses.replace(block, value=block.value * factor)

    monkeypatch.setitem(entry, "func", tightened)
    if rows is not None:
        monkeypatch.setitem(entry, "rows", tightened_rows)
    return tightened


def _failing_report(tid, **kwargs):
    rep = verify_theorem(tid, trials=300, seed=7, **kwargs)
    assert rep.violations > 0
    assert not rep.passed
    assert rep.worst_margin <= rep.counterexample["margin"] < -INEQ_TOL
    return rep


@pytest.mark.parametrize("tid, factor", [("1.2", 0.97), ("1.1", 1.03)])
def test_verify_reports_a_polygon_counterexample(monkeypatch, tid, factor):
    # 1.2 lowered and 1.1 raised by a few percent: random polygons now cross them
    tightened = _tighten(monkeypatch, tid, factor)
    ce = _failing_report(tid, n=6).counterexample
    assert list(ce) == ["polygon", "bound", "margin"]
    d = ce["polygon"]
    family = polygon.TangentialPolygon if d["kind"] == "tangential" else polygon.CyclicPolygon
    res = tightened(d["n"], d["radius"])
    assert ce["bound"] == res.to_json_dict()
    poly = family(d["n"], d["radius"], d["thetas"])
    # the route the block took: its closed form on this one polygon
    actual = float(polygon.perimeter_rows(poly.kind, np.array([poly.radius]), np.array([poly.thetas]))[0])
    assert ce["margin"] == (actual - res.value if res.kind == "lower" else res.value - actual)


def test_verify_reports_a_split_counterexample(monkeypatch):
    # 1.6 raised by 3%: unequal splits of the total inradius now fall below it
    tightened = _tighten(monkeypatch, "1.6", 1.03)
    rep = _failing_report("1.6", n=6, k=3)
    ce = rep.counterexample
    assert list(ce) == ["split", "polygons", "bound", "margin"]
    res = tightened(6, 3, rep.params["total"])
    assert ce["bound"] == res.to_json_dict()
    actual = 0.0
    for x, d in zip(ce["split"], ce["polygons"], strict=True):
        actual += regular_convert(RegularNGonSpec(n=6, r=x)).perimeter  # the block's kernel, one row
        assert d["kind"] == "tangential" and math.isclose(d["radius"], x, rel_tol=1e-14)
    assert ce["margin"] == actual - res.value
