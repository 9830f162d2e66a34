"""Certificates, the grid oracle, projected descent, and the verify driver."""

import json
import math

import pytest

import frozen
from hypergon import bounds
from hypergon.errors import EvaluationFailure, Infeasible, NotCertified, OracleTooLarge
from hypergon.optimize import (
    DEFAULT_SEED,
    EQ_TOL,
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
    with pytest.raises(Infeasible):
        certify_convexity(lambda x: x, (0.0, 1.0), grid_points=15)

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
# projected descent


def test_solve_quadratic_full_stack():
    rep = solve_equal_sum(quadratic_problem(), oracle_resolution=100)
    assert rep.certified
    assert rep.max_deviation_from_uniform <= UNIFORM_TOL
    assert rep.uniform_point == (1.0, 1.0)
    assert rep.uniform_point_objective == 2.0
    assert rep.objective_at_argmin >= 2.0 - 1e-12
    assert rep.oracle_agreement is True
    assert rep.oracle_point == (1.0, 1.0)
    assert rep.require_certified() is rep


def test_solve_requires_certificate_on_mixed_window():
    prob = SeparableProblem(
        name="cubic", f=lambda x: x ** 3, k=2, c=0.0, interval=(-1.0, 1.0), sense="minimize"
    )
    rep = solve_equal_sum(prob)
    assert not rep.certified
    assert rep.certificate.sign == "mixed"
    with pytest.raises(NotCertified):
        rep.require_certified()


def test_solve_is_deterministic():
    a = solve_equal_sum(quadratic_problem(), seed=17, oracle_resolution=120)
    b = solve_equal_sum(quadratic_problem(), seed=17, oracle_resolution=120)
    assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
        b.to_json_dict(), sort_keys=True
    )


def test_every_registered_objective_certifies():
    for name in OBJECTIVES:
        prob = make_problem(name, k=2, n=6)
        rep = solve_equal_sum(prob)
        assert rep.certified, name
        assert rep.max_deviation_from_uniform <= UNIFORM_TOL, name


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
