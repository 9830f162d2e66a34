"""Acceptance battery: one go/no-go test per shipped guarantee.

Each test runs the report's own battery criterion (`cli._crit*`) at the
sample size stated inline and asserts on its results, so `pytest -v`
renders exactly one pass/fail line per criterion.  The last two criteria
use the report bundle at default sizes rendered twice: once in memory by
`cli.render_bundle`, once to a session temp directory by `hypergon report`.
"""

import time

import numpy as np
import pytest

import frozen
from hypergon import cli

SEED = 7


@pytest.fixture(scope="session")
def report_bundles(tmp_path_factory):
    files, failures = cli.render_bundle(6, 2, SEED, 10_000, 10_000, 1000)
    out = tmp_path_factory.mktemp("bundle")
    code = cli.main(["report", "--out", str(out), "--seed", str(SEED)])
    return (failures, code), files, out


def test_criterion_1_closed_forms_match_measured_metrics():
    # 10^4 seeded random polygons, n in [3, 12], radii in [0.05, 3]:
    # perimeter routes within 1e-9, area routes within 1e-8, under 10 s
    t0 = time.perf_counter()
    ok, note = cli._crit1_equivalence(SEED, 10_000)
    elapsed = time.perf_counter() - t0
    assert ok, note
    assert elapsed < 10.0


def test_criterion_2_single_polygon_bounds_hold():
    # 10^4 random polygons per bound: zero violations at 1e-12 and the
    # regular configuration reproduces the bound to 1e-9
    ok, reps = cli._crit2_single(6, 10_000, SEED)
    assert ok
    for rep in reps:
        assert rep.violations == 0, rep.theorem
        assert rep.worst_margin >= -1e-12, rep.theorem
        assert rep.equality_abs_error is not None, rep.theorem
        assert rep.equality_abs_error <= 1e-9, rep.theorem


def test_criterion_3_fixed_total_radius_bounds_hold():
    # 2000 draws per (bound, k) for k in {2, 3, 5} so at least 1000 splits
    # land inside the admissibility guards; none may beat the bound at
    # 1e-12 and the uniform split must reproduce it to 1e-9
    ok, reps = cli._crit3_radius_totals(6, 2000, SEED)
    assert ok
    assert len(reps) == 12
    for rep in reps:
        key = (rep.theorem, rep.k)
        assert rep.violations == 0, key
        assert rep.asserted >= 1000, key
        assert rep.worst_margin >= -1e-12, key
        assert rep.equality_abs_error is not None, key
        assert rep.equality_abs_error <= 1e-9, key


def test_criterion_4_guarded_bounds_and_convexity_windows():
    # the total-area and total-perimeter bounds only apply inside their
    # guards; inside, 4000 random splits per (bound, k) never beat them,
    # and the convexity certificate is positive inside the window and
    # mixed straddling it
    ok, reps, note = cli._crit4_guarded(6, 4000, SEED)
    assert ok, note
    assert len(reps) == 4
    for rep in reps:
        key = (rep.theorem, rep.k)
        assert rep.violations == 0, key
        assert rep.asserted >= 1000, key
        assert rep.worst_margin >= -1e-12, key


def test_criterion_5_descent_matches_grid_oracle():
    # every registered objective at k=2 (resolution 200) and k=3
    # (resolution 60): certified, best two-value split within 1e-6 of
    # uniform per coordinate, oracle optimum within one grid cell, all
    # under 60 s
    t0 = time.perf_counter()
    ok, rows = cli._crit5_oracles(6)
    assert ok, rows
    assert time.perf_counter() - t0 < 60.0


def test_criterion_6_analytic_anchors():
    # equality cases against the mpmath-frozen constants, relative 1e-12,
    # and the Euclidean R^2 coefficient of the area bound
    ok, lines = cli._crit6_anchors((frozen.FOUR_LN3, frozen.TWELVE_LN_SILVER, frozen.FOUR_PI))
    assert ok, lines


def test_criterion_7_euclidean_limits():
    # the four single-polygon bounds at radius 1e-4 against their
    # Euclidean first-order forms, relative 1e-5
    ok, lines = cli._crit7_euclidean(6)
    assert ok, lines


def test_criterion_8_report_audits_expression_divergences(report_bundles):
    _, files, _ = report_bundles
    text = files["report.md"]
    assert "## Inradius expression audit" in text
    assert "cosh, not cos" in text
    div = files["cor1_divergence.csv"].strip().split("\n")
    assert div[0] == "theorem,n,k,param,value,feasible,guard_margin"
    assert len(div) > 1
    # the reference conversion itself is exact on regular polygons
    for n in (3, 4, 6, 12):
        ok, _, worst = cli._crit8_audit(n, (0.1, 0.7, 1.5, 3.0))
        assert ok, (n, worst)


def test_report_names_numpy_and_its_simd_target(report_bundles):
    # the last bits of the bundle's values depend on both
    _, files, _ = report_bundles
    opening = " ".join(files["report.md"].split("\n## Battery")[0].split())
    assert f"numpy {np.__version__} on the {cli.simd_target()} SIMD target" in opening


def test_criterion_9_report_bundle_is_deterministic(report_bundles):
    # the in-memory render and the written bundle agree byte for byte
    (failures, code), files, out = report_bundles
    assert (failures, code) == (0, 0)
    assert sorted(files) == sorted(p.name for p in out.iterdir())
    for name in ("report.md", "criteria.csv", "cor1_divergence.csv"):
        assert (out / name).read_bytes() == files[name].encode(), name
