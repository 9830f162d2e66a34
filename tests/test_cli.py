"""End-to-end tests of the command line front end, in process."""

import dataclasses
import importlib.util
import json
import math
import os
import sys
import platform
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import frozen
import hypergon
from hypergon import bounds, cli, optimize, polygon
from hypergon.cli import CSV_HEADER, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def csv_rows(out):
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    return [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------------------
# bounds


def test_bounds_csv_sweep_monotone(capsys):
    code, out = run_cli(
        capsys, "bounds", "--thm", "1.2", "--range", "0.2:1.4:30", "--format", "csv"
    )
    assert code == 0
    rows = csv_rows(out)
    assert len(rows) == 30
    params = [float(r[3]) for r in rows]
    values = [float(r[4]) for r in rows]
    assert params == sorted(params)
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(r[5] == "true" for r in rows)
    # %.17g makes the printed floats round-trip exactly
    for p, v in zip(params, values):
        assert bounds.thm2_peri_upper(6, p).value == v


def test_bounds_all_row_count(capsys):
    code, out = run_cli(
        capsys, "bounds", "--thm", "all", "--range", "0.9:0.9:1", "--format", "csv"
    )
    assert code == 0
    rows = csv_rows(out)
    # ten theorems plus the corollary's audit triple
    assert len(rows) == 13
    names = [r[0] for r in rows]
    assert names.count("cor1") == 1
    assert names.count("cor1_ref") == 1
    assert names.count("cor1_diff") == 1


def test_bounds_cor1_triple(capsys):
    code, out = run_cli(
        capsys, "bounds", "--thm", "cor1", "--range", "1:1:1", "--format", "csv"
    )
    assert code == 0
    rows = {r[0]: r for r in csv_rows(out)}
    assert math.isclose(float(rows["cor1"][4]), frozen.COR1_6_1, rel_tol=1e-12)
    assert math.isclose(float(rows["cor1_ref"][4]), frozen.REF_R_6_1, rel_tol=1e-13)
    diff = float(rows["cor1_diff"][4])
    assert math.isclose(diff, frozen.COR1_6_1 - frozen.REF_R_6_1, rel_tol=1e-10)


def test_bounds_feasible_flips_once(capsys):
    # total-area sweep for two hexagons crosses the admissibility threshold
    # exactly once inside this window
    code, out = run_cli(
        capsys, "bounds", "--thm", "1.9", "--range", "4:24:30", "--format", "csv"
    )
    assert code == 0
    flags = [r[5] == "true" for r in csv_rows(out)]
    assert flags[0] is False
    assert flags[-1] is True
    assert sum(1 for a, b in zip(flags, flags[1:]) if a != b) == 1


def test_bounds_json_format(capsys):
    code, out = run_cli(capsys, "bounds", "--thm", "1.3", "--range", "0.5:0.7:3",
                        "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 2
    assert len(doc["rows"]) == 3
    assert set(doc["rows"][0]) == {
        "theorem", "n", "k", "param", "value", "feasible", "guard_margin"
    }


def test_bounds_out_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out = run_cli(
        capsys, "bounds", "--thm", "1.1", "--range", "0.3:0.5:2",
        "--format", "csv", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith(CSV_HEADER)


# ---------------------------------------------------------------------------
# --degrees


def test_degrees_rejected_for_length_parameters(capsys):
    code, _ = run_cli(capsys, "bounds", "--thm", "1.2", "--range", "10:20:2", "--degrees")
    assert code == 2


def test_degrees_converts_at_the_boundary(capsys):
    code, out = run_cli(
        capsys, "bounds", "--thm", "1.9", "--range", "540:540:1",
        "--format", "csv", "--degrees",
    )
    assert code == 0
    row = csv_rows(out)[0]
    param = float(row[3])
    assert abs(param - 3.0 * math.pi) <= 1e-12
    # identical to passing the converted radian value directly
    code2, out2 = run_cli(
        capsys, "bounds", "--thm", "1.9", "--range", f"{param!r}:{param!r}:1",
        "--format", "csv",
    )
    assert code2 == 0
    assert csv_rows(out2)[0] == row


# ---------------------------------------------------------------------------
# verify


def test_verify_all_small(capsys):
    code, out = run_cli(capsys, "verify", "--thm", "all", "--trials", "20")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 2
    assert len(doc["reports"]) == 10
    assert all(r["violations"] == 0 for r in doc["reports"])
    assert all(r["passed"] for r in doc["reports"])


MANIFEST_KEYS = ["package", "numpy", "python", "seed", "argv", "rng_scheme", "simd_target"]


def test_verify_and_optimize_json_carry_the_manifest(capsys):
    argv = ["verify", "--thm", "1.2", "--trials", "5", "--seed", "7"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    manifest = json.loads(out)["manifest"]
    assert list(manifest) == MANIFEST_KEYS
    assert manifest["package"] == hypergon.__version__
    assert manifest["numpy"] == np.__version__
    assert manifest["python"] == platform.python_version()
    assert (manifest["seed"], manifest["argv"]) == (7, argv)
    assert manifest["rng_scheme"] == optimize.RNG_SCHEME
    assert manifest["simd_target"] == cli.simd_target()
    # the scan draws nothing, so an optimize manifest has no seed or RNG scheme
    argv = ["optimize", "--objective", "thm5_radius"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    manifest = json.loads(out)["manifest"]
    assert list(manifest) == MANIFEST_KEYS
    assert (manifest["seed"], manifest["rng_scheme"], manifest["argv"]) == (None, None, argv)


def test_simd_target_names_the_float64_sinh_loop():
    target = cli.simd_target()
    if importlib.util.find_spec("numpy.lib.introspect") is None:
        assert target is None
    else:
        assert isinstance(target, str) and target


def test_verify_rejects_runs_that_check_nothing(capsys):
    for argv in (
        ("verify", "--thm", "1.2", "--trials", "0"),
        ("verify", "--thm", "1.2", "--trials", "-5"),
        ("sample", "--trials", "0"),
        ("sample", "--trials", "-3", "--seed", "-1"),
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
    # every split of this total puts a circumradius past the 1.7 guard, so
    # nothing is asserted; the reports are still written
    code, out = run_cli(capsys, "verify", "--thm", "1.7", "--total", "100", "--trials", "50")
    assert code == 2
    rep = json.loads(out)["reports"][0]
    assert rep["asserted"] == 0
    assert rep["passed"] is False


def test_verify_fails_a_bound_false_at_its_equality_case(capsys, monkeypatch):
    # 1.2 lowered by a relative 1e-6: the regular polygon now exceeds it, but
    # random draws stay clear of equality, so only the equality check sees it
    # (verify_theorem reads the block values from rows, so both are lowered)
    thm2, thm2_rows = bounds.THEOREMS["1.2"]["func"], bounds.THEOREMS["1.2"]["rows"]

    def tightened(n, R):
        res = thm2(n, R)
        return dataclasses.replace(res, value=res.value * (1.0 - 1e-6))

    def tightened_rows(n, R):
        block = thm2_rows(n, R)
        return dataclasses.replace(block, value=block.value * (1.0 - 1e-6))

    monkeypatch.setitem(bounds.THEOREMS["1.2"], "func", tightened)
    monkeypatch.setitem(bounds.THEOREMS["1.2"], "rows", tightened_rows)
    code, out = run_cli(capsys, "verify", "--thm", "1.2", "--trials", "200")
    assert code == 1
    rep = json.loads(out)["reports"][0]
    assert rep["violations"] == 0
    assert rep["equality_abs_error"] > rep["equality_tolerance"]
    assert rep["passed"] is False


def test_verify_slack_scales_with_the_bound(capsys):
    # a bound of 9583 misses its split by one ulp, 1.8e-12: rounding, not a
    # violation, though it is beyond the unscaled slack of 1e-12
    code, out = run_cli(capsys, "verify", "--thm", "1.5", "--n", "6", "--k", "2", "--total", "800",
                        "--trials", "3", "--seed", "3")
    assert code == 0
    rep = json.loads(out)["reports"][0]
    assert -1e-11 < rep["worst_margin"] < -rep["tolerance"]
    assert (rep["violations"], rep["tolerance"], rep["counterexample"]) == (0, optimize.INEQ_TOL, None)
    # the slack the worst draw was held to, checkable from the JSON alone
    bound = bounds.thm5_total_peri_lower(6, 2, 800.0).value
    assert rep["slack_at_worst"] == optimize.INEQ_TOL * bound
    assert rep["worst_margin"] >= -rep["slack_at_worst"]


@pytest.mark.parametrize("argv", [
    ("--thm", "1.5", "--n", "6", "--k", "2", "--total", "800", "--trials", "20", "--seed", "7"),
    ("--thm", "1.10", "--n", "3", "--k", "2", "--total", "4000", "--seed", "1"),
])
def test_verify_skips_split_components_past_the_overflow_guard(capsys, argv):
    # some splits put one component past LEG_MAX; they used to end the whole
    # run with exit 2, at some seeds and not at others
    code, out = run_cli(capsys, "verify", *argv)
    assert code == 0
    rep = json.loads(out)["reports"][0]
    assert rep["skipped"] > 0
    assert rep["asserted"] > 0


@pytest.mark.parametrize("argv", [
    ("sample", "--n", "2", "--trials", "1"),
    ("verify", "--thm", "1.2", "--n", "2", "--trials", "1"),
])
def test_too_few_sides_exit_2_before_the_first_draw(run_module, argv):
    # random_partition never returns for n <= 2, so these ran until killed
    # before n was checked; a child process keeps a hang from stalling the suite
    proc = run_module(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "need integer n >= 3" in proc.stderr


@pytest.mark.parametrize("argv", [
    ("verify", "--thm", "1.1", "--n", "0"),
    ("verify", "--thm", "1.2", "--n", "0"),
    ("verify", "--thm", "1.6", "--n", "0"),
    ("sample", "--n", "0"),
    ("sample", "--kind", "tangential", "--n", "0"),
])
def test_zero_sides_exit_2_without_a_traceback(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""


def test_fixed_total_verify_needs_two_polygons(capsys):
    # every split of one polygon is the equal split, so k=1 would check nothing
    code, out = run_cli(capsys, "verify", "--thm", "1.5", "--k", "1", "--trials", "20")
    assert code == 2
    assert out == ""
    # the single-polygon bounds still ignore k
    code, out = run_cli(capsys, "verify", "--thm", "1.2", "--k", "1", "--trials", "20")
    assert code == 0
    assert json.loads(out)["reports"][0]["k"] == 1


def test_negative_cyclic_radius_exits_2_before_the_first_draw(capsys):
    # at the default seed none of these draws lands below 0, so the run used
    # to pass or fail by the luck of the draw
    for argv in (
        ("verify", "--thm", "1.2", "--range=-1:2", "--trials", "3"),
        ("sample", "--range=-0.5:2", "--trials", "3"),
        ("sample", "--regular", "--range=-0.5:2", "--trials", "3"),
    ):
        code, out = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
    # a window of one radius stays allowed
    code, out = run_cli(capsys, "verify", "--thm", "1.2", "--range", "1:1", "--trials", "3")
    assert code == 0
    assert json.loads(out)["reports"][0]["params"]["radius_range"] == [1.0, 1.0]


def test_sample_of_radius_zero_exits_2(capsys):
    # the scalar draw's constructor rejects a radius of 0, so the block draws
    # must too, rather than print polygons of perimeter 0
    assert main(["sample", "--range", "0:0", "--trials", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: Infeasible: circumradius must be positive, got 0.0"]


def test_verify_rejects_cor1(capsys):
    code, _ = run_cli(capsys, "verify", "--thm", "cor1")
    assert code == 2


def test_verify_rejects_csv():
    # --format belongs to bounds alone, so argparse rejects it (exit status 2)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--thm", "1.1", "--format", "csv"])
    assert exc.value.code == 2


def test_each_subcommand_rejects_the_options_it_does_not_read():
    for argv in (
        ("verify", "--thm", "1.1", "--format", "json"),
        ("sample", "--degrees"),
        ("sample", "--k", "3"),  # a prefix of --kind, whose choices reject 3
        ("bounds", "--thm", "1.2", "--range", "1:1:1", "--seed", "5"),
        ("optimize", "--thm", "1.5", "--seed", "5"),  # the scan draws nothing
    ):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2, argv


# ---------------------------------------------------------------------------
# sample


def test_sample_regular_tangential(capsys):
    code, out = run_cli(
        capsys, "sample", "--kind", "tangential", "--regular", "--n", "5",
        "--trials", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["samples"]) == 3
    for s in doc["samples"]:
        d = s["polygon"]
        assert d["kind"] == "tangential"
        assert len(set(d["thetas"])) == 1
        poly = polygon.TangentialPolygon(n=d["n"], r=d["radius"], thetas=d["thetas"])
        assert math.isclose(polygon.perimeter(poly), s["perimeter"], rel_tol=1e-14)
        assert s["perimeter_route_gap"] <= 1e-9
        assert s["area_route_gap"] <= 1e-8


def test_sample_cyclic_keys(capsys):
    code, out = run_cli(capsys, "sample", "--trials", "2", "--range", "0.2:1.0")
    assert code == 0
    doc = json.loads(out)
    assert set(doc["samples"][0]) == {
        "polygon", "perimeter", "area", "measured_perimeter", "measured_area",
        "perimeter_route_gap", "area_route_gap",
    }


def test_sample_near_the_tangential_limit_exits_2(capsys):
    # the window (0.548, 0.5488) sits just below the 3-gon's ideal-vertex
    # limit: no row of the block walk settles, even read again wide, and
    # the scalar replay gives up after its 1000 attempts
    lo, hi = optimize._radius_window(polygon.TangentialPolygon, 3, (0.548, 0.6))
    stream = optimize._streams(optimize.DEFAULT_SEED)
    _, _, left = optimize._settled_rows(polygon.TangentialPolygon, 3, lo, hi, optimize._read(stream, range(10), 4),
                                        lambda rows, width: optimize._read(stream, rows.tolist(), width))
    assert left.tolist() == list(range(10))
    assert main(["sample", "--kind", "tangential", "--n", "3", "--range", "0.548:0.6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: Infeasible: could not sample a tangential 3-gon in {(lo, hi)}"]


# ---------------------------------------------------------------------------
# optimize


def test_optimize_by_theorem_with_oracle(capsys):
    code, out = run_cli(
        capsys, "optimize", "--thm", "1.7", "--k", "2", "--resolution", "200"
    )
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["certified"] is True
    assert rep["oracle_agreement"] is True
    assert rep["max_deviation_from_uniform"] <= 1e-6
    assert rep["convexity_certificate"]["second_difference_sign"] == "consistent"


def test_optimize_needs_a_target(capsys):
    code, _ = run_cli(capsys, "optimize")
    assert code == 2


def test_optimize_unknown_objective(capsys):
    code, _ = run_cli(capsys, "optimize", "--objective", "no_such_thing")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("--objective", "thm6_radius", "--n", "2"),  # a numpy traceback before n was checked
    ("--objective", "thm7_radius", "--n", "-3"),  # exit 0, on a problem that means nothing
    ("--thm", "1.4", "--n", "2"),  # the sector objectives ignore n, yet n = 2 is no polygon
    ("--objective", "thm5_radius", "--n", "0"),  # exit 2 only by a division by zero
])
def test_optimize_checks_n_before_building_the_objective(capsys, argv):
    code = main(["optimize", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: Infeasible: need integer n >= 3, got {argv[-1]}"]


def test_optimize_oracle_outside_k_2_or_3_exits_2_before_solving(capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the solve ran")

    monkeypatch.setattr(optimize, "certify_convexity", no_solve)
    code, out = run_cli(capsys, "optimize", "--objective", "thm5_radius", "--k", "4", "--resolution", "100")
    assert code == 2
    assert out == ""


# ---------------------------------------------------------------------------
# argument errors


def test_bad_range_spec(capsys):
    code, _ = run_cli(capsys, "bounds", "--thm", "1.2", "--range", "1:2")
    assert code == 2
    code, _ = run_cli(capsys, "bounds", "--thm", "1.2", "--range", "2:1:5")
    assert code == 2
    for spec in ("inf:inf:1", "1:inf:3", "nan:1:2", "-1e308:1e308:3"):
        code, _ = run_cli(capsys, "bounds", "--thm", "1.2", f"--range={spec}")
        assert code == 2, spec


def test_report_rejects_empty_batteries(tmp_path, capsys):
    for flag in ("--polygons", "--trials", "--splits"):
        code, out = run_cli(capsys, "report", "--out", str(tmp_path / "bundle"), flag, "0")
        assert code == 2, flag
        assert out == ""
    assert not (tmp_path / "bundle").exists()


def test_report_where_a_bound_asserted_nothing_exits_2(tmp_path, capsys):
    # one draw per bound at n=12: 1.1, 1.3 and 1.9 and 1.10 at k=3 draw
    # nothing inside their guards, which is no verdict, not a violation
    bundle = tmp_path / "bundle"
    code = main(["report", "--out", str(bundle), "--n", "12", "--polygons", "1", "--trials", "1", "--splits", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: nothing was asserted for 1.1, 1.3, 1.9 at k=3, 1.10 at k=3: "
                            "every draw fell outside the guard\n")
    assert not bundle.exists()


@pytest.mark.parametrize("call", [0, 1, 5])
def test_a_nan_route_gap_fails_criterion_1(monkeypatch, call):
    # a NaN gap in any group of polygons, first or later, is the worst gap
    both_routes = cli._both_routes
    calls = []

    def nan_gap(kind, radii, ts):
        routes = both_routes(kind, radii, ts)
        if len(calls) == call:
            routes["area_route_gap"][0] = math.nan
        calls.append(kind)
        return routes

    monkeypatch.setattr(cli, "_both_routes", nan_gap)
    files, failures = cli.render_bundle(6, 2, 7, 300, 20, 20)
    assert len(calls) > call
    assert failures == 1
    assert "- [FAIL] 1. closed-form vs measured metrics: 300 polygons, worst perimeter gap" in files["report.md"]
    assert files["report.md"].split("\n- [FAIL] 1.")[1].split("\n")[0].endswith("worst area gap nan")


def test_report_with_a_bad_seed_writes_nothing(tmp_path, capsys):
    # invalid input exits 2 before the output directory is made
    for flag, value in (("--seed", "-1"), ("--n", "2"), ("--n", "0"), ("--k", "0")):
        code, out = run_cli(capsys, "report", "--out", str(tmp_path / "bundle"), flag, value)
        assert code == 2, flag
        assert out == ""
        assert not (tmp_path / "bundle").exists()


def test_overflowing_radius_exits_2(capsys):
    for argv in (
        ("bounds", "--thm", "1.2", "--range", "800:800:1"),
        ("bounds", "--thm", "1.5", "--range", "1500:1500:1"),
        ("bounds", "--thm", "1.10", "--range", "1e6:1e6:1"),
        ("verify", "--thm", "1.2", "--range", "800:900"),
        ("verify", "--thm", "1.5", "--total", "1e300", "--trials", "3"),
        ("sample", "--range", "800:900"),
        ("sample", "--range", "600:700"),  # below LEG_MAX, past the measurement's overflow
        ("sample", "--kind", "tangential", "--regular", "--range", "800:900"),
    ):
        code, _ = run_cli(capsys, *argv)
        assert code == 2, argv


@given(lo=st.floats(), hi=st.floats(), steps=st.integers(1, 4))
@example(lo=math.inf, hi=math.inf, steps=1)
@example(lo=0.0, hi=1.7976931348623157e308, steps=4)  # linspace overflows
@example(lo=400.0, hi=400.0, steps=1)  # sinh R near 1e173
@example(lo=800.0, hi=800.0, steps=1)  # past LEG_MAX
def test_bounds_all_never_raises(lo, hi, steps):
    # any float ends, nan and inf included: rows or a clean input error,
    # never a traceback or a numpy warning leaking out of the sweep
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["bounds", "--thm", "all", f"--range={lo!r}:{hi!r}:{steps}", "--out", os.devnull])
    assert code in (0, 2)


@pytest.mark.parametrize("seed", ["-1", str(2**128)])
def test_seed_outside_the_key_range_exits_2(tmp_path, capsys, seed):
    for argv in (
        ("verify", "--thm", "1.2", "--trials", "3"),
        ("sample", "--trials", "2"),
        ("report", "--out", str(tmp_path / "bundle"), "--polygons", "1", "--trials", "1", "--splits", "1"),
    ):
        code = main([*argv, f"--seed={seed}"])
        err = capsys.readouterr().err
        assert code == 2, argv
        assert "Traceback" not in err
        assert "seed must be in [0, 2**128)" in err


def test_unknown_theorem(capsys):
    code, _ = run_cli(capsys, "bounds", "--thm", "9.9", "--range", "1:2:2")
    assert code == 2


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--range", "1:2:2"])
    assert exc.value.code == 2


def test_module_entry_point(run_module):
    proc = run_module("bounds", "--thm", "1.3", "--range", "0.8:0.8:1", "--format", "csv")
    assert proc.returncode == 0
    assert proc.stdout.startswith(CSV_HEADER)


def test_bench_tracer_wraps_and_restores_every_traced_name():
    # bench/tracing.py looks up each traced name with getattr, so a deleted
    # name fails here and not only under `bench/run.py --trace 1`
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("hypergon_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    import hypergon.cli  # noqa: F401  every module the tracer patches

    modules = [m for name, m in sys.modules.items() if name == "hypergon" or name.startswith("hypergon.")]
    before = [(m, dict(vars(m))) for m in modules]
    funcs = {t: entry["func"] for t, entry in bounds.THEOREMS.items()}
    verify_theorem = optimize.verify_theorem
    with tracing.Tracer():
        assert optimize.verify_theorem is not verify_theorem
        assert bounds.THEOREMS["1.1"]["func"] is not funcs["1.1"]
    changed = [f"{m.__name__}.{attr}" for m, attrs in before
               for attr, value in attrs.items() if vars(m).get(attr) is not value]
    assert changed == []
    assert {t: entry["func"] for t, entry in bounds.THEOREMS.items()} == funcs


def test_bench_checker_counts_every_injected_bad_verdict(monkeypatch):
    # bench/checker.py reads fields of OptimizationReport and
    # VerificationReport, so a renamed or deleted field fails here and not
    # only under `bench/run.py`
    path = Path(__file__).resolve().parent.parent / "bench" / "checker.py"
    spec = importlib.util.spec_from_file_location("hypergon_bench_checker", path)
    checker = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, checker)  # dataclasses look their module up
    spec.loader.exec_module(checker)
    cases = checker.self_test(optimize)
    assert "baseline" in cases
    assert {name: counted for name, (counted, _) in cases.items()} == {
        name: injected for name, (_, injected) in cases.items()}
