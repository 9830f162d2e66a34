"""End-to-end tests of the command line front end, in process."""

import ast
import collections
import dataclasses
import importlib.util
import json
import math
import os
import sys
import platform
import re
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
from hypergon.errors import Infeasible


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


def test_help_names_the_csv_columns(capsys):
    # the module docstring is the `hypergon --help` description and spells
    # out the frozen columns a second time: a schema change must change it too
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    columns = re.search(r"frozen column set\s+(\S+) with", capsys.readouterr().out)
    assert columns is not None and columns.group(1) == CSV_HEADER


def test_bounds_csv_text_is_pinned(capsys):
    # the frozen schema cell by cell: ints as written, floats as %.17g, a
    # guard margin of inf, both flags, and cor1's reference and difference rows
    code, out = run_cli(capsys, "bounds", "--thm", "cor1", "--n", "6", "--range", "0.25:1.5:2")
    assert code == 0
    assert out.splitlines() == [
        "theorem,n,k,param,value,feasible,guard_margin",
        "cor1,6,1,0.25,0.034168296009547898,true,inf",
        "cor1_ref,6,1,0.25,0.2153753025575903,true,inf",
        "cor1_diff,6,1,0.25,-0.18120700654804239,true,inf",
        "cor1,6,1,1.5,-0.069928056274827732,false,inf",
        "cor1_ref,6,1,1.5,1.0553597029342672,true,inf",
        "cor1_diff,6,1,1.5,-1.1252877592090949,false,inf",
    ]
    code, out = run_cli(capsys, "bounds", "--thm", "1.10", "--n", "6", "--k", "2", "--range", "1:20:2")
    assert code == 0
    assert out.splitlines() == [
        "theorem,n,k,param,value,feasible,guard_margin",
        "1.10,6,2,1,0.03601152572682409,false,-7.4017473815488994",
        "1.10,6,2,20,8.6777050533930762,true,2.0982526184511006",
    ]


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


@pytest.mark.parametrize("argv, skipped, reason", [
    # 1.1 has no guard inside the tangential window: both polygons drawn at
    # n = 6 have an ideal vertex
    (("--thm", "1.1", "--trials", "2"), 2, "1.1: every draw had an ideal vertex"),
    (("--thm", "1.7", "--total", "100", "--trials", "3"), 3, "1.7 at k=2: every split fell outside the guard window"),
])
def test_verify_names_why_a_bound_asserted_nothing(capsys, argv, skipped, reason):
    code = main(["verify", *argv])
    captured = capsys.readouterr()
    assert code == 2
    rep = json.loads(captured.out)["reports"][0]
    assert (rep["asserted"], rep["skipped"]) == (0, skipped)
    assert captured.err == f"error: nothing was asserted for {reason}\n"


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
    assert rep["equality_tolerance"] == optimize.EQ_TOL  # absolute for a single polygon
    assert rep["passed"] is False


@pytest.mark.parametrize("k", [2, 100_000])
def test_verify_holds_the_uniform_split_to_a_tolerance_scaled_to_the_bound(capsys, monkeypatch, k):
    # at k = 100000 the left-to-right sum of the equal components misses a
    # bound of 6.7e5 by 1.1e-6, rounding that the absolute EQ_TOL called a failure
    code, out = run_cli(capsys, "verify", "--thm", "1.5", "--k", str(k), "--trials", "2")
    assert code == 0
    rep = json.loads(out)["reports"][0]
    bound = bounds.thm5_total_peri_lower(6, k, rep["params"]["total"]).value
    assert rep["equality_tolerance"] == optimize.EQ_TOL * bound
    assert rep["equality_abs_error"] <= rep["equality_tolerance"]
    if k > 2:
        assert rep["equality_abs_error"] > optimize.EQ_TOL
    # 1.5 raised by a relative 1e-6: the uniform split now falls below it,
    # which only the equality check sees
    thm5 = bounds.THEOREMS["1.5"]["func"]

    def raised(*args):
        res = thm5(*args)
        return dataclasses.replace(res, value=res.value * (1.0 + 1e-6))

    monkeypatch.setitem(bounds.THEOREMS["1.5"], "func", raised)
    code, out = run_cli(capsys, "verify", "--thm", "1.5", "--k", str(k), "--trials", "2")
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
    # must too, rather than print polygons of perimeter 0; a regular block
    # builds one polygon, at its smallest radius, to the same end
    for regular in ((), ("--regular",)):
        assert main(["sample", "--range", "0:0", "--trials", "3", *regular]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: Infeasible: circumradius must be positive, got 0.0"]


@pytest.mark.parametrize("argv, message", [
    (("--range", "3:4"), "radius range (3.0, 4.0) has no tangential window for n=6"),
    (("--range", "0:0"), "radius range (0.0, 0.0) has no tangential window for n=6"),
    (("--n", "3", "--k", "1"), "1.5 bounds a total over k >= 2 polygons, got k=1"),
    (("--total", "-1"), "radius must be positive, got -1.0"),
    (("--n", "2"), "need integer n >= 3, got 2"),
])
def test_verify_all_names_the_first_cell_that_fails(capsys, argv, message):
    # every cell is set up before the first draw, in theorem order, so the
    # error is the first one a loop over the ids would raise, and nothing
    # is written
    code = main(["verify", "--thm", "all", *argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: Infeasible: {message}\n")


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


def test_sample_near_the_tangential_limit_exits_2(capsys, monkeypatch):
    # the window (0.548, 0.5488) sits just below the 3-gon's ideal-vertex
    # limit, so no row settles: each round reads every row again from word 0
    # at four times the width, 16 words, 64, ..., until one row's 1000
    # polygon attempts fit in its words, and it gives up there as
    # random_tangential_polygon does, with no scalar draw run
    lo, hi = optimize._radius_window("tangential", 3, (0.548, 0.6))
    seed = optimize.DEFAULT_SEED
    index = np.arange(10)
    need = []
    for i in index.tolist():
        rng = optimize.trial_rng(seed, i)
        with pytest.raises(Infeasible):
            optimize.random_tangential_polygon(3, (lo, hi), rng)
        state = rng.bit_generator.state
        used = 4 * state["state"]["counter"][0] - 4 + state["buffer_pos"]
        need.append(next(j for j in range(20) if used <= 4 * 4**j))
    read, reads = optimize._read, []

    def counted(seed, indices, width):
        reads.append((np.asarray(indices).tolist(), width))
        return read(seed, indices, width)

    with monkeypatch.context() as m:
        m.setattr(optimize, "_read", counted)
        for name in ("_draw_polygon", "random_partition", "random_tangential_polygon"):
            m.setattr(optimize, name, None)  # calling one raises TypeError
        with pytest.raises(Infeasible, match="could not sample a tangential 3-gon"):
            optimize._settled_rows("tangential", 3, lo, hi, seed, index, read(seed, index, 4))
    rounds = {}
    for streams, width in reads:
        rounds.setdefault(width, []).extend(streams)
    assert list(rounds) == [16 * 4**j for j in range(min(need))]
    assert all(streams == index.tolist() for width, streams in rounds.items() if width < 4 * 4**min(need))
    assert main(["sample", "--kind", "tangential", "--n", "3", "--range", "0.548:0.6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: Infeasible: could not sample a tangential 3-gon in {(lo, hi)}"]


def test_every_draw_runs_without_the_scalar_draws(capsys, monkeypatch):
    # sample, verify and the battery's polygons settle every row in the
    # block walker, at n = 3 where partitions are redrawn and most tangential
    # draws have an ideal vertex; the scalar draws stay only as references
    def scalar(*args):
        raise AssertionError("a scalar draw ran")

    for name in ("_draw_polygon", "random_partition", "random_cyclic_polygon", "random_tangential_polygon"):
        monkeypatch.setattr(optimize, name, scalar)
    for kind in ("cyclic", "tangential"):
        code, out = run_cli(capsys, "sample", "--kind", kind, "--n", "3", "--trials", "500")
        assert code == 0 and len(json.loads(out)["samples"]) == 500
    code, out = run_cli(capsys, "verify", "--thm", "all", "--n", "3")
    assert code == 0 and len(json.loads(out)["reports"]) == 10
    assert sum(len(radii) for _, radii, _ in cli._crit1_polygons(optimize.DEFAULT_SEED, 10_000)) == 10_000


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


@pytest.mark.parametrize("argv, error", [
    # a radius used to be ignored by the objectives that take none
    (("--objective", "thm9_theta", "--radius", "nan"), "objective 'thm9_theta' takes no radius, got nan"),
    (("--thm", "1.5", "--radius", "1"), "objective 'thm5_radius' takes no radius, got 1.0"),
    # and to fail on the empty interval it gave a sector objective
    (("--objective", "tangential_tangent_length", "--radius", "inf"),
     "objective 'tangential_tangent_length' needs a radius in (0, 700.0], got inf"),
    (("--objective", "cyclic_half_side", "--radius", "0"),
     "objective 'cyclic_half_side' needs a radius in (0, 700.0], got 0.0"),
])
def test_optimize_checks_the_radius(capsys, argv, error):
    code = main(["optimize", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: Infeasible: {error}"]


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


@pytest.mark.parametrize("spec, need", [
    ("1:2:0", "steps >= 1"),
    ("1:2:-3", "steps >= 1"),
    ("1:1:3", "lo < hi when steps > 1"),
    ("2:1:5", "finite ends with lo <= hi"),
    ("nan:1:1", "finite ends with lo <= hi"),
])
def test_bad_range_names_the_condition_that_failed(capsys, spec, need):
    code = main(["bounds", "--thm", "1.1", f"--range={spec}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: bad range {spec!r}; need {need}"]


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
    assert captured.err == ("error: nothing was asserted for 1.1, 1.3: every draw had an ideal vertex; "
                            "for 1.9 at k=3, 1.10 at k=3: every split fell outside the guard window\n")
    assert not bundle.exists()


@pytest.mark.parametrize("call", [0, 1, 5])
def test_a_nan_route_gap_fails_criterion_1(monkeypatch, call):
    # a NaN gap in any block of polygons, first or later, is the worst gap
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


@pytest.mark.parametrize("polygons", [1, 19])
def test_criterion_1_passes_with_empty_cells(polygons):
    # fewer polygons than the 20 (family, n) cells leave cells with no stream
    files, failures = cli.render_bundle(6, 2, 7, polygons, 20, 20)
    assert failures == 0
    line, = [line for line in files["report.md"].splitlines() if "1. closed-form vs measured metrics" in line]
    assert line.startswith(f"- [PASS] 1. closed-form vs measured metrics: {polygons} polygons, worst perimeter gap ")


def test_report_prints_the_shipped_fixed_perimeter_bound(monkeypatch):
    # the "bound with cosh" line is bounds.thm10_total_area_upper's value,
    # not a copy of its formula: a bound moved by 1% shows in the report
    thm10 = bounds.thm10_total_area_upper
    moved = []

    def moved_thm10(n, k, T):
        res = thm10(n, k, T)
        moved.append(dataclasses.replace(res, value=1.01 * res.value))
        return moved[-1]

    monkeypatch.setattr(bounds, "thm10_total_area_upper", moved_thm10)
    files, _ = cli.render_bundle(6, 2, 7, 300, 20, 20)
    [res] = [r for r in moved if r.k == 1]
    assert f"- bound with cosh:       {res.value:.12g}" in files["report.md"].splitlines()


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


def bench_tracing():
    """bench/tracing.py, loaded under a name of its own; the file is only read."""
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("hypergon_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_bench_traced_name_resolves():
    # bench/tracing.py resolves each SPANS and COUNTERS name with getattr on
    # its hypergon module, so deleting or renaming one of those functions
    # breaks `bench/run.py --trace 1`; this names the ones that went
    tracing = bench_tracing()
    names = [(short, name) for short, names in tracing.SPANS.values() for name in names]
    names += list(tracing.COUNTERS.values())
    missing = [f"hypergon.{short}.{name}" for short, name in names
               if not callable(getattr(importlib.import_module(f"hypergon.{short}"), name, None))]
    assert names and missing == []


# The top-level src/ definitions that no other src/ code names, apart from
# the __init__ re-exports: the public calls kept for their users, the
# tests' scalar references and bench/tracing.py's spans.
UNREFERENCED = {
    "bounds.equality_value",
    "hmodel.embed", "hmodel.measured_perimeter", "hmodel.measured_area", "hmodel.measured_interior_angles",
    "hypmath.coshm1", "hypmath.acos_snapped", "hypmath.hyp_hypotenuse",
    "optimize.trial_rng", "optimize.random_split", "optimize.random_cyclic_polygon",
    "optimize.random_tangential_polygon",
}


def test_unreferenced_src_definitions_are_the_known_ones():
    # an AST scan of src/: a function or class defined at module level
    # counts as referenced when another src/ statement names it, as a name,
    # an attribute or an import, outside its own definition.  A new
    # definition nothing reaches fails here, and so does deleting one of
    # UNREFERENCED or giving it a caller without updating the set
    modules = {path.stem: ast.parse(path.read_text()) for path in Path(hypergon.__file__).parent.glob("*.py")
               if path.name != "__init__.py"}
    defined = {(mod, node.name): node for mod, tree in modules.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    named = collections.Counter()
    for mod, tree in modules.items():
        for top in tree.body:
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute)
                        else node.name if isinstance(node, ast.alias) else None)
                if name is not None and defined.get((mod, name)) is not top:
                    named[name] += 1
    assert {f"{mod}.{name}" for mod, name in defined if not named[name]} == UNREFERENCED


def test_bench_tracer_wraps_and_restores_every_traced_name():
    # the Tracer wraps every traced name while active and leaves no wrapper behind
    tracing = bench_tracing()
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
