"""End-to-end tests of the command line front end, in process."""

import json
import math
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import frozen
import hypergon
from hypergon import bounds, polygon
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
    assert doc["schema_version"] == 1
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
    assert doc["schema_version"] == 1
    assert len(doc["reports"]) == 10
    assert all(r["violations"] == 0 for r in doc["reports"])
    assert all(r["passed"] for r in doc["reports"])


def test_verify_rejects_runs_that_check_nothing(capsys):
    for trials in ("0", "-5"):
        code, out = run_cli(capsys, "verify", "--thm", "1.2", "--trials", trials)
        assert code == 2
        assert out == ""
    # every split of this total puts a circumradius past the 1.7 guard, so
    # nothing is asserted; the reports are still written
    code, out = run_cli(capsys, "verify", "--thm", "1.7", "--total", "100", "--trials", "50")
    assert code == 2
    rep = json.loads(out)["reports"][0]
    assert rep["asserted"] == 0
    assert rep["passed"] is False


def test_verify_rejects_cor1(capsys):
    code, _ = run_cli(capsys, "verify", "--thm", "cor1")
    assert code == 2


def test_verify_rejects_csv(capsys):
    code, _ = run_cli(capsys, "verify", "--thm", "1.1", "--format", "csv")
    assert code == 2


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
        poly = polygon.from_json_dict(s["polygon"])
        assert poly.kind == "tangential"
        assert len(set(s["polygon"]["thetas"])) == 1
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


def test_overflowing_radius_exits_2(capsys):
    for argv in (
        ("bounds", "--thm", "1.2", "--range", "800:800:1"),
        ("bounds", "--thm", "1.5", "--range", "1500:1500:1"),
        ("bounds", "--thm", "1.10", "--range", "1e6:1e6:1"),
        ("verify", "--thm", "1.2", "--range", "800:900"),
        ("verify", "--thm", "1.5", "--total", "1e300", "--trials", "3"),
        ("sample", "--range", "800:900"),
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


def test_unknown_theorem(capsys):
    code, _ = run_cli(capsys, "bounds", "--thm", "9.9", "--range", "1:2:2")
    assert code == 2


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--range", "1:2:2"])
    assert exc.value.code == 2


def test_module_entry_point():
    # the child imports the same hypergon as this process, installed or not
    src = os.path.dirname(os.path.dirname(hypergon.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "hypergon", "bounds", "--thm", "1.3",
         "--range", "0.8:0.8:1", "--format", "csv"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith(CSV_HEADER)
