"""Verdict checking for the benchmark.

Every verdict a workload produces becomes a `Verdict`: a key naming the
cell, whether the verdict is sound on its own, the facts the golden file
pins at the default seed, and extra values that must only repeat exactly
between passes of one seed.  A verdict is wrong when it is unsound, or, at
the default seed, when its facts differ from the golden file.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# The sign of f'' that certifies an equal split for each sense.
_NEEDED_SIGN = {"minimize": "positive", "maximize": "negative"}


@dataclass(frozen=True)
class Verdict:
    key: str
    ok: bool
    facts: dict
    extra: dict = field(default_factory=dict)


def verify_verdict(key: str, rep, eq_tol: float) -> Verdict:
    """A VerificationReport is sound when it asserted something, found no
    violation and reproduced the equality configuration within eq_tol."""
    ok = (rep.violations == 0 and rep.asserted > 0
          and (rep.equality_abs_error is None or rep.equality_abs_error <= eq_tol))
    return Verdict(
        key, ok,
        {"asserted": rep.asserted, "skipped": rep.skipped, "violations": rep.violations},
        {"worst_margin": rep.worst_margin, "equality_abs_error": rep.equality_abs_error},
    )


def solve_verdict(key: str, rep) -> Verdict:
    """An OptimizationReport is sound when certified and the oracle agrees."""
    ok = rep.certified and rep.oracle_agreement is True
    return Verdict(
        key, ok,
        {"certified": rep.certified, "agreement": rep.oracle_agreement},
        {"iterations": rep.iterations, "objective": rep.objective_at_argmin},
    )


# ---------------------------------------------------------------------------
# the report bundle


def _table(lines: list[str], heading: str) -> list[list[str]]:
    """Body rows of the first markdown table after a `## heading` line."""
    start = lines.index(f"## {heading}")
    rows = []
    for line in lines[start + 1:]:
        if line.startswith("## "):
            break
        if line.startswith("| "):
            rows.append([c.strip() for c in line.strip("|").split("|")])
    return rows[1:]  # drop the header; the |---| rule does not start with "| "


def report_verdicts(exit_code: int, report_md: str, eq_tol: float) -> tuple[list[Verdict], dict[str, str]]:
    """Verdicts read back from report.md, and the battery lines by key.

    The battery lines carry measured numbers, so their text is compared
    like bundle bytes (a change is reported, not counted); their PASS or
    FAIL and their label are verdict facts.
    """
    lines = report_md.split("\n")
    out = [Verdict("report/exit", exit_code == 0, {"exit": exit_code})]
    battery_text = {}
    for line in lines:
        if line.startswith("- [PASS] ") or line.startswith("- [FAIL] "):
            status, rest = line[3:7], line[9:]
            label = rest.split(":", 1)[0]
            key = f"report/battery/{label.split('.', 1)[0]}"
            battery_text[key] = line
            out.append(Verdict(key, status == "PASS", {"status": status, "label": label}))
    for bound, k, trials, asserted, skipped, violations, _worst, eq in _table(lines, "Random-polygon verification"):
        ok = (int(violations) == 0 and int(asserted) > 0
              and (eq == "-" or float(eq) <= eq_tol))
        out.append(Verdict(
            f"report/verify/{bound}/k={k}", ok,
            {"asserted": int(asserted), "skipped": int(skipped), "violations": int(violations)},
            {"trials": int(trials)},
        ))
    for objective, k, sense, sign, _dev, _cells, agree in _table(lines, "Equal-split certification"):
        certified = sign == _NEEDED_SIGN[sense]
        out.append(Verdict(
            f"report/solve/{objective}/k={k}", certified and agree == "yes",
            {"certified": certified, "agreement": agree},
        ))
    return out, battery_text


# ---------------------------------------------------------------------------
# counting


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def wrong_verdicts(verdicts: list[Verdict], golden: dict | None) -> list[str]:
    """Keys of the wrong verdicts; golden (workload section) may be None."""
    wrong = [v.key for v in verdicts if not v.ok]
    if golden is not None:
        seen = {v.key: v.facts for v in verdicts}
        for key, facts in golden.items():
            if seen.get(key) != facts and key not in wrong:
                wrong.append(key)
        wrong += [key for key in seen if key not in golden and key not in wrong]
    return wrong


def drifted(first: list[Verdict], later: list[Verdict]) -> list[str]:
    """Keys whose facts or extra values differ between two passes of one seed."""
    a = {v.key: (v.ok, v.facts, v.extra) for v in first}
    b = {v.key: (v.ok, v.facts, v.extra) for v in later}
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


# ---------------------------------------------------------------------------
# self-test


def self_test(optimize) -> dict[str, tuple[int, int]]:
    """Inject bad verdicts of each kind into sound ones and count them.

    Returns case -> (wrong verdicts counted, wrong verdicts injected).  A
    checker that misses any of them would let the gate pass vacuously.
    """
    good_rep = optimize.verify_theorem("1.2", n=6, trials=20)
    problem = optimize.make_problem("thm5_radius", k=2, n=6)
    good_solve = optimize.solve_equal_sum(problem, oracle_resolution=60)
    good_md = "\n".join([
        "- [PASS] 1. closed-form vs measured metrics: fine",
        "## Random-polygon verification", "",
        "| bound | k | trials | asserted | skipped | violations | worst margin | equality error |",
        "|---|---|---|---|---|---|---|---|",
        "| 1.2 | - | 20 | 20 | 0 | 0 | 0.5 | 1e-15 |",
        "## Equal-split certification", "",
        "| objective | k | sense | f'' sign | max |x - c/k| | oracle cells | agree |",
        "|---|---|---|---|---|---|---|",
        "| thm5_radius | 2 | minimize | positive | 1e-12 | 0.40 | yes |",
    ])
    eq_tol = optimize.EQ_TOL
    cases = {
        "baseline": ([verify_verdict("v", good_rep, eq_tol), solve_verdict("s", good_solve)]
                     + report_verdicts(0, good_md, eq_tol)[0], 0),
        "one violation": ([verify_verdict("v", dataclasses.replace(good_rep, violations=1), eq_tol)], 1),
        "asserted == 0": ([verify_verdict("v", dataclasses.replace(good_rep, asserted=0), eq_tol)], 1),
        "equality error above EQ_TOL": (
            [verify_verdict("v", dataclasses.replace(good_rep, equality_abs_error=1e-6), eq_tol)], 1),
        "not certified": ([solve_verdict("s", dataclasses.replace(good_solve, certified=False))], 1),
        "oracle disagrees": ([solve_verdict("s", dataclasses.replace(good_solve, oracle_agreement=False))], 1),
        "battery FAIL line": (report_verdicts(1, good_md.replace("[PASS]", "[FAIL]"), eq_tol)[0], 2),
        "report violation row": (report_verdicts(0, good_md.replace("| 20 | 0 | 0 |", "| 20 | 0 | 1 |"), eq_tol)[0], 1),
        "golden count differs": ([verify_verdict("v", good_rep, eq_tol)],
                                 {"v": {"asserted": 19, "skipped": 1, "violations": 0}}),
    }
    out = {}
    for name, (verdicts, expect) in cases.items():
        golden = expect if isinstance(expect, dict) else None
        out[name] = (len(wrong_verdicts(verdicts, golden)), 1 if golden is not None else expect)
    return out
