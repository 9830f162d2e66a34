"""The three benchmark workloads, each driven through public functions.

One call of a workload function is one pass: it returns the clock marks
that cut the pass at the start and end of each verdict call, the number of
random draws it checked, its verdicts, and the sha256 of any files it
wrote.  Passes of one seed must agree exactly.
"""

from __future__ import annotations

import hashlib
import io
import random
import tempfile
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from hypergon import cli, optimize

import checker

# report: the CLI defaults, spelled out so the draw count is known here
REPORT_POLYGONS, REPORT_TRIALS, REPORT_SPLITS = 10_000, 10_000, 1000

# verify: (n, trials) for the single-polygon bounds in both radius windows
SINGLE_CELLS = ((3, 2000), (12, 1500), (192, 300))
SINGLE_WINDOWS = ((0.1, 2.0), (1e-3, 15.0))
MULTI_NS, MULTI_KS, MULTI_TRIALS = (3, 12), (2, 5), 1500

# certify: objectives that ignore n run at n=6 only
SECTOR_OBJECTIVES = frozenset({
    "cyclic_half_side", "cyclic_half_angle", "tangential_tangent_length", "tangential_interior_angle",
})
CERTIFY_KS = ((2, 200), (3, 60))  # (k, oracle resolution)
CERTIFY_LEVELS = (None, 0.85)  # default placement, then 0.85 of the interval


@dataclass
class Pass:
    # perf_counter at pass start, at the start and end of each verdict
    # call, and at the last verdict
    marks: list[float]
    draws: int
    verdicts: list[checker.Verdict]
    files: dict[str, str] = field(default_factory=dict)  # name -> sha256
    battery: dict[str, str] = field(default_factory=dict)  # key -> line

    @property
    def wall_s(self) -> float:
        return self.marks[-1] - self.marks[0]

    @property
    def pieces(self) -> list[float]:
        """Gap, call, gap, call, ..., gap: the pass cut at call boundaries."""
        return [b - a for a, b in zip(self.marks, self.marks[1:])]


@contextmanager
def _marked(module, name: str, marks: list[float]):
    """Mark the start and end of each call of module.name, restoring it afterwards."""
    fn = getattr(module, name)

    def marked(*args, **kwargs):
        marks.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            marks.append(perf_counter())

    setattr(module, name, marked)
    try:
        yield
    finally:
        setattr(module, name, fn)


def report(seed: int, scratch: Path) -> Pass:
    """`hypergon report` with the default sizes, bundle in a temporary dir.

    The verdict calls are the report's 22 verify_theorem and 20
    solve_equal_sum calls; the cli reaches both as attributes of the
    optimize module, so marks set there see every call.
    """
    marks: list[float] = []
    with (tempfile.TemporaryDirectory(dir=scratch) as tmp,
          _marked(optimize, "verify_theorem", marks), _marked(optimize, "solve_equal_sum", marks)):
        argv = ["report", "--out", tmp, "--seed", str(seed), "--polygons", str(REPORT_POLYGONS),
                "--trials", str(REPORT_TRIALS), "--splits", str(REPORT_SPLITS)]
        with redirect_stdout(io.StringIO()):
            marks.append(perf_counter())
            code = cli.main(argv)
            marks.append(perf_counter())
        files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(Path(tmp).iterdir())}
        report_md = (Path(tmp) / "report.md").read_text()
    verdicts, battery = checker.report_verdicts(code, report_md, optimize.EQ_TOL)
    trials = sum(v.extra["trials"] for v in verdicts if v.key.startswith("report/verify/"))
    return Pass(marks, REPORT_POLYGONS + trials, verdicts, files, battery)


def verify_cells() -> list[tuple[str, int, int, tuple[float, float] | None, int]]:
    """(theorem, n, k, radius window, trials) for every verify call."""
    cells = []
    for thm in ("1.1", "1.2", "1.3", "1.4"):
        for window in SINGLE_WINDOWS:
            for n, trials in SINGLE_CELLS:
                cells.append((thm, n, 1, window, trials))
    for thm in ("1.5", "1.6", "1.7", "1.8", "1.9", "1.10"):
        for n in MULTI_NS:
            for k in MULTI_KS:
                cells.append((thm, n, k, None, MULTI_TRIALS))
    return cells


def verify(seed: int, scratch: Path) -> Pass:
    """optimize.verify_theorem over all ten bounds, 48 calls."""
    marks, verdicts, draws = [perf_counter()], [], 0
    for thm, n, k, window, trials in verify_cells():
        kwargs = {"radius_range": window} if window else {}
        marks.append(perf_counter())
        rep = optimize.verify_theorem(thm, n=n, k=k, trials=trials, seed=seed, **kwargs)
        marks.append(perf_counter())
        draws += rep.trials
        key = f"verify/{thm}/n={n}/k={k}" + (f"/window={window[0]:g}-{window[1]:g}" if window else "")
        verdicts.append(checker.verify_verdict(key, rep, optimize.EQ_TOL))
    marks.append(perf_counter())
    return Pass(marks, draws, verdicts)


def certify_cells(seed: int) -> list[tuple[str, int, int, int, float | None]]:
    """(objective, n, k, resolution, level) for all 64 solves, in seed order."""
    cells = [
        (name, n, k, res, level)
        for name in optimize.OBJECTIVES
        for n in ((6,) if name in SECTOR_OBJECTIVES else (3, 12))
        for k, res in CERTIFY_KS
        for level in CERTIFY_LEVELS
    ]
    random.Random(seed).shuffle(cells)
    return cells


def certify(seed: int, scratch: Path) -> Pass:
    """make_problem plus solve_equal_sum with the grid oracle, 64 solves.

    The optimizer's multistart seed stays at the package default, as in
    every `hypergon optimize` call without --seed.  At other multistart
    seeds the descent-bounce defect fires or not per seed and moves a pass
    between 3 s and 8 s, which would make the spread across workload seeds
    a measure of that coin flip.  The workload seed sets the solve order.
    """
    marks, verdicts = [perf_counter()], []
    for name, n, k, res, level in certify_cells(seed):
        problem = optimize.make_problem(name, k=k, n=n)
        if level is not None:
            lo, hi = problem.interval
            problem = optimize.make_problem(name, k=k, n=n, c=k * (lo + level * (hi - lo)))
        marks.append(perf_counter())
        rep = optimize.solve_equal_sum(problem, oracle_resolution=res)
        marks.append(perf_counter())
        key = f"certify/{name}/n={n}/k={k}/level={'default' if level is None else level}"
        verdicts.append(checker.solve_verdict(key, rep))
    marks.append(perf_counter())
    return Pass(marks, len(verdicts), sorted(verdicts, key=lambda v: v.key))


WORKLOADS = {"report": report, "verify": verify, "certify": certify}
