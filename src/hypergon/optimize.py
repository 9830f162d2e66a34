"""Equal-split certification for sum-constrained separable objectives.

Every bound in this package reduces to the same fact: for a convex f on an
interval I, the minimum of sum(f(x_i)) over x in I^k with sum(x_i) = c sits
at the uniform point (c/k, ..., c/k) (maximum for concave f).  This module
makes that fact checkable three independent ways: a finite-difference sign
certificate for f'', projected gradient descent over the constraint plane,
and an exhaustive grid oracle for k in {2, 3}.  It also hosts the
randomized per-theorem verification driver.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bounds as _bounds
from . import polygon as _polygon
from .errors import EvaluationFailure, Infeasible, NotCertified, OracleTooLarge, OutOfRange
from .hypmath import LEG_MAX, RegularNGonSpec, regular_convert, tangential_radius_limit
from .polygon import CyclicPolygon, TangentialPolygon, TWO_PI

# All randomness flows from one seed through counter-based Philox streams;
# trial i uses an independent stream jumped i blocks ahead.
DEFAULT_SEED = 0x1509_0001

FD_H_FRACTION = 1e-5  # certificate step, as a fraction of interval width
GRAD_H = 1e-6  # gradient step for projected descent
STEP_FLOOR = 1e-12
MAX_ITERATIONS = 100_000

INEQ_TOL = 1e-12
EQ_TOL = 1e-9
UNIFORM_TOL = 1e-6

# Canonical off-grid placement of the uniform point inside an interval.
_UNIFORM_FRAC = 0.4371


def trial_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed).jumped(index))


# ---------------------------------------------------------------------------
# random polygon sampling


def random_partition(n: int, rng: np.random.Generator) -> tuple[float, ...]:
    """Sector angles summing to 2*pi from normalized uniform(0.1, 1) draws.

    Redraws until every angle is below pi (only possible to violate for
    small n), so the result is always a valid centered partition.
    """
    while True:
        u = rng.uniform(0.1, 1.0, n)
        if 2.0 * u.max() < u.sum():
            return tuple(u * (TWO_PI / u.sum()))


def random_cyclic_polygon(n: int, radius_range: tuple[float, float], rng: np.random.Generator) -> CyclicPolygon:
    R = rng.uniform(*radius_range)
    return CyclicPolygon(n=n, R=R, thetas=random_partition(n, rng))


def random_tangential_polygon(n: int, radius_range: tuple[float, float], rng: np.random.Generator) -> TangentialPolygon:
    """A valid tangential polygon; the radius window is capped below the
    ideal-vertex limit and draws violating the per-sector guard are redrawn."""
    lo, hi = radius_range
    hi = min(hi, 0.999 * tangential_radius_limit(n))
    if not 0.0 <= lo < hi:
        raise Infeasible(f"no tangential inradius window inside {radius_range} for n={n}")
    for _ in range(1000):
        r = rng.uniform(lo, hi)
        thetas = random_partition(n, rng)
        sr = math.sinh(r)
        if all(math.tan(0.5 * t) * sr < 1.0 for t in thetas):
            return TangentialPolygon(n=n, r=r, thetas=thetas)
    raise Infeasible(f"could not sample a tangential {n}-gon in {radius_range}")


def random_split(total: float, k: int, rng: np.random.Generator) -> tuple[float, ...]:
    """Positive split of a total from normalized uniform(0.1, 1) draws."""
    u = rng.uniform(0.1, 1.0, k)
    return tuple(u * (total / u.sum()))


# ---------------------------------------------------------------------------
# convexity certificates


@dataclass(frozen=True)
class ConvexityCertificate:
    """Sign pattern of centered second differences over a grid."""

    grid: tuple[float, ...]
    second_differences: tuple[float, ...]
    sign: str  # "positive" | "negative" | "mixed"
    first_violation: float | None

    @property
    def consistent(self) -> bool:
        return self.sign != "mixed"

    def to_json_dict(self) -> dict:
        return {
            "grid": list(self.grid),
            "second_differences": list(self.second_differences),
            "second_difference_sign": "consistent" if self.consistent else "mixed",
            "sign": self.sign,
            "first_violation": self.first_violation,
        }


def certify_convexity(f: Callable[[float], float], interval: tuple[float, float], grid_points: int = 64) -> ConvexityCertificate:
    """Classify the sign of f'' on the open interval by second differences.

    Uses h = 1e-5 times the interval width at grid_points interior points.
    The certificate is consistent only if every second difference has the
    same strict sign.
    """
    lo, hi = interval
    if not lo < hi:
        raise Infeasible(f"empty interval {interval}")
    if grid_points < 16:
        raise Infeasible("need at least 16 grid points")
    width = hi - lo
    h = FD_H_FRACTION * width
    xs = [lo + width * (j + 1) / (grid_points + 1) for j in range(grid_points)]
    d2s = []
    for x in xs:
        try:
            d2 = (f(x - h) - 2.0 * f(x) + f(x + h)) / (h * h)
        except Exception as exc:
            raise EvaluationFailure(f"objective failed at {x!r}: {exc}") from exc
        if math.isnan(d2):
            raise EvaluationFailure(f"objective produced NaN near {x!r}")
        d2s.append(d2)
    ref = d2s[0]
    sign = "positive" if ref > 0.0 else "negative" if ref < 0.0 else "mixed"
    first_violation = None
    if sign == "mixed":
        first_violation = xs[0]
    else:
        for x, d2 in zip(xs, d2s):
            if (d2 > 0.0) != (ref > 0.0) or d2 == 0.0:
                sign = "mixed"
                first_violation = x
                break
    return ConvexityCertificate(
        grid=tuple(xs),
        second_differences=tuple(d2s),
        sign=sign,
        first_violation=first_violation,
    )


# ---------------------------------------------------------------------------
# separable problems


@dataclass(frozen=True)
class SeparableProblem:
    """Optimize sum(f(x_i)) for k variables in an open interval, sum fixed to c."""

    name: str
    f: Callable[[float], float]
    k: int
    c: float
    interval: tuple[float, float]
    sense: str  # "minimize" | "maximize"

    def __post_init__(self):
        lo, hi = self.interval
        if not isinstance(self.k, int) or self.k < 2:
            raise Infeasible(f"need integer k >= 2, got {self.k!r}")
        if self.sense not in ("minimize", "maximize"):
            raise Infeasible(f"sense must be minimize or maximize, got {self.sense!r}")
        if not lo < self.c / self.k < hi:
            raise Infeasible(f"uniform point {self.c / self.k!r} outside open interval {self.interval}")

    def total(self, xs) -> float:
        return math.fsum(self.f(x) for x in xs)


@dataclass(frozen=True)
class GridOracleResult:
    min_point: tuple[float, ...]
    min_value: float
    step: float
    evaluations: int


def grid_oracle(problem: SeparableProblem, resolution: int) -> GridOracleResult:
    """Exhaustive scan of the constrained simplex on a regular grid.

    Only k in {2, 3} is supported; the optimum is reported in the problem's
    own sense and is guaranteed within one grid cell of the true optimum
    when the objective carries a consistent certificate.
    """
    if problem.k not in (2, 3):
        raise OracleTooLarge(f"grid oracle supports k in {{2, 3}}, got {problem.k}")
    if resolution < 50:
        raise Infeasible("need resolution >= 50")
    lo, hi = problem.interval
    step = (hi - lo) / resolution
    xs = [lo + j * step for j in range(1, resolution)]
    flip = 1.0 if problem.sense == "minimize" else -1.0
    best = None
    best_pt = None
    evals = 0
    if problem.k == 2:
        for x1 in xs:
            x2 = problem.c - x1
            if not lo < x2 < hi:
                continue
            v = problem.f(x1) + problem.f(x2)
            evals += 1
            if best is None or flip * v < flip * best:
                best, best_pt = v, (x1, x2)
    else:
        for x1 in xs:
            for x2 in xs:
                x3 = problem.c - x1 - x2
                if not lo < x3 < hi:
                    continue
                v = problem.f(x1) + problem.f(x2) + problem.f(x3)
                evals += 1
                if best is None or flip * v < flip * best:
                    best, best_pt = v, (x1, x2, x3)
    if best is None:
        raise Infeasible("no feasible grid point; widen the interval or change c")
    return GridOracleResult(min_point=best_pt, min_value=best, step=step, evaluations=evals)


@dataclass(frozen=True)
class OptimizationReport:
    """Everything solve_equal_sum found, serializable deterministically."""

    problem_name: str
    k: int
    c: float
    sense: str
    seed: int
    argmin: tuple[float, ...]
    objective_at_argmin: float
    uniform_point: tuple[float, ...]
    uniform_point_objective: float
    max_deviation_from_uniform: float
    certificate: ConvexityCertificate
    certified: bool
    iterations: int
    oracle_agreement: bool | None = None
    oracle_point: tuple[float, ...] | None = None
    oracle_value: float | None = None
    oracle_step: float | None = None

    def require_certified(self) -> "OptimizationReport":
        if not self.certified:
            raise NotCertified(
                f"{self.problem_name}: second differences are {self.certificate.sign}, "
                f"first violation near {self.certificate.first_violation!r}"
            )
        return self

    def to_json_dict(self) -> dict:
        return {
            "problem": self.problem_name,
            "k": self.k,
            "c": self.c,
            "sense": self.sense,
            "seed": self.seed,
            "argmin": list(self.argmin),
            "objective_at_argmin": self.objective_at_argmin,
            "uniform_point": list(self.uniform_point),
            "uniform_point_objective": self.uniform_point_objective,
            "max_deviation_from_uniform": self.max_deviation_from_uniform,
            "certified": self.certified,
            "convexity_certificate": self.certificate.to_json_dict(),
            "iterations": self.iterations,
            "oracle_agreement": self.oracle_agreement,
            "oracle_point": None if self.oracle_point is None else list(self.oracle_point),
            "oracle_value": self.oracle_value,
            "oracle_step": self.oracle_step,
        }


def _gradient(s: Callable, x: np.ndarray) -> np.ndarray:
    g = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += GRAD_H
        xm[i] -= GRAD_H
        g[i] = (s(xp) - s(xm)) / (2.0 * GRAD_H)
    return g


def _descend(s: Callable, x0: np.ndarray, lo: float, hi: float) -> tuple[np.ndarray, float, int]:
    """Projected gradient descent on the hyperplane sum(x) = const inside the box."""
    width = hi - lo
    margin = 2.0 * GRAD_H
    x = x0.copy()
    fx = s(x)
    t = 0.25 * width
    iters = 0
    while iters < MAX_ITERATIONS:
        iters += 1
        g = _gradient(s, x)
        d = g - g.mean()  # keeps the sum constraint exactly
        if not np.any(d):
            break
        t = min(2.0 * t, width)
        accepted = False
        while t >= STEP_FLOOR:
            xn = x - t * d
            if xn.min() > lo + margin and xn.max() < hi - margin:
                fn = s(xn)
                if fn < fx:
                    x, fx = xn, fn
                    accepted = True
                    break
            t *= 0.5
        if not accepted:
            break
    return x, fx, iters


def solve_equal_sum(
    problem: SeparableProblem,
    seed: int = DEFAULT_SEED,
    grid_points: int = 64,
    oracle_resolution: int | None = None,
) -> OptimizationReport:
    """Locate the constrained optimum from the uniform start plus 8 random starts.

    Always runs, even with a mixed certificate; call require_certified() on
    the report to turn a mixed certificate into NotCertified.  When
    oracle_resolution is given and k <= 3, the grid oracle runs too and
    oracle_agreement records whether both optima match within the value
    change across one grid cell.
    """
    lo, hi = problem.interval
    k = problem.k
    cert = certify_convexity(problem.f, problem.interval, grid_points)
    needed = "positive" if problem.sense == "minimize" else "negative"
    certified = cert.sign == needed
    flip = 1.0 if problem.sense == "minimize" else -1.0

    def s(xs) -> float:
        return flip * math.fsum(problem.f(float(v)) for v in xs)

    width = hi - lo
    margin = 2.0 * GRAD_H
    uc = problem.c / k
    uniform = np.full(k, uc)
    starts = [uniform]
    rng = np.random.Generator(np.random.Philox(key=seed))
    for _ in range(8):
        u = rng.uniform(lo + margin, hi - margin, k)
        x = u + (problem.c - u.sum()) / k
        # shrink toward the uniform point until the box holds
        lam = 1.0
        for xi in x:
            if xi > hi - margin:
                lam = min(lam, 0.95 * (hi - margin - uc) / (xi - uc))
            elif xi < lo + margin:
                lam = min(lam, 0.95 * (lo + margin - uc) / (xi - uc))
        starts.append(uniform + lam * (x - uniform))

    best_x = None
    best_s = math.inf
    total_iters = 0
    for x0 in starts:
        x, fx, iters = _descend(s, x0, lo, hi)
        total_iters += iters
        if fx < best_s:
            best_x, best_s = x, fx

    argmin = tuple(float(v) for v in best_x)
    report = OptimizationReport(
        problem_name=problem.name,
        k=k,
        c=problem.c,
        sense=problem.sense,
        seed=seed,
        argmin=argmin,
        objective_at_argmin=flip * best_s,
        uniform_point=tuple(float(v) for v in uniform),
        uniform_point_objective=problem.total(uniform),
        max_deviation_from_uniform=max(abs(v - uc) for v in argmin),
        certificate=cert,
        certified=certified,
        iterations=total_iters,
    )

    if oracle_resolution is not None and k in (2, 3):
        oracle = grid_oracle(problem, oracle_resolution)
        gap = _one_cell_value_gap(problem, oracle)
        agree = abs(report.objective_at_argmin - oracle.min_value) <= gap
        report = dataclasses.replace(
            report,
            oracle_agreement=agree,
            oracle_point=oracle.min_point,
            oracle_value=oracle.min_value,
            oracle_step=oracle.step,
        )
    return report


def _one_cell_value_gap(problem: SeparableProblem, oracle: GridOracleResult) -> float:
    """How much the objective can move across one grid cell around the optimum."""
    lo, hi = problem.interval
    p = oracle.min_point
    gap = 0.0
    k = len(p)
    dirs = []
    for i in range(k):
        for j in range(k):
            if i != j:
                d = [0.0] * k
                d[i], d[j] = oracle.step, -oracle.step
                dirs.append(d)
    for d in dirs:
        q = [pi + di for pi, di in zip(p, d)]
        if all(lo < qi < hi for qi in q):
            gap = max(gap, abs(problem.total(q) - oracle.min_value))
    return gap + 1e-9


# ---------------------------------------------------------------------------
# registered objectives

def _theta_sup_tangential(r: float) -> float:
    return 2.0 * math.atan2(1.0, math.sinh(r))


_OBJECTIVE_SPECS: dict[str, dict] = {
    "cyclic_half_side": {
        "make": lambda n, radius: (lambda t: _polygon.cyclic_half_side(t, radius), (0.0, math.pi)),
        "sense": "maximize",
        "radius_default": 1.0,
    },
    # convex in theta for R > 0, so the uniform partition MINIMIZES the
    # angle sum: that is what makes the fixed-circumradius area bound an
    # upper bound rather than a lower one.
    "cyclic_half_angle": {
        "make": lambda n, radius: (lambda t: _polygon.cyclic_half_angle(t, radius), (0.0, math.pi)),
        "sense": "minimize",
        "radius_default": 1.0,
    },
    "tangential_tangent_length": {
        "make": lambda n, radius: (
            lambda t: _polygon.tangential_tangent_length(t, radius),
            (0.0, _theta_sup_tangential(radius)),
        ),
        "sense": "minimize",
        "radius_default": 0.4,
    },
    "tangential_interior_angle": {
        "make": lambda n, radius: (
            lambda t: _polygon.tangential_interior_angle(t, radius),
            (0.0, _theta_sup_tangential(radius)),
        ),
        "sense": "maximize",
        "radius_default": 0.4,
    },
    "thm5_radius": {
        "make": lambda n, radius: (
            lambda x: math.asinh(math.sin(math.pi / n) * math.sinh(x)),
            (0.0, 3.0),
        ),
        "sense": "minimize",
        "radius_default": None,
    },
    "thm6_radius": {
        "make": lambda n, radius: (
            lambda x: math.atanh(math.tan(math.pi / n) * math.sinh(x)),
            (0.0, tangential_radius_limit(n)),
        ),
        "sense": "minimize",
        "radius_default": None,
    },
    # concave only below the inflection radius; registered on that window
    "thm7_radius": {
        "make": lambda n, radius: (
            lambda x: math.atan2(1.0, math.tan(math.pi / n) * math.cosh(x)),
            (0.0, _bounds.thm7_radius_threshold(n)),
        ),
        "sense": "maximize",
        "radius_default": None,
    },
    "thm8_radius": {
        "make": lambda n, radius: (
            lambda x: math.acos(math.sin(math.pi / n) * math.cosh(x)),
            (0.0, _bounds.area_radius_limit(n)),
        ),
        "sense": "maximize",
        "radius_default": None,
    },
    "thm9_theta": {
        "make": lambda n, radius: (
            lambda t: math.acosh(math.cos(math.pi / n) / math.sin(0.5 * t)),
            (0.0, thm9_theta_threshold(n)),
        ),
        "sense": "minimize",
        "radius_default": None,
    },
    "thm10_perimeter": {
        "make": lambda n, radius: (
            lambda x: math.asin(math.cos(math.pi / n) / math.cosh(x / (2.0 * n))),
            (_bounds.thm10_peri_threshold(n), 3.0 * _bounds.thm10_peri_threshold(n)),
        ),
        "sense": "minimize",
        "radius_default": None,
    },
}


def thm9_theta_threshold(n: int) -> float:
    """Sector angle below which the thm9 objective is convex."""
    return 2.0 * math.asin(math.sqrt(1.0 - math.sin(math.pi / n)))


OBJECTIVES = tuple(_OBJECTIVE_SPECS)


def make_problem(
    name: str,
    k: int = 2,
    n: int = 6,
    radius: float | None = None,
    c: float | None = None,
    interval: tuple[float, float] | None = None,
) -> SeparableProblem:
    """Instantiate a registered objective as a SeparableProblem.

    The default constraint level places the uniform point off-center (and
    off-grid for the standard oracle resolutions) inside the interval.
    """
    if name not in _OBJECTIVE_SPECS:
        raise Infeasible(f"unknown objective {name!r}; known: {sorted(_OBJECTIVE_SPECS)}")
    spec = _OBJECTIVE_SPECS[name]
    if radius is None:
        radius = spec["radius_default"]
    f, natural = spec["make"](n, radius)
    if interval is None:
        interval = natural
    lo, hi = interval
    if c is None:
        c = k * (lo + _UNIFORM_FRAC * (hi - lo))
    return SeparableProblem(name=name, f=f, k=k, c=c, interval=interval, sense=spec["sense"])


# ---------------------------------------------------------------------------
# per-theorem randomized verification


@dataclass(frozen=True)
class VerificationReport:
    theorem: str
    n: int
    k: int
    trials: int
    asserted: int
    violations: int
    skipped: int
    worst_margin: float | None
    equality_abs_error: float | None
    tolerance: float
    equality_tolerance: float
    seed: int
    params: dict
    counterexample: dict | None

    @property
    def passed(self) -> bool:
        """No violation, and at least one draw was asserted."""
        return self.violations == 0 and self.asserted > 0

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "n": self.n,
            "k": self.k,
            "trials": self.trials,
            "asserted": self.asserted,
            "violations": self.violations,
            "skipped": self.skipped,
            "worst_margin": self.worst_margin,
            "equality_abs_error": self.equality_abs_error,
            "tolerance": self.tolerance,
            "equality_tolerance": self.equality_tolerance,
            "seed": self.seed,
            "params": self.params,
            "counterexample": self.counterexample,
            "passed": self.passed,
        }


def verify_theorem(
    theorem_id: str,
    n: int = 6,
    k: int = 2,
    radius_range: tuple[float, float] = (0.1, 2.0),
    total: float | None = None,
    trials: int = 1000,
    seed: int = DEFAULT_SEED,
) -> VerificationReport:
    """Randomized check of one bound: sample, assert, and count.

    Draws that violate an admissibility guard are skipped, not resampled,
    so an out-of-region total shows up as skipped == trials.  Inequalities
    are asserted with 1e-12 slack and the equality configuration with 1e-9.
    """
    entry = _bounds.THEOREMS.get(theorem_id)
    if entry is None or entry["objective"] is None:
        raise Infeasible(f"unknown theorem id {theorem_id!r}")
    if not entry["multi"]:
        return _verify_single(theorem_id, entry, n, radius_range, trials, seed)
    if total is None:
        total = entry["total"](n, k)
    return _verify_total(theorem_id, entry, n, k, total, trials, seed)


def _verify_single(theorem_id: str, entry: dict, n: int, radius_range: tuple[float, float], trials: int,
                   seed: int) -> VerificationReport:
    tangential = entry["family"] == "tangential"
    func = entry["func"]
    lo, hi = radius_range
    if tangential:
        hi = min(hi, 0.999 * tangential_radius_limit(n))
        if not 0.0 <= lo < hi:
            raise Infeasible(f"radius range {radius_range} has no tangential window for n={n}")
    if hi > LEG_MAX:
        raise OutOfRange(f"radius range {radius_range} reaches beyond {LEG_MAX}; cosh would overflow")

    asserted = violations = skipped = 0
    worst = None
    eq_err = None
    counterexample = None
    for i in range(trials):
        rng = trial_rng(seed, i)
        r = rng.uniform(lo, hi)
        thetas = random_partition(n, rng)
        if tangential:
            sr = math.sinh(r)
            if any(math.tan(0.5 * t) * sr >= 1.0 for t in thetas):
                skipped += 1
                continue
            poly = TangentialPolygon(n=n, r=r, thetas=thetas)
        else:
            poly = CyclicPolygon(n=n, R=r, thetas=thetas)
        res = func(n, r)
        actual = _polygon.perimeter(poly) if res.quantity == "perimeter" else _polygon.area(poly)
        margin = (actual - res.value) if res.kind == "lower" else (res.value - actual)
        asserted += 1
        if worst is None or margin < worst:
            worst = margin
        if margin < -INEQ_TOL:
            violations += 1
            if counterexample is None:
                counterexample = {"polygon": _polygon.to_json_dict(poly), "bound": res.to_json_dict(), "margin": margin}
        if res.equality_spec is not None:
            err = abs(_bounds.equality_value(res) - res.value)
            if eq_err is None or err > eq_err:
                eq_err = err
    return VerificationReport(
        theorem=theorem_id,
        n=n,
        k=1,
        trials=trials,
        asserted=asserted,
        violations=violations,
        skipped=skipped,
        worst_margin=worst,
        equality_abs_error=eq_err,
        tolerance=INEQ_TOL,
        equality_tolerance=EQ_TOL,
        seed=seed,
        params={"radius_range": [lo, hi]},
        counterexample=counterexample,
    )


def _verify_total(theorem_id: str, entry: dict, n: int, k: int, total: float, trials: int,
                  seed: int) -> VerificationReport:
    """Random splits of the total, each component a regular polygon spec(n, x)."""
    res = entry["func"](n, k, total)
    spec = entry["spec"]
    lo, hi = entry["window"](n)

    def inside(xs) -> bool:
        return all(lo < x < hi for x in xs)

    def metric(xs) -> float:
        # the split metric is the bound's own quantity, summed per component
        out = 0.0
        for x in xs:
            m = regular_convert(spec(n, x))
            out += m.perimeter if res.quantity == "perimeter" else m.area
        return out

    asserted = violations = skipped = 0
    worst = None
    counterexample = None
    for i in range(trials):
        rng = trial_rng(seed, i)
        xs = random_split(total, k, rng)
        if not inside(xs):
            skipped += 1
            continue
        actual = metric(xs)
        margin = (actual - res.value) if res.kind == "lower" else (res.value - actual)
        asserted += 1
        if worst is None or margin < worst:
            worst = margin
        if margin < -INEQ_TOL:
            violations += 1
            if counterexample is None:
                counterexample = {
                    "split": list(xs),
                    "polygons": [_regular_polygon_json(spec(n, x)) for x in xs],
                    "bound": res.to_json_dict(),
                    "margin": margin,
                }
    eq_err = None
    if res.feasible and res.equality_spec is not None:
        uniform = (total / k,) * k
        if inside(uniform):
            eq_err = abs(metric(uniform) - res.value)
    return VerificationReport(
        theorem=theorem_id,
        n=n,
        k=k,
        trials=trials,
        asserted=asserted,
        violations=violations,
        skipped=skipped,
        worst_margin=worst,
        equality_abs_error=eq_err,
        tolerance=INEQ_TOL,
        equality_tolerance=EQ_TOL,
        seed=seed,
        params={"total": total},
        counterexample=counterexample,
    )


def _regular_polygon_json(spec: RegularNGonSpec) -> dict:
    """Full polygon JSON for a regular polygon: tangential when given by inradius."""
    m = regular_convert(spec)
    poly = TangentialPolygon.regular(spec.n, m.r) if spec.r is not None else CyclicPolygon.regular(spec.n, m.R)
    return _polygon.to_json_dict(poly)
