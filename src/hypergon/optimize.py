"""Equal-split certification for sum-constrained separable objectives.

Every bound in this package reduces to the same fact: for a convex f on an
interval I, the minimum of sum(f(x_i)) over x in I^k with sum(x_i) = c sits
at the uniform point (c/k, ..., c/k) (maximum for concave f).  This module
makes that fact checkable three independent ways: a finite-difference sign
certificate for f'', a scan of every two-value split (x, ..., x, y, ..., y)
of c, and an exhaustive grid oracle for k in {2, 3}.  It also hosts the
randomized per-theorem verification driver.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import bounds as _bounds
from . import polygon as _polygon
from .errors import EvaluationFailure, IdealVertex, Infeasible, OracleTooLarge, OutOfRange
from .hypmath import LEG_MAX, RegularNGonSpec, regular_convert, regular_convert_rows, tangential_radius_limit
from .polygon import CyclicPolygon, TangentialPolygon, TWO_PI

# All randomness flows from one seed in [0, 2**128) through counter-based
# Philox streams (Salmon et al., SC 2011): trial i reads the stream with key
# [seed, 0] and counter [0, 0, i, 0], which is where jumping a Philox keyed
# by seed i times lands.
DEFAULT_SEED = 0x1509_0001
# That layout, as the manifest of a seeded output names it.
RNG_SCHEME = "1: Philox4x64-10, trial i on key [seed mod 2**64, seed >> 64], counter [0, 0, i, 0]"

FD_H_FRACTION = 1e-5  # certificate step, as a fraction of interval width
GRID_POINTS = 64  # interior points of the certificate grid and of each two-value scan

INEQ_TOL = 1e-12
EQ_TOL = 1e-9
UNIFORM_TOL = 1e-6

# Canonical off-grid placement of the uniform point inside an interval.
_UNIFORM_FRAC = 0.4371


def check_seed(seed: int) -> None:
    """Raise Infeasible unless seed is a Philox key, an int in [0, 2**128)."""
    if not 0 <= seed < 1 << 128:
        raise Infeasible(f"seed must be in [0, 2**128), got {seed}")


def _stream_state(seed: int, index: int) -> dict:
    """Philox state at the start of stream `index` of `seed`.

    The one place the stream layout is written: key [seed mod 2**64,
    seed >> 64] and counter [0, 0, index, 0], with the output buffer empty
    so that no word of a previous stream leaks into this one.  The words
    are Python ints, which the state setter takes whole up to 2**64 - 1
    (Philox(counter=...) would turn an int above 2**63 into float64).
    Setting counter[2] of the returned dict re-points it to another stream.
    """
    check_seed(seed)
    return {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, index, 0], "key": [seed & 0xFFFF_FFFF_FFFF_FFFF, seed >> 64]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """A fresh, independent generator on stream `index` of `seed`."""
    bit_gen = np.random.Philox()
    bit_gen.state = _stream_state(seed, index)
    return np.random.Generator(bit_gen)


def _streams(seed: int) -> Callable[[int], np.random.Generator]:
    """stream(i): one generator, re-pointed to stream i of seed at each call."""
    state = _stream_state(seed, 0)
    counter = state["state"]["counter"]
    rng = np.random.Generator(np.random.Philox())
    bit_gen = rng.bit_generator

    def stream(i: int) -> np.random.Generator:
        counter[2] = i
        bit_gen.state = state
        return rng

    return stream


def trial_rngs(seed: int, count: int) -> Iterator[np.random.Generator]:
    """The generators of streams 0 .. count-1 of `seed`, in order.

    One Philox is re-pointed before each yield, so every yielded generator
    is the same object and is valid only until the next one is drawn; use
    trial_rng for a generator that must outlive its loop iteration.
    """
    stream = _streams(seed)
    for i in range(count):
        yield stream(i)


# ---------------------------------------------------------------------------
# draws in blocks
#
# A block reads the first `width` words of each of its streams in one
# random_raw call per stream and turns them into draws with numpy, exactly
# as the Generator methods that the scalar draws call would: uniform(lo, hi)
# is lo + (hi - lo) * (word >> 11) * 2**-53, and integers(lo, hi) on a range
# below 2**32 is Lemire's multiply-shift of the word's low half.  A row whose
# scalar draw reads past the row's words, or raises, is replayed by that
# scalar draw on its own stream.

# Words per block: a block's arrays stay this small whatever n is.
BLOCK_WORDS = 1 << 13
# Words per stream of the second read of a redrawing row that its block's
# words do not settle, unless four polygon attempts need more.
REREAD_WORDS = 64


def _read(stream: Callable, indices, width: int) -> np.ndarray:
    """Row j holds words 0 .. width-1 of stream(indices[j]); indices are ints."""
    words = np.empty((len(indices), width), dtype=np.uint64)
    for j, i in enumerate(indices):
        words[j] = stream(i).bit_generator.random_raw(width)
    return words


def _word_blocks(stream: Callable, count: int, width: int) -> Iterator[tuple[int, np.ndarray]]:
    """Blocks (start, words) covering streams 0 .. count-1, where row j of
    words holds words 0 .. width-1 of stream(start + j)."""
    size = max(1, BLOCK_WORDS // width)
    for start in range(0, count, size):
        yield start, _read(stream, range(start, min(start + size, count)), width)


def _uniform(words: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Generator.uniform(lo, hi) from each word."""
    span = hi - lo
    if not 0.0 <= span < math.inf:
        raise Infeasible(f"need finite lo <= hi, got ({lo!r}, {hi!r})")
    return lo + span * ((words >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0))


def _integers(words: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Generator.integers(lo, hi) from each word, for 0 < hi - lo < 2**32, and
    the rows where it certainly reads no further word."""
    span = np.uint64(hi - lo)
    m = (words & np.uint64(0xFFFF_FFFF)) * span
    return lo + (m >> np.uint64(32)).astype(np.int64), (m & np.uint64(0xFFFF_FFFF)) >= span


def _at_cursor(words: np.ndarray, rows: np.ndarray, cursor: np.ndarray, k: int) -> np.ndarray:
    """The k words of each of rows from its cursor on; a slice when the
    cursors agree, as they do while the rows walk their first polygon attempt."""
    c = cursor[rows]
    if c.min() == c.max():
        return words[rows, c[0]:c[0] + k]
    return words[rows[:, None], c[:, None] + np.arange(k)]


def _polygon_rows(family: type, n: int, lo: float, hi: float, words: np.ndarray,
                  redraw: bool) -> tuple[np.ndarray, ...]:
    """_draw_polygon(family, n, lo, hi, rng) from each row of words, as
    (radii, apex angles, settled rows, rows with an ideal vertex).

    A cursor walks each row's words in polygon attempts: the radius word,
    then n words per random_partition attempt until one is accepted.  A row
    is settled when an attempt fits in its words, the radius is positive
    and the constructor keeps the polygon as it is.  A tangential polygon
    with an ideal vertex is drawn again from the next word when redraw is
    set, as random_tangential_polygon does, and is otherwise settled as an
    ideal row.  Unsettled rows are garbage."""
    count, width = words.shape
    radii, ts = np.zeros(count), np.zeros((count, n))
    settled, ideal = np.zeros(count, dtype=bool), np.zeros(count, dtype=bool)
    cursor = np.zeros(count, dtype=np.intp)
    rows = np.arange(count)
    while True:
        rows = rows[cursor[rows] + 1 + n <= width]  # room for a radius and one partition
        if not len(rows):
            return radii, ts, settled, ideal
        r = _uniform(_at_cursor(words, rows, cursor, 1)[:, 0], lo, hi)
        cursor[rows] += 1
        pending, t = np.arange(len(rows)), None  # the rows still drawing a partition
        while len(pending):
            at = rows[pending]
            u = _uniform(_at_cursor(words, at, cursor, n), 0.1, 1.0)
            cursor[at] += n
            sums = u.sum(axis=1)
            accept = 2.0 * u.max(axis=1) < sums
            attempt = u * (TWO_PI / sums)[:, None]
            if t is None:
                t, taken = attempt, accept
            else:
                t[pending], taken[pending[accept]] = attempt, True
            pending = pending[~accept]
            pending = pending[cursor[rows[pending]] + n <= width]
        t, plain = _polygon.normalized_rows(t)
        plain &= taken & (r > 0.0)
        bad = plain & _polygon.ideal_rows(r, t) if family is TangentialPolygon else np.zeros_like(plain)
        done = plain & ~bad if redraw else plain
        if len(rows) == count:  # no row is settled yet: these arrays become the result
            radii, ts, settled, ideal = r, t, done, bad & done
        else:
            radii[rows[done]], ts[rows[done]] = r[done], t[done]
            settled[rows[done]], ideal[rows[done]] = True, bad[done]
        rows = rows[plain & ~done]


def _settled_rows(family: type, n: int, lo: float, hi: float, words: np.ndarray,
                  reread: Callable[[np.ndarray, int], np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_polygon_rows with redraws, as (radii, apex angles, rows left).  The
    rows that words do not settle are read again, once, at
    max(REREAD_WORDS, 4 * (n + 1)) words by reread(rows, width), and walked
    again; the rows still unsettled are left to a scalar replay."""
    radii, ts, settled, _ = _polygon_rows(family, n, lo, hi, words, redraw=True)
    rows = np.flatnonzero(~settled)
    if len(rows):
        wide = reread(rows, max(REREAD_WORDS, 4 * (n + 1)))
        radii[rows], ts[rows], settled[rows], _ = _polygon_rows(family, n, lo, hi, wide, redraw=True)
    return radii, ts, np.flatnonzero(~settled)


def _redraw(rows, draw: Callable, radii: np.ndarray, ts: np.ndarray) -> None:
    """Row j of radii and ts becomes the polygon draw(j), for each j in rows."""
    for j in rows.tolist():
        poly = draw(j)
        radii[j], ts[j] = poly.radius, poly.thetas


def polygon_blocks(family: type, n: int, lo: float, hi: float, seed: int, count: int,
                   regular: bool = False) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The polygons of streams 0 .. count-1 of seed, as blocks of (radii,
    apex angles) arrays.  Each is what random_cyclic_polygon or
    random_tangential_polygon draws on its stream, or with regular
    family.regular(n, rng.uniform(lo, hi)); (lo, hi) is a _radius_window."""
    stream = _streams(seed)
    draw = random_tangential_polygon if family is TangentialPolygon else random_cyclic_polygon
    for start, words in _word_blocks(stream, count, 1 if regular else n + 1):
        if regular:
            polys = [family.regular(n, r) for r in _uniform(words[:, 0], lo, hi).tolist()]
            yield np.array([p.radius for p in polys]), np.array([p.thetas for p in polys])
            continue
        radii, ts, left = _settled_rows(family, n, lo, hi, words,
                                        lambda rows, width: _read(stream, (start + rows).tolist(), width))
        _redraw(left, lambda j: draw(n, (lo, hi), stream(start + j)), radii, ts)
        yield radii, ts


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


def _draw_polygon(family: type, n: int, lo: float, hi: float, rng: np.random.Generator) -> _polygon.Polygon:
    """A `family` polygon with radius uniform in [lo, hi] and a random_partition.

    The radius is drawn first.  A tangential draw with a vertex at infinity
    raises IdealVertex from the polygon's own check.
    """
    return family(n, rng.uniform(lo, hi), random_partition(n, rng))


def random_cyclic_polygon(n: int, radius_range: tuple[float, float], rng: np.random.Generator) -> CyclicPolygon:
    return _draw_polygon(CyclicPolygon, n, *radius_range, rng)


def _radius_window(family: type, n: int, radius_range: tuple[float, float]) -> tuple[float, float]:
    """The window `family` radii are drawn from, checked before the first draw.

    A tangential window is capped just below the ideal-vertex limit.
    """
    lo, hi = radius_range
    if family is TangentialPolygon:
        hi = min(hi, 0.999 * tangential_radius_limit(n))
        if not lo < hi:
            raise Infeasible(f"radius range {radius_range} has no tangential window for n={n}")
    if not lo >= 0.0:
        raise Infeasible(f"radius range {radius_range} starts below 0")
    if hi > LEG_MAX:
        raise OutOfRange(f"radius range {radius_range} reaches beyond {LEG_MAX}; cosh would overflow")
    return lo, hi


def random_tangential_polygon(n: int, radius_range: tuple[float, float], rng: np.random.Generator) -> TangentialPolygon:
    """A valid tangential polygon in the tangential window of radius_range;
    draws with an ideal vertex are redrawn."""
    lo, hi = _radius_window(TangentialPolygon, n, radius_range)
    for _ in range(1000):
        try:
            return _draw_polygon(TangentialPolygon, n, lo, hi, rng)
        except IdealVertex:
            pass
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


def certify_convexity(f: Callable[[float], float], interval: tuple[float, float]) -> ConvexityCertificate:
    """Classify the sign of f'' on the open interval by second differences.

    Uses h = 1e-5 times the interval width at GRID_POINTS interior points.
    The certificate is consistent only if every second difference has the
    same strict sign.
    """
    lo, hi = interval
    if not lo < hi:
        raise Infeasible(f"empty interval {interval}")
    width = hi - lo
    h = FD_H_FRACTION * width
    xs = [lo + width * (j + 1) / (GRID_POINTS + 1) for j in range(GRID_POINTS)]
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


def _check_oracle(k: int, resolution: int) -> None:
    if k not in (2, 3):
        raise OracleTooLarge(f"grid oracle supports k in {{2, 3}}, got {k}")
    if resolution < 50:
        raise Infeasible("need resolution >= 50")


def grid_oracle(problem: SeparableProblem, resolution: int) -> GridOracleResult:
    """Exhaustive scan of the constrained simplex on a regular grid.

    Only k in {2, 3} is supported; the optimum is reported in the problem's
    own sense and is guaranteed within one grid cell of the true optimum
    when the objective carries a consistent certificate.
    """
    _check_oracle(problem.k, resolution)
    lo, hi = problem.interval
    step = (hi - lo) / resolution
    xs = [lo + j * step for j in range(1, resolution)]
    flip = 1.0 if problem.sense == "minimize" else -1.0
    best = None
    best_pt = None
    evals = 0
    for free in itertools.product(xs, repeat=problem.k - 1):
        last = problem.c
        for x in free:
            last -= x
        if not lo < last < hi:
            continue
        pt = (*free, last)
        v = problem.f(pt[0])
        for x in pt[1:]:
            v += problem.f(x)
        evals += 1
        if best is None or flip * v < flip * best:
            best, best_pt = v, pt
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

    def to_json_dict(self) -> dict:
        return {
            "problem": self.problem_name,
            "k": self.k,
            "c": self.c,
            "sense": self.sense,
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


def solve_equal_sum(problem: SeparableProblem, oracle_resolution: int | None = None) -> OptimizationReport:
    """Look for a split of c better than the uniform one among the two-value splits.

    At an interior critical point of sum(f(x_i)) with sum(x_i) = c, f'(x_i)
    is the same for every i; if f'' changes sign at most once on the
    interval, f' takes each value at most twice, so the point has the form
    (x, ..., x, y, ..., y).  That is the equal-variable method (V. Cirtoaje,
    JIPAM 8(1), 2007, art. 15).  For each m = 1 .. k-1 the scan takes
    GRID_POINTS interior x of the range where m copies of x and k-m copies
    of y = (c - m*x)/(k - m) all lie in the open interval.  A point replaces
    the best one so far only when it is better in the problem's sense by
    more than the slack of the best value, INEQ_TOL * max(1, |value|): the
    scanned split sums to c only up to rounding, and a few ulps gained from
    a smaller sum are no gain.  The report's iterations counts the points
    scored.

    Always runs, even with a mixed certificate; the report's certified flag
    says whether the certificate has the sign the sense needs.  When
    oracle_resolution is given, the grid oracle runs too and
    oracle_agreement records whether both optima match within the value
    change across one grid cell; an oracle it cannot run (k not in {2, 3},
    resolution below 50) raises before the solve starts.
    """
    lo, hi = problem.interval
    k, c, f = problem.k, problem.c, problem.f
    if oracle_resolution is not None:
        _check_oracle(k, oracle_resolution)
    cert = certify_convexity(f, problem.interval)
    needed = "positive" if problem.sense == "minimize" else "negative"
    flip = 1.0 if problem.sense == "minimize" else -1.0

    uniform = (c / k,) * k
    best_x = uniform
    best = uniform_value = problem.total(uniform)
    scanned = 0
    for m in range(1, k):
        a = max(lo, (c - (k - m) * hi) / m)
        b = min(hi, (c - (k - m) * lo) / m)
        for j in range(GRID_POINTS):
            x = a + (b - a) * (j + 1) / (GRID_POINTS + 1)
            y = (c - m * x) / (k - m)
            if not (lo < x < hi and lo < y < hi):
                continue
            scanned += 1
            value = math.fsum([f(x)] * m + [f(y)] * (k - m))
            if flip * (best - value) > INEQ_TOL * max(1.0, abs(best)):  # _slack(best), in floats
                best_x, best = (x,) * m + (y,) * (k - m), value

    report = OptimizationReport(
        problem_name=problem.name,
        k=k,
        c=c,
        sense=problem.sense,
        argmin=best_x,
        objective_at_argmin=best,
        uniform_point=uniform,
        uniform_point_objective=uniform_value,
        max_deviation_from_uniform=max(abs(v - c / k) for v in best_x),
        certificate=cert,
        certified=cert.sign == needed,
        iterations=scanned,
    )

    if oracle_resolution is not None:
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
) -> SeparableProblem:
    """Instantiate a registered objective as a SeparableProblem.

    The default constraint level places the uniform point off-center (and
    off-grid for the standard oracle resolutions) inside the interval.
    """
    if name not in _OBJECTIVE_SPECS:
        raise Infeasible(f"unknown objective {name!r}; known: {sorted(_OBJECTIVE_SPECS)}")
    _bounds._check_nk(n, k)
    spec = _OBJECTIVE_SPECS[name]
    if radius is None:
        radius = spec["radius_default"]
    f, interval = spec["make"](n, radius)
    lo, hi = interval
    if c is None:
        c = k * (lo + _UNIFORM_FRAC * (hi - lo))
    return SeparableProblem(name=name, f=f, k=k, c=c, interval=interval, sense=spec["sense"])


# ---------------------------------------------------------------------------
# per-theorem randomized verification


@dataclass(frozen=True)
class VerificationReport:
    """slack_at_worst is the slack the worst-margin draw was asserted with,
    INEQ_TOL * max(1, |bound|); tolerance is INEQ_TOL itself."""

    theorem: str
    n: int
    k: int
    trials: int
    asserted: int
    violations: int
    skipped: int
    worst_margin: float | None
    slack_at_worst: float | None
    equality_abs_error: float | None
    tolerance: float
    equality_tolerance: float
    seed: int
    params: dict
    counterexample: dict | None

    @property
    def passed(self) -> bool:
        """No violation, at least one draw asserted, and equality reproduced."""
        return (self.violations == 0 and self.asserted > 0
                and (self.equality_abs_error is None or self.equality_abs_error <= self.equality_tolerance))

    def to_json_dict(self) -> dict:
        return {**dataclasses.asdict(self), "passed": self.passed}


def _slack(bound):
    """The slack a margin against bound (a float or an array) is asserted with."""
    return INEQ_TOL * np.fmax(1.0, np.abs(bound))


def _first_extreme(best: float | None, values: np.ndarray, better) -> int | None:
    """The index of values that `for v in values: if best is None or
    better(v, best): best = v` leaves in best, or None if it keeps best;
    better is np.less or np.greater.  That is the first strict extreme,
    and a NaN only when it is the very first value."""
    pick = None
    if best is None and len(values):
        pick, best = 0, values[0]
    numbers = values[~np.isnan(values)]
    if len(numbers):
        top = numbers.min() if better is np.less else numbers.max()
        i = int(np.argmax(values == top))  # first of the values equal to top, +0.0 and -0.0 alike
        if better(values[i], best):
            pick = i
    return pick


def verify_theorem(
    theorem_id: str,
    n: int = 6,
    k: int = 2,
    radius_range: tuple[float, float] = (0.1, 2.0),
    total: float | None = None,
    trials: int = 1000,
    seed: int = DEFAULT_SEED,
) -> VerificationReport:
    """Randomized check of one bound: draw, assert, and count.

    A single-polygon bound draws random polygons of its family from
    radius_range and ignores k and total.  A fixed-total bound draws random
    splits of total (default: the record's) into k >= 2 regular polygons.
    Draws that violate an admissibility guard are skipped, not resampled,
    so an out-of-region total shows up as skipped == trials.  Inequalities
    are asserted with a slack of INEQ_TOL (1e-12) times the bound's size,
    max(1, |bound|), so that a rounding error in a large bound is not a
    violation; the equality configuration is asserted with EQ_TOL (1e-9).
    The draws come in blocks, and each block's verdicts are reduced with
    numpy exactly as a loop over its draws in stream order would.
    """
    entry = _bounds.THEOREMS.get(theorem_id)
    if entry is None or entry["objective"] is None:
        raise Infeasible(f"unknown theorem id {theorem_id!r}")
    if entry["multi"]:
        _bounds._check_nk(n, k)
        if k < 2:
            raise Infeasible(f"{theorem_id} bounds a total over k >= 2 polygons, got k={k}")
        blocks, eq_err, params = _split_draws(entry, n, k, entry["total"](n, k) if total is None else total)
    else:
        _bounds._check_nk(n)
        k = 1
        blocks, eq_err, params = _polygon_draws(entry, n, radius_range)
    # blocks(seed, trials) yields, block by block, (skipped draws, margins
    # and bounds of the kept draws, equality errors, witness); witness(i)
    # gives the leading keys of kept draw i's counterexample
    asserted = violations = skipped = 0
    worst = slack_at_worst = counterexample = None
    for skips, margins, bound, errors, witness in blocks(seed, trials):
        skipped += skips
        asserted += len(margins)
        i = _first_extreme(worst, margins, np.less)
        if i is not None:
            worst, slack_at_worst = float(margins[i]), float(_slack(bound[i]))
        bad = np.flatnonzero(margins < -_slack(bound))
        violations += len(bad)
        if len(bad) and counterexample is None:
            counterexample = {**witness(bad[0]), "margin": float(margins[bad[0]])}
        i = _first_extreme(eq_err, errors, np.greater)
        if i is not None:
            eq_err = float(errors[i])
    return VerificationReport(
        theorem=theorem_id, n=n, k=k, trials=trials, asserted=asserted, violations=violations,
        skipped=skipped, worst_margin=worst, slack_at_worst=slack_at_worst, equality_abs_error=eq_err,
        tolerance=INEQ_TOL, equality_tolerance=EQ_TOL, seed=seed, params=params, counterexample=counterexample,
    )


def _margins(kind: str, actual: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """How far each actual value clears a lower or upper bound."""
    return actual - bound if kind == "lower" else bound - actual


def _polygon_draws(entry: dict, n: int, radius_range: tuple[float, float]) -> tuple[Callable, None, dict]:
    """One random polygon of the record's family per draw, checked against the
    bound at its radius; the equality case is re-checked at every radius.

    A block reads three partition attempts per stream below n = 12, where
    random_partition can reject one; a row all of whose attempts it rejects
    is replayed by _draw_polygon, and a tangential row with an ideal vertex
    is skipped."""
    family = TangentialPolygon if entry["family"] == "tangential" else CyclicPolygon
    lo, hi = _radius_window(family, n, radius_range)

    def blocks(seed, trials):
        stream = _streams(seed)
        for start, words in _word_blocks(stream, trials, 1 + (3 if n < 12 else 1) * n):
            radii, ts, settled, ideal = _polygon_rows(family, n, lo, hi, words, redraw=False)
            keep = settled & ~ideal
            for j in np.flatnonzero(~settled).tolist():
                try:
                    poly = _draw_polygon(family, n, lo, hi, stream(start + j))
                except IdealVertex:
                    continue
                radii[j], ts[j], keep[j] = poly.radius, poly.thetas, True
            rows = np.flatnonzero(keep)
            r, t = radii[rows], ts[rows]
            bound = entry["rows"](n, r)
            metric = _polygon.perimeter_rows if bound.quantity == "perimeter" else _polygon.area_rows
            equal = regular_convert_rows(n, bound.defining, r[bound.equality])
            equal = equal.perimeter if bound.quantity == "perimeter" else equal.area

            def witness(i: int) -> dict:
                radius = float(r[i])
                return {"polygon": _polygon.row_json(family.kind, n, radius, t[i].tolist()),
                        "bound": entry["func"](n, radius).to_json_dict()}

            yield (len(keep) - len(rows), _margins(bound.kind, metric(family.kind, r, t), bound.value),
                   bound.value, np.abs(equal - bound.value[bound.equality]), witness)

    return blocks, None, {"radius_range": [lo, hi]}


def _split_draws(entry: dict, n: int, k: int, total: float) -> tuple[Callable, float | None, dict]:
    """One random split of the total per draw, as random_split draws it, each
    component a regular polygon spec(n, x); the equality case is the uniform
    split, checked once here."""
    res = entry["func"](n, k, total)
    spec = entry["spec"]
    lo, hi = entry["window"](n)

    def metrics(splits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows of splits that lie in the window, and the metric of each:
        the bound's own quantity of every component, converted in one call
        and summed left to right."""
        rows = np.flatnonzero(((lo < splits) & (splits < hi)).all(axis=1))
        m = regular_convert_rows(n, *spec(n, splits[rows]).defining())
        values = m.perimeter if res.quantity == "perimeter" else m.area
        sums = np.zeros(len(values))
        for column in values.T:
            sums += column
        return rows, sums

    def blocks(seed, trials):
        for _, words in _word_blocks(_streams(seed), trials, k):
            u = _uniform(words, 0.1, 1.0)
            splits = u * (total / u.sum(axis=1))[:, None]
            rows, sums = metrics(splits)

            def witness(i: int) -> dict:
                xs = splits[rows[i]].tolist()
                return {"split": xs, "polygons": [_regular_polygon_json(spec(n, x)) for x in xs],
                        "bound": res.to_json_dict()}

            yield (len(splits) - len(rows), _margins(res.kind, sums, res.value),
                   np.full(len(rows), res.value), np.empty(0), witness)

    eq_err = None
    if res.feasible and res.equality_spec is not None:
        rows, sums = metrics(np.full((1, k), total / k))
        if len(rows):
            eq_err = abs(float(sums[0]) - res.value)
    return blocks, eq_err, {"total": total}


def _regular_polygon_json(spec: RegularNGonSpec) -> dict:
    """Full polygon JSON for a regular polygon: tangential when given by inradius."""
    m = regular_convert(spec)
    poly = TangentialPolygon.regular(spec.n, m.r) if spec.r is not None else CyclicPolygon.regular(spec.n, m.R)
    return _polygon.to_json_dict(poly)
