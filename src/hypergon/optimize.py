"""Equal-split certification for sum-constrained separable objectives.

Every bound in this package reduces to the same fact: for a convex f on an
interval I, the minimum of sum(f(x_i)) over x in I^k with sum(x_i) = c sits
at the uniform point (c/k, ..., c/k) (maximum for concave f).  This module
makes that fact checkable three independent ways: a finite-difference sign
certificate for f'', a scan of every two-value split (x, ..., x, y, ..., y)
of c, and an exhaustive grid oracle for k in {2, 3}.  An objective f maps a
float64 array elementwise, and each of the three scores its points in
arrays through _values, which turns a failure or a NaN of f into an
EvaluationFailure; so is a second difference of the certificate that is
not finite.  The registered objectives are written once over arrays, the
four sector ones as the polygon kernels.  The module also hosts
verify_bounds, the randomized check of bounds, and its draws, in blocks of
streams, each polygon decided by polygon.validate_rows.  One walker draws
every polygon: it takes a number of sides and a radius window per stream,
so a block may hold rows of several n, as the report's metric-equivalence
battery draws them; sample and verify give every stream the same n.  The
bounds of one call share one walk of the streams per kind of draw: every
single-polygon bound, whatever its family, one read and partition walk,
and every split bound one read at the largest k.  verify_theorem is its
one-bound call.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import bounds as _bounds
from . import polygon as _polygon
from .bounds import thm9_theta_threshold
from .errors import EvaluationFailure, IdealVertex, Infeasible, OracleTooLarge, OutOfRange
from .hypmath import (LEG_MAX, RegularNGonSpec, RegularPolygonMetrics, fsum_rows, regular_convert,
                      regular_convert_rows, tangential_radius_limit)
from .polygon import CyclicPolygon, TangentialPolygon, TWO_PI

# All randomness flows from one seed in [0, 2**128) through counter-based
# Philox streams (Salmon et al., SC 2011): trial i reads the stream with key
# [seed, 0] and counter [0, 0, i, 0], which is where jumping a Philox keyed
# by seed i times lands.
DEFAULT_SEED = 0x1509_0001
# The window radii are drawn from unless a caller names one.
RADIUS_RANGE = (0.1, 2.0)
# That layout, as the manifest of a seeded output names it.
RNG_SCHEME = "1: Philox4x64-10, trial i on key [seed mod 2**64, seed >> 64], counter [0, 0, i, 0]"

FD_H_FRACTION = 1e-5  # certificate step, as a fraction of interval width
GRID_POINTS = 64  # interior points of the certificate grid and of each two-value scan
# Most points a grid oracle holds: it scores its whole grid as one array.
ORACLE_POINTS = 1 << 20

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

    The stream layout for the scalar draws (_read computes the same words
    for a block): key [seed mod 2**64, seed >> 64] and counter
    [0, 0, index, 0], with the output buffer empty so that no word of a
    previous stream leaks into this one.  The words are Python ints, which
    the state setter takes whole up to 2**64 - 1 (Philox(counter=...) would
    turn an int above 2**63 into float64).
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


# ---------------------------------------------------------------------------
# draws in blocks
#
# A block computes the first `width` words of each of its streams at once,
# as numpy arrays of Philox4x64-10 blocks, and turns them into draws with
# numpy, exactly as Generator.uniform(lo, hi), which the scalar draws call,
# would: lo + (hi - lo) * (word >> 11) * 2**-53.  The words are a prefix
# of each stream, which a counter-based generator addresses directly, so a
# row whose draw reads past them is read again from word 0, wider, and
# retraces the same draw; no draw falls back to the scalar functions.  A
# block of polygon streams of several n is read at the width of its
# largest n, and its rows of fewer sides carry zero-padded apex angles.

# Words per block and scan slice: their arrays stay this small whatever n or
# k is.  Below it numpy's per-call cost dominates a block; above it peak
# memory grows faster than the time falls.
BLOCK_WORDS = 1 << 15

# Philox4x64-10 (Salmon et al., SC 2011, and Random123): the two round
# multipliers, split into 32-bit halves, and the two Weyl key increments.
_PHILOX_M = tuple((np.uint64(m), np.uint64(m & 0xFFFF_FFFF), np.uint64(m >> 32))
                  for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157))
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32, _32 = np.uint64(0xFFFF_FFFF), np.uint64(32)
_MASK64 = (1 << 64) - 1


def _mulhilo(m: tuple, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low words of the 128-bit product of the multiplier m and
    each word of x, the high one from 32-bit halves: no partial sum below
    passes 2**64."""
    m64, m_lo, m_hi = m
    x_lo, x_hi = x & _LOW32, x >> _32
    t = x_hi * m_lo + ((x_lo * m_lo) >> _32)
    cross = (t & _LOW32) + x_lo * m_hi
    return x_hi * m_hi + (t >> _32) + (cross >> _32), x * m64


def _read(seed: int, indices, width: int) -> np.ndarray:
    """Row j holds words 0 .. width-1 of stream indices[j] of seed, the
    words random_raw(width) returns on that stream; indices are ints below
    2**64 or an integer array.

    Stream i's words are the lanes v0 .. v3 of Philox4x64-10 at counter
    [b, 0, i, 0] for b = 1, 2, ..., on key [seed mod 2**64, seed >> 64]:
    the generator bumps its counter before each block it computes.  Every
    stream and block of the read goes through the ten rounds together.
    """
    check_seed(seed)
    i = np.asarray(indices, dtype=np.uint64)[:, None]
    blocks = np.arange(1, -(-width // 4) + 1, dtype=np.uint64)
    zero = np.uint64(0)
    v0, v1, v2, v3 = blocks, zero, i, zero  # broadcast to (streams, blocks) by round two
    k0, k1 = seed & _MASK64, seed >> 64
    for r in range(10):
        if r:
            k0, k1 = (k0 + _PHILOX_W[0]) & _MASK64, (k1 + _PHILOX_W[1]) & _MASK64
        hi0, lo0 = _mulhilo(_PHILOX_M[0], v0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], v2)
        v0, v1, v2, v3 = hi1 ^ v1 ^ np.uint64(k0), lo1, hi0 ^ v3 ^ np.uint64(k1), lo0
    return np.stack([v0, v1, v2, v3], axis=-1).reshape(len(i), 4 * len(blocks))[:, :width]


def _word_blocks(seed: int, index: np.ndarray, width) -> Iterator[tuple[slice, np.ndarray]]:
    """Blocks (part, words) that cut the stream indices index of seed in
    order, where row j of words holds words 0 .. w-1 of stream
    index[part][j] and w is the largest of width[part].  width is an int,
    or one per stream that does not decrease along index.  A block holds
    as many streams as fit in BLOCK_WORDS at its w, and it ends before a
    wider run of streams that would not fit whole, unless that run starts
    it: a run of one width is cut only where it fills whole blocks."""
    width = np.broadcast_to(width, np.shape(index))
    if not len(index):
        return
    ends = (np.flatnonzero(np.diff(width)) + 1).tolist() + [len(index)]
    cuts, start = [], 0
    for a, b in zip([0] + ends[:-1], ends):
        size = max(1, BLOCK_WORDS // int(width[a]))  # streams a block at this run's width holds
        if start < a and b - start > size:
            cuts.append(a)
            start = a
        while b - start > size:
            start += size
            cuts.append(start)
    for a, b in zip([0] + cuts, cuts + [len(index)]):
        yield slice(a, b), _read(seed, index[a:b], int(width[b - 1]))


def _uniform(words: np.ndarray, lo, hi) -> np.ndarray:
    """Generator.uniform(lo, hi) from each word; lo and hi are floats or
    arrays that broadcast against words."""
    span = hi - lo
    if not np.all((0.0 <= span) & (span < math.inf)):
        raise Infeasible(f"need finite lo <= hi, got ({lo!r}, {hi!r})")
    return lo + span * ((words >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0))


def _at_cursor(words: np.ndarray, rows: np.ndarray, cursor: np.ndarray, k: int) -> np.ndarray:
    """The k words of each of rows from its cursor on, a column past the
    last word reading the last word; a slice when the cursors agree, as
    they do while the rows walk their first polygon attempt."""
    c, width = cursor[rows], words.shape[1]
    if c.min() == c.max() and c[0] + k <= width:
        return words[rows, c[0]:c[0] + k]
    return words[rows[:, None], np.minimum(c[:, None] + np.arange(k), width - 1)]


def _run_sums(u: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The sum of the first sizes[j] values of each row j, sizes not
    decreasing, as numpy sums the C-contiguous (rows, n) array of a run of
    rows of one n.  Its order of additions depends on n and on the memory
    layout, so each run is summed alone."""
    if sizes[0] == sizes[-1]:  # one run
        return np.ascontiguousarray(u[:, :sizes[0]]).sum(axis=1)
    cuts = np.flatnonzero(np.diff(sizes)) + 1
    return np.concatenate([np.ascontiguousarray(part[:, :n]).sum(axis=1)
                           for part, n in zip(np.split(u, cuts), sizes[np.r_[0, cuts]].tolist())])


def _partitions(sizes: np.ndarray, words: np.ndarray, rows: np.ndarray, cursor: np.ndarray,
                top: int) -> tuple[np.ndarray, np.ndarray]:
    """random_partition of sizes[j] angles from the words of each row j of
    rows from its cursor on, sizes[rows] not decreasing, as (apex angles
    zero-padded to top columns, taken rows): sizes[j] words per attempt
    until one is accepted, each row's cursor moved past the words it read.
    A row is taken when an accepted attempt fits in its words; the apex
    angles of the other rows are garbage."""
    width = words.shape[1]
    pending, t = np.arange(len(rows)), None  # the rows still drawing a partition
    while len(pending):
        at = rows[pending]
        n = sizes[at]
        u = _uniform(_at_cursor(words, at, cursor, top), 0.1, 1.0)
        if n[0] < top:  # some rows take fewer words than top: zero their padding
            u[np.arange(top) >= n[:, None]] = 0.0
        cursor[at] += n
        sums = _run_sums(u, n)
        accept = 2.0 * u.max(axis=1) < sums
        attempt = u * (TWO_PI / sums)[:, None]
        if t is None:
            t, taken = attempt, accept
        else:
            t[pending], taken[pending[accept]] = attempt, True
        pending = pending[~accept]
        at = rows[pending]
        pending = pending[cursor[at] + sizes[at] <= width]
    return t, taken


def _polygon_rows(kind: str, sizes: np.ndarray, lo: np.ndarray, hi: np.ndarray, words: np.ndarray,
                  top: int) -> tuple[np.ndarray, ...]:
    """random_cyclic_polygon or random_tangential_polygon, by kind, of
    sizes[j] sides with radius uniform in [lo[j], hi[j]] from each row j of
    words, sizes not decreasing, as (radii, apex angles zero-padded to top
    columns, settled rows).

    A cursor walks each row's words in polygon attempts: the radius word,
    then _partitions.  A row is settled when an attempt fits in its words
    and validate_rows accepts the polygon.  A tangential polygon with an
    ideal vertex is drawn again from the next word, as
    random_tangential_polygon does, which gives up after 1000 attempts.  An
    invalid polygon raises its error.  Unsettled rows are garbage."""
    count, width = words.shape
    radii, ts, settled = np.zeros(count), np.zeros((count, top)), np.zeros(count, dtype=bool)
    cursor = np.zeros(count, dtype=np.intp)
    rows = np.arange(count)
    for _ in range(1000):
        rows = rows[cursor[rows] + 1 + sizes[rows] <= width]  # room for a radius and one partition
        if not len(rows):
            return radii, ts, settled
        r = _uniform(_at_cursor(words, rows, cursor, 1)[:, 0], lo[rows], hi[rows])
        cursor[rows] += 1
        t, taken = _partitions(sizes, words, rows, cursor, top)
        t, status, error = _polygon.validate_rows(kind, r, t, sizes[rows])
        invalid = np.flatnonzero(taken & (status == _polygon.INVALID))
        if len(invalid):
            raise error(invalid[0])
        done = taken & (status == _polygon.ACCEPTED)
        if len(rows) == count:  # no row is settled yet: these arrays become the result
            radii, ts, settled = r, t, done
        else:
            radii[rows[done]], ts[rows[done]], settled[rows[done]] = r[done], t[done], True
        rows = rows[taken & ~done]
    if len(rows):
        j = rows[0]
        raise Infeasible(f"could not sample a tangential {sizes[j]}-gon in {(float(lo[j]), float(hi[j]))}")
    return radii, ts, settled


def _settle(walk: Callable, seed: int, index: np.ndarray, words: np.ndarray) -> tuple[np.ndarray, ...]:
    """walk(rows, words) to the end, where row j of words holds the first
    words of stream index[j] of seed and walk returns a tuple of arrays
    for those rows, whose last flags the settled ones; its other arrays.
    The rows a read leaves unsettled are read again from word 0 of their
    own streams, through _word_blocks, and walked again: at four times the
    width of words, and at four times the previous width in each round
    after, until every row is settled."""
    *arrays, settled = walk(np.arange(len(words)), words)
    rows, width = np.flatnonzero(~settled), 4 * words.shape[1]
    while len(rows):
        for part, wide in _word_blocks(seed, index[rows], width):
            at = rows[part]
            *values, settled[at] = walk(at, wide)
            for array, value in zip(arrays, values):
                array[at] = value
        rows, width = rows[~settled[rows]], 4 * width
    return tuple(arrays)


def _settled_rows(kind: str, n: np.ndarray, lo: np.ndarray, hi: np.ndarray, seed: int, index: np.ndarray,
                  words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_polygon_rows settled to the end, as (radii, apex angles zero-padded
    to the largest n); row j of words holds the first words of stream
    index[j] of seed, which draws an n[j]-gon in (lo[j], hi[j])."""
    top = int(n.max())
    return _settle(lambda at, wide: _polygon_rows(kind, n[at], lo[at], hi[at], wide, top), seed, index, words)


def polygon_blocks(kind: str, n, lo, hi, seed: int, index: np.ndarray,
                   regular: bool = False) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The polygons of the family `kind` on the stream indices index of
    seed, in order, as blocks of (radii, apex angles) arrays.  Each is what
    random_cyclic_polygon or random_tangential_polygon draws on its stream,
    or with regular the regular polygon at rng.uniform(lo, hi).  n, lo and
    hi are ints and floats, or arrays of one per stream: stream index[j]
    draws an n[j]-gon in the _radius_window (lo[j], hi[j]), and n must not
    decrease along index.  A block's rows of fewer sides than its largest n
    are zero-padded to it.

    A block holds the streams of about BLOCK_WORDS words, cut by
    _word_blocks at one polygon attempt, n + 1 words, a stream, or one word
    when regular; a stream that needs more is read again at four times its
    block's width, and so on (_settle)."""
    n, lo, hi = (np.broadcast_to(x, np.shape(index)) for x in (n, lo, hi))
    for part, words in _word_blocks(seed, index, 1 if regular else n + 1):
        sizes = n[part]
        if not regular:
            yield _settled_rows(kind, sizes, lo[part], hi[part], seed, index[part], words)
            continue
        # every radius lies in the window, where only a radius of 0 fails
        # the constructor, and validate_rows raises what it raises
        radii = _uniform(words[:, 0], lo[part], hi[part])
        ts = np.where(np.arange(sizes.max()) < sizes[:, None], TWO_PI / sizes[:, None], 0.0)
        ts, status, error = _polygon.validate_rows(kind, radii, ts, sizes)
        if (status != _polygon.ACCEPTED).any():
            raise error(int(np.argmax(status != _polygon.ACCEPTED)))
        yield radii, ts


def _first_polygon(n: int, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The partition of _draw_polygon's one n-gon attempt from each row of
    words, whatever the family: (apex angles, settled rows).  Word 0 is the
    radius's, and _partitions reads on from word 1; a row is settled when
    its accepted partition fits in its words."""
    count = len(words)
    return _partitions(np.full(count, n), words, np.arange(count), np.ones(count, dtype=np.intp), n)


def _family_rows(kind: str, lo: float, hi: float, radius_words: np.ndarray,
                 ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The polygons of the family `kind` at radius uniform(lo, hi) from each
    radius word and the partition ts of its row, as validate_rows decides
    them: (radii, apex angles, ideal rows).  An invalid polygon raises its
    error."""
    radii = _uniform(radius_words, lo, hi)
    ts, status, error = _polygon.validate_rows(kind, radii, ts)
    invalid = np.flatnonzero(status == _polygon.INVALID)
    if len(invalid):
        raise error(invalid[0])
    return radii, ts, status == _polygon.IDEAL


def _polygon_walk(groups: list[tuple], n: int, seed: int, index: np.ndarray) -> Iterator[dict]:
    """Per block of the stream indices index of seed, in order, one random
    polygon per stream for each ("polygon", family, lo, hi) group, as
    _draw_polygon draws it: {group: (radii, apex angles, ideal rows)}.  A
    draw reads no further than its first polygon attempt, so the families
    share each block's read, its partitions and the re-reads of its
    unsettled rows; each maps the radius word into its own window and
    decides its own polygons, in group order."""
    for part, words in _word_blocks(seed, index, n + 1):
        (ts,) = _settle(lambda at, wide: _first_polygon(n, wide), seed, index[part], words)
        yield {group: _family_rows(*group[1:], words[:, 0], ts) for group in groups}


def _split_walk(groups: list[tuple], n: int, seed: int, index: np.ndarray) -> Iterator[dict]:
    """Per block of the stream indices index of seed, in order, one random
    split per stream for each ("split", k) group, as random_split draws it
    before scaling to a total: {group: (uniform(0.1, 1) words, their row
    sums)}.  The groups share one read at their largest k, of which each
    takes the first k words of every row."""
    for _, words in _word_blocks(seed, index, max(k for _, k in groups)):
        block = {}
        for group in groups:
            u = _uniform(words[:, :group[1]], 0.1, 1.0)
            block[group] = u, u.sum(axis=1)
        yield block


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


def _radius_window(kind: str, n: int, radius_range: tuple[float, float]) -> tuple[float, float]:
    """The window radii of the family `kind` are drawn from, checked before the first draw.

    A tangential window is capped just below the ideal-vertex limit.
    """
    lo, hi = radius_range
    if kind == "tangential":
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
    lo, hi = _radius_window("tangential", n, radius_range)
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


def _values(f: Callable[[np.ndarray], np.ndarray], xs) -> np.ndarray:
    """f at every element of xs, as a float64 array of xs's shape.

    f maps an array elementwise.  An exception from f, a floating-point
    overflow, invalid operation or division by zero inside it, or a NaN
    among its values is an EvaluationFailure naming the first x, in xs's
    order, at which f fails on its own.
    """
    xs = np.asarray(xs, dtype=np.float64)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            values = np.broadcast_to(np.asarray(f(xs), dtype=np.float64), xs.shape)
    except Exception as exc:
        if xs.size > 1:
            for x in xs.ravel():
                _values(f, x[None])
        raise EvaluationFailure(f"objective failed at {float(xs.ravel()[0])!r}: {exc}") from exc
    nan = np.isnan(values)
    if nan.any():
        raise EvaluationFailure(f"objective produced NaN at {float(xs[nan][0])!r}")
    return values


def certify_convexity(f: Callable[[np.ndarray], np.ndarray], interval: tuple[float, float]) -> ConvexityCertificate:
    """Classify the sign of f'' on the open interval by second differences.

    Uses h = 1e-5 times the interval width at GRID_POINTS interior points,
    scored in one call of f.  The certificate is consistent only if every
    second difference has the same strict sign.  A second difference that
    is not finite, as when h * h underflows on a tiny interval, is an
    EvaluationFailure: it has no sign to certify.
    """
    lo, hi = interval
    if not lo < hi:
        raise Infeasible(f"empty interval {interval}")
    width = hi - lo
    h = FD_H_FRACTION * width
    xs = lo + width * np.arange(1, GRID_POINTS + 1) / (GRID_POINTS + 1)
    v = _values(f, xs[:, None] + np.array([-h, 0.0, h]))
    with np.errstate(all="ignore"):  # a value that is not finite raises below
        d2 = (v[:, 0] - 2.0 * v[:, 1] + v[:, 2]) / (h * h)
    bad = ~np.isfinite(d2)
    if bad.any():
        raise EvaluationFailure(f"objective produced a second difference of {float(d2[bad][0])!r} "
                                f"near {float(xs[bad][0])!r}")
    ref = d2[0]
    sign = "positive" if ref > 0.0 else "negative"
    # a second difference of the other sign or zero; at ref == 0 that is the first one
    off = np.flatnonzero(((d2 > 0.0) != (ref > 0.0)) | (d2 == 0.0))
    return ConvexityCertificate(
        grid=tuple(xs.tolist()),
        second_differences=tuple(d2.tolist()),
        sign="mixed" if len(off) else sign,
        first_violation=float(xs[off[0]]) if len(off) else None,
    )


# ---------------------------------------------------------------------------
# separable problems


@dataclass(frozen=True)
class SeparableProblem:
    """Optimize sum(f(x_i)) for k variables in an open interval, sum fixed to c.

    f maps a float64 array elementwise to the objective's values, so that
    the solve scores whole grids in one call.
    """

    name: str
    f: Callable[[np.ndarray], np.ndarray]
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
        return math.fsum(_values(self.f, xs).tolist())


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
    if (resolution - 1) ** (k - 1) > ORACLE_POINTS:
        raise OracleTooLarge(f"grid oracle at resolution {resolution} and k={k} would hold more than "
                             f"{ORACLE_POINTS} points")


def grid_oracle(problem: SeparableProblem, resolution: int) -> GridOracleResult:
    """Exhaustive scan of the constrained simplex on a regular grid.

    Only k in {2, 3} is supported.  The first k - 1 coordinates run over the
    grid in lexicographic order and the last is c minus them, left to
    right; a point counts when the last lies in the open interval.  Its
    value sums f over its coordinates left to right, and the first point
    with the best value in the problem's sense is the optimum, within one
    grid cell of the true one when the objective carries a consistent
    certificate.
    """
    _check_oracle(problem.k, resolution)
    lo, hi = problem.interval
    step = (hi - lo) / resolution
    xs = lo + np.arange(1, resolution) * step
    free = [g.ravel() for g in np.meshgrid(*[xs] * (problem.k - 1), indexing="ij")]
    last = problem.c
    for x in free:
        last = last - x
    inside = (lo < last) & (last < hi)
    if not inside.any():
        raise Infeasible("no feasible grid point; widen the interval or change c")
    points = np.stack([*free, last], axis=1)[inside]
    values = _values(problem.f, points)
    total = values[:, 0]
    for column in values.T[1:]:
        total = total + column
    best = int(np.argmin(total if problem.sense == "minimize" else -total))
    return GridOracleResult(min_point=tuple(points[best].tolist()), min_value=float(total[best]),
                            step=step, evaluations=len(points))


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


def _bit_terms(v: np.ndarray, j: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Terms that add up to each v * j exactly: v * 2**b at each set bit b of
    j, and 0 at the other bits.  A product with a power of two is exact, so
    their correctly rounded sum is math.fsum of j copies of v."""
    return np.where(j[:, None] >> bits & 1, v[:, None] * 2.0 ** bits, 0.0)


def solve_equal_sum(problem: SeparableProblem, oracle_resolution: int | None = None) -> OptimizationReport:
    """Look for a split of c better than the uniform one among the two-value splits.

    At an interior critical point of sum(f(x_i)) with sum(x_i) = c, f'(x_i)
    is the same for every i; if f'' changes sign at most once on the
    interval, f' takes each value at most twice, so the point has the form
    (x, ..., x, y, ..., y).  That is the equal-variable method (V. Cirtoaje,
    JIPAM 8(1), 2007, art. 15).  For each m = 1 .. k-1 the scan takes
    GRID_POINTS interior x of the range where m copies of x and k-m copies
    of y = (c - m*x)/(k - m) all lie in the open interval; m goes in slices
    where one call of f scores every x and one every y, and a split's value
    is math.fsum of its k values.  Taken in order of m and x, a point replaces the best one so
    far only when it is better in the problem's sense by more than the
    slack of the best value, INEQ_TOL * max(1, |value|): the scanned split
    sums to c only up to rounding, and a few ulps gained from a smaller sum
    are no gain.  The report's iterations
    counts the points scored.

    Always runs, even with a mixed certificate; the report's certified flag
    says whether the certificate has the sign the sense needs.  When
    oracle_resolution is given, the grid oracle runs too and
    oracle_agreement records whether both optima match within the value
    change across one grid cell; an oracle it cannot run (k not in {2, 3},
    resolution below 50, more than ORACLE_POINTS grid points) raises
    before the solve starts.
    """
    lo, hi = problem.interval
    k, c = problem.k, problem.c
    if oracle_resolution is not None:
        _check_oracle(k, oracle_resolution)
    cert = certify_convexity(problem.f, problem.interval)
    needed = "positive" if problem.sense == "minimize" else "negative"
    flip = 1.0 if problem.sense == "minimize" else -1.0

    uniform = (c / k,) * k
    best_x = uniform
    best = uniform_value = problem.total(uniform)
    # a split's value is math.fsum of its k values, which fsum_rows gives
    # from the O(log k) _bit_terms; m goes in slices of about BLOCK_WORDS
    # terms, so the scan's arrays stay this small whatever k is
    bits = np.arange(k.bit_length())
    step = max(1, BLOCK_WORDS // (2 * GRID_POINTS * len(bits)))
    scanned = 0
    for start in range(1, k, step):
        m = np.repeat(np.arange(start, min(start + step, k)), GRID_POINTS)
        a = np.maximum(lo, (c - (k - m) * hi) / m)
        b = np.minimum(hi, (c - (k - m) * lo) / m)
        x = a + (b - a) * np.tile(np.arange(1, GRID_POINTS + 1), len(m) // GRID_POINTS) / (GRID_POINTS + 1)
        y = (c - m * x) / (k - m)
        inside = (lo < x) & (x < hi) & (lo < y) & (y < hi)
        m, x, y = m[inside], x[inside], y[inside]
        fx, fy = _values(problem.f, x), _values(problem.f, y)
        values = fsum_rows(np.hstack([_bit_terms(fx, m, bits), _bit_terms(fy, k - m, bits)]))
        scanned += len(m)
        # a replacement improves on the slice's first incumbent, so only
        # those points can replace one
        for i in np.flatnonzero(flip * values < flip * best).tolist():
            mi, value = int(m[i]), float(values[i])
            if flip * (best - value) > INEQ_TOL * max(1.0, abs(best)):  # _slack(best), in floats
                best_x, best = (float(x[i]),) * mi + (float(y[i]),) * (k - mi), value

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
    k = len(oracle.min_point)
    unit = np.eye(k)
    moves = np.array([unit[i] - unit[j] for i in range(k) for j in range(k) if i != j])
    q = np.array(oracle.min_point) + oracle.step * moves
    q = q[((lo < q) & (q < hi)).all(axis=1)]
    gaps = np.abs(fsum_rows(_values(problem.f, q)) - oracle.min_value)
    return max(gaps.tolist(), default=0.0) + 1e-9


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
            lambda x: np.arcsinh(np.sin(np.pi / n) * np.sinh(x)),
            (0.0, 3.0),
        ),
        "sense": "minimize",
        "radius_default": None,
    },
    "thm6_radius": {
        "make": lambda n, radius: (
            lambda x: np.arctanh(np.tan(np.pi / n) * np.sinh(x)),
            (0.0, tangential_radius_limit(n)),
        ),
        "sense": "minimize",
        "radius_default": None,
    },
    # concave only below the inflection radius; registered on that window
    "thm7_radius": {
        "make": lambda n, radius: (
            lambda x: np.arctan2(1.0, np.tan(np.pi / n) * np.cosh(x)),
            (0.0, _bounds.thm7_radius_threshold(n)),
        ),
        "sense": "maximize",
        "radius_default": None,
    },
    "thm8_radius": {
        "make": lambda n, radius: (
            lambda x: np.arccos(np.sin(np.pi / n) * np.cosh(x)),
            (0.0, _bounds.area_radius_limit(n)),
        ),
        "sense": "maximize",
        "radius_default": None,
    },
    "thm9_theta": {
        "make": lambda n, radius: (
            lambda t: np.arccosh(np.cos(np.pi / n) / np.sin(0.5 * t)),
            (0.0, thm9_theta_threshold(n)),
        ),
        "sense": "minimize",
        "radius_default": None,
    },
    "thm10_perimeter": {
        "make": lambda n, radius: (
            lambda x: np.arcsin(np.cos(np.pi / n) / np.cosh(x / (2.0 * n))),
            (_bounds.thm10_peri_threshold(n), 3.0 * _bounds.thm10_peri_threshold(n)),
        ),
        "sense": "minimize",
        "radius_default": None,
    },
}


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
    if spec["radius_default"] is None:
        if radius is not None:
            raise Infeasible(f"objective {name!r} takes no radius, got {radius!r}")
    elif radius is None:
        radius = spec["radius_default"]
    elif not 0.0 < radius <= LEG_MAX:
        raise Infeasible(f"objective {name!r} needs a radius in (0, {LEG_MAX}], got {radius!r}")
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
    radius_range: tuple[float, float] = RADIUS_RANGE,
    total: float | None = None,
    trials: int = 1000,
    seed: int = DEFAULT_SEED,
) -> VerificationReport:
    """Randomized check of one bound: verify_bounds of the one cell (theorem_id, k)."""
    return verify_bounds([(theorem_id, k)], n, radius_range, total, trials, seed)[0]


def verify_bounds(
    cells: list[tuple[str, int]],
    n: int = 6,
    radius_range: tuple[float, float] = RADIUS_RANGE,
    total: float | None = None,
    trials: int = 1000,
    seed: int = DEFAULT_SEED,
) -> list[VerificationReport]:
    """Randomized check of bounds: draw, assert, and count, one
    VerificationReport per (theorem id, k) cell, in order.

    A single-polygon bound draws random polygons of its family from
    radius_range and ignores k and total.  A fixed-total bound draws random
    splits of total (default: the record's) into k >= 2 regular polygons.
    Draws are skipped, not resampled: a polygon only for an ideal vertex, a
    split only outside its guard window, so an out-of-region total shows up
    as skipped == trials.  Inequalities are asserted with a slack of
    INEQ_TOL (1e-12) times the bound's size, max(1, |bound|), so that a
    rounding error in a large bound is not a violation.  The equality
    configuration is asserted with EQ_TOL (1e-9) for a single polygon, and
    with EQ_TOL * max(1, |bound|) for the uniform split, whose left-to-right
    sum of k equal terms rounds by up to about k**2 * eps * |term| / 4.

    Every cell is set up, and its inputs checked, before the first draw,
    in cell order.  The cells then share one walk of the streams per kind
    of draw: _polygon_walk for the single-polygon cells, whose families
    share each stream's words and partition, and _split_walk for the split
    cells, one read at the largest k.  The cells of one group share its
    draws, and split cells their regular_convert_rows call where k, spec,
    window and total agree.  Each block of a walk goes to every cell, whose
    verdicts are reduced with numpy exactly as a loop over its draws in
    stream order would.
    """
    bounds = [_Bound.setup(theorem_id, n, k, radius_range, total) for theorem_id, k in cells]
    for draw, walk in (("polygon", _polygon_walk), ("split", _split_walk)):
        members = [bound for bound in bounds if bound.group[0] == draw]
        if not members:
            continue
        groups = list(dict.fromkeys(bound.group for bound in members))
        for block in walk(groups, n, seed, np.arange(trials)):
            converted = {}  # one regular_convert_rows call per (group, spec, window, total) and block
            for bound in members:
                bound.add(*bound.verdicts(block[bound.group], converted))
    return [bound.report(trials, seed) for bound in bounds]


def _margins(kind: str, actual: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """How far each actual value clears a lower or upper bound."""
    return actual - bound if kind == "lower" else bound - actual


def _regular_rows(n: int, spec: Callable, window: tuple[float, float],
                  splits: np.ndarray) -> tuple[np.ndarray, RegularPolygonMetrics]:
    """The rows of splits that lie in the window, and the regular polygons
    spec(n, x) of their components, converted in one call."""
    lo, hi = window
    rows = np.flatnonzero(((lo < splits) & (splits < hi)).all(axis=1))
    return rows, regular_convert_rows(n, *spec(n, splits[rows]).defining())


def _row_sums(m: RegularPolygonMetrics, quantity: str) -> np.ndarray:
    """The quantity of each row's components, summed left to right."""
    values = m.perimeter if quantity == "perimeter" else m.area
    sums = np.zeros(len(values))
    for column in values.T:
        sums += column
    return sums


@dataclass
class _Bound:
    """One cell of verify_bounds: its set-up, the group of draws it reads,
    and its verdicts so far."""

    theorem: str
    n: int
    k: int
    entry: dict
    group: tuple  # ("polygon", family, lo, hi) or ("split", k)
    params: dict
    equality_abs_error: float | None = None
    equality_tolerance: float = EQ_TOL
    res: _bounds.BoundResult | None = None  # a split bound at its total
    convert: tuple | None = None  # a split bound's (spec, window, total)
    asserted: int = 0
    violations: int = 0
    skipped: int = 0
    worst_margin: float | None = None
    slack_at_worst: float | None = None
    counterexample: dict | None = None

    @classmethod
    def setup(cls, theorem_id: str, n: int, k: int, radius_range: tuple[float, float],
              total: float | None) -> "_Bound":
        """Check the cell's inputs and evaluate what its draws need; a split
        bound's equality case, the uniform split, is checked here."""
        entry = _bounds.THEOREMS.get(theorem_id)
        if entry is None or entry["objective"] is None:
            raise Infeasible(f"unknown theorem id {theorem_id!r}")
        if not entry["multi"]:
            _bounds._check_nk(n)
            kind = entry["family"]
            lo, hi = _radius_window(kind, n, radius_range)
            return cls(theorem_id, n, 1, entry, ("polygon", kind, lo, hi), {"radius_range": [lo, hi]})
        _bounds._check_nk(n, k)
        if k < 2:
            raise Infeasible(f"{theorem_id} bounds a total over k >= 2 polygons, got k={k}")
        total = entry["total"](n, k) if total is None else total
        res = entry["func"](n, k, total)
        spec, window = entry["spec"], entry["window"](n)
        bound = cls(theorem_id, n, k, entry, ("split", k), {"total": total}, res=res, convert=(spec, window, total))
        if res.feasible and res.equality_spec is not None:
            rows, m = _regular_rows(n, spec, window, np.full((1, k), total / k))
            if len(rows):
                bound.equality_abs_error = abs(float(_row_sums(m, res.quantity)[0]) - res.value)
                bound.equality_tolerance = EQ_TOL * max(1.0, abs(res.value))
        return bound

    def verdicts(self, block: tuple, converted: dict) -> tuple:
        """A block's (skipped draws, margins and bounds of the kept draws,
        equality errors, witness); witness(i) gives the leading keys of kept
        draw i's counterexample.  converted holds the block's splits and
        their conversions by (group, spec, window, total), for the split
        bounds that share them."""
        if self.group[0] == "polygon":
            return self._polygon_verdicts(*block)
        return self._split_verdicts(block, converted)

    def _polygon_verdicts(self, radii: np.ndarray, ts: np.ndarray, ideal: np.ndarray) -> tuple:
        """Each polygon without an ideal vertex checked against the bound at
        its radius; the equality case is re-checked at every radius."""
        n, kind, entry = self.n, self.group[1], self.entry
        kept = np.flatnonzero(~ideal)
        r, t = radii[kept], ts[kept]
        bound = entry["rows"](n, r)
        metric = _polygon.perimeter_rows if bound.quantity == "perimeter" else _polygon.area_rows
        equal = regular_convert_rows(n, bound.defining, r[bound.equality])
        equal = equal.perimeter if bound.quantity == "perimeter" else equal.area

        def witness(i: int) -> dict:
            radius = float(r[i])
            return {"polygon": _polygon.row_json(kind, n, radius, t[i].tolist()),
                    "bound": entry["func"](n, radius).to_json_dict()}

        return (len(ideal) - len(kept), _margins(bound.kind, metric(kind, r, t), bound.value), bound.value,
                np.abs(equal - bound.value[bound.equality]), witness)

    def _split_verdicts(self, block: tuple, converted: dict) -> tuple:
        """Each split of the total that lies in the window checked against
        the bound, its metric the bound's own quantity of every component."""
        n, res, (spec, window, total) = self.n, self.res, self.convert
        key = (self.group, *self.convert)
        if key not in converted:
            u, sums = block
            splits = u * (total / sums)[:, None]
            converted[key] = splits, *_regular_rows(n, spec, window, splits)
        splits, rows, m = converted[key]

        def witness(i: int) -> dict:
            xs = splits[rows[i]].tolist()
            return {"split": xs, "polygons": [_regular_polygon_json(spec(n, x)) for x in xs],
                    "bound": res.to_json_dict()}

        return (len(splits) - len(rows), _margins(res.kind, _row_sums(m, res.quantity), res.value),
                np.full(len(rows), res.value), np.empty(0), witness)

    def add(self, skips: int, margins: np.ndarray, bound: np.ndarray, errors: np.ndarray, witness: Callable) -> None:
        """Reduce one block's verdicts into the cell's."""
        self.skipped += skips
        self.asserted += len(margins)
        i = _first_extreme(self.worst_margin, margins, np.less)
        if i is not None:
            self.worst_margin, self.slack_at_worst = float(margins[i]), float(_slack(bound[i]))
        bad = np.flatnonzero(margins < -_slack(bound))
        self.violations += len(bad)
        if len(bad) and self.counterexample is None:
            self.counterexample = {**witness(bad[0]), "margin": float(margins[bad[0]])}
        i = _first_extreme(self.equality_abs_error, errors, np.greater)
        if i is not None:
            self.equality_abs_error = float(errors[i])

    def report(self, trials: int, seed: int) -> VerificationReport:
        return VerificationReport(
            theorem=self.theorem, n=self.n, k=self.k, trials=trials, asserted=self.asserted,
            violations=self.violations, skipped=self.skipped, worst_margin=self.worst_margin,
            slack_at_worst=self.slack_at_worst, equality_abs_error=self.equality_abs_error,
            tolerance=INEQ_TOL, equality_tolerance=self.equality_tolerance, seed=seed, params=self.params,
            counterexample=self.counterexample,
        )


def _regular_polygon_json(spec: RegularNGonSpec) -> dict:
    """Full polygon JSON for a regular polygon: tangential when given by inradius."""
    m = regular_convert(spec)
    kind, radius = ("tangential", m.r) if spec.r is not None else ("cyclic", m.R)
    return _polygon.to_json_dict(_polygon.regular(kind, spec.n, radius))
