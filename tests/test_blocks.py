"""Block evaluation against the per-draw and per-polygon code it replaces.

Two contracts, tested separately:

- Draws are exact.  Radii, apex angles, settled rows, ideal-vertex
  decisions, re-read rounds, counts and counterexample indices equal the
  scalar draws' (stream_pointer with _draw_polygon, random_*_polygon or
  random_split), compared with float.hex or exact equality of whole
  structures.  The block walker never calls a scalar draw.
- Values are accurate, not bit-identical.  The block kernels evaluate
  transcendentals with numpy's ufuncs; the scalar stable_asinh,
  stable_atanh and acosh1p use the math module, so they may differ from
  their rows kernels in the last bits.
  Each value is checked against a 40-digit mpmath evaluation at the same
  float inputs (the measured routes against a 40-digit embedding measured
  at 40 digits), and a scalar math kernel against its rows kernel, within
  a stated number of rounding errors (MP_ULPS, ULPS, MEASURED_ULPS) of the
  value's scale: the value itself for lengths and perimeters, n*pi for
  deficit areas, plus its condition, how far the exact value moves when
  every input moves by one part in 2**52.  A block value equals the
  one-row call that recomputes it exactly, so a reported counterexample
  reproduces bit for bit, and the scalar regular_convert, bounds,
  polygon.perimeter, area and sector kernels, hmodel.embed and measured_*,
  the hypmath kernels with a rows kernel apart from those three, and the
  registered objectives, being one-row or one-point calls, match the
  blocks exactly.
"""

import collections
import dataclasses
import itertools
import math
import re

import mpmath
import numpy as np
import pytest

from hypergon import bounds, cli, hmodel, hypmath, optimize, polygon
from hypergon.errors import IdealVertex, Infeasible
from hypergon.optimize import DEFAULT_SEED
from hypergon.polygon import CyclicPolygon, TangentialPolygon

SEEDS = (0, DEFAULT_SEED, 2**128 - 1)
WINDOWS = ((0.1, 2.0), (1e-3, 15.0))  # the verify workload's two windows
FAMILIES = (CyclicPolygon, TangentialPolygon)
# a block of this many words holds 4 rows at n = 192 and 193 rows at n = 3
SMALL_BLOCK = 4 * 193

EPS = float(np.finfo(np.float64).eps)
# Rounding errors a value may carry, in units of EPS times its scale.  Every
# value is within MP_ULPS of the exact one at its inputs (the worst seen is
# 1.3), and an elementwise kernel within MP_ULPS ulps of its scalar twin.  A
# composite value adds up its kernels' errors, so it is within ULPS, and a
# measured route, whose bilinear forms amplify its coordinates' rounding far
# out (about 45 at radius 15 and n = 200), within MEASURED_ULPS.
MP_ULPS = 4
ULPS = 16
MEASURED_ULPS = 512
# relative step of the finite differences that estimate a value's condition
STEP = 1e-8


def hexes(values):
    return [float(v).hex() for v in values]


def condition(f, radii, ts):
    """How far each value of f(radii, ts) moves when the radius, and then
    every apex angle, moves by one whole part: sum_j |x_j df/dx_j|, by
    finite differences.  The inputs shrink, which keeps a tangential row
    off its ideal vertex."""
    base = f(radii, ts)
    return (np.abs(f(radii * (1.0 - STEP), ts) - base) + np.abs(f(radii, ts * (1.0 - STEP)) - base)) / STEP


def assert_within(got, want, scale, ulps=ULPS):
    """|got - want| <= ulps * EPS * scale at every element."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    bad = ~(np.abs(got - want) <= ulps * EPS * np.asarray(scale))
    assert not bad.any(), f"{np.count_nonzero(bad)} values off, first {got[bad][:3]} against {want[bad][:3]}"


def assert_ulps(got, want, ulps=MP_ULPS):
    """got is within ulps units in the last place of want at every element."""
    assert_within(got, want, np.spacing(np.abs(np.asarray(want, dtype=float))) / EPS, ulps)


def closed_form(kind, quantity):
    """The block closed form of `quantity` as a function of (radii, apex angles)."""
    f = polygon.perimeter_rows if quantity == "perimeter" else polygon.area_rows
    return lambda radii, ts: f(kind, radii, ts)


def value_scale(kind, quantity, radii, ts, values):
    """What ULPS counts rounding errors of: a perimeter's own size, or n*pi
    for an area by angle deficit, plus the value's condition."""
    own = np.abs(values) if quantity == "perimeter" else ts.shape[1] * math.pi
    return own + condition(closed_form(kind, quantity), radii, ts)


def one_row(poly, quantity):
    """The block closed form of one polygon: the route a block margin takes."""
    return float(closed_form(poly.kind, quantity)(np.array([poly.radius]), np.array([poly.thetas]))[0])


def boundary_counts(width):
    """Trial counts one below, at and one above the first block boundary."""
    size = max(1, optimize.BLOCK_WORDS // width)
    return size - 1, size, size + 1


def stream_pointer(seed):
    """stream(i): one generator, re-pointed to stream i of seed at each call;
    about 18 us cheaper a stream than optimize.trial_rng, which builds one."""
    state = optimize._stream_state(seed, 0)
    counter = state["state"]["counter"]
    rng = np.random.Generator(np.random.Philox())
    bit_gen = rng.bit_generator

    def stream(i):
        counter[2] = i
        bit_gen.state = state
        return rng

    return stream


def streams(seed, count):
    """The generators of streams 0 .. count-1 of seed, in order: one Philox,
    re-pointed by stream_pointer before each is handed out."""
    return map(stream_pointer(seed), range(count))


def scalar_polygon(family, n, lo, hi, rng):
    try:
        return optimize._draw_polygon(family, n, lo, hi, rng)
    except IdealVertex:
        return None


# ---------------------------------------------------------------------------
# draws


def verify_width(n):
    """Words per stream of a verify polygon block: one polygon attempt."""
    return n + 1


def scalar_margin(res, actual):
    return actual - res.value if res.kind == "lower" else res.value - actual


def cell_blocks(cell, seed, trials):
    """The per-block verdicts verify_bounds reduces for the one set-up cell
    (an optimize._Bound), from a walk of its group's draws: (skipped draws,
    margins, bounds, equality errors, witness)."""
    walk = optimize._polygon_group if cell.group[0] == "polygon" else optimize._split_group
    for block in walk(cell.group, cell.n, seed, trials):
        yield cell.verdicts(block, {})


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("n", [3, 6, 12, 192])
@pytest.mark.parametrize("theorem", ["1.1", "1.2", "1.3", "1.4"])
def test_verify_polygon_draws_match_scalar_draws(monkeypatch, theorem, n, window, seed):
    monkeypatch.setattr(optimize, "BLOCK_WORDS", SMALL_BLOCK)
    entry = bounds.THEOREMS[theorem]
    family = TangentialPolygon if entry["family"] == "tangential" else CyclicPolygon
    lo, hi = optimize._radius_window(family.kind, n, window)
    cell = optimize._Bound.setup(theorem, n, 1, window, None)
    for count in boundary_counts(verify_width(n)):
        scalar = [scalar_polygon(family, n, lo, hi, rng) for rng in streams(seed, count)]
        errors = []
        kept = []
        rest = iter(scalar)
        for skips, margins, bound, errs, witness in cell_blocks(cell, seed, count):
            mine = [next(rest) for _ in range(skips + len(margins))]
            assert mine.count(None) == skips
            polys = [p for p in mine if p is not None]
            assert len(bound) == len(margins) == len(polys)
            kept += [(p, m, b, witness(i)) for i, (p, m, b) in enumerate(zip(polys, margins, bound))]
            errors += errs.tolist()
        assert next(rest, "end") == "end"
        want_errors, margins, want_margins, actuals = [], [], [], []
        for poly, margin, bound, witness in kept:
            res = entry["func"](n, poly.radius)
            assert bound.hex() == res.value.hex()
            assert margin.hex() == scalar_margin(res, one_row(poly, res.quantity)).hex()
            actual = polygon.perimeter(poly) if res.quantity == "perimeter" else polygon.area(poly)
            margins.append(margin)
            want_margins.append(scalar_margin(res, actual))
            actuals.append(actual)
            assert witness == {"polygon": polygon.to_json_dict(poly), "bound": res.to_json_dict()}
            if res.equality_spec is not None:
                want_errors.append(abs(bounds.equality_value(res) - res.value))
        assert hexes(errors) == hexes(want_errors)
        if kept:
            radii = np.array([p.radius for p, *_ in kept])
            ts = np.array([p.thetas for p, *_ in kept])
            quantity = "perimeter" if theorem in ("1.1", "1.2") else "area"
            assert_within(margins, want_margins, value_scale(family.kind, quantity, radii, ts, np.array(actuals)))


def scalar_split_metric(entry, n, xs, quantity):
    """The split metric as the per-component loop computes it; regular_convert
    is the one-row call of the block's kernel, so the two agree exactly."""
    out = 0.0
    for x in xs:
        m = hypmath.regular_convert(entry["spec"](n, x))
        out += m.perimeter if quantity == "perimeter" else m.area
    return out


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("theorem", ["1.6", "1.10", "1.5", "1.7", "1.8", "1.9"])
def test_split_draws_match_random_split(monkeypatch, theorem, k, seed):
    monkeypatch.setattr(optimize, "BLOCK_WORDS", 64 * k)
    entry = bounds.THEOREMS[theorem]
    total = entry["total"](12, k)
    cell = optimize._Bound.setup(theorem, 12, k, None, total)
    lo, hi = entry["window"](12)
    res = entry["func"](12, k, total)
    assert cell.equality_abs_error == abs(scalar_split_metric(entry, 12, [total / k] * k, res.quantity) - res.value)
    assert cell.equality_tolerance == optimize.EQ_TOL * max(1.0, abs(res.value))
    for count in boundary_counts(k):
        splits = [optimize.random_split(total, k, rng) for rng in streams(seed, count)]
        rest = iter(xs if all(lo < x < hi for x in xs) else None for xs in splits)
        asserted = 0
        for skips, margins, bound, errors, witness in cell_blocks(cell, seed, count):
            mine = [next(rest) for _ in range(skips + len(margins))]
            assert mine.count(None) == skips
            kept = [xs for xs in mine if xs is not None]
            assert len(bound) == len(margins) == len(kept)
            assert len(errors) == 0
            for i, xs in enumerate(kept):
                metric = scalar_split_metric(entry, 12, xs, res.quantity)
                assert margins[i].hex() == scalar_margin(res, metric).hex()
                assert bound[i] == res.value
                got = witness(i)
                assert hexes(got["split"]) == hexes(xs)
                assert got["bound"] == res.to_json_dict()
            asserted += len(kept)
        assert next(rest, "end") == "end"
        assert asserted > 0


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", range(3, 12))
def test_partition_attempts_match_random_partition(monkeypatch, n, seed):
    # the walker without redraws on rows of three random_partition attempts,
    # below n = 12, where random_partition can reject one; blocks of 37 rows
    # cut the run mid-way.  Rows that need a fourth attempt are not plain:
    # they are left to the re-reads, which
    # test_verify_rows_settle_round_by_round compares at n = 3.
    width = 1 + 3 * n
    monkeypatch.setattr(optimize, "BLOCK_WORDS", 37 * width + 5)
    attempts = collections.Counter()
    for family in FAMILIES:
        lo, hi = optimize._radius_window(family.kind, n, (0.1, 2.0))
        rows = [row for _, words in optimize._word_blocks(seed, np.arange(300), width)
                for row in zip(*optimize._polygon_rows(family.kind, n, lo, hi, words, redraw=False))]
        assert len(rows) == 300
        for i, (radius, ts, plain, ideal) in enumerate(rows):
            rng = optimize.trial_rng(seed, i)
            rng.uniform(lo, hi)
            for attempt in itertools.count(1):
                u = rng.uniform(0.1, 1.0, n)
                if 2.0 * u.max() < u.sum():
                    break
            attempts[min(attempt, 4)] += 1
            assert plain == (attempt <= 3)
            if not plain:
                continue
            want = scalar_polygon(family, n, lo, hi, optimize.trial_rng(seed, i))
            assert ideal == (want is None)
            if want is not None:
                assert radius.hex() == want.radius.hex()
                assert hexes(ts) == hexes(want.thetas)
    if n == 3:
        assert set(attempts) == {1, 2, 3, 4}


INEQ_TOL = optimize.INEQ_TOL


def h(x):
    return None if x is None else float(x).hex()


def scalar_verdicts(draws, eq_err=None):
    """verify_theorem's verdicts as its per-draw loop reduced them, from
    draws in stream order: None for a skipped draw, else (margin, bound,
    witness, equality error or None)."""
    asserted = violations = skipped = 0
    worst = slack = counterexample = None
    for drawn in draws:
        if drawn is None:
            skipped += 1
            continue
        margin, bound, witness, err = drawn
        asserted += 1
        if worst is None or margin < worst:
            worst, slack = margin, INEQ_TOL * max(1.0, abs(bound))
        if margin < -INEQ_TOL * max(1.0, abs(bound)):
            violations += 1
            if counterexample is None:
                counterexample = {**witness, "margin": margin}
        if err is not None and (eq_err is None or err > eq_err):
            eq_err = err
    return {"asserted": asserted, "skipped": skipped, "violations": violations, "worst": h(worst),
            "slack": h(slack), "equality": h(eq_err), "counterexample": counterexample}


def verdicts(rep):
    return {"asserted": rep.asserted, "skipped": rep.skipped, "violations": rep.violations,
            "worst": h(rep.worst_margin), "slack": h(rep.slack_at_worst), "equality": h(rep.equality_abs_error),
            "counterexample": rep.counterexample}


def scalar_verify(theorem, n, k, trials, seed, window=(0.1, 2.0)):
    """verify_theorem from the scalar draws and bounds, with each draw's
    metric from a one-row call of the block kernel."""
    entry = bounds.THEOREMS[theorem]
    draws, eq_err = [], None
    if entry["multi"]:
        total = entry["total"](n, k)
        res = entry["func"](n, k, total)
        lo, hi = entry["window"](n)
        if res.feasible and res.equality_spec is not None and lo < total / k < hi:
            eq_err = abs(scalar_split_metric(entry, n, [total / k] * k, res.quantity) - res.value)
        for rng in streams(seed, trials):
            xs = optimize.random_split(total, k, rng)
            if not all(lo < x < hi for x in xs):
                draws.append(None)
                continue
            witness = {"split": list(xs), "polygons": [optimize._regular_polygon_json(entry["spec"](n, x)) for x in xs],
                       "bound": res.to_json_dict()}
            margin = scalar_margin(res, scalar_split_metric(entry, n, xs, res.quantity))
            draws.append((margin, res.value, witness, None))
    else:
        family = TangentialPolygon if entry["family"] == "tangential" else CyclicPolygon
        lo, hi = optimize._radius_window(family.kind, n, window)
        for rng in streams(seed, trials):
            poly = scalar_polygon(family, n, lo, hi, rng)
            if poly is None:
                draws.append(None)
                continue
            res = entry["func"](n, poly.radius)
            err = None if res.equality_spec is None else abs(bounds.equality_value(res) - res.value)
            witness = {"polygon": polygon.to_json_dict(poly), "bound": res.to_json_dict()}
            draws.append((scalar_margin(res, one_row(poly, res.quantity)), res.value, witness, err))
    return scalar_verdicts(draws, eq_err)


def tighten(monkeypatch, theorem):
    """Move bound theorem 3% into its polygons, in func and in rows."""
    entry = bounds.THEOREMS[theorem]
    func, rows = entry["func"], entry["rows"]
    probe = func(3, 2, entry["total"](3, 2)) if entry["multi"] else func(3, 0.5)
    factor = 1.03 if probe.kind == "lower" else 0.97
    monkeypatch.setitem(entry, "func", lambda *a: dataclasses.replace(func(*a), value=func(*a).value * factor))
    if rows is not None:
        monkeypatch.setitem(entry, "rows", lambda *a: dataclasses.replace(rows(*a), value=rows(*a).value * factor))


@pytest.mark.parametrize("tightened", [False, True])
@pytest.mark.parametrize("theorem", [f"1.{i}" for i in range(1, 11)])
def test_verify_theorem_matches_the_scalar_loop(monkeypatch, theorem, tightened):
    # n = 3, where partitions are redrawn and tangential draws skipped most;
    # the tightened bounds make violations and counterexamples to compare
    monkeypatch.setattr(optimize, "BLOCK_WORDS", SMALL_BLOCK)
    if tightened:
        tighten(monkeypatch, theorem)
    k = 2 if bounds.THEOREMS[theorem]["multi"] else 1
    violated = False
    for count in boundary_counts(k if k > 1 else verify_width(3)):
        rep = optimize.verify_theorem(theorem, n=3, k=2, trials=count, seed=DEFAULT_SEED)
        assert verdicts(rep) == scalar_verify(theorem, 3, k, count, DEFAULT_SEED)
        violated |= rep.violations > 0
    assert violated == tightened


def hexed(value):
    """value with every float written as float.hex, through dicts and lists."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: hexed(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [hexed(v) for v in value]
    return value


SPLIT_IDS = ("1.5", "1.6", "1.7", "1.8", "1.9", "1.10")


@pytest.mark.parametrize("tightened", [False, True])
@pytest.mark.parametrize("ids, n, window, total", [
    *[pytest.param(pair, n, window, None, id=f"{'+'.join(pair)}-n={n}-window={window[0]:g}:{window[1]:g}")
      for pair in (("1.1", "1.3"), ("1.2", "1.4")) for n in (3, 6, 12, 192) for window in WINDOWS],
    # at n = 12 the total 2.0 puts every split of 1.9 and 1.10 outside its
    # window, and 60.0 every split of 1.6-1.8 and some of 1.9 and 1.10
    *[pytest.param(SPLIT_IDS, 12, None, total, id=f"1.5-1.10-n=12-total={total}") for total in (None, 2.0, 60.0)],
])
def test_verify_bounds_matches_verify_theorem_cell_by_cell(monkeypatch, ids, n, window, total, tightened):
    # a group walks its draws once for all its cells; each cell's report is
    # the one its own verify_theorem call gives, bit for bit, violations and
    # counterexamples included.  The split cells at k = 2, 3 and 5 make
    # three groups of one call
    monkeypatch.setattr(optimize, "BLOCK_WORDS", SMALL_BLOCK)
    for theorem in ids if tightened else ():
        tighten(monkeypatch, theorem)
    ks = (2, 3, 5) if window is None else (1,)
    cells = [(theorem, k) for theorem in ids for k in ks]
    window = window or optimize.RADIUS_RANGE
    trials = 400
    reps = optimize.verify_bounds(cells, n, window, total, trials, DEFAULT_SEED)
    assert [(rep.theorem, rep.k) for rep in reps] == cells
    for (theorem, k), rep in zip(cells, reps):
        alone = optimize.verify_theorem(theorem, n, k, window, total, trials, DEFAULT_SEED)
        assert hexed(rep.to_json_dict()) == hexed(alone.to_json_dict())
    assert any(rep.asserted for rep in reps)
    assert {rep.violations > 0 for rep in reps if rep.asserted} == {tightened}


def test_verify_bounds_walks_each_group_once(monkeypatch):
    # all ten bounds at n = 6 and k = 2 make three groups: the tangential
    # polygons of 1.1 and 1.3, the cyclic ones of 1.2 and 1.4, and the
    # splits of 1.5-1.10.  The call reads what one cell of each group reads
    # alone, and a group reads each (stream, width) pair once
    reads = record_reads(monkeypatch)

    def read_pairs(cells):
        reads.clear()
        optimize.verify_bounds(cells, 6, trials=3000)
        return collections.Counter((i, width) for streams, width in reads for i in streams)

    alone = [read_pairs([(theorem, 2)]) for theorem in ("1.1", "1.2", "1.5")]
    assert all(set(pairs.values()) == {1} for pairs in alone)
    assert read_pairs([(f"1.{i}", 2) for i in range(1, 11)]) == sum(alone, collections.Counter())


def test_verify_bounds_sets_up_every_cell_before_the_first_draw(monkeypatch):
    # the first cell whose inputs fail raises, as it would in a loop of
    # verify_theorem calls, and no cell draws before that
    reads = record_reads(monkeypatch)
    for cells, total, message in (
        ([("1.1", 1), ("1.5", 1), ("1.6", 0)], None, "1.5 bounds a total over k >= 2 polygons, got k=1"),
        ([("1.2", 2), ("1.6", 2), ("1.1", 2)], -1.0, "radius must be positive, got -1.0"),
        ([("1.5", 2), ("2.1", 2), ("1.6", 1)], None, "unknown theorem id '2.1'"),
    ):
        with pytest.raises(Infeasible, match=re.escape(message)):
            optimize.verify_bounds(cells, 6, total=total)
    assert reads == []


def no_scalar_draws(monkeypatch):
    """Make every scalar draw raise, so that a block walk that reaches one fails."""
    def scalar(*args):
        raise AssertionError("a block walk called a scalar draw")

    for name in ("_draw_polygon", "random_partition", "random_cyclic_polygon", "random_tangential_polygon"):
        monkeypatch.setattr(optimize, name, scalar)


def record_reads(monkeypatch):
    """The (stream indices, width) of every read optimize._read makes, in order."""
    read = optimize._read
    reads = []

    def recorded(seed, indices, width):
        reads.append((np.asarray(indices).tolist(), width))
        return read(seed, indices, width)

    monkeypatch.setattr(optimize, "_read", recorded)
    return reads


def streams_per_width(reads):
    """How many streams the reads compute at each width."""
    work = collections.Counter()
    for streams, width in reads:
        work[width] += len(streams)
    return work


def rounds(used, width):
    """The re-read rounds a row needs whose scalar draw reads `used` words,
    when it is read first at width and each round at four times the last."""
    j = 0
    while used > width * 4**j:
        j += 1
    return j


def assert_full_blocks(reads, count, width):
    """The first reads of count streams at width hold at most
    max(BLOCK_WORDS, width) words each, and all but the last as many rows
    as fit in that budget; every other read is a re-read, at width times a
    power of four and within max(BLOCK_WORDS, its width)."""
    first = [len(streams) for streams, w in reads if w == width]
    size = max(1, optimize.BLOCK_WORDS // width)
    assert first == [size] * (count // size) + [count % size] * (count % size > 0)
    for streams, w in reads:
        assert len(streams) * w <= max(optimize.BLOCK_WORDS, w)
        assert w // width in (4**j for j in range(12)) and w % width == 0
    reads.clear()


@pytest.mark.parametrize("n", [3, 12, 192])
def test_draw_blocks_fill_the_word_budget(monkeypatch, n):
    # verify's polygons and splits, and the samplers' polygons, over two
    # block boundaries; at a budget below the width, a block is one stream
    reads = record_reads(monkeypatch)
    for theorem, entry in bounds.THEOREMS.items():
        if entry["objective"] is None:
            continue
        width = 2 if entry["multi"] else n + 1
        trials = 2 * max(1, optimize.BLOCK_WORDS // width) + 1
        optimize.verify_theorem(theorem, n=n, k=2, trials=trials)
        assert_full_blocks(reads, trials, width)
    for budget in (optimize.BLOCK_WORDS, 100):
        monkeypatch.setattr(optimize, "BLOCK_WORDS", budget)
        for family, regular in itertools.product(FAMILIES, (False, True)):
            width = 1 if regular else n + 1
            count = 2 * max(1, budget // width) + 1
            lo, hi = optimize._radius_window(family.kind, n, (0.1, 2.0))
            for _ in optimize.polygon_blocks(family.kind, n, lo, hi, DEFAULT_SEED, np.arange(count), regular):
                pass
            assert_full_blocks(reads, count, width)


def test_verify_rows_settle_round_by_round(monkeypatch):
    # n = 3 near the tangential limit, where random_partition rejects often
    # and most polygons have an ideal vertex.  A verify row is settled by
    # the read of one polygon attempt, n + 1 words, or by the j-th re-read
    # of its own stream, at 4**j (n + 1) words, by how many words its scalar
    # draw reads; a row with an ideal vertex is skipped at every round,
    # never redrawn
    n, count, window = 3, 2000, (0.4, 0.6)
    monkeypatch.setattr(optimize, "BLOCK_WORDS", SMALL_BLOCK)
    lo, hi = optimize._radius_window("tangential", n, window)
    want, need = [], []
    for rng in streams(DEFAULT_SEED, count):
        want.append(scalar_polygon(TangentialPolygon, n, lo, hi, rng))
        need.append(rounds(words_read(rng), n + 1))
    assert {(min(j, 2), p is None) for j, p in zip(need, want)} == set(itertools.product((0, 1, 2), (False, True)))
    cell = optimize._Bound.setup("1.3", n, 1, window, None)
    kept = []
    with monkeypatch.context() as m:
        no_scalar_draws(m)
        reads = record_reads(m)
        for _, margins, _, _, witness in cell_blocks(cell, DEFAULT_SEED, count):
            kept += [witness(i)["polygon"] for i in range(len(margins))]
    assert kept == [polygon.to_json_dict(p) for p in want if p is not None]
    assert streams_per_width(reads) == {(n + 1) * 4**j: sum(1 for r in need if r >= j) for j in range(max(need) + 1)}
    # the counterexample a tightened bound finds is the scalar loop's first
    tighten(monkeypatch, "1.3")
    rep = optimize.verify_theorem("1.3", n=n, radius_range=window, trials=count)
    assert rep.violations > 0
    assert verdicts(rep) == scalar_verify("1.3", n, 1, count, DEFAULT_SEED, window)


def test_verify_reads_one_polygon_attempt_per_stream(monkeypatch):
    # Philox blocks of four words: at n = 6 a verify row reads two, and the
    # few rows whose first partition is rejected are read again at 28 words
    no_scalar_draws(monkeypatch)
    reads = record_reads(monkeypatch)
    optimize.verify_theorem("1.2", n=6, trials=10_000)
    work = streams_per_width(reads)
    assert set(work) <= {7, 28}
    assert work[7] == 10_000 and work[28] <= 10
    assert sum(streams * -(-width // 4) for width, streams in work.items()) == 2 * 10_000 + 7 * work[28]
    # the verify benchmark's n = 3 cell reads under 1% of its rows a third
    # time, past four polygon attempts
    for window in WINDOWS:
        reads.clear()
        optimize.verify_theorem("1.3", n=3, radius_range=window, trials=2000)
        work = streams_per_width(reads)
        assert work[4] == 2000 and 0 < work[16] and sum(v for w, v in work.items() if w > 16) < 20


NAN = math.nan


@pytest.mark.parametrize("blocks", [
    [[(0.0, 1.0), (5.0, 1.0), (-0.0, 1.0)], [(-0.0, 1.0), (0.0, 1.0)]],  # the first of +0 and -0 stays
    [[(-0.0, 1.0)], [(0.0, 1.0), (-0.0, 1.0)]],
    [[(1.0, 1.0), (0.0, 1.0), (-0.0, 1.0)]],
    [[(NAN, 1.0), (-1.0, 1.0)], [(-2.0, 1.0)]],  # a NaN first stays worst
    [[(1.0, 1.0), (NAN, 1.0), (0.5, 1.0)], [(NAN, NAN), (0.25, 1.0)]],  # a later NaN never is
    [[], [(NAN, 1.0)], [(3.0, 1.0)]],
    # tied violations: the first is worst and the counterexample, with its own slack
    [[(2.0, 1.0), (-5e-12, 1.0)], [(-5e-12, 100.0), (-5e-12, 1e4)], [(-1e-12, 1.0)]],
    [[(-3.0, 7.0), (-3.0, 9.0)], [(-3.0, 11.0)]],
])
def test_block_reduction_keeps_the_scalar_loops_choices(monkeypatch, blocks):
    # synthetic margins and bounds, with equality errors of the same values
    draws = [(m, b, {"row": i}, abs(m)) for i, (m, b) in enumerate(itertools.chain(*blocks))]

    def synthetic(self, j, converted):
        start = sum(map(len, blocks[:j]))
        block = blocks[j]
        rows = np.arange(start, start + len(block))
        return (1, np.array([m for m, _ in block]), np.array([b for _, b in block]),
                np.abs(np.array([m for m, _ in block])), lambda i: {"row": int(rows[i])})

    # the walk hands the block index j to the synthetic verdicts
    monkeypatch.setattr(optimize, "_polygon_group", lambda group, n, seed, trials: iter(range(len(blocks))))
    monkeypatch.setattr(optimize._Bound, "verdicts", synthetic)
    rep = optimize.verify_theorem("1.2", trials=len(draws) + len(blocks))
    want = scalar_verdicts([None] * len(blocks) + draws)
    assert verdicts(rep) == want


@pytest.mark.parametrize("regular", [False, True])
@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("n", [3, 6, 12, 192])
@pytest.mark.parametrize("family", FAMILIES)
def test_polygon_blocks_match_the_sample_draws(monkeypatch, family, n, window, regular):
    # the redrawing samplers of `hypergon sample`, which redraw every
    # tangential draw with an ideal vertex on its own stream; a regular
    # draw reads one word, so its blocks are cut at 50 streams
    monkeypatch.setattr(optimize, "BLOCK_WORDS", 50 if regular else SMALL_BLOCK)
    lo, hi = optimize._radius_window(family.kind, n, window)
    sampler = optimize.random_tangential_polygon if family is TangentialPolygon else optimize.random_cyclic_polygon
    for seed in SEEDS:
        for count in boundary_counts(1 if regular else n + 1):
            blocks = list(optimize.polygon_blocks(family.kind, n, lo, hi, seed, np.arange(count), regular))
            radii = np.concatenate([r for r, _, _ in blocks])
            ts = np.concatenate([t for _, t, _ in blocks])
            assert not np.concatenate([ideal for _, _, ideal in blocks]).any()
            want = [family.regular(n, rng.uniform(lo, hi)) if regular else sampler(n, (lo, hi), rng)
                    for rng in streams(seed, count)]
            assert hexes(radii) == hexes(p.radius for p in want)
            assert [hexes(row) for row in ts] == [hexes(p.thetas) for p in want]


@pytest.mark.parametrize("mode", ["redraw", "no redraw", "regular"])
@pytest.mark.parametrize("family", FAMILIES)
def test_polygon_blocks_draw_any_streams(monkeypatch, family, mode):
    # a strided index, cut into blocks of 7 streams at n = 3 (4 words a
    # stream) and of 28 when regular: row j is the draw on stream index[j]
    # and on no other, through the block read and the re-reads
    n = 3
    lo, hi = optimize._radius_window(family.kind, n, (0.4, 0.6))
    monkeypatch.setattr(optimize, "BLOCK_WORDS", 28)
    index = np.arange(5, 5 + 7 * 300, 7)
    regular = mode == "regular"
    blocks = list(optimize.polygon_blocks(family.kind, n, lo, hi, DEFAULT_SEED, index, regular, mode == "redraw"))
    size = 28 if regular else 7
    assert [len(r) for r, _, _ in blocks] == [len(index[k:k + size]) for k in range(0, len(index), size)]
    radii, ts, ideal = (np.concatenate(arrays) for arrays in zip(*blocks))
    sampler = optimize.random_tangential_polygon if family is TangentialPolygon else optimize.random_cyclic_polygon
    for j, i in enumerate(index.tolist()):
        rng = optimize.trial_rng(DEFAULT_SEED, i)
        if regular:
            want = family.regular(n, rng.uniform(lo, hi))
        elif mode == "redraw":
            want = sampler(n, (lo, hi), rng)
        else:
            want = scalar_polygon(family, n, lo, hi, rng)
        assert ideal[j] == (want is None)
        if want is not None:
            assert radii[j].hex() == want.radius.hex()
            assert hexes(ts[j]) == hexes(want.thetas)
    assert ideal.any() == (family is TangentialPolygon and mode == "no redraw")


def words_read(rng):
    """How many words of its stream a generator has handed out."""
    state = rng.bit_generator.state
    return 4 * state["state"]["counter"][0] - 4 + state["buffer_pos"]


def crit1_cell(i):
    """The family and n of polygon i of the metric-equivalence battery."""
    return FAMILIES[i % 2], 3 + (i // 2) % 10


@pytest.mark.parametrize("seed", SEEDS)
def test_criterion_1_draws_each_cell_through_polygon_blocks(monkeypatch, seed):
    # polygon i is random_cyclic_polygon at even i and
    # random_tangential_polygon at odd i, with n = 3 + (i // 2) % 10, in the
    # window (0.05, 3.0), on stream i.  Two budgets: the real one, where
    # each cell's 35 streams are one block, and blocks of 140 words, where
    # a cell spans blocks; at both, a stream is read again, round by round
    # at four times the width, until its draw fits, and never by a scalar draw
    count = 700
    want, need = [], []
    attempts = collections.Counter()
    draw_polygon = optimize._draw_polygon

    def counted(family, n, lo, hi, rng):
        attempts[rng] += 1
        return draw_polygon(family, n, lo, hi, rng)

    with monkeypatch.context() as m:
        m.setattr(optimize, "_draw_polygon", counted)
        for i in range(count):
            rng = optimize.trial_rng(seed, i)
            family, n = crit1_cell(i)
            sampler = optimize.random_cyclic_polygon if family is CyclicPolygon else optimize.random_tangential_polygon
            want.append(sampler(n, (0.05, 3.0), rng))
            need.append(rounds(words_read(rng), n + 1))
    assert {min(a, 3) for a in attempts.values()} == {1, 2, 3}  # settled on polygon attempt 1, 2, 3 or later
    assert {min(j, 2) for j in need} == {0, 1, 2}  # by the first read, the first re-read or a later one
    no_scalar_draws(monkeypatch)
    reads = record_reads(monkeypatch)
    for block_words in (optimize.BLOCK_WORDS, 140):
        monkeypatch.setattr(optimize, "BLOCK_WORDS", block_words)
        reads.clear()
        cells = collections.defaultdict(list)
        for kind, radii, ts in cli._crit1_polygons(seed, count):
            cells[kind, ts.shape[1]].append((radii, ts))
        assert list(cells) == [(f.kind, n) for f, n in map(crit1_cell, range(20))]
        for j, ((kind, n), blocks) in enumerate(cells.items()):
            # cell j holds streams j, j + 20, ..., each once and in order
            streams = range(j, count, 20)
            radii, ts = np.concatenate([r for r, _ in blocks]), np.concatenate([t for _, t in blocks])
            assert hexes(radii) == hexes(want[i].radius for i in streams)
            assert [hexes(row) for row in ts] == [hexes(want[i].thetas) for i in streams]
            size = max(1, block_words // (n + 1))
            assert len(blocks) == -(-len(streams) // size)
        widths = collections.defaultdict(list)
        for streams, width in reads:
            for i in streams:
                widths[i].append(width)
        assert widths == {i: [(p.n + 1) * 4**r for r in range(j + 1)] for i, (p, j) in enumerate(zip(want, need))}
        if block_words != optimize.BLOCK_WORDS:
            assert max(len(blocks) for blocks in cells.values()) >= 2


def test_criterion_1_cells_fill_the_word_budget(monkeypatch):
    # each cell's first reads, at one polygon attempt per stream, fill the
    # word budget; at the default seed 278 reads of the 10^4 polygons go
    # past the first re-read (272 streams at a second round, 6 at a third),
    # and none reaches a scalar draw
    reads = record_reads(monkeypatch)
    no_scalar_draws(monkeypatch)
    polygon_blocks = optimize.polygon_blocks
    cells, late = [], []

    def cell(kind, n, lo, hi, seed, index, *args):
        yield from polygon_blocks(kind, n, lo, hi, seed, index, *args)
        late.extend(len(streams) for streams, width in reads if width > 4 * (n + 1))
        assert_full_blocks(reads, len(index), n + 1)
        cells.append((kind, n, index.tolist()))

    monkeypatch.setattr(optimize, "polygon_blocks", cell)
    assert sum(len(radii) for _, radii, _ in cli._crit1_polygons(DEFAULT_SEED, 10_000)) == 10_000
    assert cells == [(f.kind, n, list(range(j, 10_000, 20))) for j, (f, n) in enumerate(map(crit1_cell, range(20)))]
    assert 0 < sum(late) <= 300


def jumped_rng(seed, index):
    return np.random.Generator(np.random.Philox(key=seed).jumped(index))


def draws(rng):
    # doubles, bounded integers and normals read the stream in different ways
    return (list(rng.uniform(0.1, 1.0, 5)), list(rng.integers(3, 13, 4)), list(rng.standard_normal(3)))


@pytest.mark.parametrize("seed", [0, DEFAULT_SEED, 2**70 + 3, 2**128 - 1])
def test_streams_match_jumped_streams(seed):
    stream = stream_pointer(seed)
    got = [draws(stream(i)) for i in range(6)]
    assert got == [draws(jumped_rng(seed, i)) for i in range(6)]


def test_streams_reset_the_output_buffer():
    stream = stream_pointer(5)
    rng = stream(0)
    rng.random()
    rng.integers(0, 2**32, dtype=np.uint32)  # leaves half a 64-bit word buffered
    assert rng.bit_generator.state["has_uint32"] == 1
    rng, fresh = stream(1), jumped_rng(5, 1)
    assert list(rng.integers(0, 2**32, 3, dtype=np.uint32)) == list(fresh.integers(0, 2**32, 3, dtype=np.uint32))
    assert draws(rng) == draws(fresh)


def test_block_uniform_matches_the_generator():
    words = next(optimize._word_blocks(DEFAULT_SEED, np.arange(500), 3))[1]
    for i, rng in enumerate(streams(DEFAULT_SEED, 500)):
        assert [rng.uniform(0.05, 3.0) for _ in range(3)] == optimize._uniform(words[i], 0.05, 3.0).tolist()


# ---------------------------------------------------------------------------
# math


def random_polygons(family, n, window, count, seed=0x81):
    lo, hi = optimize._radius_window(family.kind, n, window)
    polys = [scalar_polygon(family, n, lo, hi, rng) for rng in streams(seed, count)]
    return [p for p in polys if p is not None]


# far-out cyclic windows reach the large-argument branches of the kernels
MATH_CASES = ([(family, w) for family in FAMILIES for w in ((0.1, 2.0), (1e-3, 1e-2), (1e-3, 15.0))]
              + [(CyclicPolygon, (8.0, 15.0)), (CyclicPolygon, (300.0, 350.0))])


def measured(which):
    """A measured route of (kind, radii, ts), or one coordinate of the embedding."""
    if isinstance(which, int):
        return lambda kind, radii, ts: hmodel.embed_rows(kind, radii, ts)[which]
    f = hmodel.measured_perimeter_rows if which == "perimeter" else hmodel.measured_area_rows
    return lambda kind, radii, ts: f(*hmodel.embed_rows(kind, radii, ts))


# The block routes of (kind, radii, ts) that a block value must equal the
# one-row value of.  Their values are checked against 40-digit mpmath in
# test_closed_forms_against_mpmath and test_measured_routes_against_mpmath.
BLOCK_ROUTES = (polygon.perimeter_rows, polygon.area_rows, measured(0), measured(1), measured(2),
                measured("perimeter"), measured("area"))


@pytest.mark.parametrize("n", [3, 4, 6, 12, 50, 192])
@pytest.mark.parametrize("family, window", MATH_CASES)
def test_block_closed_forms_and_measured_routes_match_per_polygon(family, window, n):
    # a value does not depend on the rest of its block
    polys = random_polygons(family, n, window, 60)
    radii = np.array([p.radius for p in polys])
    ts = np.array([p.thetas for p in polys])
    for block in BLOCK_ROUTES:
        got = block(family.kind, radii, ts)
        rows = np.concatenate([block(family.kind, radii[i:i + 1], ts[i:i + 1]) for i in range(len(polys))])
        assert hexes(rows.ravel()) == hexes(got.ravel()), block


def test_block_kernels_match_the_scalar_kernels_on_every_branch():
    rng = np.random.default_rng(5)
    wide = np.concatenate([np.geomspace(1e-300, 1e300, 400), rng.uniform(0, 3, 200), [0.0, 1e150, 2e150]])
    signed = np.concatenate([wide, -wide])
    unit = np.concatenate([rng.uniform(-1, 1, 300), 1 - np.geomspace(1e-16, 1e-1, 50), [0.0, -0.0]])
    unit = np.concatenate([unit, -unit])
    t = np.concatenate([np.geomspace(1e-300, 1e200, 400), [-1e-10, -0.0, 0.0, 1e8, 1.0000001e8]])
    cases = [
        (hypmath.stable_asinh_rows, hypmath.stable_asinh, signed),
        (hypmath.stable_atanh_rows, hypmath.stable_atanh, unit[np.abs(unit) < 1.0]),
        (hypmath.acosh1p_rows, hypmath.acosh1p, t),
    ]
    for rows, scalar, args in cases:
        got = rows(args)
        want = np.array([scalar(a) for a in args.tolist()])
        assert hexes(np.sign(got)) == hexes(np.sign(want)), scalar.__name__  # signed zeros included
        assert_ulps(got, want), scalar.__name__


def test_block_kernels_raise_where_the_scalar_kernels_raise():
    for rows, scalar, arg in ((hypmath.stable_atanh_rows, hypmath.stable_atanh, 1.0),
                              (hypmath.acosh1p_rows, hypmath.acosh1p, -1e-8),
                              (hypmath.acos_snapped_rows, hypmath.acos_snapped, 1.0 + 1e-11),
                              (hypmath.acos_snapped_rows, hypmath.acos_snapped, -1.0 - 1e-11)):
        with pytest.raises(Exception) as want:
            scalar(arg)
        with pytest.raises(want.type, match=re.escape(str(want.value))):
            rows(np.array([0.5, arg]))


# ---------------------------------------------------------------------------
# regular polygons

METRIC_FIELDS = ("R", "r", "theta", "side", "perimeter", "area")


def regular_domain(n, name):
    """Values across the whole domain of the defining quantity `name`."""
    rng = np.random.default_rng(n)
    if name in ("R", "side"):
        top = hypmath.LEG_MAX
        return np.concatenate([np.geomspace(1e-300, top, 200), rng.uniform(0, top, 100), [5e-324, top]])
    if name == "r":
        top = hypmath.tangential_radius_limit(n)
        near = top * (1.0 - np.geomspace(1e-8, 1e-1, 40))
        return np.concatenate([np.geomspace(1e-300, top, 200)[:-1], rng.uniform(0, top, 100), near])
    top = (n - 2) * math.pi / n
    # below about 1e-8 acosh1p takes its t > 1e8 branch
    return np.concatenate([np.geomspace(1e-300, top, 200)[:-1], rng.uniform(0, top, 100),
                           [1e-9, 1e-8, 1e-7, np.nextafter(top, 0.0)]])


@pytest.mark.parametrize("name", ["R", "r", "theta", "side"])
@pytest.mark.parametrize("n", [3, 4, 6, 12, 50, 192])
def test_regular_convert_rows_matches_regular_convert(n, name):
    # regular_convert is the one-row call: every value matches bit for bit
    values = regular_domain(n, name)
    got = hypmath.regular_convert_rows(n, name, values.reshape(-1, 1))
    want = [hypmath.regular_convert(hypmath.RegularNGonSpec(n=n, **{name: v})) for v in values.tolist()]
    for field in METRIC_FIELDS:
        column = getattr(got, field)
        assert column.shape == (len(values), 1)
        assert hexes(column.ravel()) == hexes(getattr(m, field) for m in want), field


@pytest.mark.parametrize("n, name, bad", [
    (6, "R", 0.0), (6, "R", -1.0), (6, "R", 700.0000000001), (6, "R", math.nan),
    (6, "side", 0.0), (6, "side", 701.0), (3, "side", math.inf),
    (6, "r", 0.0), (6, "r", hypmath.tangential_radius_limit(6)), (12, "r", 701.0),
    # tanh r / cos(pi/n) rounds to 1 one ulp below the limit, with math.tanh and with np.tanh
    (8, "r", float(np.nextafter(hypmath.tangential_radius_limit(8), 0.0))),
    (6, "theta", 0.0), (6, "theta", 4 * math.pi / 6), (6, "theta", -1.0),
    (6, "theta", 5e-324), (6, "theta", 1e-320), (6, "theta", 1e-309),  # the circumradius would pass LEG_MAX
    (2, "R", 1.0), (6.0, "R", 1.0),
])
def test_regular_convert_rows_raise_where_regular_convert_raises(n, name, bad):
    with pytest.raises(Exception) as want:
        hypmath.regular_convert(hypmath.RegularNGonSpec(n=n, **{name: bad}))
    with pytest.raises(want.type, match=re.escape(str(want.value))):
        hypmath.regular_convert_rows(n, name, np.array([0.5, bad]))


# ---------------------------------------------------------------------------
# against 40-digit mpmath

MP_RADII = np.concatenate([np.geomspace(1e-3, 15.0, 25), [hypmath.LEG_MAX]])
MP_NS = (3, 12, 200)
MP_STEP = mpmath.mpf(10) ** -20


def mp_value(f, args):
    """f at the args, exactly to 40 digits, and its condition sum_j |x_j
    df/dx_j| by finite differences (each input shrinks).  A float arg is
    taken as the binary64 number it is; an mpf arg is an exact constant
    that the kernel rounds, such as cos(pi/n), and counts in the condition."""
    with mpmath.workdps(40):
        xs = [a if isinstance(a, mpmath.mpf) else mpmath.mpf(float(a)) for a in args]
        value = f(*xs)
        cond = sum(abs(f(*xs[:j], x * (1 - MP_STEP), *xs[j + 1:]) - value) for j, x in enumerate(xs)) / MP_STEP
        return value, cond


def assert_mp(got, f, args, ulps=MP_ULPS, own=None):
    """Each got within ulps * EPS of f's exact value at its args, counted in
    the value's own size (or own) plus its condition."""
    for g, a in zip(np.ravel(got).tolist(), args):
        value, cond = mp_value(f, a)
        scale = (abs(value) if own is None else own) + cond
        assert abs(mpmath.mpf(g) - value) <= ulps * EPS * scale, (f, a, g, value)


def kernel_arguments():
    """Each elementwise kernel's arguments at the radii and n the package
    draws: the sector and conversion arguments of MP_RADII at MP_NS."""
    R = MP_RADII
    sn, tn, cn = (np.array([f(math.pi / n) for n in MP_NS])[:, None] for f in (math.sin, math.tan, math.cos))
    below_ideal = tn * np.sinh(R)
    cosines = sn * np.cosh(R)
    unit = np.concatenate([(cn * np.tanh(R)).ravel(), below_ideal[below_ideal < 1.0]])
    cosines = cosines[cosines < 1.0 - 1e-14]  # above that, acos_snapped snaps to 0
    return [
        (hypmath.stable_asinh_rows, mpmath.asinh, np.concatenate([(sn * np.sinh(R)).ravel(), -R])),
        (hypmath.stable_atanh_rows, mpmath.atanh, np.concatenate([unit, -unit])),
        (hypmath.acosh1p_rows, lambda t: mpmath.acosh(1 + t), np.cosh(R) - 1.0),
        (hypmath.coshm1_rows, lambda x: mpmath.cosh(x) - 1, R),
        (hypmath.acos_snapped_rows, mpmath.acos, np.concatenate([cosines, -cosines])),
    ]


@pytest.mark.parametrize("case", range(5), ids=["asinh", "atanh", "acosh1p", "coshm1", "acos_snapped"])
def test_elementwise_kernels_against_mpmath(case):
    rows, exact, args = kernel_arguments()[case]
    assert_mp(rows(args), exact, [(a,) for a in args.tolist()])


def test_hyp_hypotenuse_rows_against_mpmath():
    b, c = (a.ravel() for a in np.meshgrid(MP_RADII, MP_RADII[::3]))
    assert_mp(hypmath.hyp_hypotenuse_rows(b, c), lambda b, c: mpmath.acosh(mpmath.cosh(b) * mpmath.cosh(c)),
              list(zip(b.tolist(), c.tolist())))


def mp_regular(n, name, field):
    """The exact `field` of the regular n-gon that the quantity `name`
    defines, as f(value, cos(pi/n), sin(pi/n))."""
    def f(v, c, s):
        R = {"R": lambda: v, "r": lambda: mpmath.atanh(mpmath.tanh(v) / c),
             "theta": lambda: mpmath.acosh(c / s * mpmath.cot(v / 2)),
             "side": lambda: mpmath.asinh(mpmath.sinh(v / 2) / s)}[name]()
        theta = 2 * mpmath.atan(c / s / mpmath.cosh(R))
        side = 2 * mpmath.asinh(s * mpmath.sinh(R))
        return {"R": R, "r": mpmath.atanh(c * mpmath.tanh(R)), "theta": theta, "side": side,
                "perimeter": n * side, "area": (n - 2) * mpmath.pi - n * theta}[field]
    return f


@pytest.mark.parametrize("name", ["R", "r", "theta", "side"])
@pytest.mark.parametrize("n", MP_NS)
def test_regular_convert_rows_against_mpmath(n, name):
    # every defining quantity at the polygons of the circumradii MP_RADII;
    # the inradius and angle of R = LEG_MAX round onto their domain's end,
    # and the side there is past LEG_MAX, so the side's own end stands in
    of_R = hypmath.regular_convert_rows(n, "R", MP_RADII[:-1])
    if name == "R":
        values = MP_RADII
    elif name == "side":
        values = np.append(of_R.side, hypmath.LEG_MAX)
    else:
        values = getattr(of_R, name)
    got = hypmath.regular_convert_rows(n, name, values)
    with mpmath.workdps(40):
        constants = (mpmath.cos(mpmath.pi / n), mpmath.sin(mpmath.pi / n))
    for field in METRIC_FIELDS:
        assert_mp(getattr(got, field), mp_regular(n, name, field), [(v, *constants) for v in values.tolist()],
                  own=n * math.pi if field == "area" else None)


def mp_sector(kind, quantity):
    """The closed form's term of one sector, g(theta, radius), and c: the
    closed form is (n - 2) * c + sum g over the sectors."""
    if quantity == "perimeter":
        if kind == "cyclic":
            return lambda t, R: 2 * mpmath.asinh(mpmath.sin(t / 2) * mpmath.sinh(R)), 0
        return lambda t, r: 2 * mpmath.atanh(mpmath.tan(t / 2) * mpmath.sinh(r)), 0
    if kind == "cyclic":  # each half-angle enters two vertex angles
        return lambda t, R: -2 * mpmath.atan(1 / (mpmath.cosh(R) * mpmath.tan(t / 2))), mpmath.pi
    return lambda t, r: -2 * mpmath.acos(mpmath.sin(t / 2) * mpmath.cosh(r)), mpmath.pi


@pytest.mark.parametrize("quantity", ["perimeter", "area"])
@pytest.mark.parametrize("n", MP_NS)
@pytest.mark.parametrize("family", FAMILIES)
def test_closed_forms_against_mpmath(family, n, quantity):
    polys = random_polygons(family, n, (1e-3, 15.0), 8)
    if family is CyclicPolygon and n > 3:  # the overflow guard's edge
        polys += random_polygons(family, n, (hypmath.LEG_MAX - 1.0, hypmath.LEG_MAX), 2)
    radii = np.array([p.radius for p in polys])
    ts = np.array([p.thetas for p in polys])
    got = closed_form(family.kind, quantity)(radii, ts)
    term, per_side = mp_sector(family.kind, quantity)
    for g, p in zip(got.tolist(), polys):
        value, cond = (n - 2) * per_side, 0
        for t in p.thetas:
            v, c = mp_value(term, (t, p.radius))
            value, cond = value + v, cond + c
        scale = (abs(value) if quantity == "perimeter" else n * math.pi) + cond
        assert abs(mpmath.mpf(g) - value) <= MP_ULPS * EPS * scale, (p, g, value)


def mp_embedding(kind, radius, thetas):
    """The vertex coordinates embed_rows gives a polygon, at 40 digits from
    its float data: the bearings are exact sums of its apex angles."""
    with mpmath.workdps(40):
        radius, vertices, bearing = mpmath.mpf(radius), [], mpmath.mpf(0)
        for t in map(mpmath.mpf, thetas):
            if kind == "cyclic":
                d, a = radius, bearing
            else:
                b = mpmath.atanh(mpmath.tan(t / 2) * mpmath.sinh(radius))
                d, a = mpmath.acosh(mpmath.cosh(radius) * mpmath.cosh(b)), bearing + t / 2
            vertices.append((mpmath.cosh(d), mpmath.sinh(d) * mpmath.cos(a), mpmath.sinh(d) * mpmath.sin(a)))
            bearing += t
        return vertices


def mp_measurement(vertices):
    """The perimeter, acosh(<p, q>) summed over the sides, and the area, the
    sector triangles about the origin, of a vertex ring at 40 digits."""
    with mpmath.workdps(40):
        def mink(p, q):
            return p[0] * q[0] - p[1] * q[1] - p[2] * q[2]

        c = (mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0))
        perimeter = area = mpmath.mpf(0)
        for p, q in zip(vertices, vertices[1:] + vertices[:1]):
            perimeter += mpmath.acosh(mink(p, q))
            area += 2 * mpmath.atan2(abs(p[1] * q[2] - p[2] * q[1]), 1 + mink(c, p) + mink(p, q) + mink(q, c))
        return perimeter, area


@pytest.mark.parametrize("n", MP_NS)
@pytest.mark.parametrize("family", FAMILIES)
def test_measured_routes_against_mpmath(family, n):
    # embed_rows within ULPS and the measured routes within MEASURED_ULPS
    # rounding errors of a 40-digit embedding measured at 40 digits; the
    # worst seen are about 3 and 45 (n = 200 at circumradius 15)
    polys = [p for window in ((1e-3, 1e-2), (1e-3, 15.0)) for p in random_polygons(family, n, window, 6)]
    radii = np.array([p.radius for p in polys])
    ts = np.array([p.thetas for p in polys])
    exact = [mp_embedding(family.kind, p.radius, p.thetas) for p in polys]
    for i, coord in enumerate(("x0", "x1", "x2")):
        f = lambda r, t: measured(i)(family.kind, r, t)  # noqa: E731
        want = np.array([[float(v[i]) for v in vertices] for vertices in exact])
        assert_within(f(radii, ts), want, np.abs(want) + condition(f, radii, ts)), coord
    for j, quantity in enumerate(("perimeter", "area")):
        f = lambda r, t: measured(quantity)(family.kind, r, t)  # noqa: E731
        want = np.array([float(mp_measurement(vertices)[j]) for vertices in exact])
        assert_within(f(radii, ts), want, np.abs(want) + condition(f, radii, ts), MEASURED_ULPS), quantity


@pytest.mark.parametrize("theorem", ["1.1", "1.2", "1.3", "1.4"])
@pytest.mark.parametrize("n", MP_NS)
def test_single_polygon_bound_rows_against_mpmath(theorem, n):
    entry = bounds.THEOREMS[theorem]
    x = MP_RADII
    if entry["family"] == "tangential":
        x = x[x < hypmath.tangential_radius_limit(n)]
    b = entry["rows"](n, x)
    a, k = mpmath.pi / n, 2 * n
    exact = {
        "1.1": lambda r: k * mpmath.atanh(mpmath.tan(a) * mpmath.sinh(r)),
        "1.2": lambda R: k * mpmath.asinh(mpmath.sin(a) * mpmath.sinh(R)),
        "1.3": lambda r: (n - 2) * mpmath.pi - k * mpmath.acos(mpmath.sin(a) * mpmath.cosh(r)),
        "1.4": lambda R: (n - 2) * mpmath.pi - k * mpmath.atan(1 / (mpmath.tan(a) * mpmath.cosh(R))),
    }[theorem]
    keep = b.feasible & np.isfinite(b.value)
    assert keep.any()
    assert_mp(b.value[keep], exact, [(v,) for v in x[keep].tolist()],
              own=n * math.pi if b.quantity == "area" else None)



def mp_objective(name, n):
    """The registered objective `name` exactly, as g(x, a), and the a it is
    evaluated with: the radius of a sector objective, or else the constant
    of pi/n that the objective rounds, exact."""
    with mpmath.workdps(40):
        s, c, tn = mpmath.sin(mpmath.pi / n), mpmath.cos(mpmath.pi / n), mpmath.tan(mpmath.pi / n)
    radius = optimize._OBJECTIVE_SPECS[name]["radius_default"]
    return {
        "cyclic_half_side": (lambda t, R: mpmath.asinh(mpmath.sin(t / 2) * mpmath.sinh(R)), radius),
        "cyclic_half_angle": (lambda t, R: mpmath.atan(1 / (mpmath.cosh(R) * mpmath.tan(t / 2))), radius),
        "tangential_tangent_length": (lambda t, r: mpmath.atanh(mpmath.tan(t / 2) * mpmath.sinh(r)), radius),
        "tangential_interior_angle": (lambda t, r: 2 * mpmath.acos(mpmath.sin(t / 2) * mpmath.cosh(r)), radius),
        "thm5_radius": (lambda x, s: mpmath.asinh(s * mpmath.sinh(x)), s),
        "thm6_radius": (lambda x, tn: mpmath.atanh(tn * mpmath.sinh(x)), tn),
        "thm7_radius": (lambda x, tn: mpmath.atan(1 / (tn * mpmath.cosh(x))), tn),
        "thm8_radius": (lambda x, s: mpmath.acos(s * mpmath.cosh(x)), s),
        "thm9_theta": (lambda t, c: mpmath.acosh(c / mpmath.sin(t / 2)), c),
        "thm10_perimeter": (lambda x, c: mpmath.asin(c / mpmath.cosh(x / (2 * n))), c),
    }[name]


# a sector objective, which has a radius, does not depend on n
OBJECTIVE_CASES = [(name, n) for name in optimize.OBJECTIVES
                   for n in ((6,) if optimize._OBJECTIVE_SPECS[name]["radius_default"] else (3, 6, 12))]


@pytest.mark.parametrize("name, n", OBJECTIVE_CASES)
def test_objectives_against_mpmath(name, n):
    # every registered objective at its 64 certificate points; a one-point
    # call, as an array or a float, equals the block's element bit for bit
    problem = optimize.make_problem(name, n=n)
    xs = np.array(optimize.certify_convexity(problem.f, problem.interval).grid)
    got = problem.f(xs)
    exact, a = mp_objective(name, n)
    assert_mp(got, exact, [(x, a) for x in xs.tolist()])
    assert hexes(got) == hexes(problem.f(xs[i:i + 1])[0] for i in range(len(xs)))
    assert hexes(got) == hexes(problem.f(x) for x in xs.tolist())
