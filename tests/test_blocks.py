"""Block evaluation against the per-draw and per-polygon code it replaces.

Two contracts, tested separately:

- Draws are exact.  Radii, apex angles, settled rows, ideal-vertex
  decisions, replays, counts and counterexample indices equal the scalar
  draws' (trial_rngs with _draw_polygon, random_*_polygon or random_split),
  compared with float.hex or exact equality of whole structures.
- Values are accurate, not bit-identical.  The block kernels evaluate
  transcendentals with numpy's ufuncs and the scalar kernels with the math
  module, so the two may differ in the last bits.  Each value is checked
  against a 40-digit mpmath evaluation at the same float inputs, and
  against the scalar route (polygon.perimeter/area, hmodel.measured_*(embed)),
  within a stated number of rounding errors (MP_ULPS, ULPS, MEASURED_ULPS)
  of the value's scale: the value itself for lengths and perimeters, n*pi
  for deficit areas, plus its condition, how far the exact value moves when
  every input moves by one part in 2**52.  A block value equals the one-row
  call that recomputes it exactly, so a reported counterexample reproduces
  bit for bit, and the scalar regular_convert and bounds, being one-row
  calls, match the blocks exactly.
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
from hypergon.errors import IdealVertex
from hypergon.optimize import DEFAULT_SEED, trial_rngs
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
# composite value adds up its kernels' errors, so block and scalar route
# agree to ULPS, and a measured route, whose bilinear forms amplify its
# coordinates' rounding far out (about 110 at radius 15), to MEASURED_ULPS.
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


def scalar_polygon(family, n, lo, hi, rng):
    try:
        return optimize._draw_polygon(family, n, lo, hi, rng)
    except IdealVertex:
        return None


# ---------------------------------------------------------------------------
# draws


def verify_width(n):
    """Words per stream of a verify polygon block: three partition attempts below n = 12."""
    return 1 + (3 if n < 12 else 1) * n


def scalar_margin(res, actual):
    return actual - res.value if res.kind == "lower" else res.value - actual


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("n", [3, 6, 12, 192])
@pytest.mark.parametrize("theorem", ["1.1", "1.2", "1.3", "1.4"])
def test_verify_polygon_draws_match_scalar_draws(monkeypatch, theorem, n, window, seed):
    monkeypatch.setattr(optimize, "BLOCK_WORDS", SMALL_BLOCK)
    entry = bounds.THEOREMS[theorem]
    family = TangentialPolygon if entry["family"] == "tangential" else CyclicPolygon
    lo, hi = optimize._radius_window(family, n, window)
    blocks, _, _ = optimize._polygon_draws(entry, n, window)
    for count in boundary_counts(verify_width(n)):
        scalar = [scalar_polygon(family, n, lo, hi, rng) for rng in trial_rngs(seed, count)]
        errors = []
        kept = []
        rest = iter(scalar)
        for skips, margins, bound, errs, witness in blocks(seed, count):
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
    blocks, eq_err, _ = optimize._split_draws(entry, 12, k, total)
    lo, hi = entry["window"](12)
    res = entry["func"](12, k, total)
    assert eq_err == abs(scalar_split_metric(entry, 12, [total / k] * k, res.quantity) - res.value)
    for count in boundary_counts(k):
        splits = [optimize.random_split(total, k, rng) for rng in trial_rngs(seed, count)]
        rest = iter(xs if all(lo < x < hi for x in xs) else None for xs in splits)
        asserted = 0
        for skips, margins, bound, errors, witness in blocks(seed, count):
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
    # below n = 12 a verify block reads three random_partition attempts per
    # stream; blocks of 37 rows cut the run mid-way.  Rows that need a fourth
    # attempt are not plain: verify replays them, which the draw test above
    # compares at n = 3.
    width = 1 + 3 * n
    monkeypatch.setattr(optimize, "BLOCK_WORDS", 37 * width + 5)
    attempts = collections.Counter()
    for family in FAMILIES:
        lo, hi = optimize._radius_window(family, n, (0.1, 2.0))
        rows = [row for _, words in optimize._word_blocks(optimize._streams(seed), 300, width)
                for row in zip(*optimize._polygon_rows(family, n, lo, hi, words, redraw=False))]
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


def scalar_verify(theorem, n, k, trials, seed):
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
        for rng in trial_rngs(seed, trials):
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
        lo, hi = optimize._radius_window(family, n, (0.1, 2.0))
        for rng in trial_rngs(seed, trials):
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

    def synthetic(entry, n, radius_range):
        def gen(seed, trials):
            start = 0
            for block in blocks:
                rows = np.arange(start, start + len(block))
                yield (1, np.array([m for m, _ in block]), np.array([b for _, b in block]),
                       np.abs(np.array([m for m, _ in block])), lambda i, rows=rows: {"row": int(rows[i])})
                start += len(block)
        return gen, None, {}

    monkeypatch.setattr(optimize, "_polygon_draws", synthetic)
    rep = optimize.verify_theorem("1.2", trials=len(draws) + len(blocks))
    want = scalar_verdicts([None] * len(blocks) + draws)
    assert verdicts(rep) == want


@pytest.mark.parametrize("regular", [False, True])
@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("n", [3, 6, 12, 192])
@pytest.mark.parametrize("family", FAMILIES)
def test_polygon_blocks_match_the_sample_draws(monkeypatch, family, n, window, regular):
    # the redrawing samplers of `hypergon sample`, which replay every
    # tangential draw with an ideal vertex on its own stream; a regular
    # draw reads one word, so its blocks are cut at 50 streams
    monkeypatch.setattr(optimize, "BLOCK_WORDS", 50 if regular else SMALL_BLOCK)
    lo, hi = optimize._radius_window(family, n, window)
    sampler = optimize.random_tangential_polygon if family is TangentialPolygon else optimize.random_cyclic_polygon
    for seed in SEEDS:
        for count in boundary_counts(1 if regular else n + 1):
            blocks = list(optimize.polygon_blocks(family, n, lo, hi, seed, count, regular))
            radii = np.concatenate([r for r, _ in blocks])
            ts = np.concatenate([t for _, t in blocks])
            want = [family.regular(n, rng.uniform(lo, hi)) if regular else sampler(n, (lo, hi), rng)
                    for rng in trial_rngs(seed, count)]
            assert hexes(radii) == hexes(p.radius for p in want)
            assert [hexes(row) for row in ts] == [hexes(p.thetas) for p in want]


def words_read(rng):
    """How many words of its stream a generator has handed out."""
    state = rng.bit_generator.state
    return 4 * state["state"]["counter"][0] - 4 + state["buffer_pos"]


def crit1_battery(monkeypatch, seed, count):
    """_crit1_draw on each stream, as (polygon, polygon attempts, words read)."""
    draw_polygon = optimize._draw_polygon
    attempts = []

    def counted(*args):
        attempts[-1] += 1
        return draw_polygon(*args)

    battery = []
    with monkeypatch.context() as m:
        m.setattr(optimize, "_draw_polygon", counted)
        for i, rng in enumerate(trial_rngs(seed, count)):
            attempts.append(0)
            battery.append((cli._crit1_draw(i, rng), attempts[-1], words_read(rng)))
    return battery


def crit1_replays(monkeypatch):
    """The streams criterion 1 hands to the scalar _crit1_draw from now on."""
    crit1_draw = cli._crit1_draw
    replays = []

    def counted(i, rng):
        replays.append(i)
        return crit1_draw(i, rng)

    monkeypatch.setattr(cli, "_crit1_draw", counted)
    return replays


@pytest.mark.parametrize("seed", SEEDS)
def test_criterion_1_draws_match_the_scalar_battery(monkeypatch, seed):
    # the blocks group the polygons by family and n, so compare them as
    # sorted lists; three sizes: one block and a bit at the real sizes,
    # blocks of 10 streams whose groups are settled every 140 apex angles,
    # and that with a re-read of four polygon attempts, where many rows
    # fall through to the scalar replay
    count = 700
    battery = crit1_battery(monkeypatch, seed, count)
    want = sorted((p.kind, p.radius.hex(), tuple(hexes(p.thetas))) for p, _, _ in battery)
    assert {min(a, 3) for _, a, _ in battery} == {1, 2, 3}  # settled on polygon attempt 1, 2, 3 or later
    replays = crit1_replays(monkeypatch)
    real = optimize.BLOCK_WORDS
    for block_words, reread_words in ((real, optimize.REREAD_WORDS), (140, optimize.REREAD_WORDS), (140, 0)):
        monkeypatch.setattr(optimize, "BLOCK_WORDS", block_words)
        monkeypatch.setattr(optimize, "REREAD_WORDS", reread_words)
        replays.clear()
        groups = collections.Counter()
        got = []
        for kind, radii, ts in cli._crit1_polygons(seed, count):
            groups[kind, ts.shape[1]] += 1
            got += [(kind, r.hex(), tuple(hexes(t))) for r, t in zip(radii.tolist(), ts)]
        assert sorted(got) == want
        # a row is settled by the 14-word read, by the re-read of 1 + wide
        # words, or by the scalar replay, by how many words it draws
        wide = [1 + max(reread_words, 4 * (p.n + 1)) for p, _, _ in battery]
        stage = [0 if used <= 14 else 1 if used <= w else 2 for (_, _, used), w in zip(battery, wide)]
        assert sorted(replays) == [i for i, s in enumerate(stage) if s == 2]
        assert {0, 1} <= set(stage) and (2 in stage or reread_words > 0)
        assert len(groups) == 20
        if block_words == real:
            assert set(groups.values()) == {1}  # every group is settled once, at the end
        else:
            assert max(groups.values()) >= 3


def test_criterion_1_replays_few_polygons(monkeypatch):
    # at the default seed, 2,295 of the 10^4 polygons need a second polygon
    # attempt or a second partition the 14-word read holds no words for
    replays = crit1_replays(monkeypatch)
    assert sum(len(radii) for _, radii, _ in cli._crit1_polygons(DEFAULT_SEED, 10_000)) == 10_000
    assert 0 < len(replays) <= 30


def test_block_uniform_and_integers_match_the_generator():
    stream = optimize._streams(DEFAULT_SEED)
    words = next(optimize._word_blocks(stream, 500, 3))[1]
    ints, exact = optimize._integers(words[:, 0], 3, 13)
    for i, rng in enumerate(trial_rngs(DEFAULT_SEED, 500)):
        assert exact[i]
        assert int(rng.integers(3, 13)) == ints[i]
        assert [rng.uniform(0.05, 3.0), rng.uniform(0.05, 3.0)] == optimize._uniform(words[i, 1:], 0.05, 3.0).tolist()


def test_block_integers_flag_every_rejection():
    # a low half of 0 leaves a remainder of 0 < 10, where Lemire's method
    # may draw again; the block never guesses there
    ints, exact = optimize._integers(np.array([0, 2**32 - 1, 2**32], dtype=np.uint64), 3, 13)
    assert exact.tolist() == [False, True, False]


# ---------------------------------------------------------------------------
# math


def random_polygons(family, n, window, count, seed=0x81):
    lo, hi = optimize._radius_window(family, n, window)
    polys = [scalar_polygon(family, n, lo, hi, rng) for rng in trial_rngs(seed, count)]
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


# name: (block route of (kind, radii, ts), scalar route of a polygon, ulps,
# whether an area by angle deficit)
ROUTES = {
    "perimeter": (polygon.perimeter_rows, polygon.perimeter, ULPS, False),
    "area": (polygon.area_rows, polygon.area, ULPS, True),
    **{coord: (measured(i), lambda p, coord=coord: [getattr(v, coord) for v in hmodel.embed(p).vertices], ULPS, False)
       for i, coord in enumerate(("x0", "x1", "x2"))},
    "measured_perimeter": (measured("perimeter"), lambda p: hmodel.measured_perimeter(hmodel.embed(p)),
                           MEASURED_ULPS, False),
    "measured_area": (measured("area"), lambda p: hmodel.measured_area(hmodel.embed(p)), MEASURED_ULPS, False),
}


@pytest.mark.parametrize("n", [3, 4, 6, 12, 50, 192])
@pytest.mark.parametrize("family, window", MATH_CASES)
def test_block_closed_forms_and_measured_routes_match_per_polygon(family, window, n):
    polys = random_polygons(family, n, window, 60)
    radii = np.array([p.radius for p in polys])
    ts = np.array([p.thetas for p in polys])
    for name, (block, scalar, ulps, deficit) in ROUTES.items():
        f = lambda r, t: block(family.kind, r, t)  # noqa: E731
        got = f(radii, ts)
        want = np.array([scalar(p) for p in polys])
        scale = np.abs(want) + condition(f, radii, ts) + (n * math.pi if deficit else 0.0)
        assert_within(got, want, scale, ulps), name
        # a value does not depend on the rest of its block
        rows = np.concatenate([f(radii[i:i + 1], ts[i:i + 1]) for i in range(len(polys))])
        assert hexes(rows.ravel()) == hexes(got.ravel()), name


def test_block_kernels_match_the_scalar_kernels_on_every_branch():
    rng = np.random.default_rng(5)
    wide = np.concatenate([np.geomspace(1e-300, 1e300, 400), rng.uniform(0, 3, 200), [0.0, 1e150, 2e150]])
    signed = np.concatenate([wide, -wide])
    unit = np.concatenate([rng.uniform(-1, 1, 300), 1 - np.geomspace(1e-16, 1e-1, 50), [0.0, -0.0]])
    unit = np.concatenate([unit, -unit])
    t = np.concatenate([np.geomspace(1e-300, 1e200, 400), [-1e-10, -0.0, 0.0, 1e8, 1.0000001e8]])
    x = np.concatenate([rng.uniform(0, 50, 300), [0.0, 700.0]])
    cosines = np.concatenate([unit, [1.0 + 1e-13, -1.0 - 1e-13, 1.0 - 1e-14, 1.0 - 2e-14]])
    cases = [
        (hypmath.stable_asinh_rows, hypmath.stable_asinh, signed),
        (hypmath.stable_atanh_rows, hypmath.stable_atanh, unit[np.abs(unit) < 1.0]),
        (hypmath.acosh1p_rows, hypmath.acosh1p, t),
        (hypmath.coshm1_rows, hypmath.coshm1, x),
        (hypmath.acos_snapped_rows, hypmath.acos_snapped, cosines),
    ]
    for rows, scalar, args in cases:
        got = rows(args)
        want = np.array([scalar(a) for a in args.tolist()])
        assert hexes(np.sign(got)) == hexes(np.sign(want)), scalar.__name__  # signed zeros included
        assert_ulps(got, want), scalar.__name__
    b = np.concatenate([rng.uniform(0, 30, 300), rng.uniform(0, 700, 100), [0.0, 20.0]])
    c = np.concatenate([rng.uniform(0, 30, 300), rng.uniform(0, 700, 100), [0.0, 20.0 + 1e-12]])
    assert_ulps(hypmath.hyp_hypotenuse_rows(b, c), list(map(hypmath.hyp_hypotenuse, b.tolist(), c.tolist())))


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
