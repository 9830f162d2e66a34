"""Block evaluation against the per-draw and per-polygon code it replaces.

Every block path must give the scalar path's floats bit for bit, so these
tests compare with float.hex (or exact equality of whole structures), never
with a tolerance.  The scalar functions are the reference: trial_rngs with
_draw_polygon, random_*_polygon or random_split for the draws, and
polygon.perimeter/area and hmodel.measured_*(embed(p)) for the math.
"""

import math
import re

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


def hexes(values):
    return [float(v).hex() for v in values]


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


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("n", [3, 6, 12, 192])
@pytest.mark.parametrize("theorem", ["1.3", "1.2"])  # tangential area, cyclic perimeter
def test_verify_polygon_draws_match_scalar_draws(monkeypatch, theorem, n, window, seed):
    monkeypatch.setattr(optimize, "BLOCK_WORDS", SMALL_BLOCK)
    entry = bounds.THEOREMS[theorem]
    family = TangentialPolygon if entry["family"] == "tangential" else CyclicPolygon
    lo, hi = optimize._radius_window(family, n, window)
    draws, _, _ = optimize._polygon_draws(entry, n, window)
    for count in boundary_counts(n + 1):
        got = list(draws(seed, count))
        assert len(got) == count
        for drawn, rng in zip(got, trial_rngs(seed, count)):
            poly = scalar_polygon(family, n, lo, hi, rng)
            if poly is None:
                assert drawn is None
                continue
            res, actual, witness, err = drawn
            want = polygon.perimeter(poly) if res.quantity == "perimeter" else polygon.area(poly)
            assert res == entry["func"](n, poly.radius)
            assert actual.hex() == want.hex()
            assert witness() == {"polygon": polygon.to_json_dict(poly)}
            assert err == abs(bounds.equality_value(res) - res.value)


def scalar_split_metric(entry, n, xs, quantity):
    """The split metric as the per-component loop computes it."""
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
    draws, eq_err, _ = optimize._split_draws(entry, 12, k, total)
    lo, hi = entry["window"](12)
    res = entry["func"](12, k, total)
    assert eq_err == abs(scalar_split_metric(entry, 12, [total / k] * k, res.quantity) - res.value)
    for count in boundary_counts(k):
        got = list(draws(seed, count))
        assert len(got) == count
        asserted = 0
        for drawn, rng in zip(got, trial_rngs(seed, count)):
            xs = optimize.random_split(total, k, rng)
            if not all(lo < x < hi for x in xs):
                assert drawn is None
                continue
            assert hexes(drawn[2]()["split"]) == hexes(xs)
            assert drawn[1].hex() == scalar_split_metric(entry, 12, xs, drawn[0].quantity).hex()
            asserted += 1
        assert asserted > 0


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


@pytest.mark.parametrize("seed", SEEDS)
def test_criterion_1_draws_match_the_scalar_battery(seed):
    # one block and a bit at the real block size; the blocks group the
    # polygons by family and n, so compare them as sorted lists
    count = optimize.BLOCK_WORDS // 14 + 1
    got = sorted((kind, r.hex(), tuple(hexes(t)))
                 for kind, radii, ts in cli._crit1_polygons(seed, count)
                 for r, t in zip(radii.tolist(), ts))
    want = sorted((p.kind, p.radius.hex(), tuple(hexes(p.thetas)))
                  for p in (cli._crit1_draw(i, rng) for i, rng in enumerate(trial_rngs(seed, count))))
    assert got == want


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


@pytest.mark.parametrize("n", [3, 4, 6, 12, 50, 192])
@pytest.mark.parametrize("family, window", MATH_CASES)
def test_block_closed_forms_and_measured_routes_match_per_polygon(family, window, n):
    polys = random_polygons(family, n, window, 60)
    kind = family.kind
    radii = np.array([p.radius for p in polys])
    ts = np.array([p.thetas for p in polys])
    xs = hmodel.embed_rows(kind, radii, ts)
    embeddings = [hmodel.embed(p) for p in polys]
    assert hexes(polygon.perimeter_rows(kind, radii, ts)) == hexes(map(polygon.perimeter, polys))
    assert hexes(polygon.area_rows(kind, radii, ts)) == hexes(map(polygon.area, polys))
    for x, coord in zip(xs, ("x0", "x1", "x2")):
        assert [hexes(row) for row in x] == [hexes(getattr(v, coord) for v in e.vertices) for e in embeddings]
    assert hexes(hmodel.measured_perimeter_rows(*xs)) == hexes(map(hmodel.measured_perimeter, embeddings))
    assert hexes(hmodel.measured_area_rows(*xs)) == hexes(map(hmodel.measured_area, embeddings))


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
        assert hexes(rows(args)) == hexes(scalar(a) for a in args.tolist()), scalar.__name__
    b = np.concatenate([rng.uniform(0, 30, 300), rng.uniform(0, 700, 100), [0.0, 20.0]])
    c = np.concatenate([rng.uniform(0, 30, 300), rng.uniform(0, 700, 100), [0.0, 20.0 + 1e-12]])
    assert hexes(hypmath.hyp_hypotenuse_rows(b, c)) == hexes(map(hypmath.hyp_hypotenuse, b.tolist(), c.tolist()))


def test_block_kernels_raise_where_the_scalar_kernels_raise():
    for rows, scalar, arg in ((hypmath.stable_atanh_rows, hypmath.stable_atanh, 1.0),
                              (hypmath.acosh1p_rows, hypmath.acosh1p, -1e-8),
                              (hypmath.acos_snapped_rows, hypmath.acos_snapped, 1.0 + 1e-11),
                              (hypmath.acos_snapped_rows, hypmath.acos_snapped, -1.0 - 1e-11)):
        with pytest.raises(Exception) as want:
            scalar(arg)
        with pytest.raises(want.type, match=re.escape(str(want.value))):
            rows(np.array([0.5, arg]))


def test_libm_calls_math_elementwise():
    x = np.linspace(0.1, 1.4, 12).reshape(3, 4)
    got = hypmath.libm(math.atan2, 1.0, x)
    assert got.shape == (3, 4)
    assert hexes(got.ravel()) == hexes(math.atan2(1.0, v) for v in x.ravel().tolist())


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
    (3, "r", float(np.nextafter(hypmath.tangential_radius_limit(3), 0.0))),  # tanh r / cos(pi/n) rounds to 1
    (6, "theta", 0.0), (6, "theta", 4 * math.pi / 6), (6, "theta", -1.0),
    (6, "theta", 5e-324), (6, "theta", 1e-320), (6, "theta", 1e-309),  # the circumradius would pass LEG_MAX
    (2, "R", 1.0), (6.0, "R", 1.0),
])
def test_regular_convert_rows_raise_where_regular_convert_raises(n, name, bad):
    with pytest.raises(Exception) as want:
        hypmath.regular_convert(hypmath.RegularNGonSpec(n=n, **{name: bad}))
    with pytest.raises(want.type, match=re.escape(str(want.value))):
        hypmath.regular_convert_rows(n, name, np.array([0.5, bad]))
