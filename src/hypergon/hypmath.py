"""Stable scalar kernels, triangle relations and regular-polygon conversions.

Everything here works in the hyperbolic plane of curvature -1.  The
kernels evaluate asinh, atanh, acosh(1 + t), cosh - 1 and acos without the
cancellation of their textbook forms.  On top of them sit the hypotenuse of
a right triangle from its legs (cosh a = cosh b * cosh c), an angle from
three sides by the law of cosines, and the conversions between the
quantities of a regular n-gon.

The *_rows kernels -- fsum_rows, stable_asinh_rows, stable_atanh_rows,
acosh1p_rows, coshm1_rows, acos_snapped_rows, hyp_hypotenuse_rows and
regular_convert_rows -- take float64 arrays and follow the scalar kernel of
the same name step for step, branches and error messages included, but
evaluate every transcendental function with numpy's ufunc (np.log1p,
np.sinh, np.arctan2, ...).  Those run the SIMD kernels numpy dispatches on
this CPU and may differ from the math module in the last bit or two, so a
rows kernel agrees with its scalar twin to a few ulp, not bit for bit; the
tests bound both against a 40-digit reference.  An element's value does not
depend on the rest of its array, so a block value and the one-row call
that recomputes it agree exactly.  fsum_rows keeps math.fsum, whose correct
rounding the partition draws rely on.  regular_convert is the one-row call
of regular_convert_rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousInput, DegenerateTriangle, Infeasible, OutOfRange

# Tolerance ladder.  EPS_REL guards algebraic identities evaluated in closed
# form; EPS_GEOM guards quantities that went through an embedding.
EPS_REL = 1e-12
EPS_GEOM = 1e-9

# cosh overflows just past 710; stay clear of it.
LEG_MAX = 700.0

_LN2 = math.log(2.0)

# Snap window for acos/acosh arguments that should sit exactly on a branch
# point but picked up a few ulps of dust on the way in.
_BRANCH_SNAP = 1e-14


def stable_asinh(x: float) -> float:
    """asinh via a sign-symmetric log1p form, exact for tiny arguments."""
    ax = abs(x)
    if ax > 1e150:
        # ax * ax would overflow; asinh(x) = log(2x) up to O(x^-2)
        r = _LN2 + math.log(ax)
    else:
        r = math.log1p(ax + ax * ax / (1.0 + math.hypot(1.0, ax)))
    return -r if x < 0 else r


def stable_atanh(x: float) -> float:
    """atanh(x) = 0.5*log1p(2x/(1-x)), |x| < 1."""
    if abs(x) >= 1.0:
        raise OutOfRange(f"atanh argument {x!r} outside (-1, 1)")
    ax = abs(x)
    r = 0.5 * math.log1p(2.0 * ax / (1.0 - ax))
    return -r if x < 0 else r


def acosh1p(t: float) -> float:
    """acosh(1 + t) for t >= 0 without cancellation near the branch point."""
    if t < 0.0:
        if t < -EPS_GEOM:
            raise OutOfRange(f"acosh argument 1 + {t!r} below branch point")
        return 0.0
    if t > 1e8:
        # acosh(1+t) = log(2(1+t)) up to O(t^-2), below double precision here
        return _LN2 + math.log1p(t)
    return math.log1p(t + math.sqrt(t * (t + 2.0)))


def coshm1(x: float) -> float:
    """cosh(x) - 1 without cancellation: 2*sinh(x/2)^2."""
    s = math.sinh(0.5 * x)
    return 2.0 * s * s


def acos_snapped(x: float) -> float:
    """acos with the upper branch point snapped.

    Arguments within _BRANCH_SNAP of 1 return exactly 0.0 so that
    configurations sitting on an ideal boundary in exact arithmetic do not
    pick up an O(sqrt(eps)) angle from float dust.  Arguments further above 1
    are the caller's problem.
    """
    if x >= 1.0 - _BRANCH_SNAP:
        if x > 1.0 + EPS_REL:
            raise OutOfRange(f"acos argument {x!r} above 1")
        return 0.0
    if x <= -1.0:
        if x < -1.0 - EPS_REL:
            raise OutOfRange(f"acos argument {x!r} below -1")
        return math.pi
    return math.acos(x)


def fsum_rows(a: np.ndarray) -> np.ndarray:
    """math.fsum of every row."""
    return np.fromiter(map(math.fsum, a.tolist()), np.float64, len(a))


def stable_asinh_rows(x: np.ndarray) -> np.ndarray:
    """stable_asinh of every element."""
    ax = np.abs(x)
    big = ax > 1e150
    a = np.where(big, 0.0, ax)
    r = np.log1p(a + a * a / (1.0 + np.hypot(1.0, a)))
    r[big] = _LN2 + np.log(ax[big])
    return np.where(x < 0, -r, r)


def stable_atanh_rows(x: np.ndarray) -> np.ndarray:
    """stable_atanh of every element."""
    ax = np.abs(x)
    if (ax >= 1.0).any():
        raise OutOfRange(f"atanh argument {float(x[ax >= 1.0][0])!r} outside (-1, 1)")
    r = 0.5 * np.log1p(2.0 * ax / (1.0 - ax))
    return np.where(x < 0, -r, r)


def acosh1p_rows(t: np.ndarray) -> np.ndarray:
    """acosh1p of every element."""
    if (t < -EPS_GEOM).any():
        raise OutOfRange(f"acosh argument 1 + {float(t[t < -EPS_GEOM][0])!r} below branch point")
    big = t > 1e8
    s = np.where(big | (t < 0.0), 0.0, t)
    r = np.log1p(s + np.sqrt(s * (s + 2.0)))
    r[big] = _LN2 + np.log1p(t[big])
    return r


def coshm1_rows(x: np.ndarray) -> np.ndarray:
    """coshm1 of every element."""
    s = np.sinh(0.5 * x)
    return 2.0 * s * s


def acos_snapped_rows(x: np.ndarray) -> np.ndarray:
    """acos_snapped of every element."""
    for bad, side in ((x > 1.0 + EPS_REL, "above 1"), (x < -1.0 - EPS_REL, "below -1")):
        if bad.any():
            raise OutOfRange(f"acos argument {float(x[bad][0])!r} {side}")
    top, bottom = x >= 1.0 - _BRANCH_SNAP, x <= -1.0
    r = np.arccos(np.where(top | bottom, 0.0, x))
    r[top] = 0.0
    r[bottom] = math.pi
    return r


def hyp_hypotenuse_rows(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """hyp_hypotenuse of every pair of elements of b and c, of one shape."""
    if (b < 0.0).any() or (c < 0.0).any():
        raise OutOfRange("legs must be nonnegative")
    if (b > LEG_MAX).any() or (c > LEG_MAX).any():
        raise OutOfRange(f"leg beyond {LEG_MAX}; cosh would overflow")
    far = b + c > 40.0
    near = ~far
    out = np.empty(b.shape)
    bf, cf = b[far], c[far]
    out[far] = bf + cf - _LN2 + np.log1p(np.exp(-2.0 * bf)) + np.log1p(np.exp(-2.0 * cf))
    bn, cn = b[near], c[near]
    out[near] = acosh1p_rows(coshm1_rows(bn) * np.cosh(cn) + coshm1_rows(cn))
    return out


def hyp_hypotenuse(b: float, c: float) -> float:
    """Hypotenuse of the right triangle with legs b and c.

    cosh a = cosh b * cosh c, evaluated in log space once the product would
    lose precision or overflow.
    """
    if b < 0.0 or c < 0.0:
        raise OutOfRange("legs must be nonnegative")
    if b > LEG_MAX or c > LEG_MAX:
        raise OutOfRange(f"leg beyond {LEG_MAX}; cosh would overflow")
    if b + c > 40.0:
        return b + c - _LN2 + math.log1p(math.exp(-2.0 * b)) + math.log1p(math.exp(-2.0 * c))
    # cosh b * cosh c - 1 assembled from nonnegative terms only
    t = coshm1(b) * math.cosh(c) + coshm1(c)
    return acosh1p(t)


def angle_from_sides(a: float, b: float, c: float) -> float:
    """Angle C opposite side c from the hyperbolic law of cosines.

    C = acos((cosh a cosh b - cosh c) / (sinh a sinh b)).  Arguments that
    stray past [-1, 1] by at most EPS_GEOM are clamped; further means the
    sides do not form a triangle.
    """
    if a <= 0.0 or b <= 0.0 or c <= 0.0:
        raise DegenerateTriangle(f"sides must be positive, got {(a, b, c)}")
    num = math.cosh(a) * math.cosh(b) - math.cosh(c)
    den = math.sinh(a) * math.sinh(b)
    x = num / den
    if x > 1.0:
        if x > 1.0 + EPS_GEOM:
            raise DegenerateTriangle(f"law-of-cosines argument {x!r} above 1")
        x = 1.0
    elif x < -1.0:
        if x < -1.0 - EPS_GEOM:
            raise DegenerateTriangle(f"law-of-cosines argument {x!r} below -1")
        x = -1.0
    return math.acos(x)


@dataclass(frozen=True)
class RegularNGonSpec:
    """A regular hyperbolic n-gon pinned down by exactly one quantity.

    The defining quantity is one of circumradius R, inradius r, interior
    angle theta, or side length.
    """

    n: int
    R: float | None = None
    r: float | None = None
    theta: float | None = None
    side: float | None = None

    def defining(self) -> tuple[str, float]:
        given = [(k, v) for k, v in (("R", self.R), ("r", self.r), ("theta", self.theta), ("side", self.side)) if v is not None]
        if len(given) != 1:
            raise AmbiguousInput(f"need exactly one defining quantity, got {[k for k, _ in given]}")
        return given[0]


@dataclass(frozen=True)
class RegularPolygonMetrics:
    """All classical quantities of one regular n-gon."""

    n: int
    R: float
    r: float
    theta: float
    side: float
    perimeter: float
    area: float


def tangential_radius_limit(n: int) -> float:
    """Largest inradius of a compact tangential regular-sector n-gon: asinh(cot(pi/n))."""
    return stable_asinh(1.0 / math.tan(math.pi / n))


def _check_theta_floor(n: int, theta) -> None:
    """Raise OutOfRange if an interior angle in theta (a float or an array)
    is below that of the regular n-gon with circumradius LEG_MAX: a smaller
    angle has a larger circumradius."""
    if np.any(theta < 2.0 * math.atan2(1.0 / math.tan(math.pi / n), math.cosh(LEG_MAX))):
        raise OutOfRange(f"interior angle too small: the circumradius would pass {LEG_MAX}; cosh would overflow")


def regular_convert(spec: RegularNGonSpec) -> RegularPolygonMetrics:
    """Convert one defining quantity of a regular n-gon into all of them.

    The one-row call of regular_convert_rows, with float fields.
    """
    name, value = spec.defining()
    m = regular_convert_rows(spec.n, name, np.array([value], dtype=np.float64))
    return RegularPolygonMetrics(n=m.n, **{f: float(getattr(m, f)[0])
                                           for f in ("R", "r", "theta", "side", "perimeter", "area")})


def regular_convert_rows(n: int, name: str, value: np.ndarray) -> RegularPolygonMetrics:
    """All quantities of the regular n-gon that each element of value defines
    as the quantity `name` ("R", "r", "theta" or "side"), as metrics whose
    fields are arrays of value's shape.

    Uses the right-triangle decomposition with central half-angle pi/n and
    vertex half-angle theta/2:

        cosh R      = cot(pi/n) cot(theta/2)
        cosh r      = cos(theta/2) / sin(pi/n)
        cosh(s/2)   = cos(pi/n) / sin(theta/2)
        tanh r      = cos(pi/n) tanh R
        sinh(s/2)   = sin(pi/n) sinh R
        sinh r      = cot(pi/n) tanh(s/2)

    with perimeter n*s and area (n-2)pi - n*theta.
    """
    if not isinstance(n, int) or n < 3:
        raise Infeasible(f"need integer n >= 3, got {n!r}")
    cn = np.cos(np.pi / n)
    sn = np.sin(np.pi / n)
    theta_max = (n - 2) * math.pi / n

    def check(ok: np.ndarray, message: str) -> None:
        if not ok.all():
            raise Infeasible(message)

    if name == "theta":
        theta = value
        check((0.0 < theta) & (theta < theta_max), f"interior angle must lie in (0, {(n - 2)}pi/{n})")
        _check_theta_floor(n, theta)
        half = 0.5 * theta
        # the branch-point offsets cosh - 1 as products of sines of the gap
        # to the ideal angle, free of cancellation
        gap = 0.5 * math.pi - math.pi / n - half
        sin_half, sin_gap = np.sin(half), np.sin(0.5 * gap)
        R = acosh1p_rows(np.cos(math.pi / n + half) / (sn * sin_half))
        r = acosh1p_rows(2.0 * np.sin(half + 0.5 * gap) * sin_gap / sn)
        side = 2.0 * acosh1p_rows(2.0 * np.sin(math.pi / n + 0.5 * gap) * sin_gap / sin_half)
    elif name == "R":
        R = value
        check((0.0 < R) & (R <= LEG_MAX), f"circumradius must lie in (0, {LEG_MAX}]")
        theta = 2.0 * np.arctan2(cn / sn, np.cosh(R))
        r = stable_atanh_rows(cn * np.tanh(R))
        side = 2.0 * stable_asinh_rows(sn * np.sinh(R))
    elif name == "r":
        r = value
        check((0.0 < r) & (r <= LEG_MAX), f"inradius must lie in (0, {LEG_MAX}]")
        check(r < tangential_radius_limit(n), "inradius at or beyond asinh(cot(pi/n)): vertices are ideal")
        R = stable_atanh_rows(np.tanh(r) / cn)
        theta = 2.0 * acos_snapped_rows(sn * np.cosh(r))
        side = 2.0 * stable_atanh_rows(np.sinh(r) * sn / cn)
    else:  # side
        side = value
        check((0.0 < side) & (side <= LEG_MAX), f"side must lie in (0, {LEG_MAX}]")
        half_side = 0.5 * side
        sh = np.sinh(half_side)
        R = stable_asinh_rows(sh / sn)
        # sin(theta/2) = cos(pi/n) / cosh(s/2), taken as an angle with its
        # cosine sqrt(sinh^2(s/2) + sin^2(pi/n)) / cosh(s/2), which keeps
        # asin's conditioning near 1 out of small sides
        theta = 2.0 * np.arctan2(cn, np.hypot(sh, sn))
        r = stable_asinh_rows(np.tanh(half_side) * cn / sn)

    return RegularPolygonMetrics(
        n=n,
        R=R,
        r=r,
        theta=theta,
        side=side,
        perimeter=n * side,
        area=(n - 2) * math.pi - n * theta,
    )
