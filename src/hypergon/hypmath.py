"""Hyperbolic right-triangle relations and regular-polygon conversions.

Everything here works in the hyperbolic plane of curvature -1.  Right
triangles follow the labelling: right angle at A, hypotenuse a opposite it,
legs b and c opposite the acute angles B and C.  The six identities

    (i)   cosh a = cosh b * cosh c
    (ii)  cosh a = cot B * cot C
    (iii) sinh b = sin B * sinh a
    (iv)  sinh c = cot B * tanh b
    (v)   cos C  = cosh c * sin B
    (vi)  cos B  = tanh c * coth a

are mutually consistent: (iv) follows from (i), (iii) and (vi) by
eliminating B, so any two of {a, b, c, B, C} determine the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class RightTriangle:
    """Fully solved right triangle: right angle at A, hypotenuse a."""

    a: float
    b: float
    c: float
    B: float
    C: float


def right_triangle_residuals(t: RightTriangle) -> tuple[float, ...]:
    """Relative residuals of the six defining identities, for checking."""

    def rel(lhs: float, rhs: float) -> float:
        return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))

    return (
        rel(math.cosh(t.a), math.cosh(t.b) * math.cosh(t.c)),
        rel(math.cosh(t.a), 1.0 / (math.tan(t.B) * math.tan(t.C))),
        rel(math.sinh(t.b), math.sin(t.B) * math.sinh(t.a)),
        rel(math.sinh(t.c), math.tanh(t.b) / math.tan(t.B)),
        rel(math.cos(t.C), math.cosh(t.c) * math.sin(t.B)),
        rel(math.cos(t.B), math.tanh(t.c) / math.tanh(t.a)),
    )


def _check_side(name: str, v: float) -> None:
    if not v > 0.0:
        raise Infeasible(f"side {name} must be positive, got {v!r}")
    if v > LEG_MAX:
        raise OutOfRange(f"side {name} beyond {LEG_MAX}")


def _check_angle(name: str, v: float) -> None:
    if not 0.0 < v < 0.5 * math.pi:
        raise Infeasible(f"angle {name} must lie in (0, pi/2), got {v!r}")


def solve_right_triangle(
    a: float | None = None,
    b: float | None = None,
    c: float | None = None,
    B: float | None = None,
    C: float | None = None,
) -> RightTriangle:
    """Solve the right triangle from exactly two of {a, b, c, B, C}.

    Supplied values are returned unchanged; the rest are recovered through
    the stable closed forms.  Raises Infeasible when no nondegenerate
    triangle matches (e.g. B + C >= pi/2, or a leg at least as long as the
    hypotenuse), AmbiguousInput unless exactly two quantities are given.
    """
    known = {k: v for k, v in (("a", a), ("b", b), ("c", c), ("B", B), ("C", C)) if v is not None}
    if len(known) != 2:
        raise AmbiguousInput(f"need exactly two known quantities, got {sorted(known)}")
    names = frozenset(known)

    for s in ("a", "b", "c"):
        if s in known:
            _check_side(s, known[s])
    for g in ("B", "C"):
        if g in known:
            _check_angle(g, known[g])

    if names == {"b", "c"}:
        a = hyp_hypotenuse(b, c)
    elif names == {"a", "b"} or names == {"a", "c"}:
        leg = b if b is not None else c
        if leg >= a:
            raise Infeasible("a leg must be strictly shorter than the hypotenuse")
        # cosh(other) = cosh a / cosh b, with the difference in product form
        t = 2.0 * math.sinh(0.5 * (a + leg)) * math.sinh(0.5 * (a - leg)) / math.cosh(leg)
        other = acosh1p(t)
        if b is not None:
            c = other
        else:
            b = other
    elif names == {"a", "B"} or names == {"a", "C"}:
        if B is not None:
            b = stable_asinh(math.sin(B) * math.sinh(a))
            c = stable_atanh(math.cos(B) * math.tanh(a))
        else:
            c = stable_asinh(math.sin(C) * math.sinh(a))
            b = stable_atanh(math.cos(C) * math.tanh(a))
    elif names == {"b", "B"}:
        c = stable_asinh(math.tanh(b) / math.tan(B))
        a = hyp_hypotenuse(b, c)
    elif names == {"c", "C"}:
        b = stable_asinh(math.tanh(c) / math.tan(C))
        a = hyp_hypotenuse(b, c)
    elif names == {"b", "C"}:
        x = math.sinh(b) * math.tan(C)
        if x >= 1.0:
            raise Infeasible("sinh b * tan C >= 1: the third vertex is ideal")
        c = stable_atanh(x)
        a = hyp_hypotenuse(b, c)
    elif names == {"c", "B"}:
        x = math.sinh(c) * math.tan(B)
        if x >= 1.0:
            raise Infeasible("sinh c * tan B >= 1: the third vertex is ideal")
        b = stable_atanh(x)
        a = hyp_hypotenuse(b, c)
    elif names == {"B", "C"}:
        gap = 0.5 * math.pi - (B + C)
        if gap <= 0.0:
            raise Infeasible("need B + C < pi/2")
        # cosh a = cot B cot C, cosh b = cos B / sin C, cosh c = cos C / sin B,
        # each written as 1 + (positive product) to stay exact near the limit
        a = acosh1p(math.sin(gap) / (math.sin(B) * math.sin(C)))
        b = acosh1p(2.0 * math.sin(B + 0.5 * gap) * math.sin(0.5 * gap) / math.sin(C))
        c = acosh1p(2.0 * math.sin(C + 0.5 * gap) * math.sin(0.5 * gap) / math.sin(B))
    else:  # pragma: no cover - the ten cases above are exhaustive
        raise AmbiguousInput(f"unsupported combination {sorted(names)}")

    if B is None:
        B = math.atan2(math.tanh(b), math.sinh(c))
    if C is None:
        C = math.atan2(math.tanh(c), math.sinh(b))
    return RightTriangle(a=a, b=b, c=c, B=B, C=C)


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


def regular_convert(spec: RegularNGonSpec) -> RegularPolygonMetrics:
    """Convert one defining quantity of a regular n-gon into all of them.

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
    n = spec.n
    if not isinstance(n, int) or n < 3:
        raise Infeasible(f"need integer n >= 3, got {n!r}")
    name, value = spec.defining()
    cn = math.cos(math.pi / n)
    sn = math.sin(math.pi / n)
    theta_max = (n - 2) * math.pi / n

    if name == "theta":
        theta = value
        if not 0.0 < theta < theta_max:
            raise Infeasible(f"interior angle must lie in (0, {(n - 2)}pi/{n})")
        half = 0.5 * theta
        gap = 0.5 * math.pi - math.pi / n - half
        R = acosh1p(math.cos(math.pi / n + half) / (sn * math.sin(half)))
        r = acosh1p(2.0 * math.sin(half + 0.5 * gap) * math.sin(0.5 * gap) / sn)
        side = 2.0 * acosh1p(2.0 * math.sin(math.pi / n + 0.5 * gap) * math.sin(0.5 * gap) / math.sin(half))
    elif name == "R":
        R = value
        if not 0.0 < R <= LEG_MAX:
            raise Infeasible(f"circumradius must lie in (0, {LEG_MAX}]")
        theta = 2.0 * math.atan2(cn / sn, math.cosh(R))
        r = stable_atanh(cn * math.tanh(R))
        side = 2.0 * stable_asinh(sn * math.sinh(R))
    elif name == "r":
        r = value
        if not 0.0 < r <= LEG_MAX:
            raise Infeasible(f"inradius must lie in (0, {LEG_MAX}]")
        if r >= tangential_radius_limit(n):
            raise Infeasible("inradius at or beyond asinh(cot(pi/n)): vertices are ideal")
        R = stable_atanh(math.tanh(r) / cn)
        theta = 2.0 * acos_snapped(sn * math.cosh(r))
        side = 2.0 * stable_atanh(math.sinh(r) * sn / cn)
    else:  # side
        side = value
        if not 0.0 < side <= LEG_MAX:
            raise Infeasible(f"side must lie in (0, {LEG_MAX}]")
        half_side = 0.5 * side
        R = stable_asinh(math.sinh(half_side) / sn)
        theta = 2.0 * math.asin(min(1.0, cn / math.cosh(half_side)))
        r = stable_asinh(math.tanh(half_side) * cn / sn)

    return RegularPolygonMetrics(
        n=n,
        R=R,
        r=r,
        theta=theta,
        side=side,
        perimeter=n * side,
        area=(n - 2) * math.pi - n * theta,
    )
