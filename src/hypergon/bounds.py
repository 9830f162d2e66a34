"""Closed-form perimeter and area bounds for hyperbolic polygons.

Single-polygon bounds (the polygon has n sides):

    thm1  Peri(tangential, inradius r)    >= 2n atanh(tan(pi/n) sinh r)
    thm2  Peri(cyclic, circumradius R)    <= 2n asinh(sin(pi/n) sinh R)
    thm3  Area(tangential, inradius r)    >= (n-2)pi - 2n acos(sin(pi/n) cosh r)
    thm4  Area(cyclic, circumradius R)    <= (n-2)pi - 2n acot(tan(pi/n) cosh R)

The two cyclic bounds are upper bounds and the two tangential bounds are
lower bounds: a fixed circumcircle contains the polygon while a fixed
incircle is contained in it, so the regular polygon is the maximizer in
the first case and the minimizer in the second.  (The half-angle function
acot(cosh R tan(theta/2)) is strictly convex in theta for R > 0, which
pins thm4's direction; see cyclic_half_angle.)

Totals over k regular polygons whose radii sum to T scale the same
expressions to the equal split T/k (thm5-thm8).  Fixing a total area
(thm9) or a total perimeter (thm10) instead gives

    thm9   sum Peri >= 2nk acosh(cos(pi/n) / sin(((n-2)pi - T/k) / (2n)))
    thm10  sum Area <= k(n-2)pi - 2nk asin(cos(pi/n) / cosh(T / (2nk)))

thm7, thm9 and thm10 are valid only above (or below) a per-polygon
admissibility threshold where the relevant allocation objective keeps a
single convexity sign; thm7's threshold is cosh R = sqrt(2 + cot^2(pi/n)),
the inflection of acot(tan(pi/n) cosh R).  In every case equality holds
exactly at the regular configuration with the quantity split evenly, which
is recorded in the result for independent re-evaluation.

Infeasibility is a flag, never an exception: beyond its guard a bound value
saturates (atanh to +inf, the acos term to 0) so parameter sweeps stay total.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import Infeasible, InvalidTotal, OutOfRange
from .hypmath import (
    EPS_REL,
    LEG_MAX,
    RegularNGonSpec,
    acos_snapped_rows,
    acosh1p,
    coshm1_rows,
    regular_convert,
    stable_asinh,
    stable_asinh_rows,
    stable_atanh,
    stable_atanh_rows,
    tangential_radius_limit,
)


@dataclass(frozen=True)
class BoundResult:
    """One evaluated bound, with its admissibility data.

    guard_margin is the signed distance from the parameter to the bound's
    admissibility threshold (positive inside), or +inf when the bound has no
    threshold.  equality_spec pins down the configuration attaining the
    bound; pushing it back through regular_convert reproduces value.
    """

    theorem: str
    quantity: str  # "perimeter" | "area" | "inradius"
    kind: str  # "lower" | "upper"
    n: int
    k: int
    param: float
    value: float
    feasible: bool
    guard_margin: float
    equality_spec: RegularNGonSpec | None

    def to_json_dict(self) -> dict:
        return asdict(self)


def _check_nk(n: int, k: int = 1) -> None:
    if not isinstance(n, int) or n < 3:
        raise Infeasible(f"need integer n >= 3, got {n!r}")
    if not isinstance(k, int) or k < 1:
        raise Infeasible(f"need integer k >= 1, got {k!r}")


def _check_radius(x: float, k: int = 1) -> None:
    """x is one radius, or a total of k radii split evenly."""
    if not x > 0.0:
        raise Infeasible(f"{'total radius' if k > 1 else 'radius'} must be positive, got {x!r}")
    if x / k > LEG_MAX:
        raise OutOfRange(f"radius {x / k!r} per polygon beyond {LEG_MAX}; cosh would overflow")


def area_radius_limit(n: int) -> float:
    """Inradius at which sin(pi/n)*cosh r reaches 1: acosh(1/sin(pi/n))."""
    sn = math.sin(math.pi / n)
    return acosh1p((1.0 - sn) / sn)


def thm9_theta_threshold(n: int) -> float:
    """Sector angle below which the thm9 objective is convex."""
    return 2.0 * math.asin(math.sqrt(1.0 - math.sin(math.pi / n)))


def thm9_area_threshold(n: int) -> float:
    """Per-polygon area above which the thm9 objective is certified convex:
    the area of the regular n-gon of sector angle thm9_theta_threshold(n)."""
    return (n - 2) * math.pi - n * thm9_theta_threshold(n)


def thm10_peri_threshold(n: int) -> float:
    """Per-polygon perimeter above which the thm10 objective is certified convex."""
    sn = math.sin(math.pi / n)
    # acosh(sqrt(1 + sn)), with the branch-point offset formed cancellation-free
    return 2 * n * acosh1p(sn / (math.sqrt(1.0 + sn) + 1.0))


def thm7_radius_threshold(n: int) -> float:
    """Circumradius at which acot(tan(pi/n) cosh R) inflects: acosh(sqrt(2 + cot^2(pi/n))).

    Below it that half-angle function is concave in R and the equal split
    minimizes total area among regular polygons; above it the sign flips
    and the thm7 inequality can fail, so the threshold is thm7's guard.
    """
    c2 = 1.0 / math.tan(math.pi / n) ** 2
    return acosh1p((1.0 + c2) / (math.sqrt(2.0 + c2) + 1.0))


@dataclass(frozen=True)
class BoundRows:
    """A bound at every element of an array x of per-polygon radii: the
    BoundResult fields that vary with x, as arrays of x's shape.  equality
    marks the elements with an equality configuration, the regular polygon
    whose `defining` quantity ("R" or "r") is x."""

    quantity: str
    kind: str
    value: np.ndarray
    feasible: np.ndarray
    guard_margin: np.ndarray
    equality: np.ndarray
    defining: str


def _tangential_peri_rows(n: int, k: int, x: np.ndarray) -> BoundRows:
    limit = tangential_radius_limit(n)
    arg = np.tan(np.pi / n) * np.sinh(x)
    finite = arg < 1.0
    value = 2.0 * n * k * stable_atanh_rows(np.where(finite, arg, 0.0))
    value[~finite] = math.inf
    feasible = x < limit
    return BoundRows("perimeter", "lower", value, feasible, limit - x, feasible, "r")


def _cyclic_peri_rows(n: int, k: int, x: np.ndarray, kind: str) -> BoundRows:
    value = 2.0 * n * k * stable_asinh_rows(np.sin(np.pi / n) * np.sinh(x))
    return BoundRows("perimeter", kind, value, np.ones(x.shape, bool), np.full(x.shape, math.inf),
                     np.ones(x.shape, bool), "R")


def _tangential_area_rows(n: int, k: int, x: np.ndarray) -> BoundRows:
    arg = np.sin(np.pi / n) * np.cosh(x)
    feasible = arg <= 1.0 + EPS_REL
    # an infeasible row's acos term is 0, the value acos_snapped gives at 1
    value = k * (n - 2) * math.pi - 2.0 * n * k * acos_snapped_rows(np.where(feasible, arg, 1.0))
    return BoundRows("area", "lower", value, feasible, area_radius_limit(n) - x,
                     feasible & (x < tangential_radius_limit(n)), "r")


def _cyclic_area_rows(n: int, k: int, x: np.ndarray, kind: str, guarded: bool) -> BoundRows:
    # Angle-deficit form (n-2) pi - 2 n acot(tan(pi/n) cosh x) cancels
    # catastrophically as x -> 0; the atan-difference rewrite below is exact
    # and keeps the quadratic small-x behaviour to full precision.
    t = np.tan(np.pi / n)
    value = 2.0 * n * k * np.arctan2(t * coshm1_rows(x), 1.0 + t * t * np.cosh(x))
    if guarded:
        threshold = thm7_radius_threshold(n)
        feasible, guard_margin = x < threshold, threshold - x
    else:
        feasible, guard_margin = np.ones(x.shape, bool), np.full(x.shape, math.inf)
    return BoundRows("area", kind, value, feasible, guard_margin, np.ones(x.shape, bool), "R")


def _one(x: float) -> np.ndarray:
    return np.array([x], dtype=np.float64)


def _at(b: BoundRows, theorem: str, n: int, k: int, x: float, T: float) -> BoundResult:
    """The BoundResult of the one-element b, evaluated at radius x; T is the param."""
    return BoundResult(
        theorem=theorem,
        quantity=b.quantity,
        kind=b.kind,
        n=n,
        k=k,
        param=T,
        value=float(b.value[0]),
        feasible=bool(b.feasible[0]),
        guard_margin=float(b.guard_margin[0]),
        equality_spec=RegularNGonSpec(n=n, **{b.defining: x}) if b.equality[0] else None,
    )


# The single-polygon bounds at every radius of an array; the THEOREMS
# records give them to verify_bounds as `rows`.
def _thm1_rows(n: int, r: np.ndarray) -> BoundRows:
    return _tangential_peri_rows(n, 1, r)


def _thm2_rows(n: int, R: np.ndarray) -> BoundRows:
    return _cyclic_peri_rows(n, 1, R, "upper")


def _thm3_rows(n: int, r: np.ndarray) -> BoundRows:
    return _tangential_area_rows(n, 1, r)


def _thm4_rows(n: int, R: np.ndarray) -> BoundRows:
    return _cyclic_area_rows(n, 1, R, "upper", guarded=False)


def thm1_peri_lower(n: int, r: float) -> BoundResult:
    """Perimeter of a tangential n-gon with inradius r; feasible iff tan(pi/n) sinh r < 1."""
    _check_nk(n)
    _check_radius(r)
    return _at(_thm1_rows(n, _one(r)), "1.1", n, 1, r, r)


def thm2_peri_upper(n: int, R: float) -> BoundResult:
    """Perimeter of a cyclic n-gon with circumradius R; always feasible."""
    _check_nk(n)
    _check_radius(R)
    return _at(_thm2_rows(n, _one(R)), "1.2", n, 1, R, R)


def thm3_area_lower(n: int, r: float) -> BoundResult:
    """Area of a tangential n-gon with inradius r; feasible iff sin(pi/n) cosh r <= 1."""
    _check_nk(n)
    _check_radius(r)
    return _at(_thm3_rows(n, _one(r)), "1.3", n, 1, r, r)


def thm4_area_upper(n: int, R: float) -> BoundResult:
    """Area of a cyclic n-gon with circumradius R; always feasible.

    This is an upper bound: the half-angle acot(cosh R tan(theta/2)) is
    strictly convex in theta, so the uniform partition minimizes the angle
    sum and the regular polygon has the largest area at a given
    circumradius.  A spread partition like (2.5, 1.5, 1.2, ...) on n=4,
    R=1 already has visibly less area than the regular square.
    """
    _check_nk(n)
    _check_radius(R)
    return _at(_thm4_rows(n, _one(R)), "1.4", n, 1, R, R)


def thm5_total_peri_lower(n: int, k: int, T: float) -> BoundResult:
    """Total perimeter of k regular cyclic n-gons with circumradii summing to T."""
    _check_nk(n, k)
    _check_radius(T, k)
    return _at(_cyclic_peri_rows(n, k, _one(T / k), "lower"), "1.5", n, k, T / k, T)


def thm6_total_peri_lower(n: int, k: int, T: float) -> BoundResult:
    """Total perimeter of k regular tangential n-gons with inradii summing to T."""
    _check_nk(n, k)
    _check_radius(T, k)
    return _at(_tangential_peri_rows(n, k, _one(T / k)), "1.6", n, k, T / k, T)


def thm7_total_area_lower(n: int, k: int, T: float) -> BoundResult:
    """Total area of k regular cyclic n-gons with circumradii summing to T.

    Lower bound, asserted only while every circumradius stays below
    thm7_radius_threshold(n): past that inflection the per-polygon area
    stops being convex in R and unequal splits can undercut the bound
    (n=6, k=2, T=6: radii (2, 4) total about 19.2 against a bound of 21.0).
    """
    _check_nk(n, k)
    _check_radius(T, k)
    return _at(_cyclic_area_rows(n, k, _one(T / k), "lower", guarded=True), "1.7", n, k, T / k, T)


def thm8_total_area_lower(n: int, k: int, T: float) -> BoundResult:
    """Total area of k regular tangential n-gons with inradii summing to T."""
    _check_nk(n, k)
    _check_radius(T, k)
    return _at(_tangential_area_rows(n, k, _one(T / k)), "1.8", n, k, T / k, T)


def thm9_total_peri_lower(n: int, k: int, T: float) -> BoundResult:
    """Total perimeter of k n-gons with areas summing to T.

    The bound is the perimeter of k regular n-gons of area T/k each; it is
    asserted only when every polygon's area clears thm9_area_threshold(n).
    """
    _check_nk(n, k)
    if not 0.0 < T < k * (n - 2) * math.pi:
        raise InvalidTotal(f"total area must lie in (0, {k}*({n}-2)*pi), got {T!r}")
    theta = ((n - 2) * math.pi - T / k) / n
    half = 0.5 * theta
    gap = 0.5 * math.pi - math.pi / n - half
    t = 2.0 * math.sin(math.pi / n + 0.5 * gap) * math.sin(0.5 * gap) / math.sin(half)
    value = 2.0 * n * k * acosh1p(t)
    threshold = thm9_area_threshold(n)
    return BoundResult(
        theorem="1.9",
        quantity="perimeter",
        kind="lower",
        n=n,
        k=k,
        param=T,
        value=value,
        feasible=T / k > threshold,
        guard_margin=T / k - threshold,
        equality_spec=RegularNGonSpec(n=n, theta=theta),
    )


def thm10_total_area_upper(n: int, k: int, T: float) -> BoundResult:
    """Total area of k n-gons with perimeters summing to T.

    The bound is the area of k regular n-gons of perimeter T/k each,
    asserted only above thm10_peri_threshold(n) per polygon.  The cosh in
    the denominator is forced by the substitution theta = 2 asin(cos(pi/n)
    / cosh(x / (2n))) from perimeter x back to interior angle: a circular
    cosine of a length is not meaningful there.
    """
    _check_nk(n, k)
    if not T > 0.0:
        raise InvalidTotal(f"total perimeter must be positive, got {T!r}")
    if T / (n * k) > LEG_MAX:
        raise OutOfRange(f"side {T / (n * k)!r} per polygon beyond {LEG_MAX}; cosh would overflow")
    value = k * (n - 2) * math.pi - 2.0 * n * k * math.asin(math.cos(math.pi / n) / math.cosh(T / (2.0 * n * k)))
    threshold = thm10_peri_threshold(n)
    return BoundResult(
        theorem="1.10",
        quantity="area",
        kind="upper",
        n=n,
        k=k,
        param=T,
        value=value,
        feasible=T / k > threshold,
        guard_margin=T / k - threshold,
        equality_spec=RegularNGonSpec(n=n, side=T / (n * k)),
    )


def reference_r_from_R(n: int, R: float) -> float:
    """Inradius of the regular cyclic n-gon: tanh r = cos(pi/n) tanh R."""
    _check_nk(n)
    _check_radius(R)
    return stable_atanh(math.cos(math.pi / n) * math.tanh(R))


def cor1_inradius_lower(n: int, R: float) -> BoundResult:
    """The printed inradius-from-circumradius expression, evaluated verbatim.

    value = asinh(tan(pi/n) / tan(2n asinh(sin(pi/n) sinh R))).  The tan is
    applied to a perimeter-sized argument, so the expression disagrees with
    reference_r_from_R; it is reported for audit, never asserted, and the
    divergence is tabulated by the report command.  Feasible only when the
    inner tan is positive.
    """
    _check_nk(n)
    _check_radius(R)
    inner = 2.0 * n * stable_asinh(math.sin(math.pi / n) * math.sinh(R))
    tv = math.tan(inner)
    value = stable_asinh(math.tan(math.pi / n) / tv) if tv != 0.0 else math.inf
    return BoundResult(
        theorem="cor1",
        quantity="inradius",
        kind="lower",
        n=n,
        k=1,
        param=R,
        value=value,
        feasible=tv > 0.0,
        guard_margin=math.inf,
        equality_spec=None,
    )


def equality_value(res: BoundResult) -> float:
    """Re-evaluate a bound's equality configuration through regular_convert.

    Returns k times the relevant metric of the recorded regular polygon;
    for a correct bound this reproduces res.value.
    """
    if res.equality_spec is None:
        raise Infeasible(f"{res.theorem} at param {res.param!r} has no equality configuration")
    m = regular_convert(res.equality_spec)
    metric = m.perimeter if res.quantity == "perimeter" else m.area
    return res.k * metric


def _record(func, param, sweep, family=None, objective=None, rows=None, spec=None, window=None,
            total=None) -> dict:
    return {"func": func, "param": param, "multi": total is not None, "family": family,
            "objective": objective, "rows": rows, "spec": spec, "window": window, "total": total,
            "sweep": sweep}


# The regular polygon a split component defines by its circumradius or
# inradius.  Split bounds whose records hold the same spec function, and
# agree on window and total, share one conversion per block of draws.
def _circumradius_spec(n: int, x) -> RegularNGonSpec:
    return RegularNGonSpec(n=n, R=x)


def _inradius_spec(n: int, x) -> RegularNGonSpec:
    return RegularNGonSpec(n=n, r=x)


def _thm9_sweep(n: int) -> tuple[float, float]:
    thr, amax = thm9_area_threshold(n), (n - 2) * math.pi
    return thr + 0.05 * (amax - thr), thr + 0.95 * (amax - thr)


def _thm9_total(n: int, k: int) -> float:
    lo, hi = thm9_area_threshold(n), (n - 2) * math.pi
    return k * (lo + 0.55 * (hi - lo))


def _thm10_sweep(n: int) -> tuple[float, float]:
    thr = thm10_peri_threshold(n)
    return 1.05 * thr, 3.0 * thr


# The one record per theorem id; the CLI, verify_bounds and the report read
# every fact about a bound from here, looking func up at call time.
#   func       the bound, func(n, p) or, when multi, func(n, k, p)
#   param      what the swept argument means; "total_area" is the only
#              angle-typed one
#   multi      the fixed-total family: k polygons share the total p
#   family     "cyclic" or "tangential" for the single-polygon bounds
#   objective  the registered optimize objective certifying the equal split
#   rows       rows(n, x): func at every radius of the array x, as BoundRows,
#              for the single-polygon bounds
#   spec       spec(n, x): the regular polygon one split component x defines
#   window     window(n): the open admissibility window of one component,
#              ended at the overflow guard of the quantity spec converts
#   total      total(n, k): the default fixed total
#   sweep      sweep(n): the report's per-polygon sweep window
THEOREMS: dict[str, dict] = {
    "1.1": _record(thm1_peri_lower, "r", lambda n: (0.1, 0.95 * tangential_radius_limit(n)),
                   family="tangential", objective="tangential_tangent_length", rows=_thm1_rows),
    "1.2": _record(thm2_peri_upper, "R", lambda n: (0.1, 2.0),
                   family="cyclic", objective="cyclic_half_side", rows=_thm2_rows),
    "1.3": _record(thm3_area_lower, "r", lambda n: (0.1, 0.95 * tangential_radius_limit(n)),
                   family="tangential", objective="tangential_interior_angle", rows=_thm3_rows),
    "1.4": _record(thm4_area_upper, "R", lambda n: (0.1, 2.0),
                   family="cyclic", objective="cyclic_half_angle", rows=_thm4_rows),
    "1.5": _record(thm5_total_peri_lower, "total_circumradius", lambda n: (0.25, 1.5),
                   objective="thm5_radius", spec=_circumradius_spec,
                   window=lambda n: (0.0, LEG_MAX), total=lambda n, k: k * 1.0),
    "1.6": _record(thm6_total_peri_lower, "total_inradius", lambda n: (0.1, 0.9 * tangential_radius_limit(n)),
                   objective="thm6_radius", spec=_inradius_spec,
                   window=lambda n: (0.0, tangential_radius_limit(n)),
                   total=lambda n, k: k * 0.5 * tangential_radius_limit(n)),
    "1.7": _record(thm7_total_area_lower, "total_circumradius", lambda n: (0.25, 1.5),
                   objective="thm7_radius", spec=_circumradius_spec,
                   window=lambda n: (0.0, thm7_radius_threshold(n)),
                   total=lambda n, k: k * 0.6 * thm7_radius_threshold(n)),
    "1.8": _record(thm8_total_area_lower, "total_inradius", lambda n: (0.1, 0.9 * tangential_radius_limit(n)),
                   objective="thm8_radius", spec=_inradius_spec,
                   window=lambda n: (0.0, tangential_radius_limit(n)),
                   total=lambda n, k: k * 0.5 * tangential_radius_limit(n)),
    "1.9": _record(thm9_total_peri_lower, "total_area", _thm9_sweep,
                   objective="thm9_theta",
                   spec=lambda n, x: RegularNGonSpec(n=n, theta=((n - 2) * math.pi - x) / n),
                   window=lambda n: (thm9_area_threshold(n), (n - 2) * math.pi), total=_thm9_total),
    "1.10": _record(thm10_total_area_upper, "total_perimeter", _thm10_sweep,
                    objective="thm10_perimeter", spec=lambda n, x: RegularNGonSpec(n=n, side=x / n),
                    window=lambda n: (thm10_peri_threshold(n), n * LEG_MAX),
                    total=lambda n, k: k * 1.5 * thm10_peri_threshold(n)),
    "cor1": _record(cor1_inradius_lower, "R", lambda n: (0.25, 1.5)),
}


def evaluate(theorem_id: str, n: int, k: int, x: float) -> BoundResult:
    """The bound theorem_id at parameter x; k counts only for the fixed-total family."""
    entry = THEOREMS[theorem_id]
    return entry["func"](n, k, x) if entry["multi"] else entry["func"](n, x)
