"""Outside-in tracing of the hypergon modules, installed from the benchmark.

Nothing under src/ knows about tracing.  `Tracer` replaces public functions
with timing wrappers while it is active and restores them on exit.  A name
bound with `from .hypmath import acosh1p` is a separate reference in the
importing module, so every hypergon module attribute that *is* a wrapped
function gets the wrapper, and so does every entry of `bounds.THEOREMS`.

A span's self time is its wall time minus the time of the spans it called.
Counters only count calls; their time stays with the caller's span.
"""

from __future__ import annotations

import dataclasses
import sys
from time import perf_counter

# span name -> (module, public functions whose calls make up the span)
SPANS: dict[str, tuple[str, tuple[str, ...]]] = {
    "hypmath.kernel": ("hypmath", (
        "stable_asinh", "stable_atanh", "acosh1p", "coshm1", "acos_snapped",
        "hyp_hypotenuse", "angle_from_sides",
    )),
    "hypmath.regular_convert": ("hypmath", ("regular_convert",)),
    "polygon.sector": ("polygon", (
        "cyclic_half_side", "cyclic_half_angle",
        "tangential_tangent_length", "tangential_interior_angle",
    )),
    "polygon.perimeter": ("polygon", ("perimeter",)),
    "polygon.area": ("polygon", ("area",)),
    "hmodel.embed": ("hmodel", ("embed",)),
    "hmodel.measure": ("hmodel", ("measured_perimeter", "measured_area", "measured_interior_angles")),
    "bounds.eval": ("bounds", (
        "thm1_peri_lower", "thm2_peri_upper", "thm3_area_lower", "thm4_area_upper",
        "thm5_total_peri_lower", "thm6_total_peri_lower", "thm7_total_area_lower",
        "thm8_total_area_lower", "thm9_total_peri_lower", "thm10_total_area_upper",
        "cor1_inradius_lower", "reference_r_from_R", "equality_value",
        "area_radius_limit", "thm7_radius_threshold", "thm9_area_threshold", "thm10_peri_threshold",
    )),
    "optimize.trial_rng": ("optimize", ("trial_rng",)),
    "optimize.sampling": ("optimize", (
        "random_partition", "random_cyclic_polygon", "random_tangential_polygon", "random_split",
    )),
    "optimize.verify": ("optimize", ("verify_theorem",)),
    "optimize.solve": ("optimize", ("solve_equal_sum",)),
    "optimize.grid_oracle": ("optimize", ("grid_oracle",)),
    "optimize.certify_convexity": ("optimize", ("certify_convexity",)),
    "cli": ("cli", ("main",)),
}

# counter name -> (module, function); calls are counted, not timed
COUNTERS: dict[str, tuple[str, str]] = {
    "hypmath.tangential_radius_limit.calls": ("hypmath", "tangential_radius_limit"),
    "hmodel.dist.calls": ("hmodel", "dist"),
}

# Every per-layer metric a traced pass reports, in output order.
COUNT_NAMES = (
    "hypmath.tangential_radius_limit.calls",
    "hmodel.dist.calls",
    "optimize.descent_iterations",
    "optimize.objective_evals",
    "optimize.grid_oracle.evaluations",
)


def _hypergon_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "hypergon" or name.startswith("hypergon."))]


def _module(short: str):
    return sys.modules["hypergon." + short]


class Tracer:
    """Context manager: wrap the traced functions, collect spans and counts."""

    def __init__(self):
        self.calls = {name: 0 for name in SPANS}
        self.self_s = {name: 0.0 for name in SPANS}
        self.counts = {name: 0 for name in COUNT_NAMES}
        self.asserted = 0
        self.trials = 0
        # child-time accumulators; [0] collects time spent in top-level spans
        self._stack = [0.0]
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, span: str, fn, on_result=None):
        stack = self._stack
        calls, self_s = self.calls, self.self_s

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                calls[span] += 1
                self_s[span] += dt - child
                stack[-1] += dt
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def _counter(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _on_verify(self, rep) -> None:
        self.asserted += rep.asserted
        self.trials += rep.trials

    def _on_solve(self, rep) -> None:
        self.counts["optimize.descent_iterations"] += rep.iterations

    def _on_grid(self, res) -> None:
        self.counts["optimize.grid_oracle.evaluations"] += res.evaluations

    def _make_problem(self, fn):
        counter = self._counter

        def counting_make_problem(*args, **kwargs):
            problem = fn(*args, **kwargs)
            return dataclasses.replace(problem, f=counter("optimize.objective_evals", problem.f))

        return counting_make_problem

    # -- install / restore ------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod in _hypergon_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        for entry in _module("bounds").THEOREMS.values():
            if entry["func"] is original:
                self._undo.append((entry, "func", original))
                entry["func"] = wrapper

    def __enter__(self) -> "Tracer":
        hooks = {
            "verify_theorem": self._on_verify,
            "solve_equal_sum": self._on_solve,
            "grid_oracle": self._on_grid,
        }
        for span, (short, names) in SPANS.items():
            mod = _module(short)
            for name in names:
                fn = getattr(mod, name)
                self._replace_everywhere(fn, self._span(span, fn, hooks.get(name)))
        for counter, (short, name) in COUNTERS.items():
            fn = getattr(_module(short), name)
            self._replace_everywhere(fn, self._counter(counter, fn))
        make_problem = _module("optimize").make_problem
        self._replace_everywhere(make_problem, self._make_problem(make_problem))
        return self

    def __exit__(self, *exc) -> None:
        for target, attr, original in reversed(self._undo):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def exact_counts(self) -> dict[str, float]:
        """Every count a traced pass makes; equal passes give equal dicts."""
        out = {f"{span}.calls": self.calls[span] for span in SPANS}
        out.update(self.counts)
        out["optimize.verify.asserted"] = self.asserted
        out["optimize.verify.trials"] = self.trials
        return out
