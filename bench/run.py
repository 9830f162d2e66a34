"""hypergon benchmark: one workload, one seed, one process, one thread.

    python3 bench/run.py --workload report|verify|certify --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark imports the package from
src/, repeats whole passes of the workload until the next pass would end
after S seconds (at least one pass), checks every verdict of every pass and
prints, as its last line, one JSON object with the keys correct, attempted,
failed and metrics.  attempted counts verdicts checked and failed counts
the wrong ones, so failed / attempted is the error rate.

--trace 0 gives the end-to-end metrics.  Every pass of a run repeats the
same work, so each pass is cut into pieces at the start and end of its
verdict calls, and each piece is timed at its fastest across the passes,
the way timeit takes the best of its repeats.  On a shared 2-vCPU host the
same work runs up to 1.8x slower while other tenants are busy, in spells
of seconds; the fastest of each ~0.1 s piece is about twice as steady as
the fastest whole pass.
  setup_s        fastest of 7 fresh interpreters importing hypergon.cli and
                 running one `hypergon bounds` call through cli.main (their
                 median moved by 27% between two 10-run sets)
  wall_s         one pass, first call to last verdict, as the sum of its
                 pieces' fastest times
  trials_per_s   random draws checked per pass over wall_s; on certify,
                 where the only draws are the optimizer's starts, solves
  solve_ms.p50/.p75
                 quartiles of the verdict calls' fastest times:
                 solve_equal_sum on certify, verify_theorem on verify, both
                 on report (42 calls)
  peak_rss_mb    peak resident memory of this process

--trace 1 runs one untraced pass, then traced passes (see tracing.py), and
gives the per-layer metrics.  The untraced and traced verdicts must match.

At the default seed every verdict is also compared with golden.json.
`--record-golden` rewrites that file from one pass of each workload.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy is imported, here and in children.
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
SETUP_SAMPLES = 7

SETUP_CODE = """
import io, time
from contextlib import redirect_stdout
t0 = time.perf_counter()
import hypergon.cli
with redirect_stdout(io.StringIO()):
    code = hypergon.cli.main(["bounds", "--thm", "1.2", "--range", "1:1:1"])
dt = time.perf_counter() - t0
print(repr(dt) if code == 0 else "failed")
"""


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=("report", "verify", "certify"))
    p.add_argument("--seed", type=lambda s: int(s, 0))
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-golden", action="store_true",
                   help="rewrite golden.json from one pass of each workload at the default seed")
    args = p.parse_args(argv)
    if not args.record_golden and (args.workload is None or args.seed is None):
        p.error("--workload and --seed are required")
    return args


def setup_times() -> list[float]:
    """Import-and-first-command times of fresh interpreters; the first,
    which may compile bytecode and warm the file cache, is dropped."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True).stdout
        if i:
            times.append(float(out))
    return times


def manifest(args) -> dict:
    import numpy

    git_sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        git_sha = res.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "hypergon").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "seed": args.seed,
        "argv": sys.argv,
        "thread_pins": THREAD_PINS,
    }


def run_passes(one_pass, seconds: float) -> list:
    """Call one_pass at least once, and again while the next call would
    likely end within `seconds` of the first."""
    results, walls, start = [], [], perf_counter()
    while True:
        t0 = perf_counter()
        results.append(one_pass())
        walls.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(walls) > seconds:
            return results


def check_passes(passes, golden, failures: dict) -> tuple[int, int]:
    """Count verdicts and wrong ones over all passes, recording why."""
    import checker

    attempted = failed = 0
    for i, p in enumerate(passes):
        wrong = checker.wrong_verdicts(p.verdicts, golden)
        attempted += len(p.verdicts)
        failed += len(wrong)
        if wrong:
            failures[f"pass {i} wrong"] = wrong
        if i:
            drift = checker.drifted(passes[0].verdicts, p.verdicts)
            drift += sorted(f"file {n}" for n in p.files.keys() | passes[0].files.keys()
                            if p.files.get(n) != passes[0].files.get(n))
            failed += len(drift)
            if drift:
                failures[f"pass {i} drifted from pass 0"] = drift
    return attempted, failed


def end_to_end(passes, setup: list[float]) -> dict:
    fastest = [min(times) for times in zip(*(p.pieces for p in passes))]
    wall = math.fsum(fastest)
    _, p50, p75 = statistics.quantiles(fastest[1::2], n=4)
    return {
        "wall_s": (wall, "s"),
        "trials_per_s": (passes[0].draws / wall, "1/s"),
        "solve_ms.p50": (1e3 * p50, "ms"),
        "solve_ms.p75": (1e3 * p75, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (min(setup), "s"),
    }


def per_layer(base, traced) -> dict:
    from tracing import COUNT_NAMES, SPANS

    tracers = [tr for _, tr in traced]
    first = tracers[0]
    out = {}
    for span in SPANS:
        self_s = statistics.median(tr.self_s[span] for tr in tracers)
        calls = first.calls[span]
        if span == "cli":
            out["cli.self_s"] = (self_s, "s")
            continue
        out[f"{span}.calls"] = (calls, "count")
        out[f"{span}.self_s"] = (self_s, "s")
        out[f"{span}.per_call_us"] = (1e6 * self_s / calls if calls else 0.0, "us")
    for name in COUNT_NAMES:
        out[name] = (first.counts[name], "count")
    out["optimize.verify.asserted_ratio"] = (first.asserted / first.trials if first.trials else 0.0, "ratio")
    traced_wall = statistics.median(p.wall_s for p, _ in traced)
    out["trace.overhead_ratio"] = (traced_wall / base.wall_s, "ratio")
    return out


def record_golden() -> int:
    import checker
    import workloads
    from hypergon.optimize import DEFAULT_SEED

    golden = {}
    for name, fn in workloads.WORKLOADS.items():
        p = fn(DEFAULT_SEED, SCRATCH)
        unsound = [v.key for v in p.verdicts if not v.ok]
        if unsound:
            print(f"refusing to record unsound verdicts in {name}: {unsound}", file=sys.stderr)
            return 1
        golden[name] = {v.key: v.facts for v in p.verdicts}
        if name == "report":
            golden["report_bundle_sha256"] = p.files
            golden["report_battery_lines"] = p.battery
    checker.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {checker.GOLDEN_PATH}")
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "hypergon" / "__init__.py").is_file():
        print(f"error: no hypergon package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    SCRATCH.mkdir(exist_ok=True)
    try:
        return _run(args)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)


def _run(args) -> int:
    import checker
    import workloads
    from hypergon import optimize
    from tracing import Tracer

    if args.record_golden:
        return record_golden()

    self_test = checker.self_test(optimize)
    if any(counted != injected for counted, injected in self_test.values()):
        print(f"error: checker self-test miscounted (counted, injected): {self_test}", file=sys.stderr)
        return 3

    fn = workloads.WORKLOADS[args.workload]
    golden = None
    changed: list[str] = []
    failures: dict[str, list[str]] = {}
    if args.seed == optimize.DEFAULT_SEED:
        full = checker.load_golden()
        golden = full[args.workload]

    def one_pass():
        return fn(args.seed, SCRATCH)

    if args.trace:
        start = perf_counter()
        base = one_pass()

        def traced_pass():
            with Tracer() as tr:
                p = one_pass()
            return p, tr

        traced = run_passes(traced_pass, args.seconds - (perf_counter() - start))
        passes = [base] + [p for p, _ in traced]
        counts = [tr.exact_counts() for _, tr in traced]
        drift = sorted(k for c in counts[1:] for k in c if c[k] != counts[0][k])
        if drift:
            failures["trace counts drifted between passes"] = drift
        metrics = per_layer(base, traced)
    else:
        setup = setup_times()
        passes = run_passes(one_pass, args.seconds)
        drift = []
        metrics = end_to_end(passes, setup)

    attempted, failed = check_passes(passes, golden, failures)
    failed += len(drift)
    if golden is not None and args.workload == "report":
        p = passes[0]
        changed = sorted(n for n in full["report_bundle_sha256"].keys() | p.files.keys()
                         if full["report_bundle_sha256"].get(n) != p.files.get(n))
        changed += sorted(k for k, line in full["report_battery_lines"].items() if p.battery.get(k) != line)

    print(json.dumps({"manifest": manifest(args)}))
    print(json.dumps({
        "workload": args.workload, "passes": len(passes), "verdicts_per_pass": len(passes[0].verdicts),
        "error_rate": failed / attempted, "golden_checked": golden is not None,
        "bytes_changed_not_failed": changed, "failures": failures,
        "checker_self_test": {case: counted for case, (counted, _) in self_test.items()},
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
