"""Run-to-run spread of the end-to-end metrics across workload seeds.

    python3 bench/spread.py --workloads report verify certify --seeds 1 2 3 [--seconds S] [--out bench/spread.json]

Runs bench/run.py once per (workload, seed), one run at a time, and prints
for each metric the median of the runs and the distance between their
first and third quartiles as a share of that median, the figure each
metric's bound in BENCHMARK.json must stay well above.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: float) -> tuple[dict, float]:
    """The result line of one run, and how long the run took end to end."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True).stdout
    return json.loads(out.strip().splitlines()[-1]), perf_counter() - t0


def summarize(runs: list[tuple[dict, float]]) -> dict:
    results = [r for r, _ in runs]
    summary = {
        "runs": len(results),
        "all_correct": all(r["correct"] for r in results),
        "longest_run_s": max(t for _, t in runs),
        "metrics": {},
    }
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        summary["metrics"][name] = {
            "median": med, "iqr_share": (q3 - q1) / med, "values": values,
        }
    return summary


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", nargs="+", default=["report", "verify", "certify"])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--seconds", type=float, default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--out", type=Path, help="also write the summary here as JSON")
    args = p.parse_args()
    table = {}
    for workload in args.workloads:
        results = [run_once(workload, seed, args.seconds) for seed in args.seeds]
        table[workload] = summarize(results)
        print(f"{workload:8s} correct {table[workload]['all_correct']}"
              f"  longest run {table[workload]['longest_run_s']:.1f} s", flush=True)
        for name, m in table[workload]["metrics"].items():
            print(f"{workload:8s} {name:14s} median {m['median']:12.6g}  iqr/median {m['iqr_share']:7.2%}"
                  f"  range {min(m['values']):.6g}..{max(m['values']):.6g}", flush=True)
    if args.out:
        doc = {"seconds": args.seconds, "seeds": args.seeds, "workloads": table}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
