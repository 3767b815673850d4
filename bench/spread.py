"""Run-to-run spread of the end-to-end metrics, and how the bounds follow.

Measure one set of runs (each run a fresh ``bench/run.py`` process with its
own seed; the runs of one workload back to back, one process at a time):

    python3 bench/spread.py measure --runs 10 --first-seed 100 --out A.json

Compare two sets against the bounds in BENCHMARK.json, the way a set of
runs of a later change is compared with its parent's:

    python3 bench/spread.py compare A.json B.json [--write bench/spread.json]

For each workload and metric the spread is the distance between the first
and third quartiles (``statistics.quantiles(values, n=4)``) as a share of
the median.  A set passes when every spread except ``setup_s``'s is within
the metric's bound, every median of the second set is no worse than the
first by more than the bound, and the failed share is identical.
``bound_from_spread`` is the rule that set the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# Bounds: three times the widest spread seen in two sets of ten runs,
# rounded up to a hundredth, at least FLOOR and at most CAP (the largest
# bound a benchmark may set is 0.25, which setup_s takes).
FLOOR, CAP, SETUP_BOUND = 0.05, 0.24, 0.25


def bound_from_spread(widest: float) -> float:
    return min(CAP, max(FLOOR, math.ceil(300 * widest) / 100))


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure(runs: int, first_seed: int, seconds: float, workloads: list[str]) -> dict:
    data = {w: [] for w in workloads}
    for w in workloads:
        for i in range(runs):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", w,
                 "--seed", str(first_seed + i), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
            if proc.returncode != 0:
                raise SystemExit(f"{w} seed {first_seed + i}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            data[w].append(result)
            values = {k: round(m["value"], 5) for k, m in result["metrics"].items()}
            print(w, first_seed + i, result["correct"], result["attempted"], result["failed"],
                  values, flush=True)
    return data


def summarize(runs: list[dict]) -> dict:
    out = {"correct": all(r["correct"] for r in runs),
           "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
           "metrics": {}}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out["metrics"][name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                                "spread": spread(values), "n": len(values)}
    return out


def compare(a: dict, b: dict, spec: dict) -> tuple[bool, dict]:
    """Verdicts of set ``b`` against set ``a`` under the bounds of ``spec``."""
    ok = True
    table = {}
    for w in spec["workloads"]:
        name = w["name"]
        sa, sb = summarize(a[name]), summarize(b[name])
        rows = {}
        same_failures = sa["failed_share"] == sb["failed_share"] and len(sa["failed_share"]) == 1
        ok &= same_failures and sa["correct"] and sb["correct"]
        for m in spec["end_to_end"]:
            metric, bound = m["name"], m["bound"]
            ma, mb = sa["metrics"][metric], sb["metrics"][metric]
            worse = ((mb["median"] - ma["median"]) / ma["median"] if m["better"] == "lower"
                     else (ma["median"] - mb["median"]) / ma["median"])
            spread_ok = metric == "setup_s" or max(ma["spread"], mb["spread"]) <= bound
            row_ok = spread_ok and worse <= bound
            ok &= row_ok
            rows[metric] = {"bound": bound, "median_a": ma["median"], "median_b": mb["median"],
                            "spread_a": ma["spread"], "spread_b": mb["spread"],
                            "worse_share": worse, "ok": row_ok}
        table[name] = {"failed_share": sa["failed_share"], "same_failed_share": same_failures,
                       "metrics": rows}
    return ok, table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    m = sub.add_parser("measure")
    m.add_argument("--runs", type=int, default=10)
    m.add_argument("--first-seed", type=int, default=100)
    m.add_argument("--out", required=True)
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    c.add_argument("--write", default=None)
    args = ap.parse_args(argv)
    spec = benchmark_spec()
    if args.cmd == "measure":
        names = [w["name"] for w in spec["workloads"]]
        data = measure(args.runs, args.first_seed, spec["run_seconds"], names)
        Path(args.out).write_text(json.dumps(data) + "\n")
        for w in names:
            s = summarize(data[w])
            print(w, {k: f"median {v['median']:.5g} spread {v['spread']:.4f}"
                      for k, v in s["metrics"].items()})
        return 0
    a = json.loads(Path(args.a).read_text())
    b = json.loads(Path(args.b).read_text())
    ok, table = compare(a, b, spec)
    for w, row in table.items():
        print(f"{w}: failed share {row['failed_share']}")
        for metric, r in row["metrics"].items():
            print(f"  {metric:14s} bound {r['bound']:.2f}  median {r['median_a']:.5g} -> "
                  f"{r['median_b']:.5g} ({r['worse_share']:+.4f} worse)  spread "
                  f"{r['spread_a']:.4f} / {r['spread_b']:.4f}  {'ok' if r['ok'] else 'FAIL'}")
    if args.write:
        Path(args.write).write_text(json.dumps({"ok": ok, "workloads": table}, indent=1) + "\n")
    print("verdict:", "within bounds" if ok else "OUTSIDE bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
