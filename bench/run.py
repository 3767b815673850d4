"""calcheck benchmark: seeded workloads through ``calcheck.cli.main``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

One run of a workload is, in order and each in its own process:

1. ``bench/inputs.py`` writes the input files from the seed;
2. two fresh interpreters import ``calcheck.cli`` (``setup_s`` samples);
3. ``bench/worker.py`` imports ``calcheck.cli`` (a third sample), runs one
   untimed warm-up command, runs whole rounds of the workload's commands
   for ``--seconds`` seconds and checks every output against references.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics (spans around calls into each calcheck module, plus
``-X importtime`` costs) with ``--trace 1``.  Results and trace files go to
``bench/work/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_PROCESSES = 2  # fresh interpreters besides the worker
IMPORT_SNIPPET = "import time, calcheck.cli; print(repr(time.perf_counter()))"

END_TO_END_UNITS = {"setup_s": "s", "decision_s": "s", "records_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name in ("cli.bytes_written", "cli.report_bytes"):
        return "B"
    if name == "cli.read_amplification":
        return "ratio"
    return "count"


def command_time(walls: list[float]) -> float:
    """One command's figure for a run: the 95th percentile of its wall times.

    Other tenants of the machine slow every command by 1.3-1.9x for
    stretches of seconds to minutes.  A run's median moves with the share
    of slowed time it happened to see; a high percentile stays with the
    slowed regime unless a run sees almost none of it.
    """
    if len(walls) == 1:
        return walls[0]
    return statistics.quantiles(walls, n=20, method="inclusive")[-1]


class BenchError(Exception):
    pass


def _run(cmd: list[str], timeout: float, **kwargs) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(cmd, timeout=timeout, stdout=subprocess.PIPE, text=True, **kwargs)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out after {timeout:.0f} s: {' '.join(cmd)}") from None
    if proc.returncode != 0:
        raise BenchError(f"exit code {proc.returncode}: {' '.join(cmd)}")
    return proc


def setup_sample(env: dict, importtime: bool) -> tuple[float, dict]:
    """Seconds from spawning an interpreter until it has imported calcheck.cli."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", IMPORT_SNIPPET]
    t0 = time.perf_counter()
    proc = _run(cmd, 60, env=env, cwd=ROOT, stderr=subprocess.PIPE)
    imported = float(proc.stdout.strip().splitlines()[-1])
    return imported - t0, (tracing.parse_importtime(proc.stderr) if importtime else {})


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 keep: bool = False) -> dict:
    """One run; returns the result object printed as the last line."""
    if not (SRC / "calcheck" / "cli.py").is_file():
        raise BenchError(f"no calcheck sources under {SRC}")
    compileall.compile_dir(str(SRC / "calcheck"), quiet=1)  # every run imports from .pyc
    env = dict(os.environ, PYTHONPATH=str(SRC))
    workdir = WORK / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    tiny_flag = ["--tiny"] if tiny else []
    try:
        _run([sys.executable, str(BENCH / "inputs.py"), workload, str(seed), str(workdir),
              *tiny_flag], 120, env=env)
        setups, imports = [], []
        for _ in range(SETUP_PROCESSES):
            s, imp = setup_sample(env, importtime=trace)
            setups.append(s)
            imports.append(imp)
        trace_file = WORK / "traces" / f"{workload}-s{seed}.json"
        t0 = time.perf_counter()
        proc = _run([sys.executable, str(BENCH / "worker.py"), "--workload", workload,
                     "--dir", str(workdir), "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", str(int(trace)), "--t0", repr(t0),
                     "--trace-file", str(trace_file), *tiny_flag],
                    seconds + 150, env=env, cwd=workdir)
        worker = json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        if not keep:
            shutil.rmtree(workdir, ignore_errors=True)

    setups.append(worker["setup_s"])
    per_command = {name: command_time(w) for name, w in worker["walls"].items()}
    if trace:
        values = dict(worker.get("layers", {}))
        if per_command:
            values["trace.decision_s"] = statistics.fmean(per_command.values())
            values["proc.cpu_s"] = statistics.fmean(command_time(c)
                                                    for c in worker["cpus"].values())
        for key, name in (("numpy", "import.numpy_s"), ("scipy.stats", "import.scipy_stats_s"),
                          ("scipy.linalg", "import.scipy_linalg_s"),
                          ("calcheck", "import.calcheck_s")):
            values[name] = statistics.median(imp[key] for imp in imports)
        metrics = {k: {"value": v, "unit": layer_units(k)} for k, v in sorted(values.items())}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "decision_s": statistics.fmean(per_command.values()) if per_command else 0.0,
            "records_per_s": (sum(worker["records"][n] for n in per_command)
                              / sum(per_command.values()) if per_command else 0.0),
            "peak_rss_mb": worker["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    detail = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "tiny": tiny, "setup_samples": setups, "rounds": worker["rounds"],
              "command_p95": per_command, "timeline": worker["timeline"],
              "failures": worker["failures"],
              "problems": worker["problems"], "metrics": metrics}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-s{seed}-t{int(trace)}.json").write_text(json.dumps(detail, indent=1))
    return {"correct": worker["correct"], "attempted": worker["attempted"],
            "failed": worker["failed"], "metrics": metrics, "_detail": detail,
            "_workdir": str(workdir)}


def report(result: dict) -> None:
    """Human-readable lines for one run (stdout, before the JSON line)."""
    d = result["_detail"]
    print(f"{d['workload']} seed={d['seed']} rounds={d['rounds']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    for name, err in d["failures"].items():
        print(f"  failed: {name}: {err}")
    for p in d["problems"]:
        print(f"  PROBLEM: {p}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs (the fast tests)")
    ap.add_argument("--keep", action="store_true", help="keep the run directory")
    args = ap.parse_args(argv)
    # a terminated run still stops its child process (subprocess.run kills it)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    out = {}
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                  tiny=args.tiny, keep=args.keep)
            report(result)
            if args.keep:
                print(f"  kept: {result['_workdir']}")
            out[name] = {k: v for k, v in result.items() if not k.startswith("_")}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out[names[0]] if len(names) == 1 else out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
