"""The timed benchmark process.

Imports ``calcheck.cli`` first (one ``setup_s`` sample), runs the round's
first command once untimed, then runs whole rounds of the workload's
commands in-process through ``calcheck.cli.main`` until the run length is
used up.  Each command's stdout goes to a file, as a shell redirect would
send it.  After timing, the first outputs of every command are checked
against the references, and every later execution must reproduce them
byte for byte.  The last line of stdout is a JSON summary for ``run.py``.

    python3 bench/worker.py --workload W --dir DIR --seed N --seconds S
                            --trace 0|1 --t0 T [--trace-file PATH] [--tiny]

Run it from DIR, the directory holding the workload's inputs.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calcheck.cli  # noqa: E402  (first: this import is what setup_s measures)

IMPORTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402

sys.path.insert(0, str(ROOT / "bench"))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def _gc_collections() -> int:
    return sum(s["collections"] for s in gc.get_stats())


def _digest(stdout_path: Path, out_dir: str | None) -> str:
    h = hashlib.sha256(stdout_path.read_bytes())
    if out_dir is not None and os.path.isdir(out_dir):
        for path in sorted(Path(out_dir).rglob("*")):
            if path.is_file():
                h.update(str(path).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


class Executor:
    """Runs commands in-process and keeps what the metrics and checks need."""

    def __init__(self, cmds: list, tracer: tracing.Tracer | None):
        self.cmds = cmds
        self.tracer = tracer
        self.first: list[dict | None] = [None] * len(cmds)
        self.digests: list[str | None] = [None] * len(cmds)
        self.mismatch: set[str] = set()
        self.timed: list[dict] = []
        Path("stdout").mkdir(exist_ok=True)
        Path("first").mkdir(exist_ok=True)

    def run(self, idx: int, timed: bool) -> None:
        cmd = self.cmds[idx]
        stdout_path = Path("stdout") / f"{idx}.txt"
        stderr_path = Path("stdout") / f"{idx}.err"
        gc.collect()
        gc0 = _gc_collections()
        rchar0 = tracing.read_rchar() if self.tracer else 0
        error, code = None, None
        with open(stdout_path, "w") as out, open(stderr_path, "w") as err, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if self.tracer:
                self.tracer.begin_command()
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                code = calcheck.cli.main(list(cmd.argv))
            except SystemExit as exc:  # argparse rejects the argv
                error = f"SystemExit: {exc.code}"
            except Exception as exc:  # a crash is a failed command, counted
                error = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
            ok = error is None and code in (0, 1)
            if self.tracer:
                self.tracer.end_command(keep=ok and timed)
        rchar = tracing.read_rchar() - rchar0 if self.tracer else 0
        gcs = _gc_collections() - gc0
        if error is None and not ok:
            error = f"exit code {code}: {stderr_path.read_text().strip()}"

        digest = _digest(stdout_path, cmd.out_dir)
        if self.first[idx] is None:
            self.first[idx] = {"ok": ok, "error": error, "exit_code": code}
            self.digests[idx] = digest
            dest = Path("first") / str(idx)
            dest.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(stdout_path, dest / "stdout.txt")
            if cmd.out_dir is not None and os.path.isdir(cmd.out_dir):
                shutil.copytree(cmd.out_dir, dest / "out", dirs_exist_ok=True)
        elif digest != self.digests[idx]:
            self.mismatch.add(cmd.name)
        if timed:
            self.timed.append({"name": cmd.name, "ok": ok, "error": error, "start": t0,
                               "wall": wall,
                               "cpu": cpu, "gc": gcs, "rchar": rchar,
                               "records": cmd.records if ok else 0,
                               "input_bytes": (os.path.getsize(cmd.input_file)
                                               if cmd.input_file else 0)})


def _per_command(runs: list[dict], key: str) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for r in runs:
        out.setdefault(r["name"], []).append(r[key])
    return out


def layer_metrics(tracer: tracing.Tracer, ok_runs: list[dict]) -> dict:
    """Per-command means of each layer's self time and counts."""
    n = len(ok_runs)
    metrics = {}
    layer_names = sorted({layer for layer, *_ in tracing.LAYERS} | {tracing.COMMAND})
    for layer in layer_names:
        self_s = tracer.totals.get(layer, [0, 0.0, 0.0])[2]
        metrics[f"{layer}_s"] = self_s / n
    for counter in ("cli.records_parsed", "cli.bytes_written", "cli.report_bytes",
                    "seqtest.steps", "sim.records_simulated"):
        metrics[counter] = tracer.counts.get(counter, 0) / n
    with_input = [r for r in ok_runs if r["input_bytes"]]
    read = sum(r["rchar"] for r in with_input)
    size = sum(r["input_bytes"] for r in with_input)
    metrics["cli.read_amplification"] = read / size if size else 0.0
    metrics["proc.gc_collections"] = sum(r["gc"] for r in ok_runs) / n
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="timed benchmark process")
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace-file", default=None)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    src = (ROOT / "src").resolve()
    if Path(calcheck.cli.__file__).resolve().parent.parent != src:
        print(f"calcheck was imported from {calcheck.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    setup_s = IMPORTED - args.t0
    os.chdir(args.dir)
    sizes = wl.TINY if args.tiny else wl.FULL
    cmds = wl.commands(args.workload, sizes, args.seed)

    tracer = tracing.Tracer() if args.trace else None
    saved = tracer.install({"cli": calcheck.cli, "metric": calcheck.metric,
                            "sim": calcheck.sim}) if tracer else []
    ex = Executor(cmds, tracer)
    ex.run(0, timed=False)  # warm-up
    rounds = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        for idx in range(len(cmds)):
            ex.run(idx, timed=True)
        rounds += 1
        if time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracing.Tracer.uninstall(saved)

    import reference  # after timing: the checks are not measured

    (Path("first") / "results.json").write_text(json.dumps(ex.first))
    problems = reference.check(reference.Run(Path("."), args.workload, sizes, args.seed),
                               args.workload)
    problems += [f"{name}: output differs between executions" for name in sorted(ex.mismatch)]

    ok_runs = [r for r in ex.timed if r["ok"]]
    failures = {}
    for r in ex.timed:
        if not r["ok"]:
            failures.setdefault(r["name"], r["error"].splitlines()[0][:300])
    result = {
        "correct": not problems,
        "problems": problems,
        "rounds": rounds,
        "attempted": len(ex.timed),
        "failed": len(ex.timed) - len(ok_runs),
        "failures": failures,
        "setup_s": setup_s,
        "walls": _per_command(ok_runs, "wall"),
        "cpus": _per_command(ok_runs, "cpu"),
        "timeline": [(round(r["start"] - ex.timed[0]["start"], 4), r["name"], r["wall"],
                      r["cpu"], r["ok"]) for r in ex.timed],
        "records": {c.name: c.records for c in cmds},
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        if ok_runs:
            result["layers"] = layer_metrics(tracer, ok_runs)
        if args.trace_file:
            tracer.write(Path(args.trace_file))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
