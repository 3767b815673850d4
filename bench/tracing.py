"""Spans and counts around the calls into calcheck's layers.

A wrapper is installed on the module attribute a caller looks a function up
by (``calcheck.cli.pit``, ``calcheck.metric.pit``, ...), so the program's
code is not touched.  Each call records a span (id, parent, name, start,
end); a layer's self time is its spans' duration minus the part covered by
child spans.  Generators (``iter_records``) get one span per ``next()``, so
lazy ingest is charged where it runs.  Spans are kept in memory up to a cap
and written out at the end; per-layer totals cover every span.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path


def _one(args, result):
    return 1


def _length(args, result):
    return len(result)


def _file_size(args, result):
    return os.path.getsize(args[1])


def _report_size(args, result):
    run, out_dir = args
    if out_dir is None:
        return 0
    names = ["report.json"] + [f"{name}.csv" for name in run.curves]
    return sum(os.path.getsize(Path(out_dir) / name) for name in names)


# (layer, module attribute the wrapper replaces, counter, its measure, kind)
# kind is "call" for a function and "gen" for a generator function.
LAYERS = (
    ("cli.sniff_model_kind", "cli.sniff_model_kind", None, None, "call"),
    ("cli.parse_records", "cli.parse_records", None, None, "call"),
    ("cli.iter_records", "cli.iter_records", "cli.records_parsed", None, "gen"),
    ("cli.write_records", "cli.write_records", "cli.bytes_written", _file_size, "call"),
    ("cli.render", "cli._write_outputs", "cli.report_bytes", _report_size, "call"),
    ("cli.render", "cli._render_summary", None, None, "call"),
    ("cli.run_monitor", "cli.run_monitor", None, None, "call"),
    ("metric.pit", "cli.pit", None, None, "call"),
    ("metric.pit", "metric.pit", None, None, "call"),
    ("metric.coverage_counts", "cli.coverage_counts", None, None, "call"),
    ("metric.variance_bin", "cli.variance_bin", None, None, "call"),
    ("metric.halfplane_coverage", "cli.halfplane_coverage", None, None, "call"),
    ("hyptest.coverage_binomial_report", "cli.coverage_binomial_report", None, None, "call"),
    ("hyptest.ks_test", "cli.ks_test", None, None, "call"),
    ("seqtest.monitor_step_gaussian", "cli.monitor_step_gaussian", "seqtest.steps", _one, "call"),
    ("seqtest.monitor_step_halfplane", "cli.monitor_step_halfplane", "seqtest.steps", _one,
     "call"),
    ("seqtest.monitor_step_halfplane", "sim.monitor_step_halfplane", "seqtest.steps", _one,
     "call"),
    ("sim.run_weather_sim", "cli.run_weather_sim", "sim.records_simulated", _length, "call"),
    ("sim.run_robot_sim", "cli.run_robot_sim", "sim.records_simulated", _length, "call"),
    ("sim.run_robot_sim", "sim.run_robot_sim", "sim.records_simulated", _length, "call"),
    ("sim.drift_sweep", "cli.drift_sweep", None, None, "call"),
)
COMMAND = "cli.other"  # the whole command; its self time is what no layer covers
MAX_SPANS = 50_000  # spans kept for the trace file; totals cover every span


class Tracer:
    """Span recorder with per-command totals.

    ``begin_command``/``end_command`` bracket one command; the totals of a
    command are merged into the run totals only when the caller keeps it
    (failed commands are left out, as they are from the end-to-end figures).
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._cmd: dict[str, list] = {}
        self._cmd_counts: dict[str, float] = {}
        self.totals: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}

    # -- spans -------------------------------------------------------------
    def enter(self, name: str) -> None:
        self._next_id += 1
        parent = self._stack[-1][3] if self._stack else 0
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id, parent])

    def exit(self) -> None:
        end = time.perf_counter()
        name, start, child, sid, parent = self._stack.pop()
        dur = end - start
        tot = self._cmd.setdefault(name, [0, 0.0, 0.0])
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if len(self.spans) < MAX_SPANS:
            self.spans.append((sid, parent, name, start, end))
        else:
            self.dropped += 1

    def count(self, name: str, n: float = 1) -> None:
        self._cmd_counts[name] = self._cmd_counts.get(name, 0) + n

    # -- commands ----------------------------------------------------------
    def begin_command(self) -> None:
        self._cmd = {}
        self._cmd_counts = {}
        self._stack = []
        self.enter(COMMAND)

    def end_command(self, keep: bool) -> None:
        while self._stack:  # an exception may leave spans open
            self.exit()
        if not keep:
            return
        for name, (calls, total, self_s) in self._cmd.items():
            tot = self.totals.setdefault(name, [0, 0.0, 0.0])
            tot[0] += calls
            tot[1] += total
            tot[2] += self_s
        for name, n in self._cmd_counts.items():
            self.counts[name] = self.counts.get(name, 0) + n

    # -- wrappers ----------------------------------------------------------
    def wrap_call(self, name, fn, counter=None, measure=None):
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if counter is not None:
                self.count(counter, measure(args, result))
            return result
        return traced

    def wrap_gen(self, name, fn, counter):
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    self.enter(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self.exit()
                    self.count(counter)
                    yield item
            finally:
                gen.close()
        return traced

    def install(self, modules: dict) -> list:
        """Wrap every layer entry point; returns what ``uninstall`` needs."""
        saved = []
        for name, attr, counter, measure, kind in LAYERS:
            mod_name, fn_name = attr.split(".")
            mod = modules[mod_name]
            fn = getattr(mod, fn_name)
            saved.append((mod, fn_name, fn))
            wrapper = (self.wrap_gen(name, fn, counter) if kind == "gen"
                       else self.wrap_call(name, fn, counter, measure))
            setattr(mod, fn_name, wrapper)
        return saved

    @staticmethod
    def uninstall(saved: list) -> None:
        for mod, fn_name, fn in reversed(saved):
            setattr(mod, fn_name, fn)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "spans": [{"id": s, "parent": p, "name": n, "start": a, "end": b}
                      for s, p, n, a, b in self.spans],
            "dropped_spans": self.dropped,
            "totals": {k: {"calls": c, "total_s": t, "self_s": s}
                       for k, (c, t, s) in sorted(self.totals.items())},
            "counts": self.counts,
        }) + "\n")


def read_rchar() -> int:
    """Bytes this process has read through read() and friends (Linux)."""
    with open("/proc/self/io") as handle:
        for line in handle:
            if line.startswith("rchar:"):
                return int(line.split()[1])
    raise OSError("no rchar in /proc/self/io")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Import costs from ``python -X importtime`` output, in seconds.

    Returns the cumulative time of numpy, scipy.stats and scipy.linalg at
    the place each is first imported, and the summed self time of
    calcheck's own modules.
    """
    out = {"numpy": 0.0, "scipy.stats": 0.0, "scipy.linalg": 0.0, "calcheck": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            self_us, cum_us = int(parts[0]), int(parts[1])
        except ValueError:
            continue  # the header line
        mod = parts[2].strip()
        if mod in ("numpy", "scipy.stats", "scipy.linalg"):
            out[mod] = cum_us / 1e6
        elif mod == "calcheck" or mod.startswith("calcheck."):
            out["calcheck"] += self_us / 1e6
    return out
