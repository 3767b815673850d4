"""Fast tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

Every workload runs end to end at a tiny size; each reference check is
shown to reject a deliberately perturbed output; the committed spread
measurements are checked against the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import spread  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 11
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, timeout=300,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


@pytest.fixture(scope="module")
def kept_runs():
    """One tiny untraced run per workload, run directory kept."""
    runs = {}
    yield runs
    for result in runs.values():
        shutil.rmtree(result["dir"], ignore_errors=True)


def tiny_run(kept_runs: dict, workload: str) -> dict:
    if workload not in kept_runs:
        proc = run_bench("--workload", workload, "--seed", str(SEED), "--seconds", "0.5",
                         "--trace", "0", "--tiny", "--keep")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        kept = next(line.split("kept: ")[1] for line in lines if "kept: " in line)
        kept_runs[workload] = {"result": json.loads(lines[-1]), "dir": Path(kept)}
    return kept_runs[workload]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_workload_runs_tiny_and_passes_its_checks(kept_runs, workload):
    result = tiny_run(kept_runs, workload)["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    round_len = len(wl.commands(workload, wl.TINY, SEED))
    assert result["attempted"] >= round_len and result["attempted"] % round_len == 0
    # the only failure kept: the overconfident stream overflows the e-value
    want_failed = result["attempted"] // 2 if workload == "stream_weather" else 0
    assert result["failed"] == want_failed
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert list(result["metrics"]) == names
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_traced_run_reports_every_layer_metric():
    proc = run_bench("--workload", "gate_weather", "--seed", str(SEED), "--seconds", "0.5",
                     "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    # layers this workload drives are measured, not left at zero
    for name in ("cli.iter_records_s", "metric.pit_s", "hyptest.ks_test_s",
                 "sim.run_weather_sim_s", "cli.write_records_s", "import.scipy_stats_s"):
        assert result["metrics"][name]["value"] > 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("work"))
    proc = run_bench("--workload", "gate_weather", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ---------------------------------------------------------------------------
# each reference check rejects a perturbed output
# ---------------------------------------------------------------------------

def _edit(path: Path, fn) -> None:
    text = path.read_text()
    new = fn(text)
    assert new != text, f"perturbation did not change {path}"
    path.write_text(new)


def _bump_level_field(field: int, row: int = 0):
    """+1 on one field of one `level count n lower upper ...` row."""
    def fn(text):
        lines = text.splitlines(keepends=True)
        start = next(i for i, line in enumerate(lines) if line.startswith("level count n"))
        parts = lines[start + 1 + row].split(" ")
        parts[field] = str(int(parts[field]) + 1)
        lines[start + 1 + row] = " ".join(parts)
        return "".join(lines)
    return fn


def _bump_csv_count(text):
    lines = text.splitlines(keepends=True)
    parts = lines[3].split(",")
    parts[1] = str(int(parts[1]) + 1)
    lines[3] = ",".join(parts)
    return "".join(lines)


def _scale_row_e(row: int):
    def fn(text):
        lines = text.splitlines(keepends=True)
        idx = [i for i, line in enumerate(lines) if re.match(r"^\d+,", line)][row]
        t, e, alarmed = lines[idx].rstrip("\n").split(",")
        lines[idx] = f"{t},{float(e) * 1.001!r},{alarmed}\n"
        return "".join(lines)
    return fn


def _flip_row_alarm(row: int):
    def fn(text):
        lines = text.splitlines(keepends=True)
        idx = [i for i, line in enumerate(lines) if re.match(r"^\d+,", line)][row]
        t, e, alarmed = lines[idx].rstrip("\n").split(",")
        lines[idx] = f"{t},{e},{1 - int(alarmed)}\n"
        return "".join(lines)
    return fn


def _drop_last_row(text):
    lines = text.splitlines(keepends=True)
    last = [i for i, line in enumerate(lines) if re.match(r"^\d+,", line)][-1]
    del lines[last]
    return "".join(lines)


def _ks_statistic(text):
    obj = json.loads(text)
    obj["report"]["statistic"] += 1e-6
    return json.dumps(obj)


def _summary_csv_row(field: int, value):
    def fn(text):
        lines = text.splitlines(keepends=True)
        parts = lines[-1].rstrip("\n").split(",")  # the last multiplier
        parts[field] = value(parts[field])
        lines[-1] = ",".join(parts) + "\n"
        return "".join(lines)
    return fn


def _swap_envelope(text):
    lines = text.splitlines(keepends=True)
    parts = lines[-1].rstrip("\n").split(",")
    parts[2], parts[4] = parts[4], parts[2]
    lines[-1] = ",".join(parts) + "\n"
    return "".join(lines)


PERTURBATIONS = [
    ("gate_weather", "check_bonferroni_calibrated", "stdout.txt", _bump_level_field(1)),
    ("gate_weather", "check_holm_tol_calibrated", "stdout.txt", _bump_level_field(3, row=4)),
    ("gate_weather", "check_bonferroni_overconfident", "stdout.txt",
     lambda t: t.replace("decision: reject", "decision: accept")),
    ("gate_weather", "check_bins5_calibrated", "out/coverage_bin1.csv", _bump_csv_count),
    ("gate_weather", "check_folded_ks_calibrated", "out/report.json", _ks_statistic),
    ("gate_weather", "simulate_weather", "out/weather_records.jsonl",
     lambda t: t[: t.rstrip("\n").rfind("\n") + 1]),
    ("stream_weather", "monitor_cautious", "stdout.txt", _scale_row_e(10)),
    ("stream_weather", "monitor_cautious", "stdout.txt",
     lambda t: re.sub(r"first_crossing: \w+", "first_crossing: 5", t)),
    ("stream_weather", "monitor_overconfident", "stdout.txt", _drop_last_row),
    ("gate_particles", "check_halfplane", "stdout.txt", _bump_level_field(1, row=5)),
    ("gate_particles", "monitor_halfplane", "stdout.txt", _flip_row_alarm(3)),
    ("sweep_robot", "simulate_drift_sweep", "out/sweep_summary.csv",
     _summary_csv_row(2, lambda v: str(int(v) + 1))),
    ("sweep_robot", "simulate_drift_sweep", "out/sweep_envelope.csv", _swap_envelope),
]


@pytest.mark.parametrize("workload,command,file,perturb", PERTURBATIONS,
                         ids=[f"{w}-{c}-{f}" for w, c, f, _ in PERTURBATIONS])
def test_reference_check_rejects_perturbed_output(kept_runs, tmp_path, workload, command,
                                                   file, perturb):
    kept = tiny_run(kept_runs, workload)["dir"]
    copy = tmp_path / "run"
    shutil.copytree(kept, copy)
    run = reference.Run(copy, workload, wl.TINY, SEED)
    assert reference.check(run, workload) == []  # the untouched copy passes
    _edit(copy / "first" / str(run.index(command)) / file, perturb)
    problems = reference.check(reference.Run(copy, workload, wl.TINY, SEED), workload)
    assert problems, f"perturbed {command}/{file} passed the reference check"


# ---------------------------------------------------------------------------
# spread and bounds
# ---------------------------------------------------------------------------

def test_spread_is_interquartile_share_of_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, q3 = 2.75, 8.25  # statistics.quantiles' default ("exclusive") method
    assert spread.spread(values) == pytest.approx((q3 - q1) / 5.5)


def test_bounds_follow_from_the_measured_spread():
    """Two committed sets of ten runs of one commit agree within the bounds,
    and each bound is the one the rule in spread.py gives for the widest
    spread seen on any workload."""
    measured = json.loads((BENCH / "spread.json").read_text())
    assert measured["ok"] is True
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert set(measured["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    widest = {name: 0.0 for name in bounds}
    for w, row in measured["workloads"].items():
        assert row["same_failed_share"], w
        for name, r in row["metrics"].items():
            assert r["bound"] == bounds[name]
            assert r["worse_share"] <= bounds[name], (w, name)
            if name != "setup_s":
                assert max(r["spread_a"], r["spread_b"]) <= bounds[name], (w, name)
            widest[name] = max(widest[name], r["spread_a"], r["spread_b"])
    for name, bound in bounds.items():
        want = spread.SETUP_BOUND if name == "setup_s" else spread.bound_from_spread(widest[name])
        assert bound == want, name


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" and m["bound"] == max(x["bound"] for x in SPEC["end_to_end"])
               for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
