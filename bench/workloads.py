"""Workload definitions shared by the input generator, the timed worker and
the reference checks.

A workload is a fixed *round* of ``calcheck`` commands.  Every run attempts
whole rounds, so the share of failed commands is the same in every run.
Paths in the argv lists are relative to the run's work directory, which is
the worker's current directory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("gate_weather", "stream_weather", "gate_particles", "sweep_robot")


@dataclass(frozen=True)
class Sizes:
    weather_records: int  # records per gate_weather file and per `simulate weather`
    stream_records: int  # records per stream_weather file
    clouds: int  # particle-cloud records in the gate_particles file
    particles: int  # particles per cloud
    sweep_steps: int  # robot steps per (multiplier, seed) cell of the sweep
    sweep_particles: int  # particles of the sweep's particle filter
    sweep_seeds: int  # seeds per multiplier


FULL = Sizes(
    weather_records=10_000,
    stream_records=20_000,
    clouds=300,
    particles=500,
    sweep_steps=250,
    sweep_particles=500,
    sweep_seeds=3,
)

# Small enough for the fast tests; the overconfident stream still reaches
# the e-value overflow, which needs about 3,300 records.
TINY = Sizes(
    weather_records=600,
    stream_records=4_000,
    clouds=20,
    particles=60,
    sweep_steps=40,
    sweep_particles=60,
    sweep_seeds=2,
)

WEATHER_WINDOW = 30  # calcheck's default sliding-window length
SWEEP_MULTIPLIERS = (0.5, 1.0, 2.0)
RECHECK_MULTIPLIER = 2.0  # sweep row recomputed from `simulate robot` output

# Outcome spread relative to the predicted sigma.
OVERCONFIDENT_SCALE = 2.0  # errors twice as wide as claimed
CAUTIOUS_SCALE = 1.0 / 1.3  # errors narrower than claimed: the monitor stays quiet

# The overconfident stream is the one input that does not follow --seed: the
# command on it fails on every seed today (OverflowError in
# MartingaleState.e_value), and a failure that is kept in the counts must
# not depend on the seed.
STREAM_FAIL_SEED = 20_260_418

# Decision recipes of gate_weather: (label, extra flags, writes --out).
WEATHER_RECIPES = (
    ("bonferroni", [], False),
    ("holm_tol", ["--sided", "one", "--tolerance", "0.02", "--testing", "binom_holm"], False),
    ("bins5", ["--bins", "5"], True),
    ("folded_ks", ["--metric", "folded_ks", "--sided", "one", "--tolerance", "0.01"], True),
)
WEATHER_FILES = (("calibrated", "weather_calibrated.jsonl"),
                 ("overconfident", "weather_overconfident.jsonl"))


@dataclass(frozen=True)
class Command:
    """One calcheck invocation of a round."""

    name: str
    argv: tuple[str, ...]
    records: int  # records read, written or simulated when it succeeds
    input_file: str | None = None  # the record file it reads, if any
    out_dir: str | None = None


def commands(workload: str, sizes: Sizes, seed: int) -> list[Command]:
    """The round of commands of a workload, in execution order.

    The benchmark seed is also the calcheck seed (``--seed``, config ``seed``).
    """
    if workload == "gate_weather":
        cmds = []
        for label, fname in WEATHER_FILES:
            for recipe, flags, with_out in WEATHER_RECIPES:
                out = f"out/{recipe}_{label}" if with_out else None
                argv = ["check", fname, *flags] + (["--out", out] if out else [])
                cmds.append(Command(f"check_{recipe}_{label}", tuple(argv),
                                    sizes.weather_records, fname, out))
        cmds.append(Command("simulate_weather",
                            ("simulate", "weather", "--config", "weather_sim.json",
                             "--out", "out/sim_weather"),
                            sizes.weather_records, None, "out/sim_weather"))
        return cmds
    if workload == "stream_weather":
        return [
            Command(f"monitor_{label}", ("monitor", fname, "--out", f"out/monitor_{label}"),
                    sizes.stream_records, fname, f"out/monitor_{label}")
            for label, fname in (("cautious", "stream_cautious.jsonl"),
                                 ("overconfident", "stream_overconfident.jsonl"))
        ]
    if workload == "gate_particles":
        return [
            Command("check_halfplane", ("check", "clouds.jsonl", "--seed", str(seed)),
                    sizes.clouds, "clouds.jsonl"),
            Command("monitor_halfplane", ("monitor", "clouds.jsonl", "--seed", str(seed)),
                    sizes.clouds, "clouds.jsonl"),
        ]
    if workload == "sweep_robot":
        n = len(SWEEP_MULTIPLIERS) * sizes.sweep_seeds * sizes.sweep_steps
        return [Command("simulate_drift_sweep",
                        ("simulate", "drift_sweep", "--config", "sweep.json",
                         "--out", "out/sweep"), n, None, "out/sweep")]
    raise ValueError(f"unknown workload {workload!r}")


def sweep_config(sizes: Sizes, seed: int) -> dict:
    return {
        "n_particles": sizes.sweep_particles,
        "n_steps": sizes.sweep_steps,
        "seed": seed,
        "multipliers": list(SWEEP_MULTIPLIERS),
        "n_seeds": sizes.sweep_seeds,
    }


def weather_sim_config(sizes: Sizes, seed: int) -> dict:
    return {"n_days": sizes.weather_records + WEATHER_WINDOW, "seed": seed}


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True) + "\n")
