"""Generate a workload's input files from the benchmark seed.

Runs as its own process before the timed worker starts, so input
generation stays out of the timings and out of the worker's peak memory.
Uses numpy only; nothing here calls calcheck.

    python3 bench/inputs.py WORKLOAD SEED DIR [--tiny]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402


def gaussian_records(rng: np.random.Generator, n: int, scale: float) -> str:
    """Scalar-Gaussian JSON lines: a seasonal forecast with varying sigma.

    The outcome is ``mu + scale * sigma * z``: scale 1 is calibrated, above 1
    overconfident, below 1 cautious.
    """
    t = np.arange(n)
    phase = 2.0 * np.pi * t / 365.25
    mu = 16.9 + 8.0 * np.sin(phase) + 1.5 * rng.standard_normal(n)
    sigma = 3.1 * (1.0 + 0.25 * np.cos(phase)) * np.exp(0.15 * rng.standard_normal(n))
    y = mu + scale * sigma * rng.standard_normal(n)
    lines = [
        json.dumps({"mu": m, "sigma": s, "y": v, "t": i})
        for i, (m, s, v) in enumerate(zip(mu.tolist(), sigma.tolist(), y.tolist()))
    ]
    return "\n".join(lines) + "\n"


def particle_records(rng: np.random.Generator, n: int, m: int) -> str:
    """2-D weighted particle clouds along a random walk, outcome a bit wider."""
    lines = []
    center = np.array([5.0, 5.0])
    shape = np.array([1.0, 0.6])
    for i in range(n):
        center = center + rng.normal(0.0, 0.2, 2)
        spread = 0.3 * np.exp(0.3 * rng.standard_normal())
        pts = center + spread * shape * rng.standard_normal((m, 2))
        raw = np.exp(0.5 * rng.standard_normal(m))
        w = raw / raw.sum()
        y = center + 1.1 * spread * shape * rng.standard_normal(2)
        lines.append(json.dumps({"w": w.tolist(), "pts": pts.tolist(),
                                 "y": y.tolist(), "t": i}))
    return "\n".join(lines) + "\n"


def generate(workload: str, seed: int, out: Path, sizes: wl.Sizes) -> None:
    out.mkdir(parents=True, exist_ok=True)
    if workload == "gate_weather":
        n = sizes.weather_records
        (out / "weather_calibrated.jsonl").write_text(
            gaussian_records(np.random.default_rng([seed, 1]), n, 1.0))
        (out / "weather_overconfident.jsonl").write_text(
            gaussian_records(np.random.default_rng([seed, 2]), n, wl.OVERCONFIDENT_SCALE))
        wl.write_json(out / "weather_sim.json", wl.weather_sim_config(sizes, seed))
    elif workload == "stream_weather":
        n = sizes.stream_records
        (out / "stream_cautious.jsonl").write_text(
            gaussian_records(np.random.default_rng([seed, 3]), n, wl.CAUTIOUS_SCALE))
        (out / "stream_overconfident.jsonl").write_text(
            gaussian_records(np.random.default_rng(wl.STREAM_FAIL_SEED), n,
                             wl.OVERCONFIDENT_SCALE))
    elif workload == "gate_particles":
        (out / "clouds.jsonl").write_text(
            particle_records(np.random.default_rng([seed, 4]), sizes.clouds, sizes.particles))
    elif workload == "sweep_robot":
        wl.write_json(out / "sweep.json", wl.sweep_config(sizes, seed))
    else:
        raise ValueError(f"unknown workload {workload!r}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=wl.WORKLOADS)
    ap.add_argument("seed", type=int)
    ap.add_argument("dir")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    generate(args.workload, args.seed, Path(args.dir), wl.TINY if args.tiny else wl.FULL)
    return 0


if __name__ == "__main__":
    sys.exit(main())
