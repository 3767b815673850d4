import ast
import contextlib
import csv
import dataclasses
import errno
import hashlib
import importlib.util
import io
import itertools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import calcheck.sim
from calcheck import cli
from calcheck.cli import (
    RecipeConfig,
    RunReport,
    iter_records,
    parse_records,
    run_check,
    run_monitor,
    sniff_model_kind,
    write_records,
)
from calcheck.errors import ConfigError, DataError
from calcheck.hyptest import ONE_SIDED, TWO_SIDED, HypothesisSpec
from calcheck.metric import LevelGrid, central, covered, fold, pit
from calcheck.records import GaussianBatch, MvGaussianBatch, ParticleBatch
from calcheck.seqtest import EValueConfig
from calcheck.sim import RobotSimConfig, WeatherSimConfig, run_weather_sim


def gaussian_line(mu, sigma, y):
    return json.dumps({"mu": mu, "sigma": sigma, "y": y})


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def sliced(batch, a, b):
    """Records ``a`` to ``b`` of ``batch``, built as a batch of its family from slices."""
    return type(batch)(*(getattr(batch, key)[a:b] for key in batch.keys), t=batch.t[a:b])


# ---------------------------------------------------------------------------
# record parsing and round trips
# ---------------------------------------------------------------------------

def test_parse_gaussian_line(tmp_path):
    p = write_lines(tmp_path / "r.jsonl", [gaussian_line(16.9, 3.2, 15.1)])
    recs = parse_records(p, "gaussian")
    assert len(recs) == 1
    assert recs.mu[0] == 16.9
    assert recs.y[0, 0] == 15.1


def test_parse_empty_file_errors(tmp_path):
    p = tmp_path / "empty.jsonl"
    p.write_text("")
    with pytest.raises(DataError):
        parse_records(str(p), "gaussian")


def test_parse_particles_renormalizes_near_one(tmp_path):
    line = json.dumps(
        {"w": [0.5, 0.499999999], "pts": [[0.0, 0.0], [1.0, 1.0]], "y": [0.5, 0.5]}
    )
    p = write_lines(tmp_path / "p.jsonl", [line])
    recs = parse_records(p, "particles")
    assert recs.w[0].sum() == pytest.approx(1.0, abs=1e-15)


def self_drawn_clouds(rng, n, m, d):
    """``n`` weighted clouds of ``m`` particles in ``d`` dimensions, each
    outcome drawn from its own cloud by weight: calibrated by construction."""
    w = rng.uniform(0.1, 1.0, size=(n, m))
    w /= w.sum(axis=1, keepdims=True)
    pts = rng.normal(size=(n, m, d))
    y = np.array([p[rng.choice(m, p=wi)] for wi, p in zip(w, pts)])
    return list(w), list(pts), y


def test_three_dimensional_clouds_cover_at_their_levels(tmp_path, capsys):
    rng = np.random.default_rng(5)
    n, m = 2000, 500
    batch = ParticleBatch(*self_drawn_clouds(rng, n, m, 3))
    levels = LevelGrid.default().levels
    frac = covered(central(batch, np.random.default_rng(6), np.random.default_rng(7)),
                   levels).mean(axis=0)
    se = np.sqrt(levels * (1 - levels) / n)
    assert np.all(np.abs(frac - levels) <= 4 * se)
    path = tmp_path / "clouds3.jsonl"
    write_records(sliced(batch, 0, 60), path)
    for command in ("check", "monitor"):
        argv = [command, str(path), "--seed", "1"]
        assert cli.main(argv) in (0, 1), command
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("decision: ") for line in lines), command


def test_check_accepts_calibrated_point_masses(tmp_path, capsys):
    # both particles and each outcome sit at (1, 1): the outcome's projected
    # PIT is the tie stream's uniform, so each level covers Binomial(50, level)
    # records, where weak inequalities covered all 50 at every level
    path = write_lines(tmp_path / "points.jsonl",
                       ['{"w": [0.5, 0.5], "pts": [[1, 1], [1, 1]], "y": [1, 1]}'] * 50)
    argv = ["check", str(path), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    capsys.readouterr()
    rows = (tmp_path / "out" / "coverage.csv").read_text().splitlines()[1:]
    for row in rows:
        level, count = float(row.split(",")[0]), int(row.split(",")[1])
        assert abs(count - 50 * level) <= 4.0 * math.sqrt(50 * level * (1.0 - level)), row
    assert len(rows) == 10


def test_folded_ks_ecdf_counts_what_halfplane_coverage_counts(tmp_path, capsys):
    # folded_ks tests the central PIT that coverage counts, so the folded
    # PITs at or below each level are plain check's count: a cloud's, drawn
    # from the seed's direction and tie streams in both, and a multivariate
    # Gaussian's, whose chi-square PIT is central as it is; plain check keeps
    # the family's coverage metric, and the KS recipes run
    assert cli.main(["simulate", "robot", "--seed", "1", "--out", str(tmp_path)]) == 0
    inputs = [(tmp_path / "robot_records.jsonl", "halfplane", 500, (30, 476)),
              (mv_gaussian_file(tmp_path, seed=12, scale=1.0), "coverage", 200, (12, 192))]
    for records, coverage, n, ends in inputs:
        runs = {coverage: [], "folded_ks": ["--metric", "folded_ks", "--sided", "one"],
                "pit_ks": ["--metric", "pit_ks"]}
        for metric, flags in runs.items():
            out = tmp_path / coverage / metric
            argv = ["check", str(records), "--seed", "1", *flags, "--out", str(out)]
            assert cli.main(argv) in (0, 1)
            saved = json.loads((out / "report.json").read_text())
            assert saved["provenance"]["config"]["metric"] == metric
        capsys.readouterr()
        rows = [row.split(",") for row in
                (tmp_path / coverage / coverage / "coverage.csv").read_text().splitlines()[1:]]
        folded = np.array([float(row.split(",")[0]) for row in (
            tmp_path / coverage / "folded_ks" / "ecdf.csv").read_text().splitlines()[1:]])
        counts = [int(row[1]) for row in rows]
        assert counts == [np.count_nonzero(folded <= float(row[0])) for row in rows], coverage
        assert len(folded) == n and (counts[0], counts[-1]) == ends


def test_record_lines_are_turned_into_text_a_chunk_at_a_time(tmp_path):
    # a chunk takes as many records as hold TEXT_VALUES numbers when each
    # holds as many as the largest, one at least, and hands _float_texts no
    # more numbers than that, but for one record that holds more: Gaussian
    # chunks are 4,096 records, and the bytes are those of one chunk
    rng = np.random.default_rng(9)
    m = rng.integers(2, 600, 300)
    big = [*m[:10], 5000, *m[10:20]]
    weather = GaussianBatch(rng.normal(size=10_000), np.ones(10_000), rng.normal(size=10_000))
    cases = [(weather, [3] * 10_000, 4096)] + [
        (ParticleBatch([np.full(k, 1.0 / k) for k in ks], [rng.normal(size=(k, 2)) for k in ks],
                       rng.normal(size=(len(ks), 2))), [3 * k + 2 for k in ks], rows)
        for ks, rows in ((m, cli.TEXT_VALUES // (3 * max(m) + 2)), (big, 1))]
    for batch, size, rows in cases:
        calls, real = [], cli._float_texts
        with mock.patch.object(cli, "_float_texts",
                               lambda values: calls.append(values) or real(values)):
            write_records(batch, tmp_path / "chunked.jsonl")
        with mock.patch.object(cli, "TEXT_VALUES", math.inf):
            write_records(batch, tmp_path / "whole.jsonl")
        assert (tmp_path / "chunked.jsonl").read_bytes() == (tmp_path / "whole.jsonl").read_bytes()
        chunks = [calls[i:i + 3] for i in range(0, len(calls), 3)]
        assert [len(chunk[0]) for chunk in chunks] == [
            min(rows, len(batch) - i) for i in range(0, len(batch), rows)]
        for i, chunk in enumerate(chunks):
            numbers = sum(np.size(v) for column in chunk for v in column)
            assert numbers == sum(size[i * rows:(i + 1) * rows])
            assert numbers <= cli.TEXT_VALUES or rows == 1


def test_one_dimensional_points_parse_flat_or_nested(tmp_path, capsys):
    w, pts, y = self_drawn_clouds(np.random.default_rng(8), 40, 30, 1)
    flat = write_lines(tmp_path / "flat.jsonl", [
        json.dumps({"w": wi.tolist(), "pts": p[:, 0].tolist(), "y": float(yi[0])})
        for wi, p, yi in zip(w, pts, y)])
    nested = write_lines(tmp_path / "nested.jsonl", [
        json.dumps({"w": wi.tolist(), "pts": p.tolist(), "y": yi.tolist()})
        for wi, p, yi in zip(w, pts, y)])
    a, b = parse_records(flat, "particles"), parse_records(nested, "particles")
    assert all(p.shape == (30, 1) for p in a.pts + b.pts)
    for name in ("w", "pts"):
        assert [v.tobytes() for v in getattr(a, name)] == [v.tobytes() for v in getattr(b, name)]
    assert a.y.tobytes() == b.y.tobytes() and a.t == b.t
    stdouts = []
    for path in (flat, nested):
        assert cli.main(["check", path, "--seed", "1"]) in (0, 1)
        stdouts.append(capsys.readouterr().out)
    assert stdouts[0] == stdouts[1]


def test_parse_errors_cite_line_and_field(tmp_path):
    p = write_lines(
        tmp_path / "bad.jsonl",
        [gaussian_line(0, 1, 0), '{"mu": 1.0, "y": 2.0}'],
    )
    with pytest.raises(DataError, match="line 2.*sigma"):
        parse_records(p, "gaussian")
    p2 = write_lines(tmp_path / "bad2.jsonl", ["not json"])
    with pytest.raises(DataError, match="line 1"):
        parse_records(p2, "gaussian")
    # an integer beyond the float range is bad data, not a crash
    p3 = write_lines(tmp_path / "bad3.jsonl",
                     [gaussian_line(0, 1, 0), gaussian_line(10**400, 1, 0)])
    with pytest.raises(DataError, match=r"^line 2: invalid JSON \(not RFC 8259 JSON: "):
        parse_records(p3, "gaussian")


def test_parse_gaussian_outcome_as_number_or_one_element_list(tmp_path):
    lines = [gaussian_line(0.0, 1.0, 0.5), gaussian_line(1.0, 2.0, [1.5]), gaussian_line(0, 1, 2)]
    recs = parse_records(write_lines(tmp_path / "mixed.jsonl", lines), "gaussian")
    assert recs.y.tolist() == [[0.5], [1.5], [2.0]]
    bad = write_lines(tmp_path / "bad.jsonl", lines + [gaussian_line(0.0, -1.0, [0.0])])
    with pytest.raises(DataError, match=r"^line 4: sigma must be > 0"):
        parse_records(bad, "gaussian")


def test_parse_error_names_its_line_once(tmp_path, capsys):
    p = write_lines(tmp_path / "g.jsonl", [gaussian_line(0, 1, 0)])
    with pytest.raises(DataError, match=r"^line 1: missing field 'cov'$"):
        parse_records(p, "mv_gaussian")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "mv_gaussian"}))
    assert cli.main(["check", p, "--config", str(cfg)]) == 3
    assert capsys.readouterr().err == "data error: line 1: missing field 'cov'\n"


@pytest.mark.parametrize("t", [1.5, True, "7"])
def test_parse_time_index_that_is_not_an_integer_exits_3(tmp_path, capsys, t):
    # each would be stored, and written back, as another integer: 1, 1 and 7
    line = json.dumps({"mu": 0.0, "sigma": 1.0, "y": 0.5, "t": t})
    p = write_lines(tmp_path / "t.jsonl", [gaussian_line(0, 1, 0), line])
    with pytest.raises(DataError, match=r"^line 2: time index must be a 64-bit integer or null"):
        parse_records(p, "gaussian")
    assert cli.main(["check", p]) == 3
    assert capsys.readouterr().err == (
        f"data error: line 2: time index must be a 64-bit integer or null, got {t!r}\n")
    good = write_lines(tmp_path / "good.jsonl", [json.dumps({"mu": 0.0, "sigma": 1.0, "y": 0.5,
                                                             "t": tt}) for tt in (7, None)])
    assert parse_records(good, "gaussian").t == [7, None]


def test_parse_dimension_mismatch_across_lines(tmp_path):
    l1 = json.dumps({"mu": [0, 0], "cov": [[1, 0], [0, 1]], "y": [0, 0]})
    l2 = json.dumps({"mu": [0, 0, 0], "cov": np.eye(3).tolist(), "y": [0, 0, 0]})
    p = write_lines(tmp_path / "mv.jsonl", [l1, l2])
    with pytest.raises(DataError, match="line 2"):
        parse_records(p, "mv_gaussian")


def _random_records(rng, kind, n):
    t = [int(rng.integers(0, 1000)) if rng.random() < 0.5 else None for _ in range(n)]
    y = rng.normal(size=(n, 2))
    if kind == "gaussian":
        return GaussianBatch(rng.normal(size=n), rng.uniform(0.5, 2.0, n), y[:, 0], t)
    if kind == "mv_gaussian":
        a = rng.normal(size=(n, 2, 2))
        cov = a @ a.transpose(0, 2, 1) + 0.5 * np.eye(2)
        return MvGaussianBatch(rng.normal(size=(n, 2)), cov, y, t)
    w = [rng.uniform(0.1, 1.0, size=int(m)) for m in rng.integers(2, 6, n)]
    return ParticleBatch([x / x.sum() for x in w], [rng.normal(size=(len(x), 2)) for x in w],
                         y, t)


def batches_equal(a, b):
    """Same family and records, every float bit for bit."""
    def arrays(batch):
        if isinstance(batch, ParticleBatch):
            return [*batch.w, *batch.pts, batch.y]
        return [col for name, col in vars(batch).items() if name != "t"]

    return (type(a) is type(b) and len(a) == len(b) and a.t == b.t
            and all(p.shape == q.shape and p.tobytes() == q.tobytes()
                    for p, q in zip(arrays(a), arrays(b))))


def test_round_trip_all_kinds(tmp_path):
    rng = np.random.default_rng(31)
    for kind in ("gaussian", "mv_gaussian", "particles"):
        recs = _random_records(rng, kind, 340)
        path = tmp_path / f"{kind}.jsonl"
        write_records(recs, path)
        back = parse_records(path, kind)
        assert batches_equal(recs, back)
        assert sniff_model_kind(path) == kind


# ---------------------------------------------------------------------------
# recipe config validation
# ---------------------------------------------------------------------------

def test_config_slot_compatibility():
    with pytest.raises(ConfigError, match="particle clouds are covered by metric=halfplane"):
        RecipeConfig(model="particles", metric="coverage")
    with pytest.raises(ConfigError):
        RecipeConfig(model="gaussian", metric="halfplane")
    with pytest.raises(ConfigError):
        RecipeConfig(model="gaussian", metric="coverage", testing="ks")
    with pytest.raises(ConfigError):
        RecipeConfig(
            model="gaussian", metric="pit_ks", testing="ks",
            hypothesis=HypothesisSpec(ONE_SIDED, 0.0),
        )
    with pytest.raises(ConfigError):
        RecipeConfig(model="gaussian", testing="evalue_monitor")  # no evalue
    with pytest.raises(ConfigError):
        RecipeConfig(model="particles", metric="halfplane", bins=3)
    # valid recipes construct fine
    RecipeConfig(model="gaussian", metric="folded_ks", testing="ks",
                 hypothesis=HypothesisSpec(ONE_SIDED, 0.02))
    RecipeConfig(model="particles", metric="halfplane", testing="binom_bonferroni")


def test_monitor_alpha_has_one_source():
    # the alarm line and the report's alpha come from the e-value config, the
    # provenance's alpha from the recipe: the two must agree
    with pytest.raises(ConfigError, match="alpha 0.01 differs"):
        RecipeConfig(model="gaussian", testing="evalue_monitor", alpha=0.05,
                     evalue=EValueConfig(level=0.9, p_alt=0.8, alpha=0.01))
    config = RecipeConfig(model="gaussian", testing="evalue_monitor", alpha=0.01,
                          evalue=EValueConfig(level=0.9, p_alt=0.8, alpha=0.01))
    run = run_monitor(config, [GaussianBatch(np.zeros(2), np.ones(2), np.zeros(2))])
    assert run.report["alpha"] == run.provenance["config"]["alpha"] == 0.01
    assert run.report["threshold"] == 100.0


def test_provenance_config_holds_the_keys_the_recipe_applies():
    offline = RecipeConfig(model="gaussian", metric="coverage", bins=3)
    assert sorted(offline.to_dict()) == ["alpha", "bins", "levels", "metric", "model", "seed",
                                         "sided", "testing", "tolerance"]
    # a monitor applies no sidedness, tolerance, level grid or bins
    monitor = RecipeConfig(model="gaussian", testing="evalue_monitor",
                           evalue=EValueConfig(level=0.9, p_alt=0.8, alpha=0.05))
    assert monitor.to_dict() == {"model": "gaussian", "metric": "coverage",
                                 "testing": "evalue_monitor", "alpha": 0.05, "seed": 0,
                                 "lambda": 0.9, "p_alt": 0.8}


def test_offline_recipe_refuses_an_evalue_config_it_would_ignore():
    with pytest.raises(ConfigError, match="^binom_bonferroni does not apply 'evalue'$"):
        RecipeConfig(model="gaussian", metric="coverage", bins=3,
                     evalue=EValueConfig(level=0.9, p_alt=0.8, alpha=0.05))
    with pytest.raises(ConfigError, match="^ks does not apply 'evalue'$"):
        RecipeConfig(model="gaussian", metric="pit_ks", testing="ks",
                     evalue=EValueConfig(level=0.9, p_alt=0.8, alpha=0.05))


def test_monitor_recipe_refuses_settings_it_would_ignore():
    # run_monitor tests coverage at lambda alone: a sidedness, tolerance, level
    # grid or bins given to it would be recorded nowhere and applied nowhere
    monitor = dict(testing="evalue_monitor", evalue=EValueConfig(0.9, 0.8, 0.05))
    with pytest.raises(ConfigError, match="^evalue_monitor does not apply 'hypothesis'$"):
        RecipeConfig(**monitor, hypothesis=HypothesisSpec(ONE_SIDED, 0.05),
                     levels=LevelGrid(np.array([0.5])))
    for name, value in [("hypothesis", HypothesisSpec()), ("levels", LevelGrid.default()),
                        ("bins", 3)]:
        with pytest.raises(ConfigError, match=f"^evalue_monitor does not apply '{name}'$"):
            RecipeConfig(**monitor, **{name: value})
    config = RecipeConfig(**monitor)
    assert config.hypothesis is config.levels is config.bins is None


def test_recipe_and_cli_accept_the_same_recipes(tmp_path, capsys):
    # every model x metric x testing x sidedness x tolerance x bins: the
    # library accepts a recipe exactly when check (and monitor, for the
    # monitor's testing) does; a refused one exits 2 before its input is
    # opened, and an accepted one runs on a small input of its model
    rng = np.random.default_rng(3)
    inputs = {}
    for kind in cli.MODELS:
        inputs[kind] = tmp_path / f"{kind}.jsonl"
        write_records(_random_records(rng, kind, 40), inputs[kind])
    missing, cfg = str(tmp_path / "absent.jsonl"), tmp_path / "cfg.json"
    accepted = {"offline": 0, "monitor": 0}
    for model, metric, testing, sided, tolerance, bins in itertools.product(
            cli.MODELS, cli.METRICS, cli.TESTINGS, [None, "one"], [None, 0.02], [None, 3]):
        kwargs = {"bins": bins}
        if sided or tolerance:
            kwargs["hypothesis"] = HypothesisSpec(ONE_SIDED if sided else TWO_SIDED,
                                                  tolerance or 0.0)
        if testing == "evalue_monitor":
            kwargs["evalue"] = EValueConfig(0.9, 0.8, 0.05)
        try:
            RecipeConfig(model=model, metric=metric, testing=testing, **kwargs)
            ok = True
        except ConfigError:
            ok = False
        settings = {"model": model, "metric": metric, "testing": testing, "sided": sided,
                    "tolerance": tolerance, "bins": bins}
        runs = [("check", settings)]
        if testing == "evalue_monitor":
            runs.append(("monitor", {k: v for k, v in settings.items() if k != "testing"}))
        for command, file_cfg in runs:
            cfg.write_text(json.dumps(file_cfg))
            argv = [command, missing, "--config", str(cfg)]
            assert cli.main(argv) == (3 if ok else 2), file_cfg
            if ok:
                argv[1] = str(inputs[model])
                assert cli.main(argv) in (0, 1), file_cfg
            capsys.readouterr()
        accepted["monitor" if testing == "evalue_monitor" else "offline"] += ok
    assert accepted == {"offline": 60, "monitor": 3}


@pytest.mark.parametrize("kind, metric", [(kind, metric) for kind in cli.MODELS
                                          for metric in [None, *cli.METRICS]
                                          if metric is None or kind in cli._METRICS[metric][0]])
def test_library_defaults_are_the_recipe_check_records(tmp_path, monkeypatch, kind, metric):
    # a model's default metric, and a metric's default testing, are the ones
    # check runs when neither is given
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    path, out = tmp_path / "records.jsonl", tmp_path / "out"
    write_records(_random_records(np.random.default_rng(3), kind, 30), path)
    flags = [] if metric is None else ["--metric", metric]
    assert cli.main(["check", str(path), "--out", str(out), *flags]) in (0, 1)
    recorded = json.loads((out / "report.json").read_text())["provenance"]["config"]
    assert RecipeConfig(model=kind, metric=metric).to_dict() == recorded


# ---------------------------------------------------------------------------
# run_check / run_monitor library behavior
# ---------------------------------------------------------------------------

MONITOR = RecipeConfig(model="gaussian", metric="coverage", testing="evalue_monitor",
                       evalue=EValueConfig(level=0.9, p_alt=0.8, alpha=0.05))


def weather_file(tmp_path, **kwargs):
    recs = run_weather_sim(WeatherSimConfig(**kwargs))
    path = tmp_path / "weather.jsonl"
    write_records(recs, path)
    return path, recs


def test_run_check_deterministic_reports(tmp_path):
    path, recs = weather_file(tmp_path, seed=5)
    config = RecipeConfig(model="gaussian", metric="coverage")
    payload = path.read_bytes()
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        with cli._Output(out) as writer:
            cli._write_outputs(run_check(config, [recs], digest=hashlib.sha256(payload)), writer)
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_slot_swap_to_monitor_runs_on_run_monitor(tmp_path):
    _, recs = weather_file(tmp_path, seed=5)
    base = dict(model="gaussian", metric="coverage", alpha=0.05)
    offline = RecipeConfig(**base, testing="binom_bonferroni")
    online = RecipeConfig(
        **base,
        testing="evalue_monitor",
        evalue=EValueConfig(level=0.9, p_alt=0.8, alpha=0.05),
    )
    rep_off = run_check(offline, [recs])
    emitted = []
    rep_on = run_monitor(online, [recs], on_row=emitted.append)
    assert rep_off.report["recipe_config"]["test"].startswith("binom")
    assert rep_on.report["recipe_config"]["test"] == "evalue_monitor"
    # the monitor's trace is streamed to on_row, one line per record, not kept
    assert [line.split(",")[0] for line in "".join(emitted).splitlines()] == [
        str(t) for t in range(1, len(recs) + 1)]
    assert rep_on.curves == {}


def test_run_monitor_all_miss_crosses_at_five(tmp_path):
    recs = GaussianBatch(np.zeros(8), np.ones(8), np.full(8, 100.0))
    emitted = []  # one string of trace lines per batch
    with cli._Output(tmp_path) as out:
        run = run_monitor(MONITOR, [sliced(recs, 0, 3), sliced(recs, 3, 8)],
                          on_row=out.trace(MONITOR.evalue, emitted.append))
        cli._write_outputs(run, out)
    assert run.report["decision"] == "reject"
    assert run.report["recipe_config"]["first_crossing"] == 5
    assert [text.count("\n") for text in emitted] == [3, 5]
    rows = [line.split(",") for line in "".join(emitted).splitlines()]
    assert [int(row[0]) for row in rows] == list(range(1, 9))
    assert rows[3][2] == "0" and rows[4][2] == "1"
    header, table = json.loads((tmp_path / "report.json").read_text())["curves"]["etrace"]
    assert header == ["t", "e_value", "alarmed", "threshold"]
    assert [row[:3] for row in table] == [[int(t), float(e), int(a)] for t, e, a in rows]
    assert all(row[3] == 20.0 for row in table)
    assert ((tmp_path / "etrace.csv").read_text()
            == "t,e_value,alarmed,threshold\n" + "".join(emitted).replace("\n", ",20.0\n"))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["etrace.csv", "report.json"]


def test_run_monitor_overflow_emits_every_line_before_it():
    # an all-miss stream doubles the e-value at each step, so math.exp
    # overflows after about a thousand steps: every step before the first
    # that overflows is emitted, and then the run raises
    n = 1100
    recs = GaussianBatch(np.zeros(n), np.ones(n), np.full(n, 10.0))
    miss = math.log1p(-0.8) - math.log1p(-0.9)  # log of the e-value of a miss
    want, log_e = [], 0.0
    for t in range(1, n + 1):
        log_e += miss
        try:
            e = math.exp(log_e)
        except OverflowError:
            break
        want.append(f"{t},{e!r},{int(t >= 5)}\n")
    assert 900 < len(want) < n
    emitted = []
    with pytest.raises(OverflowError):
        run_monitor(MONITOR, [sliced(recs, a, a + 300) for a in range(0, n, 300)],
                    on_row=emitted.append)
    assert [text.count("\n") for text in emitted] == [300, 300, 300, len(want) - 900]
    assert "".join(emitted) == "".join(want)


def monitor_outputs(recs, cuts, config=MONITOR) -> tuple[str, bytes, bytes]:
    """The stdout text, ``etrace.csv`` and ``report.json`` of a monitor over
    ``recs`` delivered in blocks split before each record position in
    ``cuts``, written as ``monitor --out`` writes them.  The streamed
    ``report.json`` is checked against ``json.dumps`` of the run with the
    rows the printed text holds."""
    bounds = [0, *sorted(set(cuts)), len(recs)]
    emitted = []
    with tempfile.TemporaryDirectory() as d, cli._Output(d) as out:
        run = run_monitor(config, [sliced(recs, a, b) for a, b in zip(bounds, bounds[1:])],
                          on_row=out.trace(config.evalue, emitted.append))
        cli._write_outputs(run, out)
        got = ("".join(emitted), (Path(d) / "etrace.csv").read_bytes(),
               (Path(d) / "report.json").read_bytes())
    threshold = 1.0 / config.evalue.alpha
    rows = [[int(t), float(e), int(a), threshold]
            for t, e, a in (line.split(",") for line in got[0].splitlines())]
    want = json.dumps({"report": run.report, "provenance": run.provenance,
                       "curves": {"etrace": [["t", "e_value", "alarmed", "threshold"], rows]}},
                      sort_keys=True)
    assert got[2] == (want + "\n").encode()
    return got


@pytest.mark.parametrize("y, cuts", [
    (100.0, [4]),  # the crossing at t=5 is a block's first record
    (100.0, [5]),  # ... its last record
    (100.0, [2, 7]),  # ... inside a block
    (0.0, [3]),  # no crossing
])
def test_run_monitor_output_does_not_depend_on_block_split(y, cuts):
    recs = GaussianBatch(np.zeros(8), np.ones(8), np.full(8, y))
    assert monitor_outputs(recs, cuts) == monitor_outputs(recs, [])


@st.composite
def gaussian_streams(draw):
    """Gaussian records whose standardised outcomes mix hits and misses at
    level 0.9, so the monitor crosses in some streams and not in others."""
    n = draw(st.one_of(st.integers(1, 8), st.integers(9, 40)))  # short ones never cross
    mu = draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
    sigma = draw(st.lists(st.floats(0.01, 100.0), min_size=n, max_size=n))
    z = draw(st.lists(st.one_of(st.floats(-1.5, 1.5), st.floats(2.0, 6.0), st.floats(-6.0, -2.0)),
                      min_size=n, max_size=n))
    mu, sigma = np.array(mu), np.array(sigma)
    return GaussianBatch(mu, sigma, mu + sigma * np.array(z))


@settings(max_examples=40, deadline=None)
@given(gaussian_streams(), st.data())
def test_run_monitor_output_does_not_depend_on_random_block_split(recs, data):
    # cut right before or right after the first crossing as well as at
    # random, so the alarmed column is pinned at block edges too; a far
    # alternative makes e-values that print in exponent form, and each
    # alpha a different threshold text
    level, p_alt, alpha = data.draw(st.sampled_from(
        [(0.9, 0.8, 0.05), (0.9, 0.1, 0.3), (0.5, 0.01, 0.007)]))
    config = dataclasses.replace(MONITOR, alpha=alpha, evalue=EValueConfig(level, p_alt, alpha))
    whole = monitor_outputs(recs, [], config)
    n, crossing = len(recs), json.loads(whole[2])["report"]["recipe_config"]["first_crossing"]
    cuts = data.draw(st.lists(st.integers(1, n - 1), max_size=6)) if n > 1 else []
    if crossing is not None:
        cuts += [c for c in data.draw(st.sampled_from([[], [crossing - 1], [crossing]]))
                 if 0 < c < n]
    assert monitor_outputs(recs, cuts, config) == whole


@pytest.mark.parametrize("kind", ["gaussian", "mv_gaussian", "particles"])
def test_monitor_etrace_csv_equals_report_rerender(tmp_path, capsys, kind):
    # monitor --out writes etrace.csv from its trace text; report --out
    # renders the saved rows cell by cell: the two files agree byte for byte
    path = tmp_path / "records.jsonl"
    write_records(_random_records(np.random.default_rng(17), kind, 300), path)
    cli.main(["monitor", str(path), "--out", str(tmp_path / "live")])
    assert cli.main(["report", str(tmp_path / "live" / "report.json"),
                     "--out", str(tmp_path / "saved")]) in (0, 1)
    live = (tmp_path / "live" / "etrace.csv").read_text()
    assert {line.split(",")[2] for line in live.splitlines()[1:]} == {"0", "1"}
    assert live == (tmp_path / "saved" / "etrace.csv").read_text()


def test_run_monitor_incomplete_stream_marked(tmp_path):
    lines = [gaussian_line(0, 1, 0), "garbage"]
    p = write_lines(tmp_path / "s.jsonl", lines)
    config = RecipeConfig(
        model="gaussian",
        metric="coverage",
        testing="evalue_monitor",
        evalue=EValueConfig(level=0.9, p_alt=0.8, alpha=0.05),
    )
    run = run_monitor(config, iter_records(p, "gaussian"))
    assert run.report["recipe_config"]["incomplete"] is True
    assert run.report["recipe_config"]["t"] == 1


# ---------------------------------------------------------------------------
# command line entry points and exit codes
# ---------------------------------------------------------------------------

def test_cli_check_accepts_calibrated_weather(tmp_path, capsys):
    path, _ = weather_file(tmp_path, seed=5)
    code = cli.main(
        ["check", str(path), "--metric", "folded_ks", "--sided", "one",
         "--tolerance", "0.02", "--out", str(tmp_path / "out")]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("decision: accept")
    assert (tmp_path / "out" / "report.json").exists()
    assert (tmp_path / "out" / "band.csv").exists()


def test_cli_check_rejects_biased_weather_unfolded(tmp_path):
    path, _ = weather_file(tmp_path, seed=5, injected_mean_bias=2.5)
    code = cli.main(["check", str(path), "--metric", "pit_ks"])
    assert code == 1


def test_cli_tolerance_rescues_bonferroni(tmp_path, capsys):
    # mild dispersion understatement: strict coverage check rejects, a
    # tolerance inside the engineering range accepts
    path, _ = weather_file(tmp_path, seed=2, injected_sd_scale=0.90)
    strict = cli.main(["check", str(path)])
    tolerant = cli.main(["check", str(path), "--tolerance", "0.045"])
    assert strict == 1
    assert tolerant == 0


@pytest.mark.parametrize("n", [1, 3, 7, 10, 49, 97, 1_000, 4_096, 99_991])
def test_ks_ecdf_levels_are_integer_division_bit_for_bit(n):
    # the ecdf table divides a float64 arange by n; exact integers up to 2**53
    # divide as Python's int / int does, both correctly rounded
    want = [repr(float((i + 1) / n)) for i in range(n)]
    assert [repr(x) for x in (np.arange(1, n + 1) / n).tolist()] == want


def test_ks_ecdf_table_pairs_each_sorted_pit_with_its_level(tmp_path):
    _, recs = weather_file(tmp_path, seed=5)
    config = RecipeConfig(model="gaussian", metric="folded_ks", testing="ks",
                          hypothesis=HypothesisSpec(ONE_SIDED, 0.01))
    header, columns = run_check(config, [recs]).curves["ecdf"]
    rows = np.column_stack(columns).tolist()
    v = np.sort(fold(pit(recs)).values)
    want = [[float(val), float((i + 1) / v.size)] for i, val in enumerate(v)]
    assert header == ["value", "ecdf"] and repr(rows) == repr(want)


def test_csv_cells_are_str_of_each_value(tmp_path):
    # a float's str is its repr, so floats round-trip; a numpy scalar prints
    # as its number, not as its constructor; only a None cell is empty, and a
    # saved report's string and list cells print as they are
    row = [0.1, 1e-300, float("inf"), -0.0, None, 3, True, np.float64(0.5), np.int64(7)]
    saved = ["None", "inf", [1, 2.5], None]
    tables = {"t": (["a", "b", "c", "d", "e", "f", "g", "h", "i"], [[x] for x in row]),
              "s": (["j", "k", "l", "m"], [[x] for x in saved])}
    with cli._Output(tmp_path, report=False) as out:
        out.finish(RunReport({}, tables))
    assert (tmp_path / "t.csv").read_text() == (
        "a,b,c,d,e,f,g,h,i\n0.1,1e-300,inf,-0.0,,3,True,0.5,7\n")
    assert (tmp_path / "s.csv").read_text() == "j,k,l,m\nNone,inf,[1, 2.5],\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv", "t.csv"]


# every power of ten from 1e-12 to 1e20, where repr's layout changes, with
# both its float neighbours, the smallest and the largest float, and their
# negatives
FLOAT_BOUNDARIES = [x for p in range(-12, 21) for x in (
    math.nextafter(10.0**p, 0.0), 10.0**p, math.nextafter(10.0**p, math.inf))]
FLOAT_BOUNDARIES += [5e-324, sys.float_info.max, 0.0]
FLOAT_BOUNDARIES += [-x for x in FLOAT_BOUNDARIES]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_subnormal=True), max_size=40)
       | st.lists(st.sampled_from(FLOAT_BOUNDARIES) | st.floats(), max_size=40))
def test_float_texts_are_the_repr_of_each_float(values):
    assert cli._float_texts(values) == list(map(repr, values))


def test_float_texts_of_each_layout_boundary():
    assert cli._float_texts(FLOAT_BOUNDARIES) == list(map(repr, FLOAT_BOUNDARIES))
    for x in FLOAT_BOUNDARIES:
        assert cli._float_texts([x]) == [repr(x)]
    specials = [math.nan, math.inf, -math.inf, 9.9e-05, 1e16]
    assert cli._float_texts(specials) == ["nan", "inf", "-inf", "9.9e-05", "1e+16"]
    # lists, as record lines hold them: each value's repr, as json writes it
    for values in ([[x, -x, 3] for x in FLOAT_BOUNDARIES],
                   [[[x], [1.0, x]] for x in FLOAT_BOUNDARIES], [[1.0, 2.0, 3.0], [0.5]]):
        assert cli._float_texts(values) == list(map(repr, values)) == list(map(json.dumps, values))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=60), st.data())
def test_trace_lines_are_one_row_per_e_value(misses, data):
    # each batch's text holds one t,e_value,alarmed row per record: the repr
    # of the e-value a step-by-step loop holds, alarmed from the first
    # crossing on, which falls before a batch, inside it, after it, or never;
    # a far alternative makes e-values that print in exponent form
    level, p_alt, alpha = data.draw(st.sampled_from([(0.9, 0.8, 0.05), (0.5, 0.01, 0.007)]))
    config = dataclasses.replace(MONITOR, alpha=alpha, evalue=EValueConfig(level, p_alt, alpha))
    n = len(misses)
    cuts = data.draw(st.lists(st.integers(1, n - 1), max_size=5)) if n > 1 else []
    bounds = [0, *sorted(set(cuts)), n]
    recs = GaussianBatch(np.zeros(n), np.ones(n), np.where(misses, 100.0, 0.0))
    emitted = []
    run_monitor(config, [sliced(recs, a, b) for a, b in zip(bounds, bounds[1:])],
                on_row=emitted.append)
    log_e, crossing, want = 0.0, None, []
    for t, miss in enumerate(misses, 1):
        log_e += (math.log1p(-p_alt) - math.log1p(-level) if miss
                  else math.log(p_alt) - math.log(level))
        crossing = crossing or (t if log_e > -math.log(alpha) else None)
        want.append(f"{t},{math.exp(log_e)!r},{int(crossing is not None)}\n")
    assert [text.count("\n") for text in emitted] == [b - a for a, b in zip(bounds, bounds[1:])]
    assert "".join(emitted) == "".join(want)


def test_report_out_writes_saved_cells_as_they_are(tmp_path):
    saved = tmp_path / "r.json"
    saved.write_text(json.dumps({"curves": {"c": [["a", "b", "c"], [
        ["None", "inf", [1, 2.5]], [None, 1e16, "x,y"]]]}}))
    assert cli.main(["report", str(saved), "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "c.csv").read_text() == 'a,b,c\nNone,inf,"[1, 2.5]"\n,1e+16,"x,y"\n'


CSV_TEXT = 'a,"\r\n '


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.one_of(st.none(), st.floats(), st.integers(), st.text(CSV_TEXT),
                                   st.lists(st.integers(), max_size=3),
                                   st.dictionaries(st.text(CSV_TEXT), st.integers(), max_size=2)),
                         min_size=3, max_size=3), max_size=4),
       st.lists(st.text(CSV_TEXT), min_size=3, max_size=3))
def test_report_out_writes_one_csv_field_per_header_name(rows, header):
    # a saved string, list or object cell, or header name, holding a comma,
    # quote, CR or LF is one quoted field, which csv.reader reads back as
    # its text; a number or None cell is written as before
    with tempfile.TemporaryDirectory() as tmp:
        saved = Path(tmp) / "r.json"
        saved.write_text(json.dumps({"curves": {"c": [header, rows]}}))
        assert cli.main(["report", str(saved), "--out", str(Path(tmp) / "o")]) == 0
        with open(Path(tmp) / "o" / "c.csv", newline="") as handle:
            read = list(csv.reader(handle))
    assert read == [header] + [["" if x is None else str(x) for x in row] for row in rows]


TABLE_CELLS = st.one_of(
    st.sampled_from([None, math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e16]),
    st.floats(), st.integers(), st.floats().map(np.float64))


@st.composite
def table_sets(draw):
    """Tables as the program holds them: per header name, a float array or
    a list of numbers and None."""
    curves = {}
    for name in draw(st.lists(st.text("abz_", min_size=1, max_size=3), max_size=3, unique=True)):
        width, n = draw(st.integers(1, 4)), draw(st.integers(0, 5))
        cells = st.lists(TABLE_CELLS, min_size=n, max_size=n)
        arrays = st.lists(st.floats(), min_size=n, max_size=n).map(np.array)
        curves[name] = ([f"h{i}" for i in range(width)],
                        [draw(st.one_of(cells, arrays)) for _ in range(width)])
    return curves


@settings(max_examples=80, deadline=None)
@given(table_sets())
def test_tables_and_report_are_str_of_each_cell_and_json_dumps(curves):
    # each table is written as str of each cell, "" for None, and
    # report.json as json.dumps of the run with every table's rows, where
    # None, inf, -inf and nan are null, Infinity, -Infinity and NaN
    run = RunReport(report={"decision": "accept", "statistic": math.nan},
                    curves=curves, provenance={"input_digest": "0"})
    rows = {name: [list(row) for row in zip(*(col.tolist() if isinstance(col, np.ndarray)
                                              else col for col in columns))]
            for name, (_, columns) in curves.items()}
    want_json = json.dumps({"report": run.report, "provenance": run.provenance,
                            "curves": {name: [header, rows[name]]
                                       for name, (header, _) in curves.items()}},
                           sort_keys=True) + "\n"
    with tempfile.TemporaryDirectory() as d:
        with cli._Output(d) as out:
            cli._write_outputs(run, out)
        for name, (header, _) in curves.items():
            want = "".join([",".join(["" if x is None else str(x) for x in row]) + "\n"
                            for row in [header, *rows[name]]])
            assert (Path(d) / f"{name}.csv").read_text() == want
        assert (Path(d) / "report.json").read_text() == want_json


def test_cli_binned_check_runs(tmp_path, capsys):
    path, _ = weather_file(tmp_path, seed=5)
    code = cli.main(["check", str(path), "--bins", "3", "--out", str(tmp_path / "b")])
    out = capsys.readouterr().out
    assert code == 0
    assert "bin_decisions" in out
    assert (tmp_path / "b" / "coverage_bin2.csv").exists()


def test_cli_config_error_exit_2(tmp_path):
    path, _ = weather_file(tmp_path, seed=5)
    assert cli.main(["check", str(path), "--metric", "halfplane"]) == 2
    assert cli.main(["check", str(path), "--alpha", "2.0"]) == 2


def test_cli_data_error_exit_3(tmp_path, capsys):
    missing = tmp_path / "nope.jsonl"
    assert cli.main(["check", str(missing)]) == 3
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    assert cli.main(["check", str(empty)]) == 3
    # with the model configured nothing is sniffed: the run finds no records
    config = tmp_path / "model.json"
    config.write_text('{"model": "gaussian"}')
    capsys.readouterr()
    for command in ("check", "monitor"):
        assert cli.main([command, str(empty), "--config", str(config)]) == 3
        assert capsys.readouterr().err == f"data error: no records to {command}\n"
    five = write_lines(tmp_path / "five.jsonl", [gaussian_line(0.0, 1.0, 0.5)] * 5)
    assert cli.main(["check", five, "--bins", "6"]) == 3  # more bins than records


MALFORMED_LINES = {
    "deep_nesting": ("[" * 100_000 + "]" * 100_000, "nested more than 1024 deep"),
    "long_integer": ('{"mu": ' + "7" * 5_000 + ', "sigma": 1.0, "y": 0.5}',
                     "Exceeds the limit (4300 digits) for integer string conversion"),
}


@pytest.mark.parametrize("command", ["check", "monitor"])
@pytest.mark.parametrize("at", ["first", "first_of_a_named_model", "later"])
@pytest.mark.parametrize("line, reason", MALFORMED_LINES.values(), ids=MALFORMED_LINES)
def test_cli_line_json_cannot_hold_is_a_data_error(tmp_path, capsys, command, at, line, reason):
    # a line nested deeper than the bound or holding an integer too long to
    # convert exits 3 with one message, as any invalid JSON does
    good = gaussian_line(0.0, 1.0, 0.5)
    path = write_lines(tmp_path / "r.jsonl", [good, line, good] if at == "later" else [line, good])
    argv = [command, path]
    if at == "first_of_a_named_model":  # no sniffing: the line reaches iter_records
        (tmp_path / "c.json").write_text('{"model": "gaussian"}')
        argv += ["--config", str(tmp_path / "c.json")]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    if at == "first":
        assert err == f"data error: {path}: first record line is not valid JSON\n"
    else:
        line_no = 2 if at == "later" else 1
        assert err.startswith(f"data error: line {line_no}: invalid JSON ({reason}")
        assert err.endswith(")\n") and err.count("\n") == 1


def test_line_validity_does_not_depend_on_the_callers_stack_depth(tmp_path, capsys):
    # json counts nesting against the recursion limit from the caller's
    # depth; orjson and the nesting bound do not.  So at every depth at which
    # a file of good lines still decides, a line nested 60 deep under a key
    # the family does not read gives the same verdict, and a line nested
    # 1,100 deep fails alike
    good = gaussian_line(0.0, 1.0, 0.5)
    paths = {}
    for name, n in (("good", 0), ("unread", 60), ("deep", 1_100)):
        line = good[:-1] + ', "n": ' + "[" * n + "0" + "]" * n + "}"
        paths[name] = write_lines(tmp_path / f"{name}.jsonl", [good, line] + [good] * 20)

    def at(depth, name):
        if depth:
            return at(depth - 1, name)
        return cli.main(["check", paths[name], "--metric", "pit_ks"]), capsys.readouterr().err

    want = at(0, "good")
    assert want[0] in (0, 1)
    depth = 0
    while True:
        try:
            if at(depth, "good") != want:
                break
        except RecursionError:
            break
        assert at(depth, "unread") == want, depth
        assert at(depth, "deep") == (
            3, "data error: line 2: invalid JSON (nested more than 1024 deep)\n"), depth
        depth += 10
    assert depth > 800  # within the recursion limit, less what pytest and the run use


def test_refused_deep_line_is_worded_alike_at_every_stack_depth(tmp_path, capsys):
    # json's re-read of a refused line counts its nesting against the
    # recursion limit from the caller's depth, so it would word a line nested
    # hundreds deep by its own message or by a recursion error; such a line
    # gets orjson's reason at every depth
    good = gaussian_line(0.0, 1.0, 0.5)
    path = write_lines(tmp_path / "r.jsonl", [good, good[:-1] + ', "n": ' + "[" * 900 + "0", good])

    def at(depth):
        if depth:
            return at(depth - 1)
        return cli.main(["check", path]), capsys.readouterr().err

    want = (3, "data error: line 2: invalid JSON (unexpected end of data)\n")
    assert [at(depth) for depth in (0, 50, 100)] == [want] * 3


@pytest.mark.parametrize("saved", [
    [],
    {"report": [1]},
    {"report": {}, "provenance": "x"},
    {"report": {}, "curves": {"coverage": [1]}},
    {"report": {}, "curves": {"coverage": [["level", 2], []]}},
    {"report": {}, "curves": {"coverage": [["level"], [0.5]]}},
    {"report": {}, "curves": {"coverage": [["level", "count"], [[0.5, 3], [0.9]]]}},
    {"report": {}, "curves": {"coverage": [[], [[], []]]}},
    {"report": {"decision": "accept", "recipe_config": [1]}},
    {"report": {"decision": "accept", "per_level": {"level": 0.5}}},
    {"report": {"decision": "accept", "per_level": [{"level": 0.5, "count": 3}]}},
])
def test_cli_report_of_wrong_shape_exits_3(tmp_path, capsys, saved):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(saved))
    assert cli.main(["report", str(path), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err.startswith("data error: report")


SURROGATE = "data error: report holds a lone surrogate, which is not text\n"


@pytest.mark.parametrize("saved, err", [
    (b'{"curves": {"c": [["a"], [["\\ud800"]]]}}', SURROGATE),
    (b'{"report": {"decision": "\\ud800"}}', SURROGATE),
    (b'{"provenance": {"input_digest": "\\udfff"}}', SURROGATE),
    (b'{"report": {"decision": "\xff"}}', "data error: report is not valid JSON: 'utf-8' codec "
     "can't decode byte 0xff in position 25: invalid start byte\n"),
], ids=["table_cell", "summary", "provenance", "not_utf8"])
def test_cli_report_of_text_no_output_can_encode_exits_3(tmp_path, capsys, saved, err):
    # json loads an escaped lone surrogate, which no output can encode: it is
    # refused before anything is printed or written
    path = tmp_path / "report.json"
    path.write_bytes(saved)
    assert cli.main(["report", str(path), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr() == ("", err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name", ["../escaped", "sub/table", "..", ""])
def test_cli_report_table_name_outside_out_exits_3(tmp_path, capsys, name):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"report": {}, "curves": {name: [["a"], [[1]]]}}))
    out = tmp_path / "work" / "out"
    assert cli.main(["report", str(path), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("data error: report table name")
    assert sorted(tmp_path.rglob("*")) == [path]  # nothing created, in out/ or beside it


@pytest.mark.parametrize("argv", [
    ["simulate", "weather", "--seed", "3"],
    ["simulate", "drift_sweep", "--seed", "3", "--config", "{cfg}"],
])
def test_cli_report_prints_a_simulation_as_it_ran(tmp_path, capsys, argv):
    # report.json sorts its keys; the summary keeps the order the live run printed
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_seeds": 1, "n_steps": 5, "n_particles": 20}))
    out = tmp_path / "out"
    assert cli.main([a.format(cfg=cfg) for a in argv] + ["--out", str(out)]) == 0
    live = capsys.readouterr().out.splitlines()
    assert cli.main(["report", str(out / "report.json")]) == 0
    saved = capsys.readouterr().out.splitlines()
    assert live[0] == "simulation summary:" and saved[:-2] == live
    assert live[1] == f"  kind: {argv[1]}" and live[-1].startswith("  files: ")


@pytest.mark.parametrize("argv, code", [
    (["check", "{weather}"], 0),
    (["check", "{biased}", "--bins", "2"], 1),
    (["monitor", "{weather}"], 0),
    (["monitor", "{cut}"], 3),
])
def test_cli_report_prints_and_exits_as_the_run_that_saved_it(tmp_path, capsys, argv, code):
    weather, _ = weather_file(tmp_path, seed=5)
    (tmp_path / "b").mkdir()
    biased, _ = weather_file(tmp_path / "b", seed=5, injected_mean_bias=2.5)
    cut = tmp_path / "cut.jsonl"
    cut.write_text(weather.read_text() + "not json\n")  # the stream dies: incomplete
    fill = {"weather": weather, "biased": biased, "cut": cut}
    out = tmp_path / "out"
    assert cli.main([a.format(**fill) for a in argv] + ["--out", str(out)]) == code
    captured = capsys.readouterr()
    live = captured.out.splitlines()
    # an incomplete monitor says why on stderr, as a check on the same input would
    # and so does its summary, which report prints from the saved run
    n_lines = weather.read_text().count("\n")
    reason = f"line {n_lines + 1}: invalid JSON (Expecting value)"
    assert captured.err == (f"data error: {reason}\n" if code == 3 else "")
    assert (f"error: {reason}" in live) == (code == 3)
    assert cli.main(["report", str(out / "report.json")]) == code
    captured = capsys.readouterr()
    saved = captured.out.splitlines()
    assert captured.err == ""
    assert saved[-2].startswith("input_digest: ") and saved[-1].startswith("tool_version: ")
    block = saved[:-2]
    assert block[0].startswith("decision: ") and live[-len(block):] == block
    assert (f"error: {reason}" in block) == (code == 3)


def test_cli_loads_no_scipy_and_forks_only_for_a_drift_sweep(tmp_path):
    # no command imports a scipy module: the Gaussian and chi-square PITs and
    # the Binomial tails are calcheck's own.  multiprocessing is imported by
    # a drift sweep that starts worker processes, and by no other command
    weather, _ = weather_file(tmp_path, seed=5)
    mv = str(mv_gaussian_file(tmp_path, seed=12, scale=1.0))
    bad = write_lines(tmp_path / "bad.jsonl", ["not json"])
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"n_seeds": 1, "n_steps": 5, "n_particles": 20}))
    robot = tmp_path / "robot.json"
    robot.write_text(json.dumps({"n_steps": 20, "n_particles": 50}))
    sim, mon = tmp_path / "sim", tmp_path / "mon"
    steps = [
        ["simulate", "robot", "--config", str(robot), "--out", str(sim)],
        ["simulate", "weather", "--out", str(sim)],
        ["monitor", str(sim / "robot_records.jsonl"), "--out", str(mon)],
        ["report", str(mon / "report.json")],
        ["simulate", "drift_sweep", "--config", str(sweep), "--out", str(tmp_path / "sweep")],
        ["check", str(weather), "--lambda", "0.5"],
        ["check", bad],
        ["check", str(weather)],
        ["check", str(weather), "--sided", "one", "--tolerance", "0.02", "--testing", "binom_holm"],
        ["check", str(weather), "--metric", "pit_ks", "--bins", "2"],
        ["monitor", str(weather)],
        ["check", str(sim / "robot_records.jsonl")],
        ["check", mv],
        ["monitor", mv],
    ]
    result = tmp_path / "loaded.json"
    probe = ("import json, sys, calcheck.cli\n"
             "def scipy():\n"
             "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
             "def forks():\n"
             "    return 'multiprocessing' in sys.modules\n"
             "seen = [[None, scipy(), forks()]]\n"
             "for argv in json.loads(sys.argv[1]):\n"
             "    seen.append([calcheck.cli.main(argv), scipy(), forks()])\n"
             "with open(sys.argv[2], 'w') as out:\n"
             "    json.dump(seen, out)\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", probe, json.dumps(steps), str(result)],
                   capture_output=True, env={**os.environ, "PYTHONPATH": src}, check=True)
    (_, on_import, forked), *ran = json.loads(result.read_text())
    codes = [code for code, _, _ in ran]
    assert codes[:2] == [0, 0] and codes[2] in (0, 1) and codes[3] == codes[2]
    assert codes[4:8] == [0, 2, 3, 0] and all(code in (0, 1) for code in codes[8:])
    assert on_import == [], on_import
    for argv, (_, loaded, _) in zip(steps, ran):
        assert loaded == [], (argv, loaded)
    assert [forked] + [f for _, _, f in ran[:4]] == [False] * 5


def test_cli_unwritable_out_exits_2(tmp_path, capsys):
    path, _ = weather_file(tmp_path, seed=5)
    saved = tmp_path / "saved.json"
    saved.write_text(json.dumps({"report": {}, "curves": {"c": [["a"], [[1]]]}}))
    blocked = str(path / "sub")  # a directory below a regular file cannot be made
    for argv in (["check", str(path)], ["monitor", str(path)],
                 ["simulate", "weather"], ["report", str(saved)]):
        capsys.readouterr()
        assert cli.main(argv + ["--out", blocked]) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: cannot write output: "), argv
        assert captured.out == "", argv  # the writer opens before anything is printed


def test_cli_check_failing_after_its_first_table_leaves_no_output_files(tmp_path, monkeypatch,
                                                                        capsys):
    # a write that fails midway, as on a full disk, removes every partial
    # file: report.json's, the first table's and the one being written, and
    # the directory the run made; no decision is printed, as none stands
    path, _ = weather_file(tmp_path, seed=5)
    json_rows, calls = cli._json_rows, []

    def failing(*args):
        calls.append(args)
        if len(calls) == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        return json_rows(*args)

    monkeypatch.setattr(cli, "_json_rows", failing)
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli.main(["check", str(path), "--bins", "3", "--out", str(out)]) == 2
    assert len(calls) == 2
    assert capsys.readouterr().out == ""
    assert not out.exists()


def test_cli_failed_run_removes_only_the_directories_it_made(tmp_path):
    # a bad second line fails the check after the writer has made its
    # directories; a directory that was there stays, with its other files
    bad = write_lines(tmp_path / "bad.jsonl", [gaussian_line(0.0, 1.0, 0.5), "not json"])
    assert cli.main(["check", bad, "--out", str(tmp_path / "o" / "sub")]) == 3
    assert not (tmp_path / "o").exists()
    kept, empty = tmp_path / "kept", tmp_path / "empty"
    kept.mkdir()
    empty.mkdir()
    (kept / "other.txt").write_text("x")
    for out in (kept, kept / "sub", empty, empty / "sub"):
        assert cli.main(["check", bad, "--out", str(out)]) == 3, out
        assert [p.name for p in kept.iterdir()] == ["other.txt"], out
        assert list(empty.iterdir()) == [], out


def test_cli_simulate_failing_to_write_its_records_leaves_no_output_files(tmp_path, monkeypatch,
                                                                          capsys):
    # a record file is written as a partial file, removed when the write fails
    def failing(records, path):
        Path(path).write_text("{")
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli, "write_records", failing)
    out = tmp_path / "out"
    assert cli.main(["simulate", "weather", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().out == ""


def test_help_states_the_exit_codes():
    text = " ".join(cli._build_parser().format_help().split())
    assert ("0 accept, 1 reject or alarm, 2 usage or configuration error, 3 data error, "
            "70 a drift sweep worker lost, 141 the reader of stdout gone") in text


def test_cli_monitor_stream_and_exit(tmp_path, capsys):
    lines = [gaussian_line(0.0, 1.0, 100.0)] * 6
    p = write_lines(tmp_path / "miss.jsonl", lines)
    code = cli.main(["monitor", p, "--lambda", "0.9", "--p-alt", "0.8"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert out[0].startswith("1,")
    assert out[4].split(",")[2] == "1"  # alarmed at t=5
    # calibrated stream exits clean
    p2, _ = weather_file(tmp_path, seed=5)
    assert cli.main(["monitor", str(p2), "--lambda", "0.5"]) in (0, 1)


def test_cli_monitor_broken_pipe_exits_141(tmp_path):
    # more rows than the pipe and stdout's buffer hold, so writing continues
    # after the reader has gone
    path = write_lines(tmp_path / "hits.jsonl", [gaussian_line(0.0, 1.0, 0.0)] * 10_000)
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, "-m", "calcheck.cli", "monitor", path],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.readline().startswith(b"1,")
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=120) == 141
    assert err == b""


def test_cli_monitor_overflow_leaves_no_output_files(tmp_path, capsys):
    # an all-miss stream overflows math.exp after about a thousand rows
    path = write_lines(tmp_path / "miss.jsonl", [gaussian_line(0.0, 1.0, 10.0)] * 1100)
    with pytest.raises(OverflowError):
        cli.main(["monitor", path])
    printed = capsys.readouterr().out
    assert 1000 < printed.count("\n") < 1100
    with pytest.raises(OverflowError):
        cli.main(["monitor", path, "--out", str(tmp_path / "out")])
    assert capsys.readouterr().out == printed
    assert not (tmp_path / "out").exists()


class FailingStdout(io.StringIO):
    """A stdout whose third write raises ``exc``."""

    def __init__(self, exc: BaseException, fd: int):
        super().__init__()
        self.exc, self.fd, self.writes = exc, fd, 0

    def write(self, text):
        self.writes += 1
        if self.writes == 3:
            raise self.exc
        return super().write(text)

    def fileno(self):  # main points a broken stdout at os.devnull
        return self.fd


@pytest.mark.parametrize("exc", [BrokenPipeError(), KeyboardInterrupt()])
def test_cli_monitor_stopped_midstream_leaves_no_output_files(tmp_path, monkeypatch, exc):
    monkeypatch.setattr(cli, "BLOCK", 1 << 10)  # rows are printed over many blocks
    path = write_lines(tmp_path / "r.jsonl", [gaussian_line(0.0, 1.0, 0.5)] * 300)
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    stdout = FailingStdout(exc, fd)
    argv = ["monitor", path, "--out", str(tmp_path / "out")]
    try:
        with contextlib.redirect_stdout(stdout):
            if isinstance(exc, BrokenPipeError):
                assert cli.main(argv) == cli.EXIT_BROKEN_PIPE
            else:
                with pytest.raises(KeyboardInterrupt):
                    cli.main(argv)
    finally:
        os.close(fd)
    assert stdout.getvalue().count("\n") > 10  # two blocks' rows were printed
    assert not (tmp_path / "out").exists()


def traced_peak(tmp_path, command: list, n: int, out: bool = True) -> int:
    """The peak traced memory of ``command`` over ``n`` Gaussian records,
    one miss in eight lines, which lets a monitor's e-value drift down
    without overflow."""
    cycle = [gaussian_line(0.0, 1.0, y) for y in (0.1, -0.5, 2.0, 0.3, -1.2, 0.0, 1.5, -0.2)]
    path = write_lines(tmp_path / f"r{n}.jsonl", cycle * (n // len(cycle)))
    argv = [command[0], path, *command[1:]]
    argv += ["--out", str(tmp_path / f"out{n}")] if out else []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert cli.main(argv) in (0, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("command", [["monitor"], ["check", "--testing", "evalue_monitor"]])
def test_cli_monitor_memory_does_not_grow_with_the_stream(tmp_path, command):
    # the monitor keeps no per-record state, and --out streams its trace,
    # whether monitor or check's monitor slot runs it
    traced_peak(tmp_path, command, 8)  # imports orjson and warms caches
    assert traced_peak(tmp_path, command, 40_000) - traced_peak(tmp_path, command, 4_000) < 250_000


@pytest.mark.parametrize("command, per_record", [
    (["check"], 2),
    (["check", "--bins", "3"], 24),
    (["check", "--metric", "folded_ks", "--sided", "one"], 16),
])
def test_cli_check_memory_holds_one_score_per_record(tmp_path, command, per_record):
    # an offline check keeps at most one score per record, and drops each
    # block once it is scored; a joined batch held 46 to 55 bytes per
    # Gaussian record.  A Binomial check keeps only its k running counts.  A
    # KS check sorts its scores in place, and the ecdf table reads them.
    # Without --out: the tables' text grows with the records by design
    traced_peak(tmp_path, command, 8, out=False)
    growth = (traced_peak(tmp_path, command, 40_000, out=False)
              - traced_peak(tmp_path, command, 4_000, out=False))
    assert growth < per_record * 36_000


@pytest.mark.slow
@pytest.mark.parametrize("command, per_record", [(["check"], 2), (["check", "--bins", "3"], 24)])
def test_cli_check_memory_at_a_million_records(tmp_path, command, per_record):
    # where the records' arrays, not a block's parse, set the peak: a
    # Binomial check holds k counts, and a binned one the scores, the
    # uncertainty and the argsort positions, whose chunks are the bins' parts
    # (8 bytes each per record); the lists of block arrays add a few
    # pointers per block, well under one block of input
    traced_peak(tmp_path, command, 8, out=False)
    growth = (traced_peak(tmp_path, command, 1_000_000, out=False)
              - traced_peak(tmp_path, command, 100_000, out=False))
    assert growth < per_record * 900_000 + cli.BLOCK


def test_cli_check_monitor_slot_and_monitor_agree_on_a_cut_stream(tmp_path, capsys):
    # check's monitor slot streams as monitor does: a bad line mid-file ends
    # both runs after the rows before it, with the same files and error line
    path, _ = weather_file(tmp_path, seed=3)
    lines = path.read_text().splitlines(keepends=True)
    cut = tmp_path / "cut.jsonl"
    cut.write_text("".join(lines[:200] + ['{"mu": 1.0, "sigma": 2.0,\n'] + lines[200:]))
    runs = {}
    for name, flags in (("check", ["--testing", "evalue_monitor"]), ("monitor", [])):
        argv = [name, str(cut), *flags, "--out", str(tmp_path / name)]
        code = cli.main(argv)
        out, err = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
        runs[name] = code, out, err, files
    check, monitor = runs["check"], runs["monitor"]
    assert check[0] == monitor[0] == cli.EXIT_DATA
    assert check[2] == monitor[2]
    assert check[2].startswith("data error: line 201: ") and check[2].count("\n") == 1
    assert sorted(check[3]) == ["etrace.csv", "report.json"]
    assert check[3] == monitor[3]
    assert check[3]["etrace.csv"].count(b"\n") == 201  # the header and 200 rows
    # monitor prints the 200 trace rows before the summary both print
    rows, summary = monitor[1].split("\n", 200), check[1]
    assert rows[-1] == summary
    assert [row.split(",")[0] for row in rows[:-1]] == [str(t) for t in range(1, 201)]


def test_consecutive_main_calls_report_as_fresh_calls(tmp_path, capsys):
    # main builds its argument parser once per process: a parse leaves no
    # flag behind, so each command reports what it reports on a new parser
    path, _ = weather_file(tmp_path, seed=5)
    argvs = [["check", str(path), "--bins", "3", "--sided", "one"], ["check", str(path)],
             ["monitor", str(path)]]

    def run(argv, out):
        code = cli.main([*argv, "--out", str(out)])
        return code, capsys.readouterr(), (out / "report.json").read_bytes()

    fresh = []
    for i, argv in enumerate(argvs):
        cli._build_parser.cache_clear()
        fresh.append(run(argv, tmp_path / f"fresh{i}"))
    assert cli._build_parser() is cli._build_parser()
    assert [run(argv, tmp_path / f"again{i}") for i, argv in enumerate(argvs)] == fresh
    assert [code for code, _, _ in fresh] == [0, 0, 0]


def test_cli_seed_env_fallback(tmp_path, capsys, monkeypatch):
    path, _ = weather_file(tmp_path, seed=5)
    monkeypatch.setenv(cli.SEED_ENV_VAR, "123")
    cli.main(["check", str(path), "--out", str(tmp_path / "env")])
    report = json.loads((tmp_path / "env" / "report.json").read_text())
    assert report["provenance"]["config"]["seed"] == 123
    monkeypatch.setenv(cli.SEED_ENV_VAR, "notanint")
    assert cli.main(["check", str(path)]) == 2


@pytest.mark.parametrize("argv", [["check", "{weather}"], ["monitor", "{weather}"],
                                  ["simulate", "weather", "--out", "{out}"]])
def test_cli_negative_seed_env_is_a_config_error(tmp_path, capsys, monkeypatch, argv):
    # numpy's generators refuse a negative seed with a ValueError, which
    # would exit 1, the reject code
    path, _ = weather_file(tmp_path, seed=5)
    monkeypatch.setenv(cli.SEED_ENV_VAR, "-1")
    fill = {"weather": str(path), "out": str(tmp_path / "out")}
    assert cli.main([a.format(**fill) for a in argv]) == 2
    assert capsys.readouterr().err == "config error: seed must be >= 0, got -1\n"
    assert not (tmp_path / "out").exists()


def test_cli_byte_identical_reruns(tmp_path):
    path, _ = weather_file(tmp_path, seed=8)
    for d in ("r1", "r2"):
        cli.main(
            ["check", str(path), "--metric", "folded_ks", "--sided", "one",
             "--seed", "4", "--out", str(tmp_path / d)]
        )
    a = (tmp_path / "r1" / "report.json").read_bytes()
    b = (tmp_path / "r2" / "report.json").read_bytes()
    assert a == b


def test_cli_simulate_weather_and_report(tmp_path, capsys):
    out = tmp_path / "sim"
    code = cli.main(["simulate", "weather", "--seed", "3", "--out", str(out)])
    assert code == 0
    recs = parse_records(out / "weather_records.jsonl", "gaussian")
    assert len(recs) == 365
    # report re-renders the saved run report
    code = cli.main(["report", str(out / "report.json")])
    assert code == 0
    assert "simulation summary" in capsys.readouterr().out


def test_cli_simulate_robot_defaults(tmp_path):
    out = tmp_path / "robot"
    code = cli.main(["simulate", "robot", "--seed", "1", "--out", str(out)])
    assert code == 0
    recs = parse_records(out / "robot_records.jsonl", "particles")
    assert len(recs) == 500
    assert recs.w[0].shape == (500,)


def test_cli_simulate_drift_sweep_scaled(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_seeds": 2, "n_steps": 60}))
    out = tmp_path / "sweep"
    code = cli.main(
        ["simulate", "drift_sweep", "--seed", "0", "--config", str(cfg),
         "--out", str(out)]
    )
    assert code == 0
    table = (out / "sweep_summary.csv").read_text().splitlines()
    assert table[0] == "multiplier,n_seeds,alarms,median_first_crossing"
    assert len(table) == 4  # default three multipliers
    env = (out / "sweep_envelope.csv").read_text().splitlines()
    assert len(env) == 1 + 3 * 60


def test_drift_sweep_over_no_multipliers_writes_empty_tables(tmp_path):
    # the CLI refuses an empty multiplier list; the library runs no cell
    run = cli.run_simulate("drift_sweep", RobotSimConfig(n_steps=3, n_particles=20),
                           EValueConfig(0.9, 0.8, 0.05), multipliers=(), n_seeds=1)
    with cli._Output(tmp_path) as out:
        cli._write_outputs(run, out)
    assert (tmp_path / "sweep_envelope.csv").read_text() == "multiplier,t,e05,e50,e95\n"
    curves = json.loads((tmp_path / "report.json").read_text())["curves"]
    assert curves == {name: [header, []] for name, (header, _) in run.curves.items()}


def mv_gaussian_file(tmp_path, seed: int, scale: float):
    """Calibrated two-dimensional Gaussians whose covariances are then
    shrunk by ``scale**2``: below 1 they are overconfident."""
    rng = np.random.default_rng(seed)
    n = 200
    a = rng.normal(size=(n, 2, 2))
    cov = a @ a.transpose(0, 2, 1) + 0.5 * np.eye(2)
    mu = rng.normal(size=(n, 2))
    y = mu + np.einsum("nij,nj->ni", np.linalg.cholesky(cov), rng.standard_normal((n, 2)))
    path = tmp_path / f"mv_{scale}.jsonl"
    write_records(MvGaussianBatch(mu, cov * scale**2, y), path)
    return path


@pytest.mark.parametrize("scale, code", [(1.0, 0), (0.5, 1)])
def test_cli_monitor_mv_gaussian_decides(tmp_path, capsys, scale, code):
    # the monitor scores the ellipsoids check's coverage metric counts
    path = mv_gaussian_file(tmp_path, seed=12, scale=scale)
    assert cli.main(["monitor", str(path), "--out", str(tmp_path / "out")]) == code
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["report"]["recipe_config"]["t"] == 200
    assert report["report"]["decision"] == ("reject" if code else "accept")


def spread_file(tmp_path, family: str, scale: float):
    """200 calibrated records of ``family`` whose forecasts are then widened
    ``scale`` times: Gaussian standard deviations, multivariate Gaussian
    covariances by ``scale**2``, and clouds about their weighted mean."""
    if family == "mv_gaussian":
        return mv_gaussian_file(tmp_path, seed=12, scale=scale)
    rng = np.random.default_rng(13)
    if family == "gaussian":
        mu, sigma = rng.normal(size=200), rng.uniform(0.5, 2.0, 200)
        batch = GaussianBatch(mu, sigma * scale, mu + sigma * rng.standard_normal(200))
    else:
        w, pts, y = self_drawn_clouds(rng, 200, 50, 2)
        mean = [wi @ p for wi, p in zip(w, pts)]
        batch = ParticleBatch(w, [m + scale * (p - m) for m, p in zip(mean, pts)], y)
    path = tmp_path / f"{family}_{scale}.jsonl"
    write_records(batch, path)
    return path


ONE_SIDED_RECIPES = {"binomial": ["check", "--sided", "one"],
                     "folded_ks": ["check", "--metric", "folded_ks", "--sided", "one"],
                     "monitor": ["monitor"]}


@pytest.mark.parametrize("recipe", ONE_SIDED_RECIPES)
@pytest.mark.parametrize("family", ["gaussian", "mv_gaussian", "particles"])
def test_one_sided_recipes_accept_cautious_and_reject_overconfident_forecasts(
        tmp_path, capsys, family, recipe):
    # the paper's modification (a): a one-sided recipe rejects only
    # over-confidence, so a forecast 4x too wide passes on every family
    # and one 2x too narrow is rejected
    command, *flags = ONE_SIDED_RECIPES[recipe]
    for scale, code in ((4.0, 0), (0.5, 1)):
        assert cli.main([command, str(spread_file(tmp_path, family, scale)), *flags]) == code, scale
    capsys.readouterr()


def test_cli_gaussian_residual_beyond_the_float_range_scores_as_a_far_miss(tmp_path, capsys):
    # y - mu past the float maximum warned of overflow in subtract, and a
    # residual over a subnormal sigma of overflow in divide: a traceback and
    # exit 1 under -W error; each scores PIT 1, as a miss of 1e3 standard
    # deviations already does, silently whether warnings print or raise
    lines = weather_file(tmp_path, seed=5)[0].read_text().splitlines()
    runs = []
    for far in ({"mu": 0, "sigma": 1, "y": 1e3}, {"mu": -1e308, "sigma": 1, "y": 1e308},
                {"mu": 0, "sigma": 1e-310, "y": 1}):
        path = write_lines(tmp_path / "far.jsonl", lines[:100] + [json.dumps(far)] + lines[100:])
        for action in ("error", "default"):
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                check = cli.main(["check", str(path)]), capsys.readouterr()
                monitor = cli.main(["monitor", str(path)]), capsys.readouterr()
            runs.append((check, monitor))
    assert all(run == runs[0] for run in runs)
    assert all(out.err == "" and "decision: " in out.out for out in (runs[0][0][1], runs[0][1][1]))


def test_cli_mv_residual_beyond_the_float_range_scores_as_a_far_miss(tmp_path, capsys):
    # a squared distance past the float maximum warned of overflow in matmul,
    # a traceback and exit 1 under -W error; check and monitor must score it
    # PIT 1, as a miss of 1e3 standard deviations already is
    lines = mv_gaussian_file(tmp_path, seed=12, scale=1.0).read_text().splitlines()
    runs = {}
    for y in (1e3, 1e200):
        far = json.dumps({"mu": [0, 0], "cov": [[1, 0], [0, 1]], "y": [y, y]})
        path = tmp_path / f"far_{y}.jsonl"
        path.write_text("\n".join(lines[:100] + [far] + lines[100:]) + "\n")
        check = cli.main(["check", str(path)]), capsys.readouterr()
        monitor = cli.main(["monitor", str(path)]), capsys.readouterr()
        runs[y] = check, monitor
    assert runs[1e3] == runs[1e200]
    assert all(out.err == "" for _, out in runs[1e200])


def test_cli_check_monitor_slot_swap(tmp_path):
    # pure testing-slot swap: same records, same model/metric fields
    path, _ = weather_file(tmp_path, seed=5)
    off = cli.main(["check", str(path)])
    on = cli.main(["check", str(path), "--testing", "evalue_monitor",
                   "--lambda", "0.9"])
    assert off in (0, 1) and on in (0, 1)


# ---------------------------------------------------------------------------
# configuration resolution
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv, file_cfg, code",
    [
        (["check", "{weather}"], {"alpha": "x"}, 2),
        (["check", "{weather}"], {"levels": [0.5, 0.2]}, 2),
        (["check", "{weather}"], {"bins": "x"}, 2),
        (["check", "{weather}"], {"bins": 2.5}, 2),
        (["check", "{weather}"], {"sided": "One"}, 2),
        (["simulate", "weather", "--out", "{out}"], {"window": 1}, 2),
        (["simulate", "robot", "--out", "{out}"], {"n_particles": 20.5}, 2),
        # null means absent in every command, as it does for check
        (["simulate", "drift_sweep", "--out", "{out}"],
         {"alpha": None, "n_seeds": 1, "n_steps": 5, "n_particles": 20,
          "multipliers": [1.0]}, 0),
        # a float field nothing validates still fails as configuration
        (["simulate", "weather", "--out", "{out}"], {"seasonal_amplitude": "x"}, 2),
        # models no record file can hold are unknown, not bad data
        (["check", "{weather}"], {"model": "parametric"}, 2),
        (["check", "{weather}"], {"model": "set_provider"}, 2),
        # Binomial tests at level -/+ tolerance need those levels in (0, 1)
        (["check", "{weather}", "--tolerance", "0.1", "--sided", "one"], {}, 2),
        (["check", "{weather}"], {"tolerance": 0.1, "levels": [0.5, 0.95]}, 2),
        (["check", "{weather}"], {"tolerance": 0.1, "levels": [0.5, 0.95], "sided": "one"}, 0),
        # a drift sweep needs a seed and no negative drift
        (["simulate", "drift_sweep", "--out", "{out}"],
         {"n_seeds": 0, "n_steps": 5, "n_particles": 20}, 2),
        (["simulate", "drift_sweep", "--out", "{out}"],
         {"n_seeds": 1, "n_steps": 5, "n_particles": 20, "multipliers": [1.0, -0.5]}, 2),
        # drift multipliers are a non-empty list of numbers: not a string of
        # digits, not a bool
        (["simulate", "drift_sweep", "--out", "{out}"],
         {"n_seeds": 1, "n_steps": 5, "n_particles": 20, "multipliers": "12"}, 2),
        (["simulate", "drift_sweep", "--out", "{out}"],
         {"n_seeds": 1, "n_steps": 5, "n_particles": 20, "multipliers": [True, 1]}, 2),
        (["simulate", "drift_sweep", "--out", "{out}"],
         {"n_seeds": 1, "n_steps": 5, "n_particles": 20, "multipliers": []}, 2),
        # numpy's generators take no negative seed, by flag or by config key
        (["monitor", "{weather}", "--seed", "-1"], {}, 2),
        (["simulate", "weather", "--seed", "-1", "--out", "{out}"], {}, 2),
        (["check", "{weather}"], {"seed": -1}, 2),
        (["simulate", "weather", "--out", "{out}"], {"seed": -1}, 2),
        # NaN fails every comparison, so it passes no range or order check
        (["check", "{weather}", "--levels", "0.5,nan"], {}, 2),
        (["check", "{weather}", "--levels", "nan"], {}, 2),
        # a level grid is one flat list, not a list of lists
        (["check", "{weather}"], {"levels": [[0.5, 0.9]]}, 2),
        (["check", "{weather}"], {"levels": [[0.5], [0.9]]}, 2),
        # a NaN or infinite simulator value is configuration, not a depleted
        # filter, a degenerate window or collinear beacons
        (["simulate", "robot", "--out", "{out}"], {"range_noise_sd": math.nan}, 2),
        (["simulate", "robot", "--out", "{out}"], {"drift_multiplier": math.inf}, 2),
        (["simulate", "weather", "--out", "{out}"], {"noise_sd": math.nan}, 2),
        (["simulate", "weather", "--out", "{out}"], {"seasonal_amplitude": math.inf}, 2),
        (["simulate", "robot", "--out", "{out}"],
         {"beacon_positions": [[0, 0], [10, 0], [0, math.inf]]}, 2),
        (["simulate", "drift_sweep", "--out", "{out}"],
         {"n_seeds": 1, "n_steps": 5, "n_particles": 20, "multipliers": [math.inf]}, 2),
    ],
)
def test_cli_config_values_resolve_alike(tmp_path, capsys, argv, file_cfg, code):
    path, _ = weather_file(tmp_path, seed=5)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(file_cfg))
    fill = {"weather": str(path), "out": str(tmp_path / "out")}
    got = cli.main([a.format(**fill) for a in argv] + ["--config", str(cfg)])
    err = capsys.readouterr().err
    assert got == code
    if code == 2:
        assert err.startswith("config error:")
        assert not (tmp_path / "out").exists()


SWEEP = {"n_seeds": 1, "n_steps": 5, "n_particles": 20}


@pytest.mark.parametrize(
    "argv, file_cfg",
    [
        # recipe integers: a true bins ran a one-bin check, a true seed seed 1
        (["check", "{weather}", "--out", "{out}"], {"bins": True}),
        (["check", "{weather}", "--out", "{out}"], {"seed": True}),
        # recipe reals: a false tolerance passed as 0.0
        (["check", "{weather}", "--out", "{out}"], {"tolerance": False}),
        (["monitor", "{weather}", "--out", "{out}"], {"alpha": True}),
        (["monitor", "{weather}", "--out", "{out}"], {"lambda": True}),
        (["monitor", "{weather}", "--out", "{out}"], {"p_alt": False}),
        # simulator integer and real fields
        (["simulate", "weather", "--out", "{out}"], {"n_days": True}),
        (["simulate", "robot", "--out", "{out}"], {"process_noise_sd": True}),
        # the drift sweep's own counts and reals
        (["simulate", "drift_sweep", "--out", "{out}"], {**SWEEP, "n_seeds": True}),
        (["simulate", "drift_sweep", "--out", "{out}"], {**SWEEP, "alpha": False}),
    ],
)
def test_cli_boolean_config_value_for_a_number_exits_2(tmp_path, capsys, argv, file_cfg):
    path, _ = weather_file(tmp_path, seed=5)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(file_cfg))
    fill = {"weather": str(path), "out": str(tmp_path / "out")}
    assert cli.main([a.format(**fill) for a in argv] + ["--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:")
    assert "a boolean is not a number" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, file_cfg, error",
    [
        # a misspelled key is not a tolerance of 0.0
        (["check", "{weather}"], {"tolerence": 0.3, "sided": "one"},
         "check does not apply 'tolerence'"),
        # a monitor tests coverage at lambda alone
        (["check", "{weather}", "--testing", "evalue_monitor", "--tolerance", "0.3"], {},
         "check does not apply 'tolerance'"),
        (["check", "{weather}", "--testing", "evalue_monitor", "--metric", "pit_ks"], {},
         "the e-value monitor scores coverage, not the PIT"),
        (["check", "{weather}", "--testing", "evalue_monitor", "--levels", "0.5"], {},
         "check does not apply 'levels'"),
        (["check", "{weather}", "--testing", "evalue_monitor", "--sided", "one"], {},
         "check does not apply 'sided'"),
        (["monitor", "{weather}"],
         {"testing": "ks", "metric": "pit_ks", "tolerance": 0.2, "levels": [0.5]},
         "the e-value monitor scores coverage, not the PIT"),
        (["monitor", "{weather}"], {"testing": "ks"}, "monitor does not apply 'testing'"),
        (["monitor", "{weather}"], {"tolerance": 0.2, "levels": [0.5]},
         "monitor does not apply 'tolerance'"),
        # Binomial tests take no e-value alternative; simulations test nothing
        (["check", "{weather}", "--lambda", "0.5", "--p-alt", "0.1"], {},
         "check does not apply 'lambda'"),
        (["simulate", "weather", "--alpha", "0.9", "--lambda", "0.2"], {},
         "simulate does not apply 'alpha'"),
    ],
)
def test_cli_settings_a_run_does_not_apply_exit_2(tmp_path, capsys, argv, file_cfg, error):
    # an ignored setting would be recorded in the provenance as applied
    path, _ = weather_file(tmp_path, seed=5)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(file_cfg))
    fill = {"weather": str(path)}
    argv = [a.format(**fill) for a in argv] + ["--config", str(cfg), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {error}\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


PARTICLE_LINE = json.dumps({"w": [0.5, 0.5], "pts": [[0.0, 0.0], [1.0, 1.0]], "y": [0.5, 0.5]})


@pytest.mark.parametrize(
    "argv, files, code, message",
    [
        # the config file: missing, not JSON, not an object
        (["check", "{weather}", "--config", "{dir}/absent.json"], {}, 2,
         "cannot read config file"),
        (["check", "{weather}", "--config", "{dir}/c.json"], {"c.json": "{"}, 2,
         "config file is not valid JSON"),
        (["check", "{weather}", "--config", "{dir}/c.json"], {"c.json": "[1]"}, 2,
         "config file must hold a JSON object"),
        # a saved report: unreadable, not JSON
        (["report", "{dir}/absent.json"], {}, 3, "cannot read report"),
        (["report", "{dir}/r.json"], {"r.json": "{"}, 3, "report is not valid JSON"),
        # the first record line: not JSON, no known schema
        (["check", "{dir}/r.jsonl"], {"r.jsonl": "not json\n"}, 3,
         "first record line is not valid JSON"),
        (["check", "{dir}/r.jsonl"], {"r.jsonl": '{"a": 1}\n'}, 3, "record schema not recognized"),
        # recipes the slots refuse
        (["check", "{weather}", "--config", "{dir}/c.json"], {"c.json": '{"metric": "brier"}'},
         2, "unknown metric 'brier'"),
        (["check", "{weather}", "--config", "{dir}/c.json"], {"c.json": '{"testing": "t"}'},
         2, "unknown testing 't'"),
        (["check", "{dir}/p.jsonl", "--metric", "coverage"], {"p.jsonl": PARTICLE_LINE}, 2,
         "particle clouds are covered by metric=halfplane"),
        (["check", "{weather}", "--metric", "pit_ks", "--tolerance", "0.1"], {}, 2,
         "KS tolerance bands run on the folded PIT"),
        (["check", "{weather}", "--metric", "folded_ks", "--tolerance", "0.1"], {}, 2,
         "no two-sided KS tolerance band is defined"),
        (["check", "{weather}", "--metric", "pit_ks", "--testing", "binom_bonferroni"], {}, 2,
         "Binomial testing consumes coverage counts"),
        (["check", "{weather}", "--bins", "0"], {}, 2, "bins must be >= 1"),
        (["check", "{weather}", "--tolerance", "0.6"], {}, 2, "tolerance must lie in [0, 0.5)"),
        (["monitor", "{weather}", "--alpha", "2"], {}, 2, "alpha must lie in (0, 1)"),
    ],
)
def test_cli_error_branches_exit_with_their_code(tmp_path, capsys, argv, files, code, message):
    path, _ = weather_file(tmp_path, seed=5)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert cli.main([a.format(weather=path, dir=tmp_path) for a in argv]) == code
    err = capsys.readouterr().err
    assert err.startswith("config error: " if code == 2 else "data error: ")
    assert message in err


@pytest.mark.parametrize("text", ["not json\n", "", None], ids=["bad_line", "empty", "missing"])
@pytest.mark.parametrize(
    "argv, file_cfg, key",
    [
        (["check", "{records}", "--lambda", "0.5"], {}, "lambda"),
        (["check", "{records}"], {"tolerence": 0.3}, "tolerence"),
        # monitor reads every flag it declares: only a config key can be refused
        (["monitor", "{records}"], {"levels": [0.5]}, "levels"),
        (["monitor", "{records}"], {"testing": "ks"}, "testing"),
    ],
)
def test_cli_refused_setting_beats_bad_record_input(tmp_path, capsys, argv, file_cfg, key,
                                                     text):
    # every setting is resolved before the first record line is sniffed, so
    # a refused one exits 2 where the same input alone exits 3
    records = tmp_path / "r.jsonl"
    if text is not None:
        records.write_text(text)
    assert cli.main(argv[:1] + [str(records)]) == 3
    capsys.readouterr()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(file_cfg))
    argv = [a.format(records=records) for a in argv] + ["--config", str(cfg)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"config error: {argv[0]} does not apply {key!r}\n"


@pytest.mark.parametrize("text", ["not json\n", "", None], ids=["bad_line", "empty", "missing"])
@pytest.mark.parametrize(
    "argv, error",
    [
        (["check", "{records}", "--alpha", "2"], "alpha must lie in (0, 1), got 2.0"),
        (["check", "{records}", "--bins", "0"], "bins must be >= 1"),
        (["check", "{records}", "--metric", "pit_ks", "--testing", "binom_holm"],
         "Binomial testing consumes coverage counts"),
        (["check", "{records}", "--testing", "ks"], "the KS test requires a PIT-family metric"),
        (["check", "{records}", "--tolerance", "0.3", "--levels", "0.2"],
         "tolerance 0.3 shifts level 0.2 out of (0, 1)"),
        (["monitor", "{records}", "--alpha", "2"], "alpha must lie in (0, 1), got 2.0"),
    ],
)
def test_cli_refused_recipe_value_beats_bad_record_input(tmp_path, capsys, argv, error, text):
    # a value refused whatever the model is checked before the first record
    # line is sniffed, so it exits 2 where the same input alone exits 3
    records = tmp_path / "r.jsonl"
    if text is not None:
        records.write_text(text)
    assert cli.main(argv[:1] + [str(records)]) == 3
    capsys.readouterr()
    assert cli.main([a.format(records=records) for a in argv]) == 2
    assert capsys.readouterr().err == f"config error: {error}\n"


def test_cli_drift_sweep_worker_error_exits_3_as_one_cell_does(tmp_path, capsys, monkeypatch):
    # a cell's data error comes back from its worker process and exits as
    # the same error from a sweep run in this process
    monkeypatch.setattr(calcheck.sim, "_usable_cpus", lambda: 4)
    errors = []
    for grid in ({"n_seeds": 1, "multipliers": [1.0]},
                 {"n_seeds": 2, "multipliers": [0.5, 1.0, 2.0]}):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**grid, "n_steps": 5, "n_particles": 20,
                                   "range_noise_sd": 1e-300}))
        argv = ["simulate", "drift_sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors[0] == errors[1] == (
        "data error: particle depletion at step 1: all weights underflowed\n")
    assert multiprocessing.active_children() == []


def test_cli_drift_sweep_exits_70_when_a_worker_dies(tmp_path, capsys, monkeypatch):
    # a killed worker ends the sweep with the crash code, not a verdict,
    # and leaves no worker behind
    from test_sim import cell_killed_at_seed_4

    monkeypatch.setattr(calcheck.sim, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(calcheck.sim, "_sweep_cell", cell_killed_at_seed_4)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_seeds": 2, "multipliers": [0.5, 1.0],
                               "n_steps": 5, "n_particles": 20}))
    argv = ["simulate", "drift_sweep", "--seed", "3", "--config", str(cfg),
            "--out", str(tmp_path / "o")]
    assert cli.main(argv) == cli.EXIT_SOFTWARE == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: a drift sweep worker process ended without its result "
                            "(killed by a signal or out of memory)\n")
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# stdin provenance
# ---------------------------------------------------------------------------

def pipe(monkeypatch, data: bytes) -> None:
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))


def input_digest(out_dir) -> str:
    report = json.loads((out_dir / "report.json").read_text())
    return report["provenance"]["input_digest"]


def stream_bytes(seed: int) -> bytes:
    rng = np.random.default_rng(seed)
    lines = [gaussian_line(0.0, 1.0, float(y)) for y in rng.normal(size=50)]
    return ("\n".join(lines) + "\n").encode()


def test_cli_stdin_digest_covers_the_bytes_read(tmp_path, monkeypatch, capsys):
    digests = []
    for seed in (1, 2):
        pipe(monkeypatch, stream_bytes(seed))
        out = tmp_path / f"s{seed}"
        assert cli.main(["monitor", "-", "--out", str(out)]) in (0, 1)
        digests.append(input_digest(out))
    assert digests[0] != digests[1]


def test_cli_stdin_digest_matches_file_digest(tmp_path, monkeypatch, capsys):
    data = stream_bytes(3)
    path = tmp_path / "s.jsonl"
    path.write_bytes(data)
    assert cli.main(["monitor", str(path), "--out", str(tmp_path / "file")]) in (0, 1)
    pipe(monkeypatch, data)
    assert cli.main(["monitor", "-", "--out", str(tmp_path / "pipe")]) in (0, 1)
    assert input_digest(tmp_path / "pipe") == input_digest(tmp_path / "file")
    assert (tmp_path / "pipe" / "etrace.csv").read_bytes() == (
        tmp_path / "file" / "etrace.csv").read_bytes()


def test_cli_stdin_particles_sniffed_without_config(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(4)
    recs = _random_records(rng, "particles", 20)
    path = tmp_path / "p.jsonl"
    write_records(recs, path)
    pipe(monkeypatch, b"\n" + path.read_bytes())
    assert cli.main(["monitor", "-", "--seed", "2", "--out", str(tmp_path / "o")]) in (0, 1)
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["provenance"]["config"]["model"] == "particles"
    assert report["report"]["recipe_config"]["t"] == 20


# ---------------------------------------------------------------------------
# per-command flags
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent


def _invocations_in(source: str) -> list[list[str]]:
    """Every argv list passed literally to a ``main`` in Python ``source``.

    Elements that are not string literals become "1", which every flag
    value and path argument accepts.  A list with a starred element or a
    command that is not a literal is skipped, as its argv cannot be known.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and node.args
                and isinstance(node.args[0], ast.List)):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        elts = node.args[0].elts
        if (not name.endswith("main") or any(isinstance(e, ast.Starred) for e in elts)
                or elts and not isinstance(elts[0], ast.Constant)):
            continue
        found.append([e.value if isinstance(e, ast.Constant) else "1" for e in elts])
    return found


def _written_invocations() -> list[list[str]]:
    """Every argv list passed literally to a ``main`` under tests/ and bench/."""
    paths = sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("bench/*.py"))
    return [argv for path in paths for argv in _invocations_in(path.read_text())]


def test_invocations_skip_an_argv_the_source_does_not_spell_out():
    source = """
cli.main(["check", path, *flags])
main([command, path])
cli.main(["monitor", path, "--seed", "1"])
"""
    assert _invocations_in(source) == [["monitor", "1", "--seed", "1"]]


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(f"_loaded_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _workload_invocations() -> list[list[str]]:
    wl = _load(ROOT / "bench" / "workloads.py")
    return [list(cmd.argv) for w in wl.WORKLOADS
            for cmd in wl.commands(w, wl.FULL, 1)]


def test_cli_refuses_flags_a_command_ignores(capsys):
    for argv in (["report", "R", "--bins", "5"],
                 ["simulate", "weather", "--metric", "pit_ks"],
                 ["monitor", "F", "--levels", "0.5"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    golden = _load(ROOT / "tests" / "test_golden.py")
    invocations = (_written_invocations() + _workload_invocations()
                   + [list(argv) for argv in golden.CASES.values()])
    assert len(invocations) > 30
    parser = cli._build_parser()
    for argv in invocations:
        parser.parse_args(argv)
