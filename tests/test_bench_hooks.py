"""The names and behaviour the benchmark's tracer and reference checks use.

``bench/tracing.py`` wraps calcheck functions by module attribute and counts
simulated records with ``len()``; ``bench/reference.py`` round-trips a
simulated record file.  A break here would otherwise surface only in a
benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import calcheck.cli
import calcheck.metric
import calcheck.seqtest
import calcheck.sim
from calcheck.sim import RobotSimConfig, WeatherSimConfig, run_robot_sim, run_weather_sim

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    for layer, attr, _counter, _measure, kind in load_tracing().LAYERS:
        mod_name, fn_name = attr.split(".")
        fn = getattr(importlib.import_module(f"calcheck.{mod_name}"), fn_name, None)
        assert callable(fn), f"{layer}: calcheck.{attr} is missing"
        assert inspect.isgeneratorfunction(fn) == (kind == "gen"), attr


def test_per_family_layers_are_bindings_of_one_function():
    # the tracer times each family's monitor step and coverage count under a
    # name of its own; the library defines each once, and cli and sim alone
    # bind the tracer's names to it
    assert (calcheck.cli.monitor_step_gaussian is calcheck.cli.monitor_step_halfplane
            is calcheck.sim.monitor_step_halfplane is calcheck.seqtest.monitor_step)
    assert calcheck.cli.halfplane_coverage is calcheck.metric.coverage_counts


def test_benchmark_entry_points_exist():
    for name in ("main", "parse_records", "write_records"):
        assert callable(getattr(calcheck.cli, name, None)), name
    # called positionally, as bench/reference.py calls them
    inspect.signature(calcheck.cli.parse_records).bind("records.jsonl", "gaussian")
    inspect.signature(calcheck.cli.write_records).bind([], "copy.jsonl")


def test_traced_layers_see_ingest_and_monitor_steps(tmp_path):
    # check and monitor must reach ingest and the monitor steps through the
    # module attributes the tracer wraps, or those layers read zero
    weather, robot = tmp_path / "w", tmp_path / "r"
    cfg = tmp_path / "robot.json"
    cfg.write_text('{"n_steps": 5, "n_particles": 20}')
    assert calcheck.cli.main(["simulate", "weather", "--seed", "1", "--out", str(weather)]) == 0
    assert calcheck.cli.main(["simulate", "robot", "--seed", "1", "--config", str(cfg),
                              "--out", str(robot)]) == 0
    tracer = load_tracing().Tracer()
    saved = tracer.install({"cli": calcheck.cli, "metric": calcheck.metric,
                            "sim": calcheck.sim})
    try:
        tracer.begin_command()
        for argv in (["check", str(weather / "weather_records.jsonl")],
                     ["monitor", str(weather / "weather_records.jsonl")],
                     ["monitor", str(robot / "robot_records.jsonl"), "--seed", "1"]):
            calcheck.cli.main(argv)
        tracer.end_command(keep=True)
    finally:
        tracer.uninstall(saved)
    n_weather = len(run_weather_sim(WeatherSimConfig(seed=1)))
    # the tracer counts one per yield of iter_records, which is one block,
    # and one per monitor step call, which takes one block
    inputs = [(weather / "weather_records.jsonl", "gaussian")] * 2 + [
        (robot / "robot_records.jsonl", "particles")]
    batches = [list(calcheck.cli.iter_records(path, kind)) for path, kind in inputs]
    assert tracer.counts["cli.records_parsed"] == sum(map(len, batches))
    assert sum(len(b) for blocks in batches for b in blocks) == 2 * n_weather + 5
    assert tracer.counts["seqtest.steps"] == len(batches[1]) + len(batches[2])
    for layer in ("cli.iter_records", "seqtest.monitor_step_gaussian",
                  "seqtest.monitor_step_halfplane"):
        assert tracer.totals[layer][0] > 0, layer
    # coverage_counts and halfplane_coverage each count by the one coverage
    # rule; check must still reach both by the names the tracer wraps, the
    # weather check the one and a particle check the other
    saved = tracer.install({"cli": calcheck.cli, "metric": calcheck.metric,
                            "sim": calcheck.sim})
    try:
        tracer.begin_command()
        calcheck.cli.main(["check", str(robot / "robot_records.jsonl"), "--seed", "1"])
        tracer.end_command(keep=True)
    finally:
        tracer.uninstall(saved)
    for layer in ("metric.coverage_counts", "metric.halfplane_coverage"):
        assert tracer.totals[layer][0] > 0, layer
    # the slot tables name what a recipe runs, not the functions: check must
    # look the PIT, the tests and the binning up on cli when it runs, where
    # the tracer wraps them
    saved = tracer.install({"cli": calcheck.cli, "metric": calcheck.metric,
                            "sim": calcheck.sim})
    try:
        for flags in (["--metric", "folded_ks", "--sided", "one", "--tolerance", "0.01"],
                      ["--bins", "3"], ["--testing", "binom_holm"]):
            argv = ["check", str(weather / "weather_records.jsonl"), *flags]
            tracer.begin_command()
            code = calcheck.cli.main(argv)
            tracer.end_command(keep=True)
            assert code in (0, 1), flags
    finally:
        tracer.uninstall(saved)
    for layer in ("metric.pit", "hyptest.ks_test", "metric.variance_bin",
                  "hyptest.coverage_binomial_report"):
        assert tracer.totals[layer][0] > 0, layer


def test_binned_check_scores_each_block_and_tests_each_bin_through_the_traced_layers(tmp_path):
    # a binned check scores each block of records once, as it is read (the
    # 365-record file is one block), then bins once and counts and tests each
    # bin's scores, all by the names the tracer wraps; a call made by another
    # name would give the same bytes but zero these layers' figures
    weather = tmp_path / "w"
    assert calcheck.cli.main(["simulate", "weather", "--seed", "1", "--out", str(weather)]) == 0
    records = str(weather / "weather_records.jsonl")
    binomial = ["check", records, "--bins", "3"]
    folded_ks = ["check", records, "--bins", "3", "--metric", "folded_ks", "--sided", "one",
                 "--tolerance", "0.01"]
    cases = (
        (binomial, {"metric.pit": 1, "metric.variance_bin": 1, "metric.coverage_counts": 3,
                    "hyptest.coverage_binomial_report": 3}),
        (folded_ks, {"metric.pit": 1, "metric.variance_bin": 1, "hyptest.ks_test": 3}),
    )
    for argv, calls in cases:
        tracer = load_tracing().Tracer()
        saved = tracer.install({"cli": calcheck.cli, "metric": calcheck.metric,
                                "sim": calcheck.sim})
        try:
            tracer.begin_command()
            assert calcheck.cli.main(argv) in (0, 1)
            tracer.end_command(keep=True)
        finally:
            tracer.uninstall(saved)
        assert {layer: tracer.totals[layer][0] for layer in calls} == calls, argv


def test_traced_simulate_reaches_the_render_layer(tmp_path):
    # simulate prints and writes report.json through the functions the
    # tracer wraps as cli.render, or sweep_robot's render figures read zero
    cfg = tmp_path / "sweep.json"
    cfg.write_text('{"n_seeds": 1, "n_steps": 5, "n_particles": 20, "multipliers": [1.0]}')
    out = tmp_path / "out"
    tracer = load_tracing().Tracer()
    saved = tracer.install({"cli": calcheck.cli, "metric": calcheck.metric,
                            "sim": calcheck.sim})
    try:
        tracer.begin_command()
        assert calcheck.cli.main(["simulate", "drift_sweep", "--config", str(cfg),
                                  "--out", str(out)]) == 0
        tracer.end_command(keep=True)
    finally:
        tracer.uninstall(saved)
    assert tracer.totals["cli.render"][0] == 2  # the files, then the summary
    names = ["report.json", "sweep_envelope.csv", "sweep_summary.csv"]
    assert sorted(p.name for p in out.iterdir()) == names
    assert tracer.counts["cli.report_bytes"] == sum((out / n).stat().st_size for n in names)


def test_simulated_batches_support_len():
    # the tracer's sim.records_simulated counter is len() of these results
    assert len(run_weather_sim(WeatherSimConfig(window=5, n_days=12))) == 7
    assert len(run_robot_sim(RobotSimConfig(n_particles=10, n_steps=3))) == 3


def test_gaussian_records_round_trip_byte_for_byte(tmp_path):
    assert calcheck.cli.main(["simulate", "weather", "--seed", "1", "--out", str(tmp_path)]) == 0
    path = tmp_path / "weather_records.jsonl"
    copy = tmp_path / "copy.jsonl"
    calcheck.cli.write_records(calcheck.cli.parse_records(path, "gaussian"), copy)
    assert copy.read_bytes() == path.read_bytes()
