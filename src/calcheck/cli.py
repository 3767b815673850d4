"""Command-line surface: ingest records, run recipes, emit reports.

Subcommands: ``check`` (offline batch decision), ``monitor`` (streaming
e-value monitor), ``simulate`` (generate experiment data), ``report``
(re-render a saved run report).  Records travel as JSON lines, one record
per line, so monitors can stream and tests can diff; a file's records are
read into one batch of their family (:mod:`calcheck.records`), a stream
into one-record batches.  Exit codes are scriptable safety gates: 0
accept/clean, 1 reject/alarm, 2 usage or configuration error, 3 data error,
and 141 (128 + SIGPIPE) when the reader of stdout goes away.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import itertools
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from . import __version__
from .errors import CalcheckError, ConfigError, DataError
from .hyptest import (
    ONE_SIDED,
    TWO_SIDED,
    HypothesisSpec,
    TestReport,
    coverage_binomial_report,
    ks_critical,
    ks_test,
)
from .metric import (
    CoverageCurve,
    LevelGrid,
    coverage_counts,
    fold,
    halfplane_coverage,
    pit,
    variance_bin,
)
from .records import FAMILIES, RecordBatch
from .seqtest import (
    EValueConfig,
    MartingaleState,
    monitor_step_gaussian,
    monitor_step_halfplane,
)
from .sim import (
    RobotSimConfig,
    WeatherSimConfig,
    drift_sweep,
    run_robot_sim,
    run_weather_sim,
)

__all__ = [
    "RecipeConfig",
    "RunReport",
    "RecordSource",
    "parse_records",
    "iter_records",
    "write_records",
    "run_check",
    "run_monitor",
    "run_simulate",
    "main",
]

MODELS = tuple(FAMILIES)
METRICS = ("coverage", "pit_ks", "folded_ks", "halfplane")
TESTINGS = ("binom_bonferroni", "binom_holm", "ks", "evalue_monitor")

_CDF_MODELS = ("gaussian", "mv_gaussian")

SEED_ENV_VAR = "CALCHECK_SEED"

EXIT_ACCEPT = 0
EXIT_REJECT = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a killed writer


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RecipeConfig:
    """One concrete four-slot recipe plus run parameters.

    Slot compatibility is enforced here, before any computation: PIT metrics
    need a CDF-bearing model, the half-plane metric needs particles, the KS
    test needs a PIT-family metric, and monitors need an e-value config.
    """

    model: str = "gaussian"
    metric: str = "coverage"
    hypothesis: HypothesisSpec = field(default_factory=HypothesisSpec)
    testing: str = "binom_bonferroni"
    alpha: float = 0.05
    levels: LevelGrid = field(default_factory=LevelGrid.default)
    bins: int | None = None
    evalue: EValueConfig | None = None
    seed: int = 0

    def __post_init__(self):
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}")
        if self.metric not in METRICS:
            raise ConfigError(f"unknown metric {self.metric!r}")
        if self.testing not in TESTINGS:
            raise ConfigError(f"unknown testing {self.testing!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.metric in ("pit_ks", "folded_ks") and self.model not in _CDF_MODELS:
            raise ConfigError(
                f"metric {self.metric!r} needs a CDF-bearing model; the PIT is "
                f"undefined for {self.model!r}"
            )
        if self.metric == "halfplane" and self.model != "particles":
            raise ConfigError("the half-plane metric requires the particles model")
        if self.metric == "coverage" and self.model == "particles":
            raise ConfigError(
                "particle clouds have no centered interval; use metric=halfplane"
            )
        if self.testing == "ks":
            if self.metric not in ("pit_ks", "folded_ks"):
                raise ConfigError("the KS test requires a PIT-family metric")
            if self.hypothesis.sidedness == ONE_SIDED and self.metric != "folded_ks":
                raise ConfigError("the one-sided KS test runs on the folded PIT")
            if self.hypothesis.tolerance > 0.0 and self.metric != "folded_ks":
                raise ConfigError("KS tolerance bands run on the folded PIT")
            if self.hypothesis.sidedness == TWO_SIDED and self.hypothesis.tolerance > 0.0:
                raise ConfigError("no two-sided KS tolerance band is defined")
        if self.testing in ("binom_bonferroni", "binom_holm"):
            if self.metric not in ("coverage", "halfplane"):
                raise ConfigError("Binomial testing consumes coverage counts")
            # the tests run at level - tolerance and, two-sided, level + tolerance
            tol, lv = self.hypothesis.tolerance, self.levels.levels
            out = (lv - tol <= 0.0) | ((self.hypothesis.sidedness == TWO_SIDED) & (lv + tol >= 1.0))
            if out.any():
                raise ConfigError(f"tolerance {tol} shifts level {lv[out][0]:g} out of (0, 1)")
        if self.testing == "evalue_monitor":
            if self.evalue is None:
                raise ConfigError("evalue_monitor requires an e-value config")
            if self.model not in ("gaussian", "particles"):
                raise ConfigError(
                    "monitors are defined for gaussian and particles models"
                )
        if self.bins is not None:
            if self.bins < 1:
                raise ConfigError("bins must be >= 1")
            if self.model not in ("gaussian", "mv_gaussian"):
                raise ConfigError(
                    "variance binning needs a scalar predicted uncertainty"
                )
            if self.testing == "evalue_monitor":
                raise ConfigError("variance binning does not wrap monitors")

    def to_dict(self) -> dict:
        d = {
            "model": self.model,
            "metric": self.metric,
            "sided": "one" if self.hypothesis.sidedness == ONE_SIDED else "two",
            "tolerance": self.hypothesis.tolerance,
            "testing": self.testing,
            "alpha": self.alpha,
            "levels": [float(x) for x in self.levels.levels],
            "bins": self.bins,
            "seed": self.seed,
        }
        if self.evalue is not None:
            d["lambda"] = self.evalue.level
            d["p_alt"] = self.evalue.p_alt
        return d


@dataclass(frozen=True)
class RunReport:
    """Decision-first run output with curve tables and provenance.

    ``report`` is the TestReport (or a plain summary dict for simulations);
    ``curves`` maps table names to (header, rows); ``provenance`` carries the
    input digest, the full recipe configuration, and the tool version, so a
    rerun with identical inputs reproduces the report byte for byte.
    """

    report: TestReport | dict
    curves: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def to_json(self) -> str:
        def default(obj):
            if isinstance(obj, np.ndarray):
                return obj.tolist()
            if isinstance(obj, (np.floating, np.integer)):
                return obj.item()
            if dataclasses.is_dataclass(obj):
                return dataclasses.asdict(obj)
            raise TypeError(f"not serializable: {type(obj)}")

        return json.dumps(
            {
                "report": self.report,
                "curves": self.curves,
                "provenance": self.provenance,
            },
            sort_keys=True,
            default=default,
        )


def _provenance(config: RecipeConfig | dict, digest: hashlib._Hash) -> dict:
    """``digest`` is a sha256 of the input bytes consumed."""
    cfg = config.to_dict() if isinstance(config, RecipeConfig) else config
    return {
        "input_digest": digest.hexdigest(),
        "config": cfg,
        "tool_version": __version__,
    }


# ---------------------------------------------------------------------------
# record ingestion and emission
# ---------------------------------------------------------------------------

class RecordSource:
    """A JSON-lines record file, or stdin for ``'-'``, read once in binary mode.

    Every line read is fed to ``sha256``, so once the records are parsed it
    digests exactly the bytes consumed.  ``peek`` reads ahead to the first
    non-blank line for schema sniffing; ``lines`` replays what was read ahead
    and continues from the input.  Use as a context manager to close a file
    that was not read to its end.
    """

    def __init__(self, path: str | Path):
        self.path = str(path)
        self.sha256 = hashlib.sha256()
        self._ahead: list[bytes] = []
        self._rest = self._read()

    def __str__(self) -> str:
        return self.path

    def __enter__(self) -> "RecordSource":
        return self

    def __exit__(self, *exc) -> None:
        self._rest.close()

    def _read(self) -> Iterator[bytes]:
        stdin = self.path == "-"
        handle = sys.stdin.buffer if stdin else open(self.path, "rb")
        try:
            for line in handle:
                self.sha256.update(line)
                yield line
        finally:
            if not stdin:
                handle.close()

    def peek(self) -> bytes | None:
        """The first non-blank line, or None if the input holds none."""
        for line in self._ahead:
            if line.strip():
                return line
        for line in self._rest:
            self._ahead.append(line)
            if line.strip():
                return line
        return None

    def lines(self) -> Iterator[bytes]:
        """Every line in input order, blank ones included."""
        ahead, self._ahead = self._ahead, []
        return itertools.chain(ahead, self._rest)


def _opened(source: str | Path | RecordSource):
    """Context yielding a RecordSource; one made here is closed on exit."""
    if isinstance(source, RecordSource):
        return contextlib.nullcontext(source)
    return RecordSource(source)


def iter_records(source: str | Path | RecordSource, model_kind: str) -> Iterator[RecordBatch]:
    """Lazily parse records from a JSON-lines file ('-' reads stdin), one
    one-record batch per non-blank line; all share the first record's
    outcome dimension."""
    cls = FAMILIES[model_kind]
    dim = None
    with _opened(source) as src:
        for line_no, line in enumerate(src.lines(), start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line.decode())  # decoding first is faster than json's own
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise DataError(f"line {line_no}: invalid JSON "
                                f"({getattr(exc, 'msg', exc)})") from None
            if not isinstance(obj, dict):
                raise DataError(f"line {line_no}: expected an object")
            batch = cls.from_obj(obj, line_no)
            if dim not in (None, batch.dim):
                raise DataError(f"line {line_no}: outcome dimension {batch.dim} differs "
                                f"from earlier lines ({dim})")
            dim = batch.dim
            yield batch


def parse_records(source: str | Path | RecordSource, model_kind: str) -> RecordBatch:
    """Parse a whole record file into one batch; empty input is an error."""
    batches = list(iter_records(source, model_kind))
    if not batches:
        raise DataError(f"no records in {source}")
    return FAMILIES[model_kind].concat(batches)


def write_records(records: RecordBatch, path: str | Path) -> None:
    """Write records as JSON lines; floats round-trip exactly."""
    with open(path, "w") as handle:
        for obj in records.to_objs():
            handle.write(json.dumps(obj) + "\n")


def sniff_model_kind(source: str | Path | RecordSource) -> str:
    """Infer the record schema from the first non-blank line."""
    with _opened(source) as src:
        line = src.peek()
    if line is None:
        raise DataError(f"no records in {source}")
    try:
        obj = json.loads(line.decode())
    except (json.JSONDecodeError, UnicodeDecodeError):
        raise DataError(f"{source}: first record line is not valid JSON") from None
    if isinstance(obj, dict):
        for kind, cls in FAMILIES.items():
            if cls.keys[1] in obj:
                return kind
    raise DataError(f"{source}: record schema not recognized")


# ---------------------------------------------------------------------------
# offline check
# ---------------------------------------------------------------------------

def _coverage_table(curve: CoverageCurve, report: TestReport) -> tuple[list, list]:
    header = ["level", "count", "n", "fraction", "lower_bound", "upper_bound",
              "p_value", "reject"]
    rows = []
    per_level = report.per_level or ()
    for lam, c, row in zip(curve.levels.levels, curve.counts, per_level):
        rows.append(
            [float(lam), int(c), curve.n, float(c / curve.n), row.lower_bound,
             row.upper_bound, row.p_value, int(row.reject)]
        )
    return header, rows


def _ks_tables(sample, report: TestReport, grid: LevelGrid) -> dict:
    v = np.sort(sample.values)
    n = v.size
    ecdf_rows = [[float(val), float((i + 1) / n)] for i, val in enumerate(v)]
    crit = report.recipe_config["band_halfwidth"]
    tol = report.recipe_config["tolerance"]
    band_rows = []
    for lam in grid.levels:
        if report.recipe_config["sidedness"] == ONE_SIDED:
            band_rows.append([float(lam), float(lam - crit - tol), 1.0])
        else:
            band_rows.append(
                [float(lam), float(max(lam - crit, 0.0)), float(min(lam + crit, 1.0))]
            )
    return {
        "ecdf": (["value", "ecdf"], ecdf_rows),
        "band": (["level", "lower", "upper"], band_rows),
    }


def _single_check(
    config: RecipeConfig, records: RecordBatch, alpha: float
) -> tuple[TestReport, dict]:
    spec = config.hypothesis
    if config.metric in ("coverage", "halfplane"):
        if config.metric == "coverage":
            curve = coverage_counts(records, config.levels)
        else:
            curve = halfplane_coverage(
                records, config.levels, np.random.default_rng([config.seed, 2])
            )
        correction = "holm" if config.testing == "binom_holm" else "bonferroni"
        report = coverage_binomial_report(curve, spec, alpha, correction)
        return report, {"coverage": _coverage_table(curve, report)}
    sample = pit(records)
    if config.metric == "folded_ks":
        sample = fold(sample)
    report = ks_test(sample, spec, alpha)
    return report, _ks_tables(sample, report, config.levels)


def run_check(
    config: RecipeConfig,
    records: RecordBatch,
    digest: hashlib._Hash = hashlib.sha256(),
) -> RunReport:
    """Execute metric, hypothesis, and testing slots on a record batch.

    ``digest``, a sha256 of the input bytes (see :class:`RecordSource`),
    identifies the input in the provenance.

    With ``bins`` configured, the records are partitioned by predicted
    uncertainty and the inner check runs per bin at ``alpha / bins``
    (Bonferroni across bins; disjoint samples make this tight); the family
    rejects when any bin does.
    """
    if not len(records):
        raise DataError("no records to check")
    if config.testing == "evalue_monitor":
        return run_monitor(config, [records], digest=digest)
    if config.bins is None:
        report, curves = _single_check(config, records, config.alpha)
        return RunReport(report=report, curves=curves,
                         provenance=_provenance(config, digest))

    bins = variance_bin(records, config.bins)
    per_bin_alpha = config.alpha / config.bins
    curves: dict = {}
    bin_reports = []
    for b in range(config.bins):
        rep, tables = _single_check(config, records.take(bins.bin_indices(b)), per_bin_alpha)
        bin_reports.append(rep)
        for name, table in tables.items():
            curves[f"{name}_bin{b}"] = table
    any_reject = any(r.rejected for r in bin_reports)
    p_min = min(r.p_value for r in bin_reports if r.p_value is not None)
    report = TestReport(
        decision="reject" if any_reject else "accept",
        statistic=p_min,
        threshold=per_bin_alpha,
        alpha=config.alpha,
        p_value=p_min,
        recipe_config={
            "test": "variance_binned",
            "bins": config.bins,
            "bin_edges": [float(e) for e in bins.bin_edges],
            "bin_decisions": [r.decision for r in bin_reports],
            "inner": bin_reports[0].recipe_config.get("test") if bin_reports else None,
        },
    )
    return RunReport(report=report, curves=curves,
                     provenance=_provenance(config, digest))


# ---------------------------------------------------------------------------
# streaming monitor
# ---------------------------------------------------------------------------

def run_monitor(
    config: RecipeConfig,
    batches: Iterable[RecordBatch],
    digest: hashlib._Hash = hashlib.sha256(),
    on_row: Callable[[int, float, bool], None] | None = None,
) -> RunReport:
    """Consume the records of ``batches`` in order, multiplying the test
    martingale per record.

    Emits one (t, e_value, alarmed) row per record through ``on_row`` as it
    is produced.  The monitor keeps recording after an alarm; the decision
    is the first crossing of ``1/alpha``.  A stream that dies mid-flight
    yields a partial report marked incomplete rather than nothing.  The
    provenance is taken after the stream ends, so a running ``digest`` of
    the input covers every byte the stream consumed.
    """
    ev = config.evalue
    if ev is None:
        raise ConfigError("monitoring requires an e-value config")
    state = MartingaleState()
    rng = np.random.default_rng([config.seed, 1])
    rows = []
    incomplete = False
    error = None
    try:
        for batch in batches:
            for i in range(len(batch)):
                # the steps are looked up on this module, where the
                # benchmark's tracer (bench/tracing.py) wraps them
                if batch.kind == "gaussian":
                    state = monitor_step_gaussian(state, batch.mu[i], batch.sigma[i],
                                                  batch.y[i, 0], ev)
                elif batch.kind == "particles":
                    state = monitor_step_halfplane(state, batch.w[i], batch.pts[i], batch.y[i],
                                                   ev, rng)
                else:
                    raise ConfigError(f"no monitor recipe for {batch.kind} predictions")
                # constant threshold column keeps the emitted trace plottable as-is
                rows.append([state.t, state.e_value, int(state.alarmed), 1.0 / ev.alpha])
                if on_row is not None:
                    on_row(state.t, state.e_value, state.alarmed)
    except DataError as exc:
        incomplete = True
        error = str(exc)
    if state.t == 0 and not incomplete:
        raise DataError("no records to monitor")
    report = TestReport(
        decision="reject" if state.alarmed else "accept",
        statistic=max((r[1] for r in rows), default=1.0),
        threshold=1.0 / ev.alpha,
        alpha=ev.alpha,
        recipe_config={
            "test": "evalue_monitor",
            "level": ev.level,
            "p_alt": ev.p_alt,
            "t": state.t,
            "first_crossing": state.first_crossing,
            "final_e": state.e_value,
            "incomplete": incomplete,
            **({"error": error} if error else {}),
        },
    )
    return RunReport(
        report=report,
        curves={"etrace": (["t", "e_value", "alarmed", "threshold"], rows)},
        provenance=_provenance(config, digest),
    )


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def run_simulate(
    kind: str,
    sim_config: WeatherSimConfig | RobotSimConfig,
    out_dir: str | Path,
    monitor: EValueConfig | None = None,
    multipliers: tuple[float, ...] = (0.5, 1.0, 2.0),
    n_seeds: int = 20,
) -> RunReport:
    """Generate experiment data and write record files under ``out_dir``."""
    out = Path(out_dir)
    with _writing_output():
        out.mkdir(parents=True, exist_ok=True)
    cfg_dict = dataclasses.asdict(sim_config)
    digest = hashlib.sha256(json.dumps(cfg_dict, sort_keys=True, default=str).encode())
    curves: dict = {}
    if kind in ("weather", "robot"):
        records = (run_weather_sim if kind == "weather" else run_robot_sim)(sim_config)
        path = out / f"{kind}_records.jsonl"
        with _writing_output():
            write_records(records, path)
        summary = {"kind": kind, "n_records": len(records), "files": [path.name]}
    elif kind == "drift_sweep":
        if monitor is None:
            raise ConfigError("drift_sweep requires an e-value monitor config")
        sweep = drift_sweep(sim_config, multipliers, n_seeds, monitor)
        summary_rows = []
        env_rows = []
        for entry in sweep.entries:
            summary_rows.append(
                [entry.multiplier, entry.n_seeds, entry.alarm_count,
                 entry.median_first_crossing]
            )
            for t in range(entry.envelope.shape[0]):
                env_rows.append(
                    [entry.multiplier, t + 1, *[float(x) for x in entry.envelope[t]]]
                )
        curves["sweep_summary"] = (
            ["multiplier", "n_seeds", "alarms", "median_first_crossing"],
            summary_rows,
        )
        curves["sweep_envelope"] = (
            ["multiplier", "t", "e05", "e50", "e95"], env_rows
        )
        summary = {
            "kind": kind,
            "multipliers": list(multipliers),
            "n_seeds": n_seeds,
            "alarm_counts": [e.alarm_count for e in sweep.entries],
            "files": [],
        }
    else:
        raise ConfigError(f"unknown simulation kind {kind!r}")
    run = RunReport(report=summary, curves=curves,
                    provenance=_provenance(cfg_dict, digest))
    _write_outputs(run, out)
    return run


# ---------------------------------------------------------------------------
# output rendering
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _writing_output():
    """Report a failure to create or write the output directory as a
    configuration error, not as bad input data."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from None


def _write_csvs(curves: dict, out_dir: str | Path) -> None:
    """Write each ``name: (header, rows)`` table to ``<out_dir>/<name>.csv``."""
    out = Path(out_dir)
    with _writing_output():
        out.mkdir(parents=True, exist_ok=True)
        for name, (header, rows) in curves.items():
            lines = [",".join(header)]
            for row in rows:
                lines.append(",".join("" if x is None else repr(x) if isinstance(x, float) else str(x) for x in row))
            (out / f"{name}.csv").write_text("\n".join(lines) + "\n")


def _write_outputs(run: RunReport, out_dir: str | Path | None) -> None:
    if out_dir is None:
        return
    _write_csvs(run.curves, out_dir)
    with _writing_output():
        (Path(out_dir) / "report.json").write_text(run.to_json() + "\n")


def _render_summary(run: RunReport) -> str:
    rep = run.report
    lines = []
    if isinstance(rep, TestReport):
        lines.append(f"decision: {rep.decision}")
        lines.append(
            f"test: {rep.recipe_config.get('test', '?')}  statistic: {rep.statistic!r}  "
            f"threshold: {rep.threshold!r}  alpha: {rep.alpha!r}"
        )
        if rep.p_value is not None:
            lines.append(f"p_value: {rep.p_value!r}")
        if rep.per_level:
            lines.append("level count n lower upper p_value reject")
            for row in rep.per_level:
                lines.append(
                    f"{row.level:g} {row.count} {row.n} {row.lower_bound} "
                    f"{row.upper_bound} {row.p_value:.6g} {int(row.reject)}"
                )
        for key in ("t", "first_crossing", "final_e", "incomplete", "bin_decisions"):
            if key in rep.recipe_config:
                lines.append(f"{key}: {rep.recipe_config[key]}")
    else:
        lines.append("simulation summary:")
        for key, value in rep.items():
            lines.append(f"  {key}: {value}")
    return "\n".join(lines)


def _report_exit_code(run: RunReport) -> int:
    rep = run.report
    if isinstance(rep, TestReport):
        if rep.recipe_config.get("incomplete"):
            return EXIT_DATA
        return EXIT_REJECT if rep.rejected else EXIT_ACCEPT
    return EXIT_ACCEPT


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_run_flags(sp: argparse.ArgumentParser) -> None:
    """The flags that check, monitor and simulate all read."""
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--lambda", type=float,
                    help="coverage level monitored by the e-value recipe")
    sp.add_argument("--p-alt", dest="p_alt", type=float,
                    help="over-confidence alternative (default: lambda - 0.1)")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--out", help="output directory")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="calcheck",
        description="Calibration checks with a single accept/reject decision.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_check = sub.add_parser("check", help="offline batch calibration check")
    p_check.add_argument("records", help="JSON-lines record file ('-' for stdin)")
    _add_run_flags(p_check)
    p_check.add_argument("--levels", help="comma-separated coverage levels in (0,1)")
    p_check.add_argument("--tolerance", type=float)
    p_check.add_argument("--sided", choices=("one", "two"))
    p_check.add_argument("--metric", choices=METRICS)
    p_check.add_argument("--testing", choices=TESTINGS)
    p_check.add_argument("--bins", type=int)
    p_mon = sub.add_parser("monitor", help="streaming e-value monitor")
    p_mon.add_argument("records", help="JSON-lines record file ('-' for stdin)")
    _add_run_flags(p_mon)
    p_sim = sub.add_parser("simulate", help="generate experiment data")
    p_sim.add_argument("kind", choices=("weather", "robot", "drift_sweep"))
    _add_run_flags(p_sim)
    p_rep = sub.add_parser("report", help="re-render a saved run report")
    p_rep.add_argument("path", help="report.json produced by a previous run")
    p_rep.add_argument("--out", help="directory for the report's CSV tables")
    return parser


def _load_file_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as handle:
            cfg = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc.msg}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    return cfg


def _resolve(args, file_cfg: dict, key: str, convert=None, default=None):
    """One setting: its flag, else the config file, else ``default``.

    A flag the command does not declare and a config value of ``null`` both
    count as absent.  ``convert`` turns a present value into its type; a
    value it cannot convert is a configuration error.
    """
    value = getattr(args, key, None)
    if value is None:
        value = file_cfg.get(key)
    if value is None:
        return default
    if convert is None:
        return value
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {key} {value!r}: {exc}") from None


def _resolve_seed(args, file_cfg: dict) -> int:
    seed = _resolve(args, file_cfg, "seed", _integer)
    if seed is not None:
        return seed
    env = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None


def _integer(value) -> int:
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("not a whole number")
    return int(value)


def _sidedness(value) -> str:
    if value not in ("one", "two"):
        raise ValueError("expected 'one' or 'two'")
    return ONE_SIDED if value == "one" else TWO_SIDED


def _parse_levels(value) -> LevelGrid:
    """A level grid from a comma-separated string or a list of numbers."""
    if isinstance(value, str):
        value = [float(x) for x in value.split(",") if x.strip()]
    return LevelGrid(np.asarray(value, dtype=float))


def _evalue_config(args, file_cfg: dict, alpha: float) -> EValueConfig:
    lam = _resolve(args, file_cfg, "lambda", float, 0.9)
    # lambda - 0.1 is a documented sensitivity knob, not a paper value
    p_alt = _resolve(args, file_cfg, "p_alt", float, lam - 0.1)
    return EValueConfig(level=lam, p_alt=p_alt, alpha=alpha)


def _recipe_from_args(args, file_cfg: dict, model: str, testing: str | None) -> RecipeConfig:
    def setting(key, convert=None, default=None):
        return _resolve(args, file_cfg, key, convert, default)

    alpha = setting("alpha", float, 0.05)
    metric = setting("metric", default="halfplane" if model == "particles" else "coverage")
    if testing is None:
        testing = setting(
            "testing",
            default="ks" if metric in ("pit_ks", "folded_ks") else "binom_bonferroni",
        )
    return RecipeConfig(
        model=model,
        metric=metric,
        hypothesis=HypothesisSpec(
            sidedness=setting("sided", _sidedness, TWO_SIDED),
            tolerance=setting("tolerance", float, 0.0),
        ),
        testing=testing,
        alpha=alpha,
        levels=setting("levels", _parse_levels, LevelGrid.default()),
        bins=setting("bins", _integer),
        evalue=_evalue_config(args, file_cfg, alpha) if testing == "evalue_monitor" else None,
        seed=_resolve_seed(args, file_cfg),
    )


def _finish(run: RunReport, out_dir: str | None) -> int:
    print(_render_summary(run))
    _write_outputs(run, out_dir)
    return _report_exit_code(run)


def _print_row(t: int, e: float, alarmed: bool) -> None:
    print(f"{t},{e!r},{int(alarmed)}")


def _cmd_check(args) -> int:
    file_cfg = _load_file_config(args.config)
    with RecordSource(args.records) as source:
        model = _resolve(args, file_cfg, "model") or sniff_model_kind(source)
        config = _recipe_from_args(args, file_cfg, model, testing=None)
        records = parse_records(source, model)
    return _finish(run_check(config, records, digest=source.sha256), args.out)


def _cmd_monitor(args) -> int:
    file_cfg = _load_file_config(args.config)
    with RecordSource(args.records) as source:
        model = _resolve(args, file_cfg, "model") or sniff_model_kind(source)
        config = _recipe_from_args(args, file_cfg, model, testing="evalue_monitor")
        run = run_monitor(config, iter_records(source, model), digest=source.sha256,
                          on_row=_print_row)
    return _finish(run, args.out)


def _sim_config(cls, file_cfg: dict, seed: int):
    """A simulator config from the config file's keys for ``cls``, each
    converted by its field's annotation."""
    convert = {"int": _integer, "float": float}
    try:
        kwargs = {f.name: convert.get(f.type, lambda v: v)(file_cfg[f.name])
                  for f in dataclasses.fields(cls) if file_cfg.get(f.name) is not None}
        kwargs["seed"] = seed
        if "beacon_positions" in kwargs:
            kwargs["beacon_positions"] = tuple(map(tuple, kwargs["beacon_positions"]))
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {cls.__name__}: {exc}") from None


def _multipliers(value) -> tuple:
    multipliers = tuple(value)
    for m in multipliers:
        float(m)  # fail here on a malformed entry, not inside the sweep
    return multipliers


def _cmd_simulate(args) -> int:
    file_cfg = _load_file_config(args.config)
    out = args.out or "."
    seed = _resolve_seed(args, file_cfg)
    cls = WeatherSimConfig if args.kind == "weather" else RobotSimConfig
    sim_config = _sim_config(cls, file_cfg, seed)
    if args.kind == "drift_sweep":
        alpha = _resolve(args, file_cfg, "alpha", float, 0.05)
        run = run_simulate(
            "drift_sweep", sim_config, out,
            monitor=_evalue_config(args, file_cfg, alpha),
            multipliers=_resolve(args, file_cfg, "multipliers", _multipliers, (0.5, 1.0, 2.0)),
            n_seeds=_resolve(args, file_cfg, "n_seeds", _integer, 20),
        )
    else:
        run = run_simulate(args.kind, sim_config, out)
    print(_render_summary(run))
    return EXIT_ACCEPT


def _saved_report_parts(data) -> tuple[dict, dict, dict]:
    """The ``report``, ``provenance`` and ``curves`` objects of a saved run
    report, each ``{}`` when absent or null; any other shape is bad data."""
    if not isinstance(data, dict):
        raise DataError("report must be a JSON object")
    parts = {key: {} if data.get(key) is None else data[key]
             for key in ("report", "provenance", "curves")}
    for key, part in parts.items():
        if not isinstance(part, dict):
            raise DataError(f"report field {key!r} must be an object")
    for name, table in parts["curves"].items():
        header, rows = table if isinstance(table, list) and len(table) == 2 else (None, None)
        if not (isinstance(header, list) and all(isinstance(h, str) for h in header)
                and isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
            raise DataError(f"report table {name!r} must be [header, rows]")
    return parts["report"], parts["provenance"], parts["curves"]


def _cmd_report(args) -> int:
    try:
        data = json.loads(Path(args.path).read_text())
    except OSError as exc:
        raise DataError(f"cannot read report: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"report is not valid JSON: {exc.msg}") from None
    rep, prov, curves = _saved_report_parts(data)
    lines = []
    if "decision" in rep:
        lines.append(f"decision: {rep['decision']}")
        for key in ("statistic", "threshold", "alpha", "p_value"):
            if rep.get(key) is not None:
                lines.append(f"{key}: {rep[key]!r}")
    else:
        lines.append("simulation summary:")
        for key, value in rep.items():
            lines.append(f"  {key}: {value}")
    if prov:
        lines.append(f"input_digest: {prov.get('input_digest', '?')}")
        lines.append(f"tool_version: {prov.get('tool_version', '?')}")
    print("\n".join(lines))
    if args.out:
        _write_csvs(curves, args.out)
    return EXIT_ACCEPT


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "check": _cmd_check,
        "monitor": _cmd_monitor,
        "simulate": _cmd_simulate,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # the reader left: stop quietly, and keep the exit-time flush of the
        # buffered output from failing again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except CalcheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
