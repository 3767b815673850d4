"""Command-line surface: ingest records, run recipes, emit reports.

Subcommands: ``check`` (offline batch decision), ``monitor`` (streaming
e-value monitor), ``simulate`` (generate experiment data), ``report``
(re-render a saved run report).  Records travel as JSON lines, one record
per line, so monitors can stream and tests can diff.  Input is read in
blocks, and each block's complete lines become one batch of their family
(:mod:`calcheck.records`).  The testing slot decides how they are consumed:
an offline recipe joins them into one batch, and the ``evalue_monitor`` slot
(``monitor``, ``check --testing evalue_monitor``) steps its martingale one
block at a time as they arrive and streams its trace rows to ``--out``
(``monitor`` prints them too), so its memory does not grow with the stream;
it takes every family and scores the sets ``check`` scores.  Exit codes are
scriptable safety gates: 0 accept/clean, 1 reject/alarm, 2 usage or
configuration error, 3 data error, 70 when a drift sweep worker process dies
before returning its cell (a signal, the out-of-memory killer), and 141
(128 + SIGPIPE) when the reader of stdout goes away.  ``report`` prints the
summary block the saved run printed and exits as it did: 1 for a reject,
3 for an incomplete monitor, 0 for an accept or a simulation summary.

Each setting comes from its flag, else the ``--config`` file, else its
default; a given setting that the run does not apply is refused as a
configuration error before records are parsed or output is made, and before
a bad, empty or missing record input is reported.  The ``_METRICS`` and
``_TESTINGS`` tables are the one place where slot pairings are stated.
``check``, ``monitor`` and ``simulate`` all emit through ``_finish``.

Importing this module loads numpy but neither scipy nor orjson.
``scipy.special`` is loaded by the first PIT of (multivariate) Gaussian
records and by the first Binomial tail, so by ``check`` and by ``monitor`` on
Gaussian records; ``simulate``, ``report``, ``monitor`` on particles and a
run that fails on its configuration never load it.  orjson is loaded by the
first block of record lines parsed, so by ``check`` and ``monitor`` alone.

``simulate drift_sweep`` runs its independent (multiplier, seed) cells in
forked worker processes, one per usable CPU (on Linux; elsewhere in this
process), and its output is identical to a serial run's; no other command
starts a process or imports ``multiprocessing``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import itertools
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from . import __version__
from .errors import CalcheckError, ConfigError, DataError, WorkerLostError
from .hyptest import (
    ONE_SIDED,
    TWO_SIDED,
    BinomLevelResult,
    HypothesisSpec,
    TestReport,
    coverage_binomial_report,
    ks_test,
)
from .metric import LevelGrid, coverage_counts, fold, pit, variance_bin
from .records import FAMILIES, RecordBatch
from .seqtest import EValueConfig, MartingaleState, monitor_step
from .sim import (
    RobotSimConfig,
    WeatherSimConfig,
    drift_sweep,
    run_robot_sim,
    run_weather_sim,
)

# The benchmark's tracer (bench/tracing.py) wraps functions by module
# attribute and times each family's coverage count and monitor step as a
# layer of its own, so this module calls them by these per-family names.
monitor_step_gaussian = monitor_step_halfplane = monitor_step
halfplane_coverage = coverage_counts

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

SEED_ENV_VAR = "CALCHECK_SEED"

EXIT_ACCEPT = 0
EXIT_REJECT = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_SOFTWARE = 70  # the run could not finish: a drift sweep worker died
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a killed writer

BLOCK = 1 << 16  # bytes asked of each read of a record input


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

MODELS = tuple(FAMILIES)

# The two tables below are the one statement of which slot values combine.
# _check_slots reads them for RecipeConfig and for a run before its input is
# read; a run resolves the settings of the fields its testing applies, the
# provenance records them, and argparse offers the tables' keys as choices.
# Each metric: the model families it is defined on, and the refusal for the
# others.
_CDF_MODELS = ("gaussian", "mv_gaussian")
_NO_PIT = "metric {metric!r} needs a CDF-bearing model; the PIT is undefined for {model!r}"
_METRICS = {
    "coverage": (_CDF_MODELS, "particle clouds have no centered interval; use metric=halfplane"),
    "pit_ks": (_CDF_MODELS, _NO_PIT),
    "folded_ks": (_CDF_MODELS, _NO_PIT),
    "halfplane": (("particles",), "the half-plane metric requires the particles model"),
}
# Each testing procedure: the metrics it consumes, the refusal for the others,
# and the RecipeConfig fields it applies (it refuses the others).  A metric's
# default testing is the first that consumes it.
_OFFLINE = ("hypothesis", "levels", "bins")
_BINOMIAL = (("coverage", "halfplane"), "Binomial testing consumes coverage counts", _OFFLINE)
_TESTINGS = {
    "binom_bonferroni": _BINOMIAL,
    "binom_holm": _BINOMIAL,
    "ks": (("pit_ks", "folded_ks"), "the KS test requires a PIT-family metric", _OFFLINE),
    "evalue_monitor": (("coverage", "halfplane"),
                       "the e-value monitor scores coverage, not the PIT", ("evalue",)),
}
METRICS = tuple(_METRICS)
TESTINGS = tuple(_TESTINGS)


@dataclass(frozen=True)
class RecipeConfig:
    """One concrete four-slot recipe plus run parameters.

    Slot compatibility is enforced here, before any computation, from the
    ``_METRICS`` and ``_TESTINGS`` tables, the one place where slot pairings
    are stated.  A field the testing does not apply is refused, not ignored:
    an offline test applies ``hypothesis`` (two-sided, no tolerance, when
    unset), ``levels`` (the default grid) and ``bins``; the monitor ``evalue``.
    """

    model: str = "gaussian"
    metric: str = "coverage"
    hypothesis: HypothesisSpec | None = None
    testing: str = "binom_bonferroni"
    alpha: float = 0.05
    levels: LevelGrid | None = None
    bins: int | None = None
    evalue: EValueConfig | None = None
    seed: int = 0

    def __post_init__(self):
        # an offline test's hypothesis and levels come back with their defaults
        # filled in; a frozen dataclass takes them through its __dict__
        self.__dict__.update(_check_slots(self.model, self.metric, self.testing, self.alpha,
                                          self.hypothesis, self.levels, self.bins, self.evalue))

    def to_dict(self) -> dict:
        """The recipe as applied, for the provenance: the settings of the
        fields its testing applies, so a monitor's lambda and p_alt, and an
        offline recipe's sidedness, tolerance, level grid and bins."""
        d = {"model": self.model, "metric": self.metric, "testing": self.testing,
             "alpha": self.alpha, "seed": self.seed}
        (_, _, fields), hyp = _TESTINGS[self.testing], self.hypothesis
        if "hypothesis" in fields:
            d.update(sided="one" if hyp.sidedness == ONE_SIDED else "two", tolerance=hyp.tolerance)
        if "levels" in fields:
            d["levels"] = [float(x) for x in self.levels.levels]
        if "bins" in fields:
            d["bins"] = self.bins
        if "evalue" in fields:
            d.update({"lambda": self.evalue.level, "p_alt": self.evalue.p_alt})
        return d


def _check_slots(model: str | None, metric: str, testing: str, alpha: float,
                 hypothesis=None, levels=None, bins=None, evalue=None) -> dict:
    """Refuse a recipe the tables do not pair or whose settings are out of
    range; return an offline test's hypothesis and levels, defaults filled
    in.  ``model`` None leaves out the checks that read the model."""
    if model is not None and model not in MODELS:
        raise ConfigError(f"unknown model {model!r}")
    if metric not in METRICS:
        raise ConfigError(f"unknown metric {metric!r}")
    if testing not in TESTINGS:
        raise ConfigError(f"unknown testing {testing!r}")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    metrics, refusal, applies = _TESTINGS[testing]
    if metric not in metrics:
        raise ConfigError(refusal)
    given = {"hypothesis": hypothesis, "levels": levels, "bins": bins, "evalue": evalue}
    if refused := [k for k, v in given.items() if v is not None and k not in applies]:
        raise ConfigError(f"{testing} does not apply {refused[0]!r}")
    spec, grid = hypothesis or HypothesisSpec(), levels or LevelGrid.default()
    if testing == "ks":
        if spec.sidedness == ONE_SIDED and metric != "folded_ks":
            raise ConfigError("the one-sided KS test runs on the folded PIT")
        if spec.tolerance > 0.0 and metric != "folded_ks":
            raise ConfigError("KS tolerance bands run on the folded PIT")
        if spec.sidedness == TWO_SIDED and spec.tolerance > 0.0:
            raise ConfigError("no two-sided KS tolerance band is defined")
    elif "levels" in applies:
        # a Binomial test runs at level - tolerance and, two-sided, level + tolerance
        tol, lv = spec.tolerance, grid.levels
        out = (lv - tol <= 0.0) | ((spec.sidedness == TWO_SIDED) & (lv + tol >= 1.0))
        if out.any():
            raise ConfigError(f"tolerance {tol} shifts level {lv[out][0]:g} out of (0, 1)")
    if "evalue" in applies and evalue is None:
        raise ConfigError(f"{testing} requires an e-value config")
    if evalue is not None and evalue.alpha != alpha:  # one alpha for the whole recipe
        raise ConfigError(f"the e-value config's alpha {evalue.alpha} differs from the "
                          f"recipe's alpha {alpha}")
    if bins is not None and bins < 1:
        raise ConfigError("bins must be >= 1")
    families, refusal = _METRICS[metric]
    if model is not None and model not in families:
        raise ConfigError(refusal.format(metric=metric, model=model))
    if model is not None and bins is not None and model not in _CDF_MODELS:
        raise ConfigError("variance binning needs a scalar predicted uncertainty")
    return {"hypothesis": spec, "levels": grid} if "levels" in applies else {}


@dataclass(frozen=True)
class RunReport:
    """Decision-first run output with curve tables and provenance.

    ``report`` holds what ``report.json`` saves: a TestReport as
    ``dataclasses.asdict`` gives it, or a simulation summary; ``curves`` maps
    table names to (header, rows); ``provenance`` carries the input digest,
    the full recipe configuration, and the tool version, so a rerun with
    identical inputs reproduces the report byte for byte.  A monitor run
    holds no ``etrace`` table: its rows are streamed as they are made (see
    :func:`run_monitor` and :class:`_TraceWriter`) and exist only in the
    files they are written to.
    """

    report: dict
    curves: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({"report": self.report, "curves": self.curves,
                           "provenance": self.provenance}, sort_keys=True)


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
    """A JSON-lines record file, or stdin for ``'-'``, read once in binary mode
    in blocks of at most ``BLOCK`` bytes.

    Each block is fed to ``sha256`` as it is read, so the digest covers every
    byte read: the whole input once it is parsed to its end, and the whole
    last block read when a bad line stops the parse.  ``blocks`` yields the
    lines of each block as undecoded bytes, split on ``b"\n"`` only, with a
    partial last line carried into the next; a line keeps its ``\r`` and any
    other whitespace, which ``_parse_line`` strips as JSON does.  ``peek``
    reads ahead to the first non-blank line for schema sniffing, and
    ``blocks`` replays what it read.  Use as a context manager to close a
    file that was not read to its end.
    """

    def __init__(self, path: str | Path):
        self.path = str(path)
        self.sha256 = hashlib.sha256()
        self._ahead: list[list[bytes]] = []
        self._rest = self._read()

    def __str__(self) -> str:
        return self.path

    def __enter__(self) -> "RecordSource":
        return self

    def __exit__(self, *exc) -> None:
        self._rest.close()

    def _read(self) -> Iterator[list[bytes]]:
        stdin = self.path == "-"
        handle = sys.stdin.buffer if stdin else open(self.path, "rb")
        try:
            parts: list[bytes] = []
            # read1 returns what a pipe already holds, so a live stream's
            # records are parsed as they arrive
            while chunk := handle.read1(BLOCK):
                self.sha256.update(chunk)
                parts.append(chunk)
                if b"\n" in chunk:
                    lines = b"".join(parts).split(b"\n")
                    parts = [lines.pop()]
                    yield lines
            if any(parts):
                yield [b"".join(parts)]
        finally:
            if not stdin:
                handle.close()

    def peek(self) -> bytes | None:
        """The first non-blank line, or None if the input holds none."""
        while (line := next((x for b in self._ahead for x in b if x.strip()), None)) is None:
            if (block := next(self._rest, None)) is None:
                return None
            self._ahead.append(block)
        return line

    def blocks(self) -> Iterator[list[bytes]]:
        """The lines of each block in input order, blank ones included."""
        ahead, self._ahead = self._ahead, []
        return itertools.chain(ahead, self._rest)


def _opened(source: str | Path | RecordSource):
    """Context yielding a RecordSource; one made here is closed on exit."""
    if isinstance(source, RecordSource):
        return contextlib.nullcontext(source)
    return RecordSource(source)


# The deepest nesting of arrays and objects a record line may hold; a
# record needs 3.  json's C scanner counts nesting against the recursion
# limit from the caller's stack depth, so without a bound of its own whether
# a line is valid would depend on how deep the program was called.
MAX_DEPTH = 64
# a string, or an unterminated one to the end of the line
_STRING = re.compile(rb'"[^"\\]*(?:\\.[^"\\]*)*"?', re.DOTALL)
# each bracket as its step in nesting depth, with every other byte deleted
_DEPTH_STEPS = bytes.maketrans(b"[{]}", b"\x01\x01\xff\xff")
_NOT_BRACKETS = bytes(b for b in range(256) if b not in b"[{]}")


def _parse_line(line: bytes):
    """The JSON value of one record line, as ``json.loads`` gives it: a bad
    line raises json's own exception and message, positions included.  A
    line nested more than ``MAX_DEPTH`` deep outside its strings raises
    ``ValueError`` before json reads it, and an integer of more than
    ``sys.get_int_max_str_digits()`` digits raises json's ``ValueError``."""
    if line.count(b"[") + line.count(b"{") > MAX_DEPTH:  # else it cannot be deeper
        steps = _STRING.sub(b"", line).translate(_DEPTH_STEPS, _NOT_BRACKETS)
        if np.frombuffer(steps, np.int8).cumsum().max(initial=0) > MAX_DEPTH:
            raise ValueError(f"nested more than {MAX_DEPTH} deep")
    return json.loads(line.decode())  # decoding first is faster than json's own


# At most this many "[" and "{" bytes on a line that orjson parses: it has no
# nesting limit and overflows the C stack on a deep enough line, which
# _parse_line refuses before json reads it.  A 500-particle cloud holds 504.
MAX_BRACKETS = 1024


def _orjson_batch(cls: type[RecordBatch], block: list[bytes]) -> RecordBatch | None:
    """The batch of a block's non-blank lines parsed by orjson, or None for a
    block that the json loop must parse (see :func:`iter_records`)."""
    import orjson

    read = {*cls.keys, "t"}
    objs = []
    for line in block:
        if not line.strip():
            continue
        # a line no longer than the bound cannot hold more brackets
        if len(line) > MAX_BRACKETS and line.count(b"[") + line.count(b"{") > MAX_BRACKETS:
            return None
        try:
            obj = orjson.loads(line)
        except orjson.JSONDecodeError:
            return None
        if type(obj) is not dict:
            return None
        # with every family key present (else the constructor raises), an
        # object holds other keys exactly when it is longer than this
        if len(obj) > len(read) - ("t" not in obj) and any(
                isinstance(obj[key], (dict, list)) for key in obj.keys() - read):
            return None
        objs.append(obj)
    if not objs:
        return None
    try:
        return cls.from_objs(objs)
    except (KeyError, TypeError, ValueError, OverflowError):  # the json loop reports it
        return None


def iter_records(source: str | Path | RecordSource, model_kind: str) -> Iterator[RecordBatch]:
    """Lazily parse records from a JSON-lines file ('-' reads stdin): one
    batch per block of complete lines read (see :class:`RecordSource`),
    blank lines skipped; all share the first record's outcome dimension.

    A block's lines are parsed by orjson and its batch is built from them in
    one step.  orjson reads what json reads, except that it refuses NaN,
    Infinity, lone surrogates and numbers beyond the float range, turns
    integers beyond 64 bits into their correctly rounded floats, and has no
    nesting limit: a deep enough line overflows its C stack, where
    ``_parse_line`` refuses a line nested more than ``MAX_DEPTH`` deep.  So
    a block goes through json line by line (``_parse_line``) instead when a
    line holds more than ``MAX_BRACKETS`` ``[`` and ``{`` bytes, orjson
    refuses a line, a line is not an object, an object holds a container
    under a key the family does not read (it may be nested too deeply; a
    family column that deep fails the batch), or the batch cannot be built
    (a float ``t`` cannot).  Every
    batch is therefore the one json gives, bit for bit, and every error,
    line number and block boundary is the json loop's.

    The first bad line in file order raises a :class:`DataError` naming it,
    after the records before it have been yielded: a line that is not UTF-8,
    not JSON, nested too deeply or holding too long an integer is invalid
    JSON."""
    cls = FAMILIES[model_kind]
    dim, line_no = None, 0
    with _opened(source) as src:
        for block in src.blocks():
            batch = _orjson_batch(cls, block)
            if batch is not None:
                batches, error = [batch], None
                line_nos = [next(n for n, line in enumerate(block, line_no + 1) if line.strip())]
                line_no += len(block)
            else:
                objs, line_nos, error = [], [], None
                for line in block:
                    line_no += 1
                    if not line.strip():
                        continue
                    try:
                        obj = _parse_line(line)
                    except (ValueError, RecursionError) as exc:  # JSON and UTF-8 errors are ValueErrors
                        error = DataError(f"line {line_no}: invalid JSON "
                                          f"({getattr(exc, 'msg', exc)})")
                        break
                    if not isinstance(obj, dict):
                        error = DataError(f"line {line_no}: expected an object")
                        break
                    objs.append(obj)
                    line_nos.append(line_no)
                try:
                    batches = [cls.from_objs(objs)] if objs else []
                except (KeyError, TypeError, ValueError, OverflowError):  # from_obj names the bad line
                    batches = map(cls.from_obj, objs, line_nos)
            # a block batch holds one outcome dimension, so its first line is
            # the first whose dimension can differ
            for batch, first in zip(batches, line_nos):
                if dim not in (None, batch.dim):
                    raise DataError(f"line {first}: outcome dimension {batch.dim} differs "
                                    f"from earlier lines ({dim})")
                dim = batch.dim
                yield batch
            if error is not None:
                raise error


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
        obj = _parse_line(line)
    except (ValueError, RecursionError):
        raise DataError(f"{source}: first record line is not valid JSON") from None
    if isinstance(obj, dict):
        for kind, cls in FAMILIES.items():
            if cls.keys[1] in obj:
                return kind
    raise DataError(f"{source}: record schema not recognized")


# ---------------------------------------------------------------------------
# offline check
# ---------------------------------------------------------------------------

def _coverage_table(report: TestReport) -> tuple[list, list]:
    header = ["level", "count", "n", "fraction", "lower_bound", "upper_bound",
              "p_value", "reject"]
    rows = [[row.level, row.count, row.n, row.count / row.n, row.lower_bound,
             row.upper_bound, row.p_value, int(row.reject)] for row in report.per_level]
    return header, rows


def _ks_tables(sample, report: TestReport, grid: LevelGrid) -> dict:
    v = np.sort(sample.values)
    n = v.size
    ecdf_rows = np.column_stack((v, np.arange(1, n + 1) / n)).tolist()
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
    if config.testing == "ks":
        sample = pit(records)
        if config.metric == "folded_ks":
            sample = fold(sample)
        report = ks_test(sample, config.hypothesis, alpha)
        return report, _ks_tables(sample, report, config.levels)
    if config.metric == "coverage":
        curve = coverage_counts(records, config.levels)
    else:
        curve = halfplane_coverage(records, config.levels, np.random.default_rng([config.seed, 2]))
    correction = "holm" if config.testing == "binom_holm" else "bonferroni"
    report = coverage_binomial_report(curve, config.hypothesis, alpha, correction)
    return report, {"coverage": _coverage_table(report)}


def run_check(
    config: RecipeConfig,
    records: RecordBatch,
    digest: hashlib._Hash = hashlib.sha256(),
) -> RunReport:
    """Execute an offline recipe's slots on a record batch.

    ``digest``, a sha256 of the input bytes (see :class:`RecordSource`),
    identifies the input in the provenance.  An ``evalue_monitor`` recipe is
    a configuration error here: :func:`run_monitor` consumes a stream of
    batches and is the one monitor entry point.

    With ``bins`` configured, the records are partitioned by predicted
    uncertainty and the inner check runs per bin at ``alpha / bins``
    (Bonferroni across bins; disjoint samples make this tight); the family
    rejects when any bin does.
    """
    if config.testing == "evalue_monitor":
        raise ConfigError("an evalue_monitor recipe runs through run_monitor")
    if not len(records):
        raise DataError("no records to check")
    if config.bins is None:
        report, curves = _single_check(config, records, config.alpha)
        return RunReport(report=dataclasses.asdict(report), curves=curves,
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
    p_min = min(r.p_value for r in bin_reports)
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
            "inner": bin_reports[0].recipe_config.get("test"),
        },
    )
    return RunReport(report=dataclasses.asdict(report), curves=curves,
                     provenance=_provenance(config, digest))


# ---------------------------------------------------------------------------
# streaming monitor
# ---------------------------------------------------------------------------

def _trace_lines(t0: int, es: list[float], crossing: int | None) -> str:
    """The ``t,e_value,alarmed`` trace lines of records ``t0 + 1, ...``,
    whose e-values are ``es``; a record is alarmed from ``crossing`` on."""
    n = len(es)
    quiet = n if crossing is None else min(max(crossing - t0 - 1, 0), n)
    alarmed = itertools.chain(itertools.repeat(0, quiet), itertools.repeat(1, n - quiet))
    return "".join(map("{},{!r},{}\n".format, range(t0 + 1, t0 + n + 1), es, alarmed))


def run_monitor(
    config: RecipeConfig,
    batches: Iterable[RecordBatch],
    digest: hashlib._Hash = hashlib.sha256(),
    on_row: Callable[[str], None] | None = None,
) -> RunReport:
    """Consume ``batches`` in order, advancing the test martingale one batch
    at a time and multiplying it by one e-value per record.

    The monitor holds no per-record state, only the martingale, the running
    maximum of the e-value and the batch in hand, so its memory does not
    grow with the stream.  Each record gets one ``t,e_value,alarmed`` line
    of trace text, and ``on_row`` receives each batch's lines as one string,
    in order, as soon as the batch is scored; the trace is kept nowhere
    else.  ``monitor`` prints it, and under ``--out`` the CLI writes the same
    text to ``etrace.csv`` and to ``report.json``'s ``curves.etrace`` rows
    as it arrives (:class:`_TraceWriter`), so each e-value is turned into
    text once.  The monitor keeps recording after an alarm; the decision is
    the first crossing of ``1/alpha``.  A stream that dies mid-flight yields a
    partial report marked incomplete rather than nothing.  An e-value too
    large for a float raises ``OverflowError`` after the lines before it
    have been emitted.  The provenance is taken after the stream ends, so a
    running ``digest`` of the input covers every byte the stream consumed.
    The returned run has no curves.  An offline recipe is a configuration
    error here: :func:`run_check` runs it.
    """
    if config.testing != "evalue_monitor":
        raise ConfigError("an offline recipe runs through run_check")
    ev = config.evalue
    state = MartingaleState()
    rng = np.random.default_rng([config.seed, 1])
    peak = -math.inf  # the largest e-value so far
    incomplete = False
    error = None
    try:
        for batch in batches:
            t0 = state.t
            # one step under the tracer's per-family names (see their bindings)
            step = monitor_step_halfplane if batch.kind == "particles" else monitor_step_gaussian
            state, log_e = step(state, batch, ev, rng)
            es: list[float] = []  # the e-value after each record of the batch
            try:
                # math.exp, not np.exp: the trace holds libm's bits; extend
                # keeps the values before an overflowing one
                es.extend(map(math.exp, log_e.tolist()))
            finally:
                # on an overflow, the lines before it are still emitted
                if on_row is not None:
                    on_row(_trace_lines(t0, es, state.first_crossing))
            peak = max(peak, max(es, default=peak))
    except DataError as exc:
        incomplete = True
        error = str(exc)
    if state.t == 0 and not incomplete:
        raise DataError("no records to monitor")
    report = TestReport(
        decision="reject" if state.alarmed else "accept",
        statistic=peak if state.t else 1.0,
        threshold=_threshold(ev),
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
    return RunReport(report=dataclasses.asdict(report), provenance=_provenance(config, digest))


def _threshold(ev: EValueConfig) -> float:
    """The alarm line ``1/alpha``, the trace's constant last column, which
    keeps it plottable as-is."""
    return 1.0 / ev.alpha


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
    """Generate experiment data and write its record files under ``out_dir``;
    the caller emits the returned run, ``report.json`` included."""
    out = Path(out_dir)
    with _writing_output():
        out.mkdir(parents=True, exist_ok=True)
    cfg_dict = dataclasses.asdict(sim_config)
    digest = hashlib.sha256(json.dumps(cfg_dict, sort_keys=True).encode())
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
        for entry in sweep:
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
            "alarm_counts": [e.alarm_count for e in sweep],
            "files": [],
        }
    else:
        raise ConfigError(f"unknown simulation kind {kind!r}")
    return RunReport(report=summary, curves=curves,
                     provenance=_provenance(cfg_dict, digest))


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
    """Write each ``name: (header, rows)`` table to ``<out_dir>/<name>.csv``,
    a cell as ``str`` of its value."""
    out = Path(out_dir)
    with _writing_output():
        out.mkdir(parents=True, exist_ok=True)
        for name, (header, rows) in curves.items():
            with open(out / f"{name}.csv", "w") as handle:
                handle.write(",".join(header) + "\n")
                handle.write("".join([",".join(["" if x is None else str(x) for x in row]) + "\n"
                                      for row in rows]))


_ETRACE_HEADER = ["t", "e_value", "alarmed", "threshold"]


class _TraceWriter:
    """A monitor's output directory while its stream runs, which stands for
    the directory wherever a path is taken.

    The files are opened before the monitor scores its first record, so an
    unwritable directory fails before any row is printed.  ``write`` takes
    each batch's trace text from :func:`run_monitor`, sends it to ``echo``
    when one is given, and appends it to two partial files: to
    ``etrace.csv``, with the threshold as each line's fourth cell, and to
    ``report.json``'s ``curves.etrace`` rows, each line as
    ``[t, e_value, alarmed, threshold]``.  ``finish`` writes the rest of the
    report and renames both files into place; ``discard``, on any failure,
    removes them.

    The streamed report is byte for byte ``RunReport.to_json`` of the run
    with its rows in memory: ``to_json`` sorts keys, so ``curves`` comes
    first; json writes an int as ``int.__repr__`` and a finite float as
    ``float.__repr__``, as the trace text has them; and every e-value is
    finite, since ``math.exp`` raises rather than overflow to ``inf``.
    """

    def __init__(self, out_dir: str | Path, threshold: float,
                 echo: Callable[[str], None] | None = None):
        self.dir = Path(out_dir)
        self._echo = echo
        self._csv_end = f",{threshold!r}\n"
        self._row_end = f", {threshold!r}]"
        self._sep = ""  # what goes before the next report row
        self._files: list = []  # the open partial files, etrace.csv's first
        with _writing_output():
            self.dir.mkdir(parents=True, exist_ok=True)
            try:
                for name in ("etrace.csv", "report.json"):
                    self._files.append(open(self.dir / f"{name}.part", "w"))
            except BaseException:
                self.discard()
                raise
        self._csv, self._json = self._files
        self._csv.write(",".join(_ETRACE_HEADER) + "\n")
        # the report up to its first row: the dump of no rows, cut before "]]}}"
        self._json.write(json.dumps({"curves": {"etrace": [_ETRACE_HEADER, []]}})[:-4])

    def __fspath__(self) -> str:
        return str(self.dir)

    def __enter__(self) -> "_TraceWriter":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is not None:
            self.discard()

    def write(self, text: str) -> None:
        if self._echo is not None:
            self._echo(text)
        if not text:
            return
        rows = text[:-1].replace(",", ", ").replace("\n", self._row_end + ", [")
        with _writing_output():  # not around echo: a closed stdout is no config error
            self._csv.write(text.replace("\n", self._csv_end))
            self._json.write(f"{self._sep}[{rows}{self._row_end}")
        self._sep = ", "

    def finish(self, run: RunReport) -> None:
        rest = json.dumps({"provenance": run.provenance, "report": run.report}, sort_keys=True)
        self._json.write("]]}, " + rest[1:] + "\n")
        for handle in self._files:
            handle.close()
            os.replace(handle.name, handle.name.removesuffix(".part"))

    def discard(self) -> None:
        for handle in self._files:
            handle.close()
            Path(handle.name).unlink(missing_ok=True)


@contextlib.contextmanager
def _trace_output(out_dir: str | None, config: RecipeConfig,
                  echo: Callable[[str], None] | None = None):
    """``(on_row, out)`` for a run of ``config`` emitted under ``out_dir``:
    a monitor run hands its trace text to ``on_row``, which is ``echo`` or,
    with an output directory, a :class:`_TraceWriter`'s, whose partial files
    are removed if the run fails; an offline run makes no trace text and
    writes its outputs under ``out_dir`` at the end."""
    if out_dir is None or config.testing != "evalue_monitor":
        yield echo, out_dir
        return
    with _TraceWriter(out_dir, _threshold(config.evalue), echo) as out:
        yield out.write, out


def _write_outputs(run: RunReport, out_dir: str | Path | _TraceWriter | None) -> None:
    """Write the run's tables and ``report.json`` under ``out_dir``, or
    finish the files a :class:`_TraceWriter` streamed."""
    if out_dir is None:
        return
    _write_csvs(run.curves, out_dir)
    with _writing_output():
        if isinstance(out_dir, _TraceWriter):
            out_dir.finish(run)
        else:
            (Path(out_dir) / "report.json").write_text(run.to_json() + "\n")


_SIMULATION_KEYS = ("kind", "n_records", "multipliers", "n_seeds", "alarm_counts", "files")


def _render_summary(rep: dict) -> str:
    """The summary block of a run's report in the JSON shape ``report.json``
    holds it in, so a live run and ``report`` on its saved report print the
    same lines; a report without a decision is a simulation summary."""
    if "decision" not in rep:
        # report.json sorts its keys: print a simulation's in the live order
        keys = ([k for k in _SIMULATION_KEYS if k in rep]
                + [k for k in rep if k not in _SIMULATION_KEYS])
        return "\n".join(["simulation summary:", *(f"  {key}: {rep[key]}" for key in keys)])
    cfg = rep.get("recipe_config") or {}
    lines = [
        f"decision: {rep['decision']}",
        f"test: {cfg.get('test', '?')}  statistic: {rep.get('statistic')!r}  "
        f"threshold: {rep.get('threshold')!r}  alpha: {rep.get('alpha')!r}",
    ]
    if rep.get("p_value") is not None:
        lines.append(f"p_value: {rep['p_value']!r}")
    if rep.get("per_level"):
        lines.append("level count n lower upper p_value reject")
        for row in rep["per_level"]:
            lines.append(
                f"{row['level']:g} {row['count']} {row['n']} {row['lower_bound']} "
                f"{row['upper_bound']} {row['p_value']:.6g} {int(row['reject'])}"
            )
    for key in ("t", "first_crossing", "final_e", "incomplete", "error", "bin_decisions"):
        if key in cfg:
            lines.append(f"{key}: {cfg[key]}")
    return "\n".join(lines)


def _report_exit_code(rep: dict) -> int:
    """The exit code of a report in its JSON shape, live or saved."""
    if "decision" not in rep:
        return EXIT_ACCEPT
    if (rep.get("recipe_config") or {}).get("incomplete"):
        return EXIT_DATA
    return EXIT_REJECT if rep["decision"] == "reject" else EXIT_ACCEPT


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


class _Settings:
    """One command's flags and config file; ``read`` notes every key resolved."""

    _NOT_SETTINGS = ("command", "records", "kind", "config", "out")  # argparse fields, not settings

    def __init__(self, args):
        self.args = args
        self.file = _load_file_config(args.config)
        self.read: set[str] = set()

    def resolve(self, key: str, convert=None, default=None):
        """One setting: its flag, else the config file, else ``default``.

        A flag the command does not declare and a config value of ``null``
        both count as absent.  ``convert`` turns a present value into its
        type; a value it cannot convert is a configuration error.
        """
        self.read.add(key)
        value = getattr(self.args, key, None)
        if value is None:
            value = self.file.get(key)
        if value is None:
            return default
        if convert is None:
            return value
        try:
            return convert(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad {key} {value!r}: {exc}") from None

    def refuse_unread(self) -> None:
        """Refuse a given flag or non-null config key that nothing read."""
        flags = [(key, value) for key, value in vars(self.args).items()
                 if key not in self._NOT_SETTINGS]
        for key, value in flags + list(self.file.items()):
            if value is not None and key not in self.read:
                raise ConfigError(f"{self.args.command} does not apply {key!r}")


def _resolve_seed(settings: _Settings) -> int:
    seed = settings.resolve("seed", _integer)
    if seed is None:
        env = os.environ.get(SEED_ENV_VAR, "0")
        try:
            seed = int(env)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    if seed < 0:  # numpy's generators take non-negative seeds only
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


def _not_bool(value):
    # JSON true and false load as Python bools, which int() and float() accept
    if isinstance(value, bool):
        raise ValueError("a boolean is not a number")
    return value


def _number(value) -> float:
    return float(_not_bool(value))


def _integer(value) -> int:
    if isinstance(value, float) and not value.is_integer():
        raise ValueError("not a whole number")
    return int(_not_bool(value))


def _sidedness(value) -> str:
    if value not in ("one", "two"):
        raise ValueError("expected 'one' or 'two'")
    return ONE_SIDED if value == "one" else TWO_SIDED


def _parse_levels(value) -> LevelGrid:
    """A level grid from a comma-separated string or a list of numbers."""
    if isinstance(value, str):
        value = [float(x) for x in value.split(",") if x.strip()]
    return LevelGrid(np.asarray(value, dtype=float))


def _evalue_config(settings: _Settings, alpha: float) -> EValueConfig:
    lam = settings.resolve("lambda", _number, 0.9)
    # lambda - 0.1 is a documented sensitivity knob, not a paper value
    p_alt = settings.resolve("p_alt", _number, lam - 0.1)
    return EValueConfig(level=lam, p_alt=p_alt, alpha=alpha)


# How a run resolves each field a testing may apply from its settings; a
# setting of a field the testing does not apply is left unread, so refused.
_FIELD_SETTINGS = {
    "hypothesis": lambda s, alpha: HypothesisSpec(s.resolve("sided", _sidedness, TWO_SIDED),
                                                  s.resolve("tolerance", _number, 0.0)),
    "levels": lambda s, alpha: s.resolve("levels", _parse_levels),
    "bins": lambda s, alpha: s.resolve("bins", _integer),
    "evalue": _evalue_config,
}


def _recipe_from_args(settings: _Settings, source: RecordSource,
                      testing: str | None) -> RecipeConfig:
    """The recipe of a check or monitor run over ``source``, after
    ``refuse_unread``.

    The model (the config's, else the one sniffed from the first record
    line) only picks the default metric, ``halfplane`` for particles and
    ``coverage`` otherwise, and both take the same default testing and pass
    or fail the same model-independent checks.  So every setting is resolved
    and those checks are made before the input is read: a refused setting or
    a recipe value refused whatever the model exits 2 before a bad, empty or
    missing input exits 3, while a recipe the model cannot run is reported
    before a refused setting.
    """
    model = settings.resolve("model")
    alpha = settings.resolve("alpha", _number, 0.05)
    metric = settings.resolve("metric")
    if testing is None:  # the first testing that consumes the metric
        testing = settings.resolve("testing", default=next(
            (t for t, (consumed, _, _) in _TESTINGS.items() if (metric or "coverage") in consumed),
            None))
    fields = {name: _FIELD_SETTINGS[name](settings, alpha)
              for name in (_TESTINGS[testing][2] if testing in TESTINGS else ())}
    seed = _resolve_seed(settings)
    _check_slots(None, metric or "coverage", testing, alpha, **fields)  # before any input is read
    try:
        model = model or sniff_model_kind(source)
    except (DataError, OSError):
        settings.refuse_unread()
        raise
    if metric is None:  # the first metric defined on the model
        metric = next((m for m, (families, _) in _METRICS.items() if model in families), None)
    config = RecipeConfig(model=model, metric=metric, testing=testing, alpha=alpha,
                          seed=seed, **fields)
    settings.refuse_unread()
    return config


def _finish(run: RunReport, out_dir: str | _TraceWriter | None) -> int:
    """Print a run's summary, write its outputs under ``out_dir``, return its exit code."""
    print(_render_summary(run.report))
    _write_outputs(run, out_dir)
    return _report_exit_code(run.report)


def _cmd_check(args, testing: str | None = None,
               echo: Callable[[str], None] | None = None) -> int:
    """A check or monitor run, whose testing slot is ``testing`` or else the
    settings'; ``echo`` receives a monitor recipe's trace text."""
    settings = _Settings(args)
    with RecordSource(args.records) as source:
        config = _recipe_from_args(settings, source, testing)
        with _trace_output(args.out, config, echo) as (on_row, out):
            if config.testing == "evalue_monitor":
                run = run_monitor(config, iter_records(source, config.model),
                                  digest=source.sha256, on_row=on_row)
            else:
                run = run_check(config, parse_records(source, config.model),
                                digest=source.sha256)
            code = _finish(run, out)
    if error := run.report["recipe_config"].get("error"):
        print(f"data error: {error}", file=sys.stderr)  # why the run is incomplete
    return code


def _cmd_monitor(args) -> int:
    return _cmd_check(args, "evalue_monitor", sys.stdout.write)


def _sim_config(cls, settings: _Settings, seed: int):
    """A simulator config from the config file's keys for ``cls``, each
    converted by its field's annotation."""
    convert = {"int": _integer, "float": _number}
    fields, file_cfg = dataclasses.fields(cls), settings.file
    settings.read.update(f.name for f in fields)
    try:
        kwargs = {f.name: convert.get(f.type, lambda v: v)(file_cfg[f.name])
                  for f in fields if file_cfg.get(f.name) is not None}
        kwargs["seed"] = seed
        if "beacon_positions" in kwargs:
            kwargs["beacon_positions"] = tuple(map(tuple, kwargs["beacon_positions"]))
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {cls.__name__}: {exc}") from None


def _positive_integer(value) -> int:
    count = _integer(value)
    if count < 1:
        raise ValueError("must be >= 1")
    return count


def _multipliers(value) -> tuple:
    # fail here on a malformed value, before the output directory is made
    if not (isinstance(value, list) and value and all(
            isinstance(m, (int, float)) and not isinstance(m, bool) for m in value)):
        raise ValueError("drift multipliers must be a non-empty list of numbers")
    if not all(math.isfinite(m) for m in value):
        raise ValueError("drift multipliers must be finite")
    if not all(m >= 0.0 for m in value):
        raise ValueError("drift multipliers must be >= 0")
    return tuple(value)


def _cmd_simulate(args) -> int:
    settings = _Settings(args)
    seed = _resolve_seed(settings)
    cls = WeatherSimConfig if args.kind == "weather" else RobotSimConfig
    sim_config = _sim_config(cls, settings, seed)
    sweep = {}
    if args.kind == "drift_sweep":
        alpha = settings.resolve("alpha", _number, 0.05)
        sweep = {
            "monitor": _evalue_config(settings, alpha),
            "multipliers": settings.resolve("multipliers", _multipliers, (0.5, 1.0, 2.0)),
            "n_seeds": settings.resolve("n_seeds", _positive_integer, 20),
        }
    settings.refuse_unread()
    out = args.out or "."
    return _finish(run_simulate(args.kind, sim_config, out, **sweep), out)


def _saved_report_parts(data) -> tuple[dict, dict, dict]:
    """The ``report``, ``provenance`` and ``curves`` objects of a saved run
    report, each ``{}`` when absent or null; any other shape is bad data, and
    so are a ``recipe_config`` or ``per_level`` rows the summary cannot
    render, and a table name that is not a plain file name, since ``--out``
    writes each table to ``<name>.csv``."""
    if not isinstance(data, dict):
        raise DataError("report must be a JSON object")
    parts = {key: {} if data.get(key) is None else data[key]
             for key in ("report", "provenance", "curves")}
    for key, part in parts.items():
        if not isinstance(part, dict):
            raise DataError(f"report field {key!r} must be an object")
    rep = parts["report"]
    if not isinstance(rep.get("recipe_config") or {}, dict):
        raise DataError("report field 'recipe_config' must be an object")
    rows = rep.get("per_level") or []
    if not (isinstance(rows, list) and all(
            isinstance(row, dict) and all(isinstance(row.get(f.name), (int, float))
                                          for f in dataclasses.fields(BinomLevelResult))
            for row in rows)):
        raise DataError("report field 'per_level' must be a list of level rows")
    for name, table in parts["curves"].items():
        if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
            raise DataError(f"report table name {name!r} is not a plain file name")
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
    print(_render_summary(rep))
    if prov:
        print(f"input_digest: {prov.get('input_digest', '?')}")
        print(f"tool_version: {prov.get('tool_version', '?')}")
    if args.out:
        _write_csvs(curves, args.out)
    return _report_exit_code(rep)


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
    except WorkerLostError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOFTWARE
    except CalcheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
