"""Command-line surface: ingest records, run recipes, emit reports.

Subcommands: ``check`` (offline batch decision), ``monitor`` (streaming
e-value monitor), ``simulate`` (generate experiment data), ``report``
(re-render a saved run report).  Records travel as JSON lines, one record
per line, so monitors can stream and tests can diff.  Input is read in
blocks, and each block's complete lines become one batch of their family
(:mod:`calcheck.records`).  One scoring loop serves check and monitor: it
scores each batch as it arrives, the PIT for ``pit_ks`` and the central PIT
otherwise, and drops it, and the testing slot reads the scores a block at a
time.  A Binomial test adds up k coverage counts; the KS test and variance
bins keep one score per record; the ``evalue_monitor`` slot (``monitor``,
``check --testing evalue_monitor``) steps its martingale and streams its
trace rows to ``--out`` (``monitor`` prints them too).  So only a KS or
binned check's memory grows with the stream, and the monitor takes every
family and scores the sets ``check`` scores.  Exit codes are
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
Every family has a PIT, so the KS recipes take every model; a cloud's PIT
draws on the streams that its half-plane coverage draws on.
The runs (``run_check``, called as ``run_monitor`` for a monitor recipe,
and ``run_simulate``) touch no file; every command emits through
``_finish``, which has ``_Output`` write every ``--out`` file, record files
included, and then prints the summary.  The files appear only when the run
succeeds; a failed run removes the directories it made.  Each output value
is turned into text once: record lines' numbers by ``_float_texts``, every
table's, the trace's too, by ``_csv_rows``, ``report.json``'s rows from CSV
text.

Importing this module loads numpy but not orjson, and no command loads
scipy: the Gaussian and chi-square CDFs and the Binomial tails are
calcheck's own (:mod:`calcheck.special`).  orjson, which parses every record
line and writes every output number, is loaded by the first line parsed or
number written, so by ``check``, ``monitor`` and ``simulate``.

``simulate drift_sweep`` runs its independent (multiplier, seed) cells in
forked worker processes, one per usable CPU (on Linux; elsewhere in this
process), and its output is identical to a serial run's; no other command
starts a process or imports ``multiprocessing``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import gc
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
from .metric import (CoverageCurve, LevelGrid, PitSample, central, coverage_counts, pit,
                     variance_bin)
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
# others.  Every family has a PIT, so the PIT metrics take every model.  A
# model's default metric is the first defined on it, so halfplane comes
# before them.
_CDF_MODELS = ("gaussian", "mv_gaussian")
_METRICS = {
    "coverage": (_CDF_MODELS, "particle clouds are covered by metric=halfplane"),
    "halfplane": (("particles",), "the half-plane metric requires the particles model"),
    "pit_ks": (MODELS, None),
    "folded_ks": (MODELS, None),
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
    An unset ``metric`` or ``testing`` takes its default (:func:`_slot_defaults`).
    """

    model: str = "gaussian"
    metric: str | None = None
    hypothesis: HypothesisSpec | None = None
    testing: str | None = None
    alpha: float = 0.05
    levels: LevelGrid | None = None
    bins: int | None = None
    evalue: EValueConfig | None = None
    seed: int = 0

    def __post_init__(self):
        # the slots, and an offline test's hypothesis and levels, come back
        # with their defaults filled in; a frozen dataclass takes them
        # through its __dict__
        metric, testing = _slot_defaults(self.model, self.metric, self.testing)
        self.__dict__.update(metric=metric, testing=testing, **_check_slots(
            self.model, metric, testing, self.alpha, self.hypothesis, self.levels, self.bins,
            self.evalue))

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


def _slot_defaults(model: str | None, metric: str | None, testing: str | None) -> tuple:
    """``metric``, else the first defined on ``model`` (on any, for None), and
    ``testing``, else the first that consumes the metric; None where there is
    none, for an unknown value, which :func:`_check_slots` refuses."""
    if metric is None:
        metric = next((m for m, (families, _) in _METRICS.items() if model in (None, *families)),
                      None)
    if testing is None:
        testing = next((t for t, (metrics, _, _) in _TESTINGS.items() if metric in metrics), None)
    return metric, testing


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
        raise ConfigError(refusal)
    if model is not None and bins is not None and model not in _CDF_MODELS:
        raise ConfigError("variance binning needs a scalar predicted uncertainty")
    return {"hypothesis": spec, "levels": grid} if "levels" in applies else {}


@dataclass(frozen=True)
class RunReport:
    """Decision-first run output with curve tables, record files and provenance.

    ``report`` holds what ``report.json`` saves: a TestReport as
    ``dataclasses.asdict`` gives it, or a simulation summary; ``curves`` maps
    table names to (header, columns), an array or list per name, as they
    are made (see :func:`_csv_rows`); ``provenance`` carries the input
    digest, the full recipe configuration, and the tool version, so a rerun
    with identical inputs reproduces the report byte for byte; ``records``
    maps each record file's name to its batch.  :class:`_Output` writes the
    run, and streams a monitor's trace rows as they are made.
    """

    report: dict
    curves: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    records: dict = field(default_factory=dict)


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
    other whitespace, of which the parse strips JSON's own (see
    :func:`_parse_lines`), and a line that ``bytes.strip`` empties is blank.
    ``peek`` reads ahead to the first non-blank line for schema sniffing, and
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
# record needs 3, and a 500-particle cloud holds 504 brackets in all.  orjson
# has no nesting limit and overflows the C stack on a deep enough line.
MAX_DEPTH = 1024
# The deepest refused line that json re-reads to word the refusal: json
# counts nesting against the recursion limit from the caller's stack depth
REREAD_DEPTH = 64
# a string, or an unterminated one to the end of the line
_STRING = re.compile(rb'"[^"\\]*(?:\\.[^"\\]*)*"?', re.DOTALL)
# each bracket as its step in nesting depth, with every other byte deleted
_DEPTH_STEPS = bytes.maketrans(b"[{]}", b"\x01\x01\xff\xff")
_NOT_BRACKETS = bytes(b for b in range(256) if b not in b"[{]}")


def _too_deep(line: bytes, bound: int = MAX_DEPTH) -> bool:
    """Whether ``line`` nests arrays and objects more than ``bound`` deep
    outside its strings.  Only a line holding more ``[`` and ``{`` bytes than
    that can, so they are counted first, in one numpy pass (they are the
    bytes that OR 32 makes ``{``), and only such a line is scanned."""
    if np.count_nonzero((np.frombuffer(line, np.uint8) | 32) == 123) <= bound:
        return False
    steps = _STRING.sub(b"", line).translate(_DEPTH_STEPS, _NOT_BRACKETS)
    return np.frombuffer(steps, np.int8).cumsum().max(initial=0) > bound


def _refusal(line: bytes, exc: json.JSONDecodeError) -> str:
    """Why orjson refused ``line`` with ``exc``: json's message where json
    refuses the line too, else that it is not RFC 8259 JSON, with orjson's
    reason, alone for a line nested over ``REREAD_DEPTH`` deep.  json reads NaN,
    Infinity, lone surrogates and numbers beyond the float range, which RFC
    8259 and I-JSON (RFC 7493) leave out."""
    if _too_deep(line, REREAD_DEPTH):
        return exc.msg
    try:
        json.loads(line.decode())  # decoding first is faster than json's own
    except (ValueError, RecursionError) as error:  # JSON and UTF-8 errors are ValueErrors
        return getattr(error, "msg", str(error))
    return f"not RFC 8259 JSON: {exc.msg}"


def _parse_lines(lines: list[bytes], line_no: int) -> tuple[list, DataError | None]:
    """The values of the non-blank ``lines``, the first being line
    ``line_no + 1``, as ``orjson.loads`` reads them, up to the first line
    that is invalid JSON, whose DataError comes second (None if there is
    none).  A line nested more than ``MAX_DEPTH`` deep is invalid, and is
    refused before orjson reads it; :func:`_refusal` words orjson's refusals."""
    import orjson

    values = []
    for line_no, line in enumerate(lines, line_no + 1):
        if not line.strip():
            continue
        if len(line) > MAX_DEPTH and _too_deep(line):  # a shorter line cannot be
            return values, DataError(f"line {line_no}: invalid JSON "
                                     f"(nested more than {MAX_DEPTH} deep)")
        try:
            values.append(orjson.loads(line))
        except orjson.JSONDecodeError as exc:
            return values, DataError(f"line {line_no}: invalid JSON ({_refusal(line, exc)})")
    return values, None


@contextlib.contextmanager
def _gc_paused():
    """Keep the cyclic garbage collector from running inside the block, and
    leave it on or off as it was, however the block ends."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def iter_records(source: str | Path | RecordSource, model_kind: str) -> Iterator[RecordBatch]:
    """Lazily parse records from a JSON-lines file ('-' reads stdin): one
    batch per block of complete lines read (see :class:`RecordSource`),
    blank lines skipped; all share the first record's outcome dimension.

    Each line is parsed by :func:`_parse_lines`, as the sniffed first line
    is, and a block's batch is built from its values in one step.  Where the
    batch cannot be built, the block's records are built one line at a time,
    so the error names the first bad line.  orjson reads integers beyond 64
    bits as their correctly rounded floats, so no ``t`` can be one.

    The first bad line in file order raises a :class:`DataError` naming it,
    after the records before it have been yielded: a line that is not UTF-8,
    not RFC 8259 JSON (NaN, Infinity, a lone surrogate or a number beyond
    the float range are not), or nested more than ``MAX_DEPTH`` deep is
    invalid JSON.

    The cyclic garbage collector is paused while a block is parsed and its
    batch built, and set back as it was before the batch is yielded or any
    exception leaves.  A cloud line's hundreds of lists would otherwise trigger
    collections that scan every object the block holds and can free none of
    it: parsed JSON has no reference cycles, so reference counting frees all
    of it.  The caller's code between batches never runs with the collector
    paused; another thread's collections wait until a block is built."""
    cls = FAMILIES[model_kind]
    dim, line_no = None, 0
    with _opened(source) as src:
        for block in src.blocks():
            # the numbers of the block's non-blank lines, as far as they are read
            line_nos = (n for n, line in enumerate(block, line_no + 1) if line.strip())
            with _gc_paused():
                values, error = _parse_lines(block, line_no)
                try:
                    batches = [cls.from_objs(values)] if values else []
                except (KeyError, TypeError, ValueError, OverflowError, AttributeError):
                    # AttributeError: a value that is not an object has no .get
                    line_nos = list(line_nos)
                    batches = map(cls.from_obj, values, line_nos)  # naming the bad line
                del values  # freed here, not kept while the caller holds a batch
            line_no += len(block)
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


# orjson writes a float's shortest round-trip digits, as repr does, but lays
# out some otherwise: one-digit negative exponents unpadded (1e-6, not
# 1e-06), positive ones unsigned (1e16, not 1e+16), a value in [1e-5, 1e-4)
# without an exponent (0.000099, not 9.9e-05), and NaN and inf as null
_SHORT_EXPONENT = re.compile(r"e-(\d)\b")
_UNSIGNED_EXPONENT = re.compile(r"e(?=\d)")
_NO_EXPONENT = re.compile(r"0(?<!\d0)\.0000\d+")  # its 0 after no digit; a sign stays
TEXT_ROWS = 1 << 12  # table rows turned into text at a time
TEXT_VALUES = 3 << 12  # numbers of record lines turned into text at a time


def _float_texts(values: list) -> list[str]:
    """``repr`` of each value in ``values``, a number (not a bool) or a list of them nested as
    deep as the others, by one ``orjson.dumps`` (imported by the first call) and a few passes."""
    import orjson

    text = orjson.dumps(values).decode()
    if "null" in text:
        return list(map(repr, values))
    text = _UNSIGNED_EXPONENT.sub("e+", _SHORT_EXPONENT.sub(r"e-0\1", text))
    if "0.0000" in text:
        text = _NO_EXPONENT.sub(lambda number: repr(float(number[0])), text)
    if depth := len(text) - len(text.lstrip("[")) - 1:  # how deep each value's lists nest
        # only that many brackets on each side of a comma end one value and
        # start the next; json, as repr, puts ", " between the items of a list
        between = "]" * depth + "," + "[" * depth
        text = text.replace(between, between.replace(",", "\n")).replace(",", ", ")
    return text[1:-1].split("\n" if depth else ",") if values else []


def write_records(records: RecordBatch, path: str | Path) -> None:
    """Write records as JSON lines, byte for byte ``json.dumps`` of each
    record's dict (keys in file order, ``t`` where set; batches hold no NaN
    or inf), a column by one :func:`_float_texts`, as many records at a time
    as hold ``TEXT_VALUES`` numbers when each holds as many as the largest."""
    fields = ", ".join(f'"{key}": {{}}' for key in records.keys)
    line = "{{" + fields + "{}}}\n"  # the last field: ', "t": ...' where t is set
    largest = sum(max(map(np.size, col), default=0) if isinstance(col, list) else
                  math.prod(col.shape[1:]) for col in map(records.__getattribute__, records.keys))
    rows = max(1, TEXT_VALUES // largest)  # each record holds an outcome
    with open(path, "w") as handle:
        for i in range(0, len(records), rows):
            cells = map(_float_texts, records._json_columns(slice(i, i + rows)))
            t = ["" if u is None else f', "t": {u}' for u in records.t[i:i + rows]]
            handle.writelines(map(line.format, *cells, t))


def sniff_model_kind(source: str | Path | RecordSource) -> str:
    """Infer the record schema from the first non-blank line, parsed as
    every record line is (:func:`_parse_lines`)."""
    with _opened(source) as src:
        line = src.peek()
    if line is None:
        raise DataError(f"no records in {source}")
    values, error = _parse_lines([line], 0)
    if error is not None:
        raise DataError(f"{source}: first record line is not valid JSON")
    if isinstance(values[0], dict):
        for kind, cls in FAMILIES.items():
            if cls.keys[1] in values[0]:
                return kind
    raise DataError(f"{source}: record schema not recognized")


# ---------------------------------------------------------------------------
# check and monitor runs
# ---------------------------------------------------------------------------

def _block_scores(config: RecipeConfig,
                  batches: Iterable[RecordBatch]) -> Iterator[tuple[PitSample, np.ndarray | None]]:
    """The one scoring loop of check and monitor: each batch's scores, the
    PIT for ``pit_ks`` and the central PIT otherwise, and under ``bins`` its
    predicted uncertainty (else None), a pair per batch in record order.  A
    check of no records is a data error here; a monitor reports its own."""
    # a particle cloud's PIT draws its directions and tie-breaking uniforms
    # from these streams, run on across batches; the other families read neither
    rng = np.random.default_rng([config.seed, 1 if config.testing == "evalue_monitor" else 2])
    ties = np.random.default_rng([config.seed, 3])
    score = pit if config.metric == "pit_ks" else central  # by the names the tracer wraps
    batch = None
    for batch in batches:
        yield score(batch, rng, ties), None if config.bins is None else batch.uncertainty()
    if batch is None and config.testing != "evalue_monitor":
        raise DataError("no records to check")


def _offline(config: RecipeConfig, samples: Iterable[PitSample],
             alpha: float) -> tuple[TestReport, dict]:
    """The offline test at ``alpha`` of the scores in ``samples``, read a
    block at a time, and its tables, each as columns.  A Binomial test adds
    each block's coverage counts to k running counts, so no score outlives
    its block; the KS test joins the scores and sorts them."""
    if config.testing == "ks":
        samples = list(samples)
        sample = PitSample(np.concatenate([s.values for s in samples]), samples[0].folded)
        del samples  # the blocks' scores, freed before the sort
        sample.values.sort()  # the run's own scores: in order, they serve the test and ecdf
        report = ks_test(sample, config.hypothesis, alpha)
        v, cfg, lam = sample.values, report.recipe_config, config.levels.levels
        crit, tol = cfg["band_halfwidth"], cfg["tolerance"]
        if cfg["sidedness"] == ONE_SIDED:
            bounds = [lam - crit - tol, np.ones_like(lam)]
        else:
            bounds = [np.maximum(lam - crit, 0.0), np.minimum(lam + crit, 1.0)]
        return report, {"ecdf": (["value", "ecdf"], [v, np.arange(1, v.size + 1) / v.size]),
                        "band": (["level", "lower", "upper"], [lam, *bounds])}
    # the tracer times a cloud's coverage count under its own name
    count = coverage_counts if config.metric == "coverage" else halfplane_coverage
    counts, n = 0, 0
    for sample in samples:
        curve = count(sample, config.levels)
        counts, n = counts + curve.counts, n + curve.n
    correction = "holm" if config.testing == "binom_holm" else "bonferroni"
    report = coverage_binomial_report(CoverageCurve(config.levels, counts, n), config.hypothesis,
                                      alpha, correction)
    rows = [(r.level, r.count, r.n, r.count / r.n, r.lower_bound, r.upper_bound, r.p_value,
             int(r.reject)) for r in report.per_level]
    return report, {"coverage": (["level", "count", "n", "fraction", "lower_bound",
                                  "upper_bound", "p_value", "reject"],
                                 [np.array(column) for column in zip(*rows)])}


def _binned(config: RecipeConfig, blocks: Iterable[tuple]) -> tuple[TestReport, dict]:
    """The offline test on each bin of the records by predicted uncertainty,
    at ``alpha / bins`` (Bonferroni across bins; disjoint samples make this
    tight), and the bins' tables; the family rejects when any bin does."""
    scores, spreads = [], []
    for sample, spread in blocks:
        scores.append(sample.values)
        spreads.append(spread)
    values = np.concatenate(scores)
    scores.clear()  # each list is freed before the next is joined
    uncertainty = np.concatenate(spreads)
    spreads.clear()
    bins = variance_bin(uncertainty, config.bins)
    del uncertainty  # freed before the bins' scores are copied out
    per_bin_alpha = config.alpha / config.bins
    results = [_offline(config, [PitSample(values[part], sample.folded)], per_bin_alpha)
               for part in bins.parts]
    bin_reports = [rep for rep, _ in results]
    curves = {f"{name}_bin{b}": table for b, (_, tables) in enumerate(results)
              for name, table in tables.items()}
    p_min = min(r.p_value for r in bin_reports)
    return TestReport(
        decision="reject" if any(r.rejected for r in bin_reports) else "accept",
        statistic=p_min, threshold=per_bin_alpha, alpha=config.alpha, p_value=p_min,
        recipe_config={"test": "variance_binned", "bins": config.bins,
                       "bin_edges": [float(e) for e in bins.bin_edges],
                       "bin_decisions": [r.decision for r in bin_reports],
                       "inner": bin_reports[0].recipe_config.get("test")},
    ), curves


def _monitor(config: RecipeConfig, blocks: Iterable[tuple],
             on_row: Callable[[str], None] | None) -> TestReport:
    """The e-value monitor over the central PITs of ``blocks``: its
    martingale, stepped a block at a time by one e-value per record, the
    running maximum of the e-value and the block in hand are all it holds.

    ``on_row`` receives each block's ``t,e_value,alarmed`` rows, rendered by
    :func:`_csv_rows`, as one string as soon as the block is stepped;
    ``monitor`` prints it, and under ``--out`` :meth:`_Output.trace` streams
    it as the ``etrace`` table.  The decision is the first crossing of
    ``1/alpha``; recording goes on after it.  A stream that dies mid-flight
    yields a partial report marked incomplete.  An e-value too large for a
    float raises ``OverflowError`` after the rows before it are emitted.
    """
    ev, state = config.evalue, MartingaleState()
    # one step under the tracer's per-family names (see their bindings)
    step = monitor_step_halfplane if config.model == "particles" else monitor_step_gaussian
    peak = -math.inf  # the largest e-value so far
    incomplete, error = False, None
    try:
        for sample, _ in blocks:
            t0 = state.t
            state, log_e = step(state, sample, ev)
            es: list[float] = []  # the e-value after each record of the block
            try:
                # math.exp, not np.exp: the trace holds libm's bits; extend
                # keeps the values before an overflowing one
                es.extend(map(math.exp, log_e.tolist()))
            finally:
                # on an overflow, the rows before it are still emitted; a
                # record is alarmed from the first crossing on
                if on_row is not None:
                    ts = np.arange(t0 + 1, t0 + len(es) + 1)
                    alarmed = (ts >= (state.first_crossing or math.inf)).astype(int)
                    on_row(_csv_rows([ts, np.array(es), alarmed]))
            peak = max(peak, max(es, default=peak))
    except DataError as exc:
        incomplete, error = True, str(exc)
    if state.t == 0 and not incomplete:
        raise DataError("no records to monitor")
    return TestReport(
        decision="reject" if state.alarmed else "accept",
        statistic=peak if state.t else 1.0, threshold=_threshold(ev), alpha=ev.alpha,
        recipe_config={"test": "evalue_monitor", "level": ev.level, "p_alt": ev.p_alt,
                       "t": state.t, "first_crossing": state.first_crossing,
                       "final_e": state.e_value, "incomplete": incomplete,
                       **({"error": error} if error else {})},
    )


def run_check(
    config: RecipeConfig,
    batches: Iterable[RecordBatch],
    digest: hashlib._Hash = hashlib.sha256(),
    on_row: Callable[[str], None] | None = None,
) -> RunReport:
    """Execute a recipe's slots on a stream of record batches, each scored as
    it arrives (:func:`_block_scores`) and dropped: an offline test
    (:func:`_offline`), under ``bins`` on each bin (:func:`_binned`), or the
    ``evalue_monitor`` slot (:func:`_monitor`), whose trace rows go to
    ``on_row`` and whose run has no curves.  ``digest``, a sha256 of the
    input bytes (see :class:`RecordSource`), identifies the input in the
    provenance, taken after the stream ends, so it covers every byte consumed.
    """
    blocks = _block_scores(config, batches)
    if config.testing == "evalue_monitor":
        report, curves = _monitor(config, blocks, on_row), {}
    elif config.bins is None:
        report, curves = _offline(config, (sample for sample, _ in blocks), config.alpha)
    else:
        report, curves = _binned(config, blocks)
    return RunReport(report=dataclasses.asdict(report), curves=curves,
                     provenance=_provenance(config, digest))


# Every monitor run is called by this name, which the benchmark's tracer
# wraps as a layer of its own, as it wraps the monitor steps' names.
run_monitor = run_check


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
    monitor: EValueConfig | None = None,
    multipliers: tuple[float, ...] = (0.5, 1.0, 2.0),
    n_seeds: int = 20,
) -> RunReport:
    """Generate experiment data, a record file's batch in ``records`` or a
    drift sweep's tables in ``curves``; the caller writes the run's files."""
    cfg_dict = dataclasses.asdict(sim_config)
    digest = hashlib.sha256(json.dumps(cfg_dict, sort_keys=True).encode())
    curves, files = {}, {}
    if kind in ("weather", "robot"):
        batch = (run_weather_sim if kind == "weather" else run_robot_sim)(sim_config)
        files[f"{kind}_records.jsonl"] = batch
        summary = {"kind": kind, "n_records": len(batch), "files": list(files)}
    elif kind == "drift_sweep":
        if monitor is None:
            raise ConfigError("drift_sweep requires an e-value monitor config")
        sweep = drift_sweep(sim_config, multipliers, n_seeds, monitor)
        curves["sweep_summary"] = (
            ["multiplier", "n_seeds", "alarms", "median_first_crossing"],
            list(zip(*[(e.multiplier, e.n_seeds, e.alarm_count, e.median_first_crossing)
                       for e in sweep])))
        # each multiplier's envelope rows, t = 1, 2, ... within each
        parts = [(np.full(len(e.envelope), e.multiplier), np.arange(1, len(e.envelope) + 1),
                  *e.envelope.T) for e in sweep]
        curves["sweep_envelope"] = (["multiplier", "t", "e05", "e50", "e95"],
                                    [np.concatenate(column) for column in zip(*parts)])
        summary = {
            "kind": kind,
            "multipliers": list(multipliers),
            "n_seeds": n_seeds,
            "alarm_counts": [e.alarm_count for e in sweep],
            "files": [],
        }
    else:
        raise ConfigError(f"unknown simulation kind {kind!r}")
    return RunReport(report=summary, curves=curves, provenance=_provenance(cfg_dict, digest),
                     records=files)


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


def _csv_rows(columns: list) -> str:
    """A table's CSV row lines, ``TEXT_ROWS`` at a time, from its columns of one length: an
    array's numbers by :func:`_float_texts`, a list's values by ``str``, None as ``""``."""
    parts = []
    for i in range(0, len(columns[0]) if columns else 0, TEXT_ROWS):  # no column holds a row
        cells = [_float_texts(c[i:i + TEXT_ROWS].tolist()) if isinstance(c, np.ndarray) else
                 ["" if x is None else str(x) for x in c[i:i + TEXT_ROWS]] for c in columns]
        parts.append("\n".join(map(",".join, zip(*cells))) + "\n")
    return "".join(parts)


# The CSV text of each cell that json writes otherwise: None and the floats
# that are not finite
_JSON_CELLS = {"": "null", "inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _json_rows(text: str, columns: list = ()) -> str:
    """The JSON rows json writes for CSV lines of numbers and None, as
    ``"[1, 0.5], [2, 0.25]"``.  The text holds each int and finite float as
    json writes it, so only cells in ``_JSON_CELLS`` are rewritten, and only
    where one can occur: where a list among the table's ``columns`` holds
    None (an array cannot), or the text holds an ``n``, which no finite
    number's ``repr`` does.  Scanning the text for empty cells would cost
    more than the conversion."""
    body = text[:-1]
    if "n" in body or any(not isinstance(c, np.ndarray) and None in c for c in columns):
        body = "\n".join([",".join([_JSON_CELLS.get(cell, cell) for cell in line.split(",")])
                          for line in body.split("\n")])
    return "[" + body.replace(",", ", ").replace("\n", "], [") + "]" if text else ""


class _Output(contextlib.AbstractContextManager):
    """A run's output directory while the run writes it, which stands for the
    directory wherever a path is taken.

    It is opened before the run prints anything, so an unwritable directory
    fails first.  Each file, record files too, is written as ``<name>.part``,
    renamed into place by ``finish`` and removed if the ``with`` block
    fails, as are the directories it made that hold no other file.  A
    table's CSV row text, whole or in parts as a monitor streams it, goes to
    ``<name>.csv`` and, through :func:`_json_rows`, becomes its rows in
    ``report.json``, tables in name order: byte for byte ``json.dumps`` of
    the run with sorted keys.  With ``report`` False only the tables are written.
    """

    def __init__(self, out_dir: str | Path, report: bool = True):
        # _sep goes before the report's next row
        self.dir, self._parts, self._csv, self._sep = Path(out_dir), [], None, ""
        with _writing_output():
            # the directories mkdir makes, deepest first
            self._made = [d for d in (self.dir, *self.dir.parents) if not d.exists()]
            self.dir.mkdir(parents=True, exist_ok=True)
            self._json = self._open("report.json", '{"curves": {') if report else None

    def __fspath__(self) -> str:
        return str(self.dir)

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is not None:
            for handle in filter(None, (self._csv, self._json)):
                with contextlib.suppress(OSError):  # a failed flush still closes it
                    handle.close()
            for part in self._parts:
                part.unlink(missing_ok=True)
            for made in self._made:
                with contextlib.suppress(OSError):  # one holding another file stays
                    made.rmdir()

    def _open(self, name: str, text: str):
        self._parts.append(self.dir / f"{name}.part")
        handle = open(self._parts[-1], "w")
        handle.write(text)
        return handle

    def table(self, name: str | None, header: list = ()) -> None:
        """End the table begun last, and begin table ``name`` unless None."""
        text, self._sep = "", ""  # the report's text between the two tables' rows
        with _writing_output():
            if self._csv is not None:
                self._csv.close()
                text, self._csv = "]]", None
            if name is not None:
                self._csv = self._open(f"{name}.csv", ",".join(header) + "\n")
                text += f"{', ' if text else ''}{json.dumps(name)}: [{json.dumps(header)}, ["
            if self._json is not None:
                self._json.write(text)

    def rows(self, text: str, columns: list = ()) -> None:
        """Append CSV row lines, of ``columns`` if given, to the table begun last."""
        if text:
            with _writing_output():
                self._csv.write(text)
                if self._json is not None:
                    self._json.write(self._sep + _json_rows(text, columns))
            self._sep = ", "

    def trace(self, ev: EValueConfig, echo: Callable[[str], None] | None) -> Callable[[str], None]:
        """A monitor's ``on_row``: each batch's trace text goes to ``echo``, if
        given, and to the ``etrace`` table, the threshold as a fourth cell."""
        self.table("etrace", ["t", "e_value", "alarmed", "threshold"])
        end = f",{_threshold(ev)!r}\n"

        def on_row(text: str) -> None:
            if echo is not None:  # not among the writes: a closed stdout is no config error
                echo(text)
            self.rows(text.replace("\n", end))

        return on_row

    def finish(self, run: RunReport) -> None:
        """Write the run's tables, record files and the rest of its report; rename each."""
        for name, (header, columns) in sorted(run.curves.items()):  # names are unique
            self.table(name, header)
            self.rows(_csv_rows(columns), columns)
        self.table(None)
        with _writing_output():
            for name, batch in run.records.items():
                self._parts.append(self.dir / f"{name}.part")
                write_records(batch, self._parts[-1])
            if self._json is not None:
                rest = json.dumps({"provenance": run.provenance, "report": run.report},
                                  sort_keys=True)
                self._json.write("}, " + rest[1:] + "\n")
                self._json.close()
            for part in self._parts:
                os.replace(part, part.with_suffix(""))


def _write_outputs(run: RunReport, out: _Output | None) -> None:
    """Write the run's outputs to ``out`` and rename its files into place."""
    if out is not None:
        out.finish(run)


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

def _add_run_flags(sp: argparse.ArgumentParser, out: str = "output directory") -> None:
    """The flags that check, monitor and simulate all read; ``out`` is ``--out``'s help."""
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--lambda", type=float,
                    help="coverage level monitored by the e-value recipe")
    sp.add_argument("--p-alt", dest="p_alt", type=float,
                    help="over-confidence alternative (default: lambda - 0.1)")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--out", help=out)


@functools.cache  # built once per process: a parse leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="calcheck",
        description="Calibration checks with a single accept/reject decision.",
        epilog="Exit codes: 0 accept, 1 reject or alarm, 2 usage or configuration error, "
               "3 data error, 70 a drift sweep worker lost, 141 the reader of stdout gone. "
               "Under --out, report.json, the CSV tables and the record files appear only "
               "when the run succeeds, and the decision line is printed after them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_check = sub.add_parser("check", help="offline batch calibration check")
    p_check.add_argument("records", help="JSON-lines record file ('-' for stdin)")
    _add_run_flags(p_check)
    p_check.add_argument("--levels", help="comma-separated coverage levels in (0,1); the "
                         "default grid stops at 0.95, and a grid reaching 0.99, such as "
                         "0.5,0.8,0.9,0.95,0.99, is what sees over-confidence in the tails")
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
    _add_run_flags(p_sim, "output directory (default: the current directory)")
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
    # the model's default metric waits for the input, but any model's takes
    # the same default testing and passes the same checks
    any_metric, testing = _slot_defaults(None, metric, testing or settings.resolve("testing"))
    fields = {name: _FIELD_SETTINGS[name](settings, alpha)
              for name in (_TESTINGS[testing][2] if testing in TESTINGS else ())}
    seed = _resolve_seed(settings)
    _check_slots(None, any_metric, testing, alpha, **fields)  # before any input is read
    try:
        model = model or sniff_model_kind(source)
    except (DataError, OSError):
        settings.refuse_unread()
        raise
    config = RecipeConfig(model=model, metric=metric, testing=testing, alpha=alpha,
                          seed=seed, **fields)
    settings.refuse_unread()
    return config


def _finish(run: RunReport, out: _Output | None) -> int:
    """Write a run's outputs to ``out``, then print its summary; return its exit code."""
    _write_outputs(run, out)
    print(_render_summary(run.report))
    return _report_exit_code(run.report)


def _cmd_check(args, testing: str | None = None,
               echo: Callable[[str], None] | None = None) -> int:
    """A check or monitor run, whose testing slot is ``testing`` or else the
    settings'; ``echo`` receives a monitor recipe's trace text."""
    settings = _Settings(args)
    with RecordSource(args.records) as source:
        config = _recipe_from_args(settings, source, testing)
        with contextlib.nullcontext() if args.out is None else _Output(args.out) as out:
            batches = iter_records(source, config.model)
            if config.testing == "evalue_monitor":
                on_row = echo if out is None else out.trace(config.evalue, echo)
                run = run_monitor(config, batches, source.sha256, on_row)
            else:
                run = run_check(config, batches, source.sha256)
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
    with _Output(args.out or ".") as out:
        return _finish(run_simulate(args.kind, sim_config, **sweep), out)


def _saved_report_parts(data) -> tuple[dict, dict, dict]:
    """The ``report``, ``provenance`` and ``curves`` (as (header, columns))
    of a saved run report, each ``{}`` when absent or null; any other shape
    is bad data, and so are a ``recipe_config`` or ``per_level`` rows the
    summary cannot render, a table row without one cell per header name, and
    a table name that is not a plain file name (``--out`` writes ``<name>.csv``).
    A table's header names and cells come back as :func:`_csv_field` gives
    them, so each is one CSV field."""
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
        if not (isinstance(header, list) and header and all(isinstance(h, str) for h in header)
                and isinstance(rows, list)
                and all(isinstance(row, list) and len(row) == len(header) for row in rows)):
            raise DataError(f"report table {name!r} must be [header, rows], a cell per name")
        parts["curves"][name] = ([_csv_field(h) for h in header],
                                 [[_csv_field(row[i]) for row in rows] for i in range(len(header))])
    return parts["report"], parts["provenance"], parts["curves"]


def _csv_field(cell):
    """A saved cell or header name as ``_csv_rows`` writes it, but one whose
    ``str`` holds a comma, quote, CR or LF (a string, list or object cell; no
    number's does) as its text in one RFC 4180 quoted field."""
    text = str(cell)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return cell


def _cmd_report(args) -> int:
    try:
        data = json.loads(Path(args.path).read_bytes().decode())
        # json loads an escaped lone surrogate, which no output can encode
        json.dumps(data, ensure_ascii=False).encode()
    except OSError as exc:
        raise DataError(f"cannot read report: {exc}") from None
    except UnicodeEncodeError:
        raise DataError("report holds a lone surrogate, which is not text") from None
    except (ValueError, RecursionError) as exc:  # JSON and UTF-8 errors are ValueErrors
        raise DataError(f"report is not valid JSON: {getattr(exc, 'msg', exc)}") from None
    rep, prov, curves = _saved_report_parts(data)
    with contextlib.nullcontext() if args.out is None else _Output(args.out, report=False) as out:
        code = _finish(RunReport(rep, curves, prov), out)
    if prov:
        print(f"input_digest: {prov.get('input_digest', '?')}")
        print(f"tool_version: {prov.get('tool_version', '?')}")
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
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
