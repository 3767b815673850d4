"""Block ingest: ``iter_records`` builds one batch per block of lines read.

The differential tests compare it with a per-line reference written from the
rules a record line must meet: a per-line parse, with its own byte-at-a-time
nesting bound, through ``RecordBatch.from_obj`` joined by ``concat``.  The
records must be the same bit for bit, and a bad line must end the input at
the same record with the same error text, in ``parse_records`` and in
``run_monitor`` alike.  The monitor, which advances one batch at a time,
must print and save the same bytes however its input is cut into blocks.
Every line is parsed by orjson; the cases below pin the error text of lines
json and orjson read differently, and of lines nested near the bound.
"""

import gc
import hashlib
import io
import json
import os
import itertools
import signal
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calcheck import cli, records
from calcheck.cli import (
    RecipeConfig,
    RecordSource,
    iter_records,
    parse_records,
    run_check,
    run_monitor,
)
from calcheck.errors import DataError
from calcheck.hyptest import ONE_SIDED, HypothesisSpec
from calcheck.records import FAMILIES
from calcheck.seqtest import EValueConfig


# ---------------------------------------------------------------------------
# the per-line reference
# ---------------------------------------------------------------------------

def per_line(data: bytes, kind: str) -> tuple[list, str | None]:
    """One-record batches of the good lines before the first bad one, and
    that line's error text (None if every line is good)."""
    cls = FAMILIES[kind]
    good, dim = [], None
    for line_no, line in enumerate(data.split(b"\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = loads_line(line)
        except (ValueError, RecursionError) as exc:
            return good, f"line {line_no}: invalid JSON ({getattr(exc, 'msg', exc)})"
        if not isinstance(obj, dict):
            return good, f"line {line_no}: expected an object"
        try:
            batch = cls.from_obj(obj, line_no)
        except DataError as exc:
            return good, str(exc)
        if dim not in (None, batch.dim):
            return good, (f"line {line_no}: outcome dimension {batch.dim} differs "
                          f"from earlier lines ({dim})")
        dim = batch.dim
        good.append(batch)
    return good, None


MAX_DEPTH = 1024  # the deepest nesting a record line may hold
REREAD_DEPTH = 64  # the deepest refused line worded by json's message


def nesting_depth(line: bytes) -> int:
    """The deepest nesting of arrays and objects in ``line`` outside its
    strings, read one byte at a time; an unterminated string runs to the end."""
    depth = deepest = 0
    in_string = escaped = False
    for char in line.decode("latin-1"):
        if escaped:
            escaped = False
        elif in_string:
            escaped, in_string = char == "\\", char != '"'
        elif char == '"':
            in_string = True
        elif char in "[{":
            depth += 1
            deepest = max(deepest, depth)
        elif char in "]}":
            depth -= 1
    return deepest


def loads_line(line: bytes):
    """The value of a record line: ``orjson.loads`` of a line nested at most
    ``MAX_DEPTH`` deep.  A line orjson refuses raises json's error where json
    refuses it too, else one saying it is not RFC 8259 JSON; one nested more
    than ``REREAD_DEPTH`` deep raises orjson's reason."""
    if nesting_depth(line) > MAX_DEPTH:
        raise ValueError(f"nested more than {MAX_DEPTH} deep")
    try:
        return orjson.loads(line)
    except orjson.JSONDecodeError as refusal:
        if nesting_depth(line) > REREAD_DEPTH:
            raise ValueError(refusal.msg) from None
        json.loads(line.decode())
        raise ValueError(f"not RFC 8259 JSON: {refusal.msg}") from None


def by_blocks(path, kind: str) -> tuple[list, str | None]:
    """The batches ``iter_records`` yields, and the error it ends with."""
    got = []
    try:
        for batch in iter_records(path, kind):
            got.append(batch)
    except DataError as exc:
        return got, str(exc)
    return got, None


def same_values(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    return type(a) is type(b) and a == b


def assert_same_records(kind: str, got: list, want: list) -> None:
    """The records of two lists of batches are equal, every float bit for bit."""
    assert sum(map(len, got)) == sum(map(len, want))
    if not want:
        return
    cls = FAMILIES[kind]
    a, b = cls.concat(got), cls.concat(want)
    assert list(vars(a)) == list(vars(b))
    for name, col in vars(b).items():
        other = getattr(a, name)
        if isinstance(col, np.ndarray):
            assert same_values(other, col), name
        else:
            assert len(other) == len(col) and all(map(same_values, other, col)), name


def monitor_outcome(kind: str, batches) -> tuple:
    """What a monitor over ``batches`` ends with: its trace text, ``t``,
    ``incomplete`` and error, or the error it raises."""
    config = RecipeConfig(model=kind, metric="halfplane" if kind == "particles" else "coverage",
                          testing="evalue_monitor",
                          evalue=EValueConfig(level=0.9, p_alt=0.8, alpha=0.05))
    emitted = []
    try:
        run = run_monitor(config, batches, on_row=emitted.append)
    except DataError as exc:
        return ("raised", str(exc))
    cfg = run.report["recipe_config"]
    return "".join(emitted), cfg["t"], cfg["incomplete"], cfg.get("error")


def replay(batches: list, error: str | None):
    yield from batches
    if error is not None:
        raise DataError(error)


# ---------------------------------------------------------------------------
# seeded record lines, good and bad
# ---------------------------------------------------------------------------

def good_obj(rng, kind: str, d: int = 2) -> dict:
    if kind == "gaussian":
        obj = {"mu": float(rng.normal()), "sigma": float(rng.uniform(0.5, 2.0)),
               "y": float(rng.normal())}
    elif kind == "mv_gaussian":
        a = rng.normal(size=(d, d))
        obj = {"mu": rng.normal(size=d).tolist(), "cov": (a @ a.T + np.eye(d)).tolist(),
               "y": rng.normal(size=d).tolist()}
    else:
        w = rng.uniform(0.1, 1.0, size=int(rng.integers(2, 7)))
        obj = {"w": (w / w.sum()).tolist(), "pts": rng.normal(size=(w.size, d)).tolist(),
               "y": rng.normal(size=d).tolist()}
    if rng.random() < 0.5:
        obj["t"] = int(rng.integers(0, 10**6))
    return obj


def bad_line(rng, kind: str, fault: str) -> str:
    """A line that ends the input (or, for the format faults, one that must
    not), for ``fault`` in ``FAULTS``."""
    obj = good_obj(rng, kind)
    if fault == "bad_json":
        return json.dumps(obj)[:-3]
    if fault == "not_object":
        return json.dumps(list(obj.values()))
    if fault == "missing_key":
        del obj[FAMILIES[kind].keys[int(rng.integers(0, 3))]]
    elif fault == "bad_spread":  # sigma <= 0, or its analogue
        if kind == "gaussian":
            obj["sigma"] = -float(rng.uniform(0.0, 1.0))
        elif kind == "mv_gaussian":
            obj["cov"] = [[1.0, 2.0], [2.0, 1.0]]
        else:
            obj["w"] = [-0.5, 1.5] + [0.0] * (len(obj["w"]) - 2)
    elif fault == "wrong_dim":  # an outcome of another dimension than its prediction
        obj["y"] = [1.0, 2.0, 3.0]
    elif fault == "other_dim":  # a whole record of another dimension
        obj = good_obj(rng, kind, d=3) if kind != "gaussian" else {**obj, "y": [obj["y"]] * 3}
    elif fault == "bad_t":
        obj["t"] = [1.5, True, "7"][int(rng.integers(0, 3))]
    elif fault == "blank":
        return " " * int(rng.integers(0, 3))
    return json.dumps(obj)


FAULTS = ("bad_json", "not_object", "missing_key", "bad_spread", "wrong_dim", "other_dim",
          "bad_t", "blank", "crlf", "no_final_newline")


def seeded_file(seed: int, kind: str) -> bytes:
    rng = np.random.default_rng([seed, list(FAMILIES).index(kind)])
    lines = [json.dumps(good_obj(rng, kind)) for _ in range(int(rng.integers(0, 30)))]
    faults = list(rng.choice(FAULTS, size=int(rng.integers(0, 3))))
    ending = "\n"
    for fault in faults:
        at = int(rng.integers(0, len(lines) + 1))
        if fault == "crlf":
            lines[at:at] = [json.dumps(good_obj(rng, kind)) + "\r"]
        elif fault == "no_final_newline":
            ending = ""
        else:
            lines[at:at] = [bad_line(rng, kind, fault)]
    return ("\n".join(lines) + ending if lines else "").encode()


# ---------------------------------------------------------------------------
# differential tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("block", [cli.BLOCK, 97, 1])
@pytest.mark.parametrize("kind", list(FAMILIES))
def test_block_ingest_matches_the_per_line_parse(tmp_path, monkeypatch, kind, block):
    # small blocks put block boundaries inside lines and between every pair
    monkeypatch.setattr(cli, "BLOCK", block)
    path = tmp_path / "records.jsonl"
    for seed in range(40 if block > 1 else 10):
        data = seeded_file(seed, kind)
        path.write_bytes(data)
        want, want_error = per_line(data, kind)
        got, got_error = by_blocks(path, kind)
        assert got_error == want_error, (seed, data)
        assert_same_records(kind, got, want)
        try:
            whole, error = [parse_records(path, kind)], None
        except DataError as exc:
            whole, error = [], str(exc)
        if want_error is None and not want:
            assert error == f"no records in {path}"
        else:
            assert error == want_error
            assert_same_records(kind, whole, want if error is None else [])
        assert (monitor_outcome(kind, iter_records(path, kind))
                == monitor_outcome(kind, replay(want, want_error))), seed


# Every offline recipe: Binomial coverage (half-plane for clouds), the KS
# tests, and variance bins on the families with a scalar uncertainty
CHECK_RECIPES = {
    "bonferroni": dict(testing="binom_bonferroni"),
    "holm_one_sided_tolerance": dict(testing="binom_holm",
                                     hypothesis=HypothesisSpec(ONE_SIDED, 0.02)),
    "pit_ks": dict(metric="pit_ks", testing="ks"),
    "folded_ks_one_sided": dict(metric="folded_ks", testing="ks",
                                hypothesis=HypothesisSpec(ONE_SIDED)),
    "bins3": dict(testing="binom_bonferroni", bins=3),
}


@pytest.mark.parametrize("block", [cli.BLOCK, 97, 1])
@pytest.mark.parametrize("kind", list(FAMILIES))
def test_check_over_blocks_matches_the_check_of_the_joined_batch(tmp_path, monkeypatch, kind,
                                                                 block):
    # run_check scores each block as it is read and keeps one score per
    # record; its report and tables are those of the whole file joined into
    # one batch, however the file is cut into blocks
    monkeypatch.setattr(cli, "BLOCK", block)
    path = tmp_path / "records.jsonl"
    for seed in range(2):
        rng = np.random.default_rng([seed, list(FAMILIES).index(kind)])
        path.write_text("".join(json.dumps(good_obj(rng, kind)) + "\n" for _ in range(40)))
        for name, recipe in CHECK_RECIPES.items():
            if kind == "particles" and "bins" in recipe:
                continue  # a cloud has no scalar uncertainty to bin by
            config = RecipeConfig(model=kind, seed=seed, **recipe)
            got = run_check(config, iter_records(path, kind))
            want = run_check(config, [parse_records(path, kind)])
            assert got.report == want.report, (name, seed)
            assert got.curves.keys() == want.curves.keys()
            for table, (header, columns) in want.curves.items():
                assert got.curves[table][0] == header
                assert all(map(np.array_equal, got.curves[table][1], columns)), (name, table)


def test_file_of_many_blocks_cut_by_a_bad_line(tmp_path):
    rng = np.random.default_rng(7)
    lines = [json.dumps(good_obj(rng, "gaussian")) for _ in range(20_000)]
    lines[15_000] = '{"mu": 0.0, "sigma": 0.0, "y": 1.0}'
    data = ("\n".join(lines) + "\n").encode()
    assert len(data) > 10 * cli.BLOCK
    path = tmp_path / "big.jsonl"
    path.write_bytes(data)
    got, error = by_blocks(path, "gaussian")
    want, want_error = per_line(data, "gaussian")
    assert error == want_error == "line 15001: sigma must be > 0, got 0.0"
    assert 5 < len(got) < 1_000 and sum(map(len, got)) == 15_000
    assert_same_records("gaussian", got, want)


def test_particle_line_longer_than_a_block(tmp_path):
    rng = np.random.default_rng(8)
    short = [json.dumps(good_obj(rng, "particles")) for _ in range(3)]
    w = rng.uniform(0.1, 1.0, size=6_000)
    long = json.dumps({"w": (w / w.sum()).tolist(), "pts": rng.normal(size=(w.size, 2)).tolist(),
                       "y": [0.0, 0.0], "t": 4})
    assert len(long) > 3 * cli.BLOCK
    data = ("\n".join([*short[:2], long, short[2]]) + "\n").encode()
    path = tmp_path / "long.jsonl"
    path.write_bytes(data)
    got, error = by_blocks(path, "particles")
    want, _ = per_line(data, "particles")
    assert error is None and len(want) == 4
    assert_same_records("particles", got, want)
    assert parse_records(path, "particles").w[2].shape == (6_000,)


def test_digest_covers_the_whole_block_a_bad_line_stops(tmp_path):
    data = b'{"mu": 0.0, "sigma": 1.0, "y": 0.5}\nnot json\n{"mu": 0.0, "sigma": 1.0, "y": 0.5}\n'
    path = tmp_path / "cut.jsonl"
    path.write_bytes(data)
    with RecordSource(path) as source:
        with pytest.raises(DataError, match="line 2: invalid JSON"):
            parse_records(source, "gaussian")
    assert source.sha256.hexdigest() == hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# the rules for one line, against the per-line reference
# ---------------------------------------------------------------------------

GOOD = '{"mu": 0.5, "sigma": 1.0, "y": 0.25}'
NOT_RFC_8259 = "line 2: invalid JSON (not RFC 8259 JSON: "
UNEXPECTED = NOT_RFC_8259 + "unexpected character)"
TOO_DEEP = "line 2: invalid JSON (nested more than 1024 deep)"

# each line between two good ones, and the error iter_records must end with
LINE_CASES = {
    "plain": (GOOD, None),
    "trailing_data": (GOOD + ' {"a": 1}', "line 2: invalid JSON (Extra data)"),
    "trailing_garbage": (GOOD + "x", "line 2: invalid JSON (Extra data)"),
    "truncated": (GOOD[:-3], "line 2: invalid JSON (Expecting ',' delimiter)"),
    "bom": ("\ufeff" + GOOD,
            "line 2: invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))"),
    "form_feed_before": ("\x0c" + GOOD, "line 2: invalid JSON (Expecting value)"),
    "form_feed_after": (GOOD + "\x0c", "line 2: invalid JSON (Extra data)"),
    "vertical_tab_before": ("\x0b" + GOOD, "line 2: invalid JSON (Expecting value)"),
    "vertical_tab_after": (GOOD + "\x0b", "line 2: invalid JSON (Extra data)"),
    "no_break_space_before": ("\u00a0" + GOOD, "line 2: invalid JSON (Expecting value)"),
    "next_line_after": (GOOD + "\x85", "line 2: invalid JSON (Extra data)"),
    "only_form_feed": ("\x0c", None),  # blank to bytes.strip(): skipped
    "json_whitespace_around": (" \t " + GOOD + "\t \r", None),
    "crlf": (GOOD + "\r", None),
    "invalid_utf8": (b'{"mu": 0.5, "sigma": 1.0, "y": 0.25, "n": "\xff"}',
                     "line 2: invalid JSON ('utf-8' codec can't decode byte 0xff in "
                     "position 43: invalid start byte)"),
    "top_level_list": ("[0.5, 1.0, 0.25]", "line 2: expected an object"),
    "top_level_number": ("0.5", "line 2: expected an object"),
    "long_integer": ('{"mu": ' + "7" * 5_000 + ', "sigma": 1.0, "y": 0.25}',
                     "line 2: invalid JSON (Exceeds the limit (4300 digits) for integer string "
                     "conversion: value has 5000 digits; use sys.set_int_max_str_digits() to "
                     "increase the limit)"),
    # json reads these, RFC 8259 and I-JSON do not: under a key the family
    # does not read too
    "nan_in_an_unread_key": (GOOD[:-1] + ', "note": NaN}', UNEXPECTED),
    "nan_in_y": ('{"mu": 0.5, "sigma": 1.0, "y": NaN}', UNEXPECTED),
    "infinity_constant": ('{"mu": 0.5, "sigma": Infinity, "y": -Infinity}', UNEXPECTED),
    "beyond_the_float_range": ('{"mu": 0.5, "sigma": 1e400, "y": 0.25}',
                               NOT_RFC_8259 + "number is infinity when parsed as double)"),
    "lone_surrogate": (GOOD[:-1] + ', "station": "\\ud800"}',
                       NOT_RFC_8259 + "no matched low surrogate in string)"),
    # orjson reads an integer beyond 64 bits as its correctly rounded float
    "t_beyond_64_bits": (GOOD[:-1] + ', "t": 18446744073709551616}',
                         "line 2: time index must be a 64-bit integer or null, "
                         "got 1.8446744073709552e+19"),
    "t_at_the_64_bit_limit": (GOOD[:-1] + ', "t": 18446744073709551615}', None),
    "mu_beyond_64_bits": ('{"mu": 123456789012345678901234567890, "sigma": 1.0, "y": 0.25}', None),
    "scalar_extra_key": (GOOD[:-1] + ', "station": "x"}', None),
    "container_extra_key": (GOOD[:-1] + ', "meta": {"a": [1, {"b": null}]}}', None),
    "duplicate_key": ('{"mu": 0.5, "sigma": -1.0, "y": 0.25, "sigma": 2.0}', None),
    # the nesting bound; the record's object is the first level
    "deep_nesting": ("[" * 100_000 + "]" * 100_000, TOO_DEEP),
    "deep_in_a_record": (GOOD[:-1] + ', "n": ' + '{"a": ' * 100_000 + "1" + "}" * 100_001,
                         TOO_DEEP),
    "as_deep_as_the_bound": (GOOD[:-1] + ', "n": ' + "[" * 1_023 + "]" * 1_023 + "}", None),
    "one_deeper_than_the_bound": (GOOD[:-1] + ', "n": ' + "[" * 1_024 + "]" * 1_024 + "}",
                                  TOO_DEEP),
    "deep_outcome": ('{"mu": 0.5, "sigma": 1.0, "y": ' + "[" * 1_020 + "0" + "]" * 1_020 + "}",
                     "line 2: setting an array element with a sequence. The requested array "
                     "would exceed the maximum number of dimension of 64."),
    # a refused line is worded by json's message up to REREAD_DEPTH deep,
    # and by orjson's reason beyond it
    "refused_at_the_reread_depth": (GOOD[:-1] + ', "n": ' + "[" * 63 + "0",
                                    "line 2: invalid JSON (Expecting ',' delimiter)"),
    "refused_beyond_the_reread_depth": (GOOD[:-1] + ', "n": ' + "[" * 64 + "0",
                                        "line 2: invalid JSON (unexpected end of data)"),
    "many_shallow_brackets": (GOOD[:-1] + ', "n": [' + "[], " * 1_100 + "[]]}", None),
    "brackets_in_strings": (GOOD[:-1] + ', "n": ["\\"' + "[" * 1_100 + '", "{' + "{" * 1_100
                            + '"]}', None),
    "brackets_after_an_unterminated_string": (GOOD[:-1] + ', "n": "' + "[" * 1_100,
                                              "line 2: invalid JSON (Unterminated string "
                                              "starting at)"),
}


def as_bytes(line: str | bytes) -> bytes:
    return line if isinstance(line, bytes) else line.encode("utf-8", "surrogatepass")


def assert_block_matches_the_reference(path, line: bytes) -> str | None:
    """``iter_records`` over ``line`` between two good ones stops where and
    as the per-line reference does; returns that error."""
    assert b"\n" not in line
    data = b"\n".join([GOOD.encode(), line, GOOD.encode(), b""])
    path.write_bytes(data)
    got, error = by_blocks(path, "gaussian")
    want, want_error = per_line(data, "gaussian")
    assert error == want_error
    assert_same_records("gaussian", got, want)
    return error


@pytest.mark.parametrize("line, error", LINE_CASES.values(), ids=LINE_CASES)
def test_line_rules(tmp_path, line, error):
    assert assert_block_matches_the_reference(tmp_path / "r.jsonl", as_bytes(line)) == error


keys = st.sampled_from(["mu", "sigma", "y", "t", "n", ""]) | st.text(max_size=4)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(keys, inner, max_size=5),
    max_leaves=12,
)
# JSON's whitespace, whitespace that only str.strip() or bytes.strip() knows, a BOM
pads = st.text(alphabet=" \t\r\x0b\x0c\x1c\x85\u00a0\u2028\ufeff", max_size=3)


@st.composite
def text_lines(draw) -> bytes:
    text = json.dumps(draw(json_values), ensure_ascii=draw(st.booleans()))
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text)))]
    text = draw(pads) + text + draw(pads) + draw(st.sampled_from(["", "x", "0", "{}", ",", "]"]))
    return text.encode("utf-8", "surrogatepass")  # a lone surrogate is invalid UTF-8


@st.composite
def byte_lines(draw) -> bytes:
    """Raw bytes, or a record line with a few bytes overwritten."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=24)).replace(b"\n", b"")
    line = bytearray(GOOD.encode())
    for _ in range(draw(st.integers(1, 3))):
        line[draw(st.integers(0, len(line) - 1))] = draw(st.integers(0, 255))
    return bytes(line).replace(b"\n", b"")


@settings(max_examples=300, deadline=None)
@given(st.one_of(text_lines(), byte_lines()))
def test_line_rules_on_any_line(tmp_path_factory, line):
    assert_block_matches_the_reference(tmp_path_factory.getbasetemp() / "scan.jsonl", line)


def test_integers_beyond_64_bits_read_as_their_floats(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text('{"mu": 123456789012345678901234567890, "sigma": 1.0, "y": 0.25, '
                    '"t": 18446744073709551615}\n')
    (batch,) = iter_records(path, "gaussian")
    assert batch.t == [2**64 - 1] and type(batch.t[0]) is int
    assert batch.mu.tolist() == [float(123456789012345678901234567890)]


def cloud_line(rng, m: int, t: int) -> str:
    w = np.exp(0.5 * rng.standard_normal(m))
    return json.dumps({"w": (w / w.sum()).tolist(), "pts": rng.normal(5.0, 0.3, (m, 2)).tolist(),
                       "y": rng.normal(5.0, 0.3, 2).tolist(), "t": t})


def test_cloud_of_more_brackets_than_the_bound_is_scanned_and_read(tmp_path):
    # a 1,100-particle cloud holds more "[" than the nesting bound, so the
    # string-aware scan measures its depth, 3, before orjson reads it
    rng = np.random.default_rng(10)
    long = cloud_line(rng, 1_100, 1).encode()
    assert long.count(b"[") > cli.MAX_DEPTH
    data = b"\n".join([cloud_line(rng, 5, 0).encode(), long, b""])
    path = tmp_path / "clouds.jsonl"
    path.write_bytes(data)
    with mock.patch.object(cli, "_STRING", wraps=cli._STRING) as scan:
        got, error = by_blocks(path, "particles")
    assert scan.sub.call_args_list == [mock.call(b"", long)]
    want, _ = per_line(data, "particles")
    assert error is None and [p.shape for p in FAMILIES["particles"].concat(got).pts] == [
        (5, 2), (1_100, 2)]
    assert_same_records("particles", got, want)


def test_benchmark_line_shapes_skip_the_string_scan(tmp_path):
    # the shapes of the benchmark's inputs: Gaussians with a time index, too
    # short to nest past the bound, and 500-particle clouds, which hold 504
    # brackets a line; no line of either is scanned for strings or re-read
    rng = np.random.default_rng(11)
    gaussian = [json.dumps({"mu": float(m), "sigma": 3.1, "y": float(m) + 0.5, "t": i})
                for i, m in enumerate(rng.normal(16.9, 8.0, 3_000))]
    clouds = [cloud_line(rng, 500, i) for i in range(20)]
    for kind, lines in (("gaussian", gaussian), ("particles", clouds)):
        data = ("\n".join(lines) + "\n").encode()
        path = tmp_path / f"{kind}.jsonl"
        path.write_bytes(data)
        want, _ = per_line(data, kind)
        with (mock.patch.object(cli, "_STRING") as scan,
              mock.patch.object(cli, "_refusal") as refusal):
            got = list(iter_records(path, kind))
        assert not scan.mock_calls and not refusal.mock_calls
        assert len(got) > 1
        assert_same_records(kind, got, want)


# JSON number texts where orjson and json differ, or could
ODD_NUMBERS = [
    "18446744073709551616", "-9223372036854775809", "123456789012345678901234567890",
    str(2**1024 - 2**970 - 1),  # the largest integer below float overflow
    str(2**1024 - 2**970), "1e400", "-1e400", "NaN", "Infinity", "-Infinity",
    "18446744073709551615", "-9223372036854775808", "-0", "-0.0", "1e-400", "-1e-400",
    "2.4703282292062328e-324", "0.1000000000000000055511151231257827021181583404541015625",
    "[" * 1_020 + "0" + "]" * 1_020, "[" * 1_100 + "0" + "]" * 1_100,
]
EXTRA_VALUES = [
    '"x"', '"\\ud800"', '"\\u00e9\\n"', "true", "null", "7", "NaN", "18446744073709551616",
    '{"a": 1}', "[1, 2]", "[NaN]", "[]", '{"n": 123456789012345678901234567890}',
    "[" * 1_020 + "]" * 1_020,
]


@st.composite
def number_texts(draw, positive: bool = False) -> str:
    x = draw(st.floats(0.1, 10.0) if positive else st.floats(-1e6, 1e6))
    return draw(st.sampled_from([repr(x), f"{x:.25g}", f"{x:.3e}"]))


@st.composite
def record_lines(draw, kind: str, d: int) -> str:
    """A record line of ``kind`` and outcome dimension ``d``, perhaps with a
    number or key that orjson reads differently, or a fault."""
    number = number_texts()
    if kind == "gaussian":
        fields = {"mu": draw(number), "sigma": draw(number_texts(True)), "y": draw(number)}
    elif kind == "mv_gaussian":
        zero = st.sampled_from(["0", "0.0", "-0.0"])
        fields = {"mu": [draw(number) for _ in range(d)],
                  "cov": [[draw(number_texts(True)) if i == j else draw(zero) for j in range(d)]
                          for i in range(d)],
                  "y": [draw(number) for _ in range(d)]}
    else:
        w = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=2, max_size=4)))
        fields = {"w": list(map(repr, (w / w.sum()).tolist())),
                  "pts": [[draw(number) for _ in range(d)] for _ in w], "y": [draw(number)] * d}
    if draw(st.booleans()):
        fields["t"] = draw(st.sampled_from([str(draw(st.integers(0, 2**70))), "1.5", "true"]))
    faults = draw(st.lists(st.sampled_from(["odd_number", "odd_t", "extra", "duplicate", "bom",
                                            "not_object", "truncated", "blank"]), max_size=2))
    for fault in faults:
        if fault == "odd_number":  # one leaf of the family's columns
            holder, at = fields, draw(st.sampled_from(FAMILIES[kind].keys))
            while isinstance(holder[at], list):
                holder, at = holder[at], draw(st.integers(0, len(holder[at]) - 1))
            holder[at] = draw(st.sampled_from(ODD_NUMBERS))
        elif fault == "odd_t":
            fields["t"] = draw(st.sampled_from(ODD_NUMBERS))
        elif fault == "extra":
            fields[draw(st.sampled_from(["station", "meta", ""]))] = draw(
                st.sampled_from(EXTRA_VALUES))
    keys = draw(st.permutations(list(fields)))
    line = ", ".join(f"{json.dumps(key)}: {text(fields[key])}" for key in keys)
    if "duplicate" in faults:  # json and orjson both keep the last value
        line = f'{json.dumps(draw(st.sampled_from(FAMILIES[kind].keys)))}: "first", ' + line
    line = "[" + line.replace(": ", ", ") + "]" if "not_object" in faults else "{" + line + "}"
    if "truncated" in faults:
        line = line[:draw(st.integers(0, len(line) - 1))]
    if "bom" in faults:
        line = "\ufeff" + line
    return " " * draw(st.integers(0, 2)) if "blank" in faults else line


def text(value) -> str:
    return value if isinstance(value, str) else "[" + ", ".join(map(text, value)) + "]"


@st.composite
def record_files(draw) -> tuple[str, bytes]:
    kind = draw(st.sampled_from(list(FAMILIES)))
    d = 1 if kind == "gaussian" else draw(st.integers(1, 2))
    lines = draw(st.lists(record_lines(kind, d), max_size=8))
    ending = draw(st.sampled_from(["\n", "\r\n", ""]))
    return kind, ("".join(line + ending for line in lines)).encode("utf-8", "surrogatepass")


@settings(max_examples=200, deadline=None)
@given(record_files(), st.sampled_from([1 << 16, 61]))
def test_orjson_blocks_match_the_per_line_parse_on_odd_records(tmp_path_factory, file, block):
    kind, data = file
    path = tmp_path_factory.getbasetemp() / "odd.jsonl"
    path.write_bytes(data)
    want, want_error = per_line(data, kind)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "BLOCK", block)
        got, error = by_blocks(path, kind)
    assert error == want_error
    assert_same_records(kind, got, want)


@pytest.mark.parametrize("command", ["check", "monitor"])
@pytest.mark.parametrize("deep", [
    '{"mu": 0.5, "sigma": 1.0, "y": 0.25, "n": ' + '{"a": ' * 100_000 + "1" + "}" * 100_001,
    "[" * 1_000_000 + "]" * 1_000_000,
], ids=["object_in_an_extra_key", "array"])
def test_deep_line_is_a_data_error_not_a_crash(tmp_path, command, deep):
    # orjson overflows the C stack on such a line; in a subprocess, a crash
    # fails this test instead of ending pytest
    path = tmp_path / "deep.jsonl"
    path.write_text("\n".join([GOOD, deep, GOOD, ""]))
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "calcheck.cli", command, str(path)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=120)
    assert proc.returncode == 3, proc
    assert proc.stderr == "data error: line 2: invalid JSON (nested more than 1024 deep)\n"
    assert proc.stderr.count("\n") == 1, proc.stderr


# ---------------------------------------------------------------------------
# a live stream
# ---------------------------------------------------------------------------

def test_live_pipe_yields_a_record_before_the_writer_closes(monkeypatch):
    # read1 returns what the pipe holds; a read(n) or readlines(hint) would
    # wait for n bytes or the end of the stream, and the alarm would fire
    read_fd, write_fd = os.pipe()
    stdin = os.fdopen(read_fd, "r")
    monkeypatch.setattr(sys, "stdin", stdin)

    def timed_out(signum, frame):
        raise TimeoutError("no record before the writer closed")

    previous = signal.signal(signal.SIGALRM, timed_out)
    records = iter_records(RecordSource("-"), "gaussian")
    try:
        os.write(write_fd, b'{"mu": 0.0, "sigma": 1.0, "y": 0.5, "t": 1}\n')
        signal.alarm(5)
        batch = next(records)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        records.close()
        os.close(write_fd)
        stdin.close()
    assert len(batch) == 1 and batch.t == [1]


class OddSizedReads(io.RawIOBase):
    """The bytes of ``data`` in reads of 1 to 7,919 bytes, as a pipe hands
    small writes to a reader that keeps up with them."""

    def __init__(self, data: bytes):
        self.data, self.at = data, 0
        self.sizes = itertools.cycle((1, 7, 61, 509, 4093, 7919, 3))

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = min(len(buffer), next(self.sizes), len(self.data) - self.at)
        buffer[:n] = self.data[self.at:self.at + n]
        self.at += n
        return n


def odd_sized_stdin(monkeypatch, data: bytes) -> None:
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BufferedReader(OddSizedReads(data))))


def first_difference(a: str, b: str):
    """The first line where two outputs differ, as (index, line of a, line
    of b), or None; a cheaper report than a full diff of long outputs."""
    pairs = enumerate(itertools.zip_longest(a.splitlines(), b.splitlines()))
    return next(((i, x, y) for i, (x, y) in pairs if x != y), None)


@pytest.mark.parametrize("kind, n", [("gaussian", 3_000), ("particles", 400)])
def test_monitor_carries_its_state_across_blocks_and_reads(tmp_path, monkeypatch, capsys,
                                                           kind, n):
    # a file read in 64 KiB blocks and the same bytes through stdin in small
    # odd-sized reads cut the stream into different batches: the martingale,
    # its alarm and the half-plane direction stream carry across every cut
    rng = np.random.default_rng(9)
    objs = [good_obj(rng, kind) for _ in range(n)]
    for obj in objs[n // 3:]:  # a drifting tail, so the monitor alarms mid-stream
        obj["y"] = (np.asarray(obj["y"]) + 1.0).tolist()
    data = "".join(json.dumps(obj) + "\n" for obj in objs).encode()
    assert len(data) > 2 * cli.BLOCK
    path = tmp_path / "records.jsonl"
    path.write_bytes(data)
    odd_sized_stdin(monkeypatch, data)
    n_file, n_pipe = len(list(iter_records(path, kind))), len(list(iter_records("-", kind)))
    assert 2 < n_file and 10 * n_file < n_pipe
    assert cli.main(["monitor", str(path), "--seed", "5", "--out", str(tmp_path / "file")]) == 1
    by_file = capsys.readouterr()
    odd_sized_stdin(monkeypatch, data)
    assert cli.main(["monitor", "-", "--seed", "5", "--out", str(tmp_path / "pipe")]) == 1
    by_pipe = capsys.readouterr()
    assert by_pipe.err == by_file.err == ""
    assert first_difference(by_pipe.out, by_file.out) is None
    assert by_file.out.count("\n") > n
    for name in ("etrace.csv", "report.json"):
        pipe, file = ((tmp_path / d / name).read_text() for d in ("pipe", "file"))
        assert first_difference(pipe, file) is None, name


# ---------------------------------------------------------------------------
# cloud points read by fromiter, and the collector paused per block
# ---------------------------------------------------------------------------

# point cells as a record line may hold them, numbers or not
POINT_CELLS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.just("1.5"),
                        st.booleans(), st.none(), st.integers(2**53 - 3, 2**53 + 3),
                        st.integers(-2**70, 2**70), st.just(10**400))


@st.composite
def cloud_points(draw):
    """A cloud's ``pts`` value: equal-length point lists, ragged ones, a
    flat list, an object, a string, or point lists mixed with strings."""
    m = draw(st.integers(0, 4))
    shape = draw(st.sampled_from(["equal", "ragged", "flat", "object", "string", "mixed"]))
    if shape == "equal":
        d = draw(st.integers(0, 3))
        return [draw(st.lists(POINT_CELLS, min_size=d, max_size=d)) for _ in range(m)]
    if shape == "ragged":
        return [draw(st.lists(POINT_CELLS, max_size=3)) for _ in range(m)]
    if shape == "flat":
        return draw(st.lists(POINT_CELLS, min_size=m, max_size=m))
    if shape == "object":
        return draw(st.dictionaries(st.text("12", max_size=2), POINT_CELLS, max_size=m))
    if shape == "string":
        return draw(st.text("12.", max_size=m))
    # a string or object with a point list's length, which a flattening
    # of the value would read as that many cells
    return [[1.0, 2.0], draw(st.sampled_from(["12", {"1": 0, "2": 0}]))] * max(m // 2, 1)


@st.composite
def cloud_lines(draw) -> bytes:
    lines = []
    for _ in range(draw(st.integers(1, 3))):
        pts = draw(cloud_points())
        m = len(pts) if draw(st.booleans()) else draw(st.integers(0, 4))
        first = pts[0] if isinstance(pts, list) and pts else None
        d = len(first) if isinstance(first, list) else 1
        lines.append(json.dumps({"w": [1.0 / m] * m if m else [], "pts": pts, "y": [0.5] * d}))
    return ("\n".join(lines) + "\n").encode()


@settings(max_examples=200, deadline=None)
@given(cloud_lines())
def test_cloud_points_are_the_floats_asarray_reads(tmp_path_factory, data):
    # points read by fromiter are bit for bit those np.asarray reads, and a
    # cloud it refuses ends the input with asarray's error text
    path = tmp_path_factory.mktemp("clouds") / "clouds.jsonl"
    path.write_bytes(data)
    got, error = by_blocks(path, "particles")
    with mock.patch.object(records, "_points", lambda pts: np.asarray(pts, dtype=float)):
        want, want_error = by_blocks(path, "particles")
    assert error == want_error
    assert_same_records("particles", got, want)


def test_benchmark_cloud_points_are_read_by_fromiter(tmp_path):
    rng = np.random.default_rng(12)
    path = tmp_path / "clouds.jsonl"
    path.write_text("".join(cloud_line(rng, 500, i) + "\n" for i in range(5)))
    with mock.patch.object(records.np, "fromiter", wraps=np.fromiter) as fromiter:
        batch = parse_records(path, "particles")
    assert fromiter.call_count == 5 and [p.shape for p in batch.pts] == [(500, 2)] * 5


@pytest.mark.parametrize("enabled", [True, False])
def test_iter_records_leaves_the_collector_as_it_found_it(tmp_path, enabled):
    # the collector is paused while a block is parsed and built, never
    # while the caller holds a batch, and is left as it was however the
    # input ends: a bad line, or a block whose parse raises
    rng = np.random.default_rng(13)
    lines = [cloud_line(rng, 5, i) for i in range(300)]
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    good.write_text("\n".join(lines) + "\n")
    bad.write_text("\n".join(lines + ["{"]) + "\n")
    parse = cli._parse_lines
    seen = []

    def noting(block, line_no):
        seen.append(gc.isenabled())
        return parse(block, line_no)

    def failing(block, line_no):
        raise MemoryError

    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        with mock.patch.object(cli, "BLOCK", 4096), mock.patch.object(cli, "_parse_lines", noting):
            held = [gc.isenabled() for _ in iter_records(good, "particles")]
        assert len(held) > 2 and held == [enabled] * len(held) and not any(seen)
        with pytest.raises(DataError, match="invalid JSON"):
            list(iter_records(bad, "particles"))
        assert gc.isenabled() == enabled
        with mock.patch.object(cli, "_parse_lines", failing), pytest.raises(MemoryError):
            list(iter_records(good, "particles"))
        assert gc.isenabled() == enabled
    finally:
        gc.enable() if was else gc.disable()
