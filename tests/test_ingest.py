"""Block ingest: ``iter_records`` builds one batch per block of lines read.

The differential tests compare it with the reference it replaced, a per-line
parse through ``RecordBatch.from_obj`` joined by ``concat``: the records must
be the same bit for bit, and a bad line must end the input at the same
record with the same error text, in ``parse_records`` and in ``run_monitor``
alike.  The monitor, which advances one batch at a time, must print and save
the same bytes however its input is cut into blocks.
"""

import hashlib
import io
import json
import os
import itertools
import signal
import sys

import numpy as np
import pytest

from calcheck import cli
from calcheck.cli import RecipeConfig, RecordSource, iter_records, parse_records, run_monitor
from calcheck.errors import DataError
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
            obj = json.loads(line.decode())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
    """What a monitor over ``batches`` ends with: its rows, ``t``,
    ``incomplete`` and error, or the error it raises."""
    config = RecipeConfig(model=kind, metric="halfplane" if kind == "particles" else "coverage",
                          testing="evalue_monitor",
                          evalue=EValueConfig(level=0.9, p_alt=0.8, alpha=0.05))
    try:
        run = run_monitor(config, batches)
    except DataError as exc:
        return ("raised", str(exc))
    cfg = run.report.recipe_config
    return run.curves["etrace"][1], cfg["t"], cfg["incomplete"], cfg.get("error")


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
