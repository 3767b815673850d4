"""Golden bytes: seeded CLI runs must reproduce stdout and every output file.

Each case runs ``calcheck`` in-process on seeded simulator output and
compares the sha256 of its stdout, its exit code, and every file it writes
under ``--out`` against values recorded from a known-good build.  A
refactor that changes any decision, number format, or file layout fails
here.
"""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from calcheck import cli
from calcheck.records import MvGaussianBatch

ROBOT_SIM = {"n_particles": 60, "n_steps": 40}
# nine beacons: numpy sums a row of 8 or more pairwise, not in sequence
MANY_BEACONS = {**ROBOT_SIM, "beacon_positions": [[x, y] for y in (0, 5, 10) for x in (0, 5, 10)]}
SWEEP = {"n_particles": 60, "n_steps": 30, "n_seeds": 2}

# name -> argv; "{weather}", "{robot}", "{robot_cfg}", "{many_cfg}", "{sweep}",
# "{saved}", "{mv}", "{cut}", "{bad_first}" and "{out}" are filled in per run.
CASES = {
    "check_default": ["check", "{weather}"],
    "check_holm_tol": ["check", "{weather}", "--sided", "one", "--tolerance", "0.02",
                       "--testing", "binom_holm"],
    "check_bins3": ["check", "{weather}", "--bins", "3", "--out", "{out}"],
    "check_folded_ks": ["check", "{weather}", "--metric", "folded_ks", "--sided", "one",
                        "--tolerance", "0.01", "--out", "{out}"],
    "check_pit_ks": ["check", "{weather}", "--metric", "pit_ks", "--out", "{out}"],
    "check_robot": ["check", "{robot}", "--seed", "1", "--out", "{out}"],
    "monitor_robot": ["monitor", "{robot}", "--seed", "1", "--out", "{out}"],
    "monitor_weather": ["monitor", "{weather}", "--out", "{out}"],
    "simulate_drift_sweep": ["simulate", "drift_sweep", "--config", "{sweep}", "--seed", "0",
                             "--out", "{out}"],
    "report_rerender": ["report", "{saved}", "--out", "{out}"],
    "simulate_robot": ["simulate", "robot", "--seed", "1", "--config", "{robot_cfg}",
                       "--out", "{out}"],
    "simulate_weather": ["simulate", "weather", "--seed", "3", "--out", "{out}"],
    "check_mv": ["check", "{mv}", "--out", "{out}"],
    "monitor_mv": ["monitor", "{mv}", "--out", "{out}"],
    "simulate_robot_many_beacons": ["simulate", "robot", "--seed", "1", "--config", "{many_cfg}",
                                    "--out", "{out}"],
    # check's monitor slot, streamed through run_monitor as monitor streams it
    "check_evalue_monitor": ["check", "{weather}", "--testing", "evalue_monitor", "--lambda", "0.9",
                             "--out", "{out}"],
    # incomplete runs: rows up to a bad line, and none at all
    "monitor_cut": ["monitor", "{cut}", "--out", "{out}"],
    "monitor_bad_first": ["monitor", "{bad_first}", "--out", "{out}"],
}

GOLDEN = {
    "check_bins3": {
        "exit": 0,
        "stdout": "02c319772036a06c4bf96db3cb793da80461b8fb611542ae5e3db3e58a4034a5",
        "coverage_bin0.csv": "a04ccc6b636cab2c6966987a9617ba519309a7081b13af91f528857be4766189",
        "coverage_bin1.csv": "15186196561871d0e20e5e6d55993f0d5761e8797df1ba2d7377abd8d3646e36",
        "coverage_bin2.csv": "346a92ca1288e137a4c242394f611186e4751ddb7cac5290d16cafa0a929327e",
        "report.json": "a14745935e0ba8662f1243556c4632b9a30f1fecd61dade2e0a7b1be729dd0ed",
    },
    "check_default": {
        "exit": 0,
        "stdout": "3ab6087ce5f8b7f24f152520f764ddd4916324c50ba443a7407e4233cbbd310e",
    },
    "check_evalue_monitor": {
        "exit": 0,
        "stdout": "2da45335fb122e0c8932623129da1253b66268fce1e485c89c56ff0f2f576a6d",
        "etrace.csv": "fda8dcde7db9fce1aea9f91dab870d507c0a63889bb98c2e33bb226df30850eb",
        "report.json": "3acb1ef0f712f19c3a0266cb5ca03af4cc756483f60760cb2189858a37df013b",
    },
    "check_folded_ks": {
        "exit": 0,
        "stdout": "999069848bf5f3d38bd6780b8eb47de5de9b142d6a3a35fde7207dc35eb12772",
        "band.csv": "fb0b83ee88b14bcc34b4411ac19faabb5cfb4d0d42343fc5aa3c73ea1b3bd010",
        "ecdf.csv": "4bef755dd880d9ddcc19c275c2f279ec7cf691640c2e5b5400c96ff2686b4951",
        "report.json": "5f520b8a34dd2abf7b440025f489e7a525498543a9d675e271b56b90e1f7793e",
    },
    "check_holm_tol": {
        "exit": 0,
        "stdout": "d5bc7bb88c0cb09b802c224639d6ce58c11362337619133778cd3ab29c1b4d5a",
    },
    "check_pit_ks": {
        "exit": 0,
        "stdout": "9c3a8fc727232b53919cfdebd5b6872756a10a850030282496ca1b997d276689",
        "band.csv": "73346f112668b35d6ecdc310ee3e78992503b62f9880638686f2f05cc1238379",
        "ecdf.csv": "8616415fdaeb6a7e103be53bd34d1bb40c9152844fb8bd62b5a1ba8ac7ea760b",
        "report.json": "5e4f945d03c60cb40069b8be9b1ae4fb4b0355dd56b7d368dcb852cee3739080",
    },
    "check_mv": {
        "exit": 0,
        "stdout": "9edb3a4bb30ec9fc06b9225ff7798b7ae302edae74380ceb88754ac750a6f507",
        "coverage.csv": "539dbd57d7daa5b5914ad4bf021498d7d236772ce2f6f153577c84221509eddc",
        "report.json": "973144fc338655820901f8a9df31335d3a3b959b1c5fca45346896c576a887ca",
    },
    "check_robot": {
        "exit": 0,
        "stdout": "a232d2be0e4b0aa8b0244bdfb2b2b46acb9e2d9c60fe870e6e5814a48fb02fd6",
        "coverage.csv": "60c0205ff96398e97b498dc1cc7f6158edf620f44ae2d83400ca27918047a488",
        "report.json": "93b0e496910c9486cdb51ecac12cf12e7ac9288a31e24945be29d3af158d78ea",
    },
    "monitor_bad_first": {
        "exit": 3,
        "stdout": "c9844f7c06f7e9a0ba1b6d04ae6e203325dc8ec2bdc846ab998a824d9bb1fbbe",
        "etrace.csv": "c2dbd3d46fb63b2197b48bdfed62fea5e41dd81c2472b9e4d450999cbad2f4da",
        "report.json": "eddd654c6cb829c53887ec53de285193ba65507de611e199e08a6758786f1eed",
    },
    "monitor_cut": {
        "exit": 3,
        "stdout": "ddd69dbc771ff751edcc8167f9cce34ca509a4c7f00bd5b2d526170b5ecb3304",
        "etrace.csv": "a2cf3f4cfd224474b414e9948e199ebbae053df12dbbb6afd93cac920e77e4c2",
        "report.json": "8b56b1b10d839349ad53f9e9c2f158e2efeb6ac31f3462a5018289cd6dffcbfb",
    },
    "monitor_mv": {
        "exit": 0,
        "stdout": "1c04881a617000ec605e5cb0b2a0c73e5caacf9614ffbd86bd36abdcedec95b0",
        "etrace.csv": "1ed6d0c2a195f34c27d712365c4a8b9bee4cecaa214c3d00f7bf5d17d234de15",
        "report.json": "9552f4a5d778c20945cf1dd24c3b6bf93a6d2db381d0198cfae807a8f3f6bd2d",
    },
    "monitor_robot": {
        "exit": 0,
        "stdout": "642a51ccafb09e51b43a96fa8fe48ee06de490f98e5e62ca0cac2a15c09f5c99",
        "etrace.csv": "cab9772e219af47d73156dcb6ba2ceffa7d462662c97f8655cda0b7499e676b2",
        "report.json": "8d539a278176a6f5178c6344db2a561ab19446bc0a4970c52643dcea35749aec",
    },
    "monitor_weather": {
        "exit": 0,
        "stdout": "f19f0fcee16551c133ec75475a5ed94c70c79708eccc396de4f333213e6a2890",
        "etrace.csv": "fda8dcde7db9fce1aea9f91dab870d507c0a63889bb98c2e33bb226df30850eb",
        "report.json": "3acb1ef0f712f19c3a0266cb5ca03af4cc756483f60760cb2189858a37df013b",
    },
    "report_rerender": {
        "exit": 0,
        "stdout": "ed1350cffa84d8ea7452c9ae4e015d7c51189429eced124c6825ba6cbae97d76",
        "coverage_bin0.csv": "a04ccc6b636cab2c6966987a9617ba519309a7081b13af91f528857be4766189",
        "coverage_bin1.csv": "15186196561871d0e20e5e6d55993f0d5761e8797df1ba2d7377abd8d3646e36",
        "coverage_bin2.csv": "346a92ca1288e137a4c242394f611186e4751ddb7cac5290d16cafa0a929327e",
    },
    "simulate_drift_sweep": {
        "exit": 0,
        "stdout": "a0338ee76160c7dc0a339440eee5f587232575f4a34306b6d4015ee8a72a4d71",
        "report.json": "c1a84f066c1e46ba4e6af0ee7b7238e562b0ffc2ea68944fbd72a923d9d527bf",
        "sweep_envelope.csv": "e82fb925e1497bc7b238efcda980a5c1b6f9be663a2fce0f560351c7db7f85ea",
        "sweep_summary.csv": "25db7c5ae116fe6f8e11a7c474305258ea4afb2ef3a14eb1133f5357f6b07c7d",
    },
    "simulate_robot": {
        "exit": 0,
        "stdout": "a6b2f30aa4ffd5037ba07e4f4b0b9e52c5fb4a309b9654ad8c728498791f0eb8",
        "report.json": "ce941ed14045c5b531d96cda84c7f98942e77ba007bd03b5626c9ab15cd39a60",
        "robot_records.jsonl": "2cdca3fe83f421c1f7cb9a821f54d1a3ef2aae6011f72b88900c6032b10627b2",
    },
    "simulate_weather": {
        "exit": 0,
        "stdout": "5ab639e0d6ad59adf4bb531d0581a1a72692d999d07428c572ef52a91cda93a7",
        "report.json": "8d17b31706a9808b2d39c55f2ac3ec4859817f859c6a5030c56a6ce4656c3d5c",
        "weather_records.jsonl": "1e7379595075aefb38af0877e2f7d99f8ef190d70d4fc9a377f0db0cd4aac6e9",
    },
    "simulate_robot_many_beacons": {
        "exit": 0,
        "stdout": "a6b2f30aa4ffd5037ba07e4f4b0b9e52c5fb4a309b9654ad8c728498791f0eb8",
        "report.json": "2cfb3d8cbd1f70e0718306d1cdd41a6b2692129731819f4fa7f382e1930100fe",
        "robot_records.jsonl": "e31ca455614b9a1631b65af8fdbb31c59396c71d173d3ac6e7c9c707b56aee1d",
    },
}


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def mv_records(path, seed=7, n=200):
    """Seeded two-dimensional Gaussian forecasts and outcomes drawn from them."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, 2, 2))
    cov = a @ a.transpose(0, 2, 1) + 0.5 * np.eye(2)
    mu = rng.normal(size=(n, 2))
    y = mu + np.einsum("nij,nj->ni", np.linalg.cholesky(cov), rng.standard_normal((n, 2)))
    cli.write_records(MvGaussianBatch(mu, cov, y), path)
    return str(path)


def make_inputs(root):
    """Simulate the input files and save the report that ``report`` re-renders."""
    code, _ = _run(["simulate", "weather", "--seed", "3", "--out", str(root / "weather")])
    assert code == 0
    robot_cfg = root / "robot.json"
    robot_cfg.write_text(json.dumps(ROBOT_SIM))
    many_cfg = root / "many_beacons.json"
    many_cfg.write_text(json.dumps(MANY_BEACONS))
    code, _ = _run(["simulate", "robot", "--seed", "1", "--config", str(robot_cfg),
                    "--out", str(root / "robot")])
    assert code == 0
    sweep_cfg = root / "sweep.json"
    sweep_cfg.write_text(json.dumps(SWEEP))
    weather = (root / "weather" / "weather_records.jsonl").read_text().splitlines(keepends=True)
    cut = root / "cut.jsonl"
    cut.write_text("".join(weather[:200] + ['{"mu": 1.0, "sigma": 2.0,\n'] + weather[200:]))
    bad_first = root / "bad_first.jsonl"
    bad_first.write_text('{"mu": 0.0, "sigma": -1, "y": 0.0}\n' + "".join(weather[:5]))
    saved = root / "saved"
    code, _ = _run(["check", str(root / "weather" / "weather_records.jsonl"),
                    "--bins", "3", "--out", str(saved)])
    assert code == 0
    return {
        "root": root,
        "weather": str(root / "weather" / "weather_records.jsonl"),
        "robot": str(root / "robot" / "robot_records.jsonl"),
        "robot_cfg": str(robot_cfg),
        "many_cfg": str(many_cfg),
        "sweep": str(sweep_cfg),
        "saved": str(saved / "report.json"),
        "mv": mv_records(root / "mv_records.jsonl"),
        "cut": str(cut),
        "bad_first": str(bad_first),
    }


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return make_inputs(tmp_path_factory.mktemp("golden"))


def _digests(name, inputs):
    out = inputs["root"] / "out" / name
    fill = dict(inputs, out=str(out))
    code, stdout = _run([arg.format(**fill) for arg in CASES[name]])
    got = {"exit": code, "stdout": _sha(stdout.encode())}
    if out.is_dir():
        for path in sorted(out.iterdir()):
            got[path.name] = _sha(path.read_bytes())
    return got


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name, inputs):
    assert _digests(name, inputs) == GOLDEN[name]
