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
from calcheck.records import GaussianBatch, MvGaussianBatch

ROBOT_SIM = {"n_particles": 60, "n_steps": 40}
# nine beacons: numpy sums a row of 8 or more pairwise, not in sequence
MANY_BEACONS = {**ROBOT_SIM, "beacon_positions": [[x, y] for y in (0, 5, 10) for x in (0, 5, 10)]}
SWEEP = {"n_particles": 60, "n_steps": 30, "n_seeds": 2}

# name -> argv; "{weather}", "{robot}", "{robot_cfg}", "{many_cfg}", "{sweep}",
# "{saved}", "{mv}", "{cut}", "{bad_first}", "{layouts}" and "{out}" are filled
# in per run.
CASES = {
    "check_default": ["check", "{weather}"],
    "check_holm_tol": ["check", "{weather}", "--sided", "one", "--tolerance", "0.02",
                       "--testing", "binom_holm"],
    "check_bins3": ["check", "{weather}", "--bins", "3", "--out", "{out}"],
    "check_bins3_folded_ks": ["check", "{weather}", "--bins", "3", "--metric", "folded_ks",
                              "--sided", "one", "--tolerance", "0.01", "--out", "{out}"],
    "check_folded_ks": ["check", "{weather}", "--metric", "folded_ks", "--sided", "one",
                        "--tolerance", "0.01", "--out", "{out}"],
    "check_pit_ks": ["check", "{weather}", "--metric", "pit_ks", "--out", "{out}"],
    "check_robot": ["check", "{robot}", "--seed", "1", "--out", "{out}"],
    # a particle PIT: the half-plane check's direction and tie streams
    "check_robot_pit_ks": ["check", "{robot}", "--metric", "pit_ks", "--seed", "1",
                           "--out", "{out}"],
    "check_robot_folded_ks": ["check", "{robot}", "--metric", "folded_ks", "--sided", "one",
                              "--seed", "1", "--out", "{out}"],
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
    # every layout repr gives a float, in the records, the trace and ecdf.csv
    "monitor_layouts": ["monitor", "{layouts}", "--out", "{out}"],
    "check_layouts": ["check", "{layouts}", "--metric", "pit_ks", "--out", "{out}"],
}

GOLDEN = {
    "check_bins3": {
        "exit": 0,
        "stdout": "67a6f36d74c7655af42deac37c7b543bac9672cfff7d05a72a9ed8c568ad043e",
        "coverage_bin0.csv": "30a1e9ab572f00a4393f76c7f677240ae981c8ee7da0de32fbbdfd7799a73ac7",
        "coverage_bin1.csv": "0d42b225f85c62d8b5cfb8d81ae746904a8ba36199a887750415a3a7d37819d1",
        "coverage_bin2.csv": "bc328832ca65fb20f0dc31b4d96820a55ad629ecf4652162fdbe0ee99321c41d",
        "report.json": "7ac3956507cff5cd87fa17b2e859a65d19af4232ccbcf302056f645fc73d9c08",
    },
    "check_bins3_folded_ks": {
        "exit": 0,
        "stdout": "ec09938b7769a6c17d2ee6fcef2a7f37d93cde257e08958a024fe5190705f52a",
        "band_bin0.csv": "5aacafe37d69cab5b9ef9f96374f2d920400249b27d34370055a90c73fa1a739",
        "band_bin1.csv": "5aacafe37d69cab5b9ef9f96374f2d920400249b27d34370055a90c73fa1a739",
        "band_bin2.csv": "a230fcae4d7bb8ec2eef2d1be7c42a8e4bede847d2c4a580244a54f3744b6144",
        "ecdf_bin0.csv": "c3bb312125aa4275cc7d1732e747a848a0b54e5760eea87fca3b593771e47b68",
        "ecdf_bin1.csv": "d2bbde1b4de8f515b67ac31c3455fc64ec4d3d87905a0a8071fd56f5d139a26a",
        "ecdf_bin2.csv": "ac13029e0c74e06f0d81aa23edf146dc413eb542986a3e2e3fd928c16ca92351",
        "report.json": "9487b83499d106f19883a833527ade68b94f0845710fd5ae30d930f01d012809",
    },
    "check_default": {
        "exit": 0,
        "stdout": "dfaba57f407f3e6bbc805bf3be1ea775092c2385324d511f704051d4b7ccb966",
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
        "stdout": "15aa730d245312168bef9d809e1a5eaecddca57ebd4f3cbc9233ff6054b6adfc",
    },
    "check_pit_ks": {
        "exit": 0,
        "stdout": "9c3a8fc727232b53919cfdebd5b6872756a10a850030282496ca1b997d276689",
        "band.csv": "73346f112668b35d6ecdc310ee3e78992503b62f9880638686f2f05cc1238379",
        "ecdf.csv": "8616415fdaeb6a7e103be53bd34d1bb40c9152844fb8bd62b5a1ba8ac7ea760b",
        "report.json": "5e4f945d03c60cb40069b8be9b1ae4fb4b0355dd56b7d368dcb852cee3739080",
    },
    "check_layouts": {
        "exit": 1,
        "stdout": "fc86877fdcb09d14783959ade18ce5f0920a46ab74d16c2ae069dfb4b452ee6f",
        "band.csv": "93dfb8cb7979204ab4cfaa839ac6ae762f34cbae061ab173e115815fd014c542",
        "ecdf.csv": "627b6f226532aeb70ac8f4288dd918430ee878a87caa2ef86c65e68eeeb58e5c",
        "report.json": "389c0cad68ab79012cb4286841223625faacdf41d7adc1b8a86a6ecb4603cec0",
    },
    "check_mv": {
        "exit": 0,
        "stdout": "746d6d25ff992d35b189493765805d598143175c306421cdfbfadd70e7997702",
        "coverage.csv": "8ab801579829256c5fc7dbc0366ca6900e187888a7b9ba16d4243a2c7d4c67a8",
        "report.json": "25a601c1fe9b72d7b37fb5234cdb04d9f4a9563ad4b8ac0589131b5cd340676b",
    },
    "check_robot": {
        "exit": 0,
        "stdout": "a82c1a4f6362c1aac9260ade3848e7843b40e2a2540202997f3305072b17ea79",
        "coverage.csv": "b196b4cb7c4d10551b192921bab9ebed56a41a305f6cdcc72f228f7c43fc3b37",
        "report.json": "56d45788317b150653c31a55a6e77a25a89b51c2e2263a954a06f19ded5403e6",
    },
    "check_robot_folded_ks": {
        "exit": 0,
        "stdout": "24e901aa98aa0a9ea63ee38512d5a7af8072ec8400e6ad00af4690526e28cd16",
        "band.csv": "96d4b38fc104abeaf20e4fa325d8b4a5476d7cfd1458362609acb1435afe9e4b",
        "ecdf.csv": "f516994b96f5c9ef43c5924e594416c811caaa9118e14283d0f8897d42c555ff",
        "report.json": "1df7acaff3ed373d799e238572b67daad0576b2827ff65fdd96eecf5c95ac333",
    },
    "check_robot_pit_ks": {
        "exit": 0,
        "stdout": "695161dd740f013db022757c126d30e93ded09549ca0b0554d8be58ef3bd6b6d",
        "band.csv": "6cc70afc5dea675f53d314ff05692d8886209a3a6283aa1c961153382e4dd1a0",
        "ecdf.csv": "e78bc52c836d242739e0d8cb4161f03b3843e295878e4f59907acc84197acd7e",
        "report.json": "772b98182f1d04714a8f4f72f5442218dd67a1aff3f296b22a6b8842cc2207e3",
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
    "monitor_layouts": {
        "exit": 1,
        "stdout": "4f6f106324df9013a96499e229d920c8dc54436af08cf76fe244caa327d2b277",
        "etrace.csv": "f76d07c19096065aab6638ed15ea683958d661df63fecf0fb9e93081b072e81b",
        "report.json": "54dc66e94088595dfe41ba079ab7e38bd3990abb00430c18a67dbd61b6906f67",
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
        "stdout": "cc85f2504f005846b777919329b396ce8a33cea60cb3bcb8ef051704163fed2c",
        "coverage_bin0.csv": "30a1e9ab572f00a4393f76c7f677240ae981c8ee7da0de32fbbdfd7799a73ac7",
        "coverage_bin1.csv": "0d42b225f85c62d8b5cfb8d81ae746904a8ba36199a887750415a3a7d37819d1",
        "coverage_bin2.csv": "bc328832ca65fb20f0dc31b4d96820a55ad629ecf4652162fdbe0ee99321c41d",
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


def layout_records(path):
    """Gaussian records whose values, PITs and monitor e-values take each
    layout of ``repr``: below 1e-10, in [1e-5, 1e-4) and from 1e16 up, with
    one- to three-digit exponents.  250 covered records take the e-value
    from 1 to about 1e-13, and 100 misses, at z of -7, -4, -4.3 and 9, take
    it up to about 1e17, far from the float range's end."""
    scales = [(3e-11, 2e-11), (-4.5e-5, 6e-5), (2.5e17, 3e16), (7e-5, 1e-5), (-1e-7, 2e-7),
              (1e300, 1e299)]
    mu, sigma = (np.resize(column, 350) for column in zip(*scales))
    z = np.concatenate([np.resize([0.0, 0.3, -0.5], 250), np.resize([-7.0, -4.0, -4.3, 9.0], 100)])
    cli.write_records(GaussianBatch(mu, sigma, mu + z * sigma), path)
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
        "layouts": layout_records(root / "layout_records.jsonl"),
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
